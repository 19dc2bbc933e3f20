// Reproduces paper Table 3 (top): runtimes of the ten snapshot queries
// over the employees dataset, comparing
//  * Seq      -- our rewriting with native coalescing,
//  * Seq-winC -- our rewriting with the SQL-style (window function)
//                coalescing, modelling what the middleware achieves on
//                a stock DBMS (PG-Seq / DBX-Seq / DBY-Seq),
//  * Nat      -- the alignment baseline (PG-Nat-like) plus a final
//                coalescing pass (as in the paper's methodology); its
//                buggy queries are flagged in the Bug column.
//
// Expected shapes (paper Sec. 10.3): joins comparable across systems;
// aggregations orders of magnitude faster for Seq thanks to
// pre-aggregation (except tiny inputs, agg-3); Nat competitive on
// diff-1, slower on diff-2; Nat "TO" rows mirror the paper's timeouts
// (here: split fragment budget exceeded).
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "datagen/employees.h"
#include "datagen/workloads.h"
#include "engine/temporal_ops.h"

namespace periodk {
namespace {

constexpr int64_t kSplitBudget = 30'000'000;


/// Runs the query; returns median seconds, or -1 on budget timeout.
double TimeQuery(const TemporalDB& db, const std::string& sql,
                 const RewriteOptions& options, bool coalesce_result,
                 size_t* rows_out, int repeats) {
  try {
    double t = bench::TimeMedian(
        [&] {
          SplitBudgetScope budget(kSplitBudget);
          auto result = db.Query(sql, options);
          if (!result.ok()) {
            std::fprintf(stderr, "query failed: %s\n",
                         result.status().ToString().c_str());
            std::exit(1);
          }
          Relation relation = std::move(result.value());
          if (coalesce_result) relation = CoalesceNative(relation);
          *rows_out = relation.size();
        },
        repeats);
    return t;
  } catch (const SplitBudgetExceeded&) {
    return -1.0;
  }
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int n_employees = bench::EnvInt("PERIODK_BENCH_EMPLOYEES", 1000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  EmployeesConfig config;
  config.num_employees = n_employees;
  TemporalDB db(config.domain);
  Status status = LoadEmployees(&db, config);
  if (!status.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n", status.ToString().c_str());
    return 1;
  }

  bench::PrintBanner(
      "Table 3 (top) -- snapshot query runtimes, employees dataset",
      "Seconds, median of " + std::to_string(repeats) + " runs; " +
          std::to_string(n_employees) + " employees, " +
          std::to_string(db.catalog().Get("salaries").size()) +
          " salary rows.  TO = split fragment budget exceeded "
          "(paper: TO (2h)).  Scale via PERIODK_BENCH_EMPLOYEES.");

  RewriteOptions seq;  // defaults: ours
  RewriteOptions seq_win;
  seq_win.coalesce_impl = CoalesceImpl::kWindow;
  RewriteOptions nat;
  nat.semantics = SnapshotSemantics::kAlignment;

  bench::TablePrinter table(
      {"Query", "Seq", "Seq-winC", "Nat", "Rows(Seq)", "Bug(Nat)"},
      {10, 12, 12, 12, 12, 8});
  table.PrintHeader();
  for (const WorkloadQuery& q : EmployeeWorkload()) {
    size_t rows = 0, nat_rows = 0;
    double t_seq = TimeQuery(db, q.sql, seq, false, &rows, repeats);
    double t_win = TimeQuery(db, q.sql, seq_win, false, &rows, repeats);
    double t_nat =
        TimeQuery(db, q.sql, nat, /*coalesce_result=*/true, &nat_rows,
                  repeats);
    table.PrintRow({q.name, bench::TablePrinter::Seconds(t_seq),
                    bench::TablePrinter::Seconds(t_win),
                    t_nat < 0 ? "TO" : bench::TablePrinter::Seconds(t_nat),
                    std::to_string(rows), q.bug.empty() ? "-" : q.bug});
  }
  std::printf(
      "\nReading guide: Seq vs Seq-winC isolates the coalescing\n"
      "implementation; Seq vs Nat isolates the rewriting (pre-aggregated\n"
      "split vs align-then-aggregate).  On queries flagged AG/BD the Nat\n"
      "column also returns *incorrect* results (see bench_bug_matrix).\n");
  return 0;
}
