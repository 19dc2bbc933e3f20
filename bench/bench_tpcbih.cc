// Reproduces paper Table 3 (bottom): TPC-H queries under snapshot
// semantics over the valid-time TPC-BiH dataset at two scale factors
// (the paper uses SF1 and SF10; we use two synthetic scales with the
// same 10x ratio).
//
// Expected shapes (paper Sec. 10.4): Seq scales roughly linearly with
// the scale factor; Nat (alignment) is one to three orders of magnitude
// slower on these aggregation-heavy queries and times out on the
// largest ones (paper: PG-Nat TO (2h) on Q1/Q9 at SF10).
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "datagen/tpcbih.h"
#include "datagen/workloads.h"
#include "engine/temporal_ops.h"

namespace periodk {
namespace {

constexpr int64_t kSplitBudget = 30'000'000;



double TimeQuery(const TemporalDB& db, const std::string& sql,
                 const RewriteOptions& options, bool coalesce_result,
                 size_t* rows_out, int repeats) {
  try {
    return bench::TimeMedian(
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
  } catch (const SplitBudgetExceeded&) {
    return -1.0;
  }
}

void RunScale(double sf, int repeats) {
  TpcBihConfig config;
  config.scale_factor = sf;
  TemporalDB db(config.domain);
  Status status = LoadTpcBih(&db, config);
  if (!status.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::printf("\nTPC-BiH, SF %.4g: %zu lineitem / %zu orders rows\n", sf,
              db.catalog().Get("lineitem").size(),
              db.catalog().Get("orders").size());
  RewriteOptions seq;
  RewriteOptions nat;
  nat.semantics = SnapshotSemantics::kAlignment;
  bench::TablePrinter table({"Query", "Seq", "Nat", "Rows(Seq)", "Bug(Nat)"},
                            {10, 12, 12, 12, 8});
  table.PrintHeader();
  for (const WorkloadQuery& q : TpcBihWorkload()) {
    size_t rows = 0, nat_rows = 0;
    double t_seq = TimeQuery(db, q.sql, seq, false, &rows, repeats);
    double t_nat = TimeQuery(db, q.sql, nat, true, &nat_rows, repeats);
    table.PrintRow({q.name, bench::TablePrinter::Seconds(t_seq),
                    t_nat < 0 ? "TO" : bench::TablePrinter::Seconds(t_nat),
                    std::to_string(rows), q.bug.empty() ? "-" : q.bug});
  }
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  double sf_small = bench::EnvDouble("PERIODK_BENCH_SF_SMALL", 0.002);
  double sf_large = bench::EnvDouble("PERIODK_BENCH_SF_LARGE", 0.02);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);
  bench::PrintBanner(
      "Table 3 (bottom) -- TPC-H under snapshot semantics (TPC-BiH)",
      "Seconds, median of " + std::to_string(repeats) +
          " runs.  TO = split fragment budget exceeded (paper: TO (2h)).\n"
          "Scale via PERIODK_BENCH_SF_SMALL / PERIODK_BENCH_SF_LARGE.");
  RunScale(sf_small, repeats);
  RunScale(sf_large, repeats);
  return 0;
}
