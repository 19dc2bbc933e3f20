// DAG-aware execution: REWR emits plans that reference shared subplans
// several times (snapshot DISTINCT splits a query against itself,
// snapshot EXCEPT ALL uses each rewritten input in both splits), so the
// executor's per-run memo turns what used to be exponential tree
// expansion for nested DISTINCT/EXCEPT chains into one execution per
// unique node; the no-memo reference runs each plan's tree expansion
// (tests/tree_expansion.h).  The third workload measures the middleware
// serving path: repeated Query() calls served from the bound-plan cache
// vs. the same statement made distinct per call (a numbered trailing
// comment), so every call misses and plans from scratch.  Record
// medians into BENCH_dag_exec.json per docs/benchmarks.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "middleware/temporal_db.h"
#include "ra/plan.h"
#include "rewrite/rewriter.h"
#include "tests/tree_expansion.h"

namespace periodk {
namespace {


constexpr TimePoint kDomainEnd = 2000;

Schema SnapshotSchema() { return Schema::FromNames({"k", "v"}); }

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

// Few distinct values so DISTINCT/EXCEPT have duplicates to chew on.
Relation MakeTable(Rng* rng, int rows) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 51);
    TimePoint e = b + rng->Range(1, 50);
    rel.AddRow({Value::Int(rng->Range(0, 20)), Value::Int(rng->Range(0, 5)),
                Value::Int(b), Value::Int(e)});
  }
  return rel;
}

struct Workload {
  std::string name;
  PlanPtr plan;  // rewritten (executable) plan
};

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_DAG_ROWS", 4000);
  int depth = bench::EnvInt("PERIODK_BENCH_DAG_DEPTH", 4);
  int queries = bench::EnvInt("PERIODK_BENCH_DAG_QUERIES", 2000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "DAG-aware execution: shared-subplan memo + middleware plan cache",
      "Scale via PERIODK_BENCH_DAG_ROWS / _DEPTH / _QUERIES.");

  Rng rng(20190802);
  TimeDomain domain{0, kDomainEnd};
  Catalog catalog;
  catalog.Put("r", MakeTable(&rng, rows));
  catalog.Put("s", MakeTable(&rng, rows));
  SnapshotRewriter rewriter(domain);

  std::vector<Workload> workloads;
  {
    // distinct(distinct(...(r))): every level splits its input against
    // itself, doubling the tree expansion.
    PlanPtr q = MakeScan("r", SnapshotSchema());
    for (int d = 0; d < depth; ++d) q = MakeDistinct(q);
    workloads.push_back({"nested-distinct", rewriter.Rewrite(q)});
  }
  {
    // ((r - s) - s) - ...: each EXCEPT references its left input in
    // both N_sch splits.
    PlanPtr q = MakeScan("r", SnapshotSchema());
    for (int d = 0; d < depth; ++d) {
      q = MakeExceptAll(q, MakeScan("s", SnapshotSchema()));
    }
    workloads.push_back({"nested-except", rewriter.Rewrite(q)});
  }

  bench::TablePrinter table({"Workload", "Rows", "Out rows", "NoMemo",
                             "Memo", "Speedup", "Hits", "Nodes"},
                            {16, 8, 10, 12, 12, 9, 6, 12});
  table.PrintHeader();
  for (const Workload& w : workloads) {
    // Sanity: identical bags before timing anything.
    ExecStats memo_stats;
    Relation memoized = Execute(w.plan, catalog, {}, &memo_stats);
    ExecStats ref_stats;
    Relation expanded = ExecuteTreeExpanded(w.plan, catalog, &ref_stats);
    if (!memoized.BagEquals(expanded)) {
      std::fprintf(stderr, "FATAL: memoized execution diverges on %s\n",
                   w.name.c_str());
      return 1;
    }
    double no_memo = bench::TimeMedian(
        [&] { ExecuteTreeExpanded(w.plan, catalog); }, repeats);
    double memo = bench::TimeMedian(
        [&] { Execute(w.plan, catalog); }, repeats);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", no_memo / memo);
    char nodes[32];
    std::snprintf(nodes, sizeof(nodes), "%lld vs %lld",
                  static_cast<long long>(memo_stats.nodes_executed),
                  static_cast<long long>(ref_stats.nodes_executed));
    table.PrintRow({w.name, std::to_string(rows),
                    std::to_string(memoized.size()),
                    bench::TablePrinter::Seconds(no_memo),
                    bench::TablePrinter::Seconds(memo), speedup,
                    std::to_string(memo_stats.memo_hits), nodes});
  }

  // Serving workload: the same statement issued over and over.  From
  // the plan cache every call after the first skips parse/bind/rewrite;
  // a distinct trailing comment per call defeats the cache.
  TemporalDB db(domain);
  {
    // Point-lookup-sized tables: a serving workload's per-query work is
    // small, which is exactly when parse/bind/rewrite overhead matters.
    Relation r = MakeTable(&rng, 64);
    Relation s = MakeTable(&rng, 64);
    if (!db.PutPeriodTable("r", std::move(r), "a_begin", "a_end").ok() ||
        !db.PutPeriodTable("s", std::move(s), "a_begin", "a_end").ok()) {
      std::fprintf(stderr, "FATAL: period table setup failed\n");
      return 1;
    }
  }
  const std::string sql =
      "SEQ VT (SELECT r.k, count(*) AS cnt FROM r, s "
      "WHERE r.k = s.k AND r.v >= 1 GROUP BY r.k)";
  int64_t numbered = 0;  // distinct across repeats, so no call can hit
  auto serve = [&](int n, bool distinct) {
    for (int i = 0; i < n; ++i) {
      auto result = db.Query(
          distinct ? StrCat(sql, " -- ", numbered++) : sql);
      if (!result.ok()) {
        std::fprintf(stderr, "FATAL: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
    }
  };
  double uncached =
      bench::TimeMedian([&] { serve(queries, /*distinct=*/true); }, repeats);
  double cached =
      bench::TimeMedian([&] { serve(queries, /*distinct=*/false); }, repeats);

  std::printf("\nrepeated-query serving (%d x same statement):\n", queries);
  bench::TablePrinter serving({"Plan cache", "Total", "Queries/s"},
                              {12, 12, 12});
  serving.PrintHeader();
  char qps[32];
  std::snprintf(qps, sizeof(qps), "%.0f", queries / uncached);
  serving.PrintRow({"miss", bench::TablePrinter::Seconds(uncached), qps});
  std::snprintf(qps, sizeof(qps), "%.0f", queries / cached);
  serving.PrintRow({"hit", bench::TablePrinter::Seconds(cached), qps});
  std::printf("plan-cache speedup: %.2fx; %s\n", uncached / cached,
              db.plan_cache_stats().ToString().c_str());
  return 0;
}
