// Cost-based planning ablation (docs/architecture.md §11): the same
// queries with two of the cost model's decision points switched off
// (structural behavior) vs on.  Each workload isolates one decision:
// join-order picks the selective table first instead of the structural
// left-deep order, and tiny-nl runs a small overlap join as a nested
// loop instead of partition-then-sweep.  Outputs are checked bag-equal
// (the reordered and nested-loop row orders legitimately differ) before
// timing.  Record medians into BENCH_planner.json per
// docs/benchmarks.md.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "ra/cost_model.h"
#include "ra/plan.h"
#include "stats/table_stats.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 50000;

// periodk-lint: allow(relation-by-value): ownership sink, callers move
void PutWithStats(Catalog* catalog, const std::string& name, Relation rel) {
  rel.ToColumnar();
  catalog->Put(name, std::move(rel));
  catalog->PutStats(name, TableStats::Collect(catalog->GetShared(name)));
}

Relation MakeKeyed(Rng* rng, int rows, int keys) {
  Relation rel(Schema::FromNames({"k", "v"}));
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({Value::Int(rng->Range(0, keys - 1)),
                Value::Int(rng->Range(0, 999))});
  }
  return rel;
}

Relation MakeIntervals(Rng* rng, int rows) {
  Relation rel(Schema::FromNames({"v", "a_begin", "a_end"}));
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 201);
    rel.AddRow({Value::Int(rng->Range(0, 999)), Value::Int(b),
                Value::Int(b + rng->Range(1, 200))});
  }
  return rel;
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_PLANNER_ROWS", 200000);
  int probes = bench::EnvInt("PERIODK_BENCH_PLANNER_PROBES", 2000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "cost-based planning off vs on: join order, tiny-join strategy",
      "Scale via PERIODK_BENCH_PLANNER_ROWS (default 200000) and "
      "PERIODK_BENCH_PLANNER_PROBES (default 2000).");

  Rng rng(20260807);
  const int keys = std::max(rows / 16, 2);
  const int tiny_keys = std::max(keys / 16, 1);

  Catalog catalog;
  PutWithStats(&catalog, "a", MakeKeyed(&rng, rows, keys));
  PutWithStats(&catalog, "b", MakeKeyed(&rng, rows, keys));
  {
    // A selective dimension table: one row per key for a 1/16 slice of
    // the key domain.
    Relation tiny(Schema::FromNames({"tk"}));
    for (int k = 0; k < tiny_keys; ++k) tiny.AddRow({Value::Int(k)});
    PutWithStats(&catalog, "tiny", std::move(tiny));
  }
  {
    // Deliberately row-store: the tiny-join hint matters most for
    // small *derived* inputs (join/select outputs are row relations),
    // where the sweep pays its hash-partition row path per execution.
    Relation iv = MakeIntervals(&rng, 24);
    catalog.Put("iv", std::move(iv));
    catalog.PutStats("iv", TableStats::Collect(catalog.GetShared("iv"), 1, 2));
  }

  TimeDomain domain{0, kDomainEnd};
  CostModel cost(&catalog, domain);
  auto scan = [&](const char* name) {
    return MakeScan(name, catalog.Get(name).schema());
  };

  bench::TablePrinter table(
      {"Workload", "Rows", "Out rows", "CostOff", "CostOn", "Speedup"},
      {15, 10, 12, 12, 12, 10});
  table.PrintHeader();
  auto report = [&](const std::string& name, int in_rows, size_t out_rows,
                    double off_s, double on_s) {
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", off_s / on_s);
    table.PrintRow({name, std::to_string(in_rows), std::to_string(out_rows),
                    bench::TablePrinter::Seconds(off_s),
                    bench::TablePrinter::Seconds(on_s), speedup});
  };

  // --- 1. Join order: the structural plan joins the two fact tables
  // first (a 16x-fanout many-to-many intermediate); the cost order
  // filters through the dimension table before touching b.
  {
    PlanPtr structural =
        MakeJoin(MakeJoin(scan("a"), scan("b"), Eq(Col(0), Col(2))),
                 scan("tiny"), Eq(Col(0), Col(4)));
    PlanPtr reordered = ReorderJoins(structural, cost);
    if (reordered.get() == structural.get()) {
      std::fprintf(stderr, "FATAL: cost model declined to reorder\n");
      return 1;
    }
    Relation off_rows = Execute(structural, catalog);
    Relation on_rows = Execute(reordered, catalog);
    if (!on_rows.BagEquals(off_rows)) {
      std::fprintf(stderr, "FATAL: reordered join diverges\n");
      return 1;
    }
    double off_s = bench::TimeMedian([&] { Execute(structural, catalog); },
                                     repeats);
    double on_s = bench::TimeMedian([&] { Execute(reordered, catalog); },
                                    repeats);
    report("join-order", rows, on_rows.size(), off_s, on_s);
  }

  // --- 2. Tiny-join strategy: a 24x24 overlap join where the
  // partition-then-sweep setup costs more than the |L|*|R| compares.
  {
    PlanPtr sweep = MakeJoin(scan("iv"), scan("iv"),
                             AndAll({Lt(Col(1), Col(5)), Lt(Col(4), Col(2))}));
    PlanPtr nested = ApplyJoinStrategyHints(sweep, cost);
    if (nested.get() == sweep.get()) {
      std::fprintf(stderr, "FATAL: tiny overlap join not marked NL\n");
      return 1;
    }
    Relation off_rows = Execute(sweep, catalog);
    Relation on_rows = Execute(nested, catalog);
    // Nested-loop output order legitimately differs from sweep order.
    if (!on_rows.BagEquals(off_rows)) {
      std::fprintf(stderr, "FATAL: nested-loop join diverges\n");
      return 1;
    }
    double off_s = bench::TimeMedian(
        [&] {
          for (int i = 0; i < probes; ++i) Execute(sweep, catalog);
        },
        repeats);
    double on_s = bench::TimeMedian(
        [&] {
          for (int i = 0; i < probes; ++i) Execute(nested, catalog);
        },
        repeats);
    report("tiny-nl", 24, on_rows.size(), off_s, on_s);
  }
  return 0;
}
