// Temporal-join hot path: the sweep-based interval-overlap join
// (engine/interval_join.h) against the nested-loop reference it
// replaces.  Four workloads mirror the join shapes of the paper's
// Sec. 10 evaluation: the equi+overlap shape RewriteJoin emits, the
// overlap-only self-join that previously degenerated to O(n^2), a
// skewed-duration mix (a few domain-spanning intervals among many short
// ones) that stresses the sweep's active sets, and sparse keys -- a
// small input against a large one whose keys mostly miss, the shape of
// TPC-BiH's snapshot joins, which stresses the staging.  Record medians
// into BENCH_interval_join.json per docs/benchmarks.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "engine/interval_join.h"
#include "ra/plan.h"

namespace periodk {
namespace {


constexpr TimePoint kDomainEnd = 50000;

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

// `keys` distinct key values (1 = overlap-only shape), `long_chance`
// fraction of domain-spanning intervals, the rest short (1..200).
Relation MakeTable(Rng* rng, int rows, int keys, double long_chance) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b;
    TimePoint e;
    if (rng->Chance(long_chance)) {
      b = 0;
      e = kDomainEnd;
    } else {
      b = rng->Range(0, kDomainEnd - 201);
      e = b + rng->Range(1, 200);
    }
    rel.AddRow({Value::Int(rng->Range(0, keys - 1)), Value::Int(i),
                Value::Int(b), Value::Int(e)});
  }
  return rel;
}

struct Workload {
  std::string name;
  PlanPtr join;      // routed through the sweep by the executor
  Catalog catalog;
};

ExprPtr OverlapPred() {
  // b1 < e2 AND b2 < e1 over the trailing PERIODENC columns.
  return And(Lt(Col(2), Col(7)), Lt(Col(6), Col(3)));
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_JOIN_ROWS", 4000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "interval-overlap join vs nested-loop fallback",
      "Scale via PERIODK_BENCH_JOIN_ROWS (rows per input, default 4000;\n"
      "sparse-keys joins that many rows with 16 times as many).");

  Rng rng(20190731);
  std::vector<Workload> workloads;
  {
    // REWR's equi+overlap shape: theta' AND overlaps.
    Workload w;
    w.name = "equi+overlap";
    w.catalog.Put("l", MakeTable(&rng, rows, rows / 64 + 1, 0.0));
    w.catalog.Put("r", MakeTable(&rng, rows, rows / 64 + 1, 0.0));
    w.join = MakeJoin(MakeScan("l", EncodedSchema()),
                      MakeScan("r", EncodedSchema()),
                      And(Eq(Col(0), Col(4)), OverlapPred()));
    workloads.push_back(std::move(w));
  }
  {
    // Pure temporal self-join: no equi-key, one sweep bucket.
    Workload w;
    w.name = "overlap-self";
    w.catalog.Put("t", MakeTable(&rng, rows, 1, 0.0));
    w.join = MakeJoin(MakeScan("t", EncodedSchema()),
                      MakeScan("t", EncodedSchema()), OverlapPred());
    workloads.push_back(std::move(w));
  }
  {
    // Skewed durations: 1% of intervals span the whole domain.
    Workload w;
    w.name = "skewed-duration";
    w.catalog.Put("l", MakeTable(&rng, rows, 1, 0.01));
    w.catalog.Put("r", MakeTable(&rng, rows, 1, 0.01));
    w.join = MakeJoin(MakeScan("l", EncodedSchema()),
                      MakeScan("r", EncodedSchema()), OverlapPred());
    workloads.push_back(std::move(w));
  }

  {
    // Sparse keys: `rows` rows against 16 times as many, whose keys
    // are drawn from a range 16 times wider, so most of the large
    // side's rows find no partner key; half of them span the domain.
    Workload w;
    w.name = "sparse-keys";
    w.catalog.Put("l", MakeTable(&rng, rows, rows, 0.0));
    w.catalog.Put("r", MakeTable(&rng, 16 * rows, 16 * rows, 0.5));
    w.join = MakeJoin(MakeScan("l", EncodedSchema()),
                      MakeScan("r", EncodedSchema()),
                      And(Eq(Col(0), Col(4)), OverlapPred()));
    workloads.push_back(std::move(w));
  }

  bench::TablePrinter table(
      {"Workload", "Rows l/r", "Out rows", "NestedLoop", "Sweep", "Speedup"},
      {18, 12, 12, 12, 12, 10});
  table.PrintHeader();
  for (Workload& w : workloads) {
    const Relation& left = w.catalog.Get(w.join->left->table);
    const Relation& right = w.catalog.Get(w.join->right->table);
    // Sanity: identical bags before timing anything.
    Relation sweep = Execute(w.join, w.catalog);
    Relation reference = NestedLoopJoin(*w.join, left, right);
    if (!sweep.BagEquals(reference)) {
      std::fprintf(stderr, "FATAL: sweep join diverges on %s\n",
                   w.name.c_str());
      return 1;
    }
    double nested = bench::TimeMedian(
        [&] { NestedLoopJoin(*w.join, left, right); }, repeats);
    double swept =
        bench::TimeMedian([&] { Execute(w.join, w.catalog); }, repeats);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", nested / swept);
    table.PrintRow({w.name,
                    std::to_string(left.size()) + "/" +
                        std::to_string(right.size()),
                    std::to_string(sweep.size()),
                    bench::TablePrinter::Seconds(nested),
                    bench::TablePrinter::Seconds(swept), speedup});
  }
  return 0;
}
