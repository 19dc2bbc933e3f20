// Storage-layout ablation (docs/architecture.md §9): the same plans
// over the same base tables stored as vector<Row> vs typed columns.
// Every kernel has one typed lane: row-stored inputs are encoded column
// by column (Relation::ReadColumn) and emit rows, columnar inputs are
// read in place.  Four workloads cover the hot loops: hash aggregation
// over a scan, the partition-then-sweep interval join, native
// coalescing, and the fused split-aggregate sweep.  A fifth, union-all,
// puts two 100k-row tables encoded apart back to back
// (ColumnData::Concat): their string columns hold different dictionary
// objects, and one table's `n` column is all NULL where the other's
// holds doubles.  Outputs are checked row-identical before timing, and
// union-all's also against the two tables' rows back to back.
// Record medians into BENCH_columnar.json per docs/benchmarks.md.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "ra/plan.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 50000;

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

// `keys` distinct string keys, `vals` distinct small ints; intervals
// short (1..200) so sweep active sets stay realistic.  String keys are
// deliberate: the dictionary-code path is what the refactor claims
// keeps string workloads cheap.
Relation MakeTable(Rng* rng, int rows, int keys, int vals) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 201);
    rel.AddRow({Value::String("key" + std::to_string(rng->Range(0, keys - 1))),
                Value::Int(rng->Range(0, vals - 1)), Value::Int(b),
                Value::Int(b + rng->Range(1, 200))});
  }
  return rel;
}

// Same cells of the same types, doubles bit for bit.
bool RowsIdentical(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].type() != b[c].type() || a[c] != b[c]) return false;
    const double* x = a[c].TryDouble();
    if (x != nullptr && std::bit_cast<uint64_t>(*x) !=
                            std::bit_cast<uint64_t>(*b[c].TryDouble())) {
      return false;
    }
  }
  return true;
}

// One UNION ALL input: strings drawn from one pool of 5,000 (so each
// table's dictionary is its own object, holding most but not all of
// the pool), `n` all NULL or doubles, `v` ints.
Schema UnionSchema() { return Schema::FromNames({"s", "n", "v"}); }

Relation MakeUnionPart(Rng* rng, int rows, bool null_n) {
  Relation rel(UnionSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({Value::String("name" + std::to_string(rng->Range(0, 4999))),
                null_n ? Value::Null()
                       : Value::Double(static_cast<double>(rng->Range(0, 999)) /
                                       8.0),
                Value::Int(rng->Range(0, 1 << 20))});
  }
  return rel;
}

struct Workload {
  std::string name;
  PlanPtr plan;
  int rows;                     // per input table
  std::vector<Row> reference;   // the expected rows, when given
};

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_COL_ROWS", 500000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "columnar storage vs row storage on the interval-kernel hot paths",
      "Scale via PERIODK_BENCH_COL_ROWS (rows per table, default 500000).");

  Rng rng(20260807);
  int keys = rows / 64 + 1;
  Catalog row_cat;
  row_cat.Put("t", MakeTable(&rng, rows, keys, 4));
  row_cat.Put("u", MakeTable(&rng, rows, keys, 4));
  constexpr int kUnionRows = 100000;
  row_cat.Put("a", MakeUnionPart(&rng, kUnionRows, /*null_n=*/true));
  row_cat.Put("b", MakeUnionPart(&rng, kUnionRows, /*null_n=*/false));
  Catalog col_cat = row_cat;
  for (const std::string& name : col_cat.TableNames()) {
    Relation rel = col_cat.Get(name);
    rel.ToColumnar();
    col_cat.Put(name, std::move(rel));
  }

  PlanPtr scan = MakeScan("t", EncodedSchema());
  std::vector<Workload> workloads;
  workloads.push_back(
      {"hash-agg",
       MakeAggregate(scan, {Col(0, "k"), Col(1, "v")},
                     {Column("k"), Column("v")},
                     {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
                      AggExpr{AggFunc::kSum, Col(2), "s"}}),
       rows,
       {}});
  workloads.push_back(
      {"interval-join",
       MakeJoin(scan, MakeScan("u", EncodedSchema()),
                AndAll({Eq(Col(0), Col(4)), Lt(Col(2), Col(7)),
                        Lt(Col(6), Col(3))})),
       rows,
       {}});
  workloads.push_back({"coalesce", MakeCoalesce(scan), rows, {}});
  workloads.push_back(
      {"split-agg",
       MakeSplitAggregate(scan, {0},
                          {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
                           AggExpr{AggFunc::kSum, Col(1), "s"}},
                          /*gap_rows=*/false, TimeDomain{0, kDomainEnd}),
       rows,
       {}});
  std::vector<Row> both = row_cat.Get("a").rows();
  both.insert(both.end(), row_cat.Get("b").rows().begin(),
              row_cat.Get("b").rows().end());
  workloads.push_back({"union-all",
                       MakeUnionAll(MakeScan("a", UnionSchema()),
                                    MakeScan("b", UnionSchema())),
                       kUnionRows, std::move(both)});

  bench::TablePrinter table(
      {"Workload", "Rows", "Out rows", "RowStore", "Columnar", "Speedup"},
      {15, 10, 12, 12, 12, 10});
  table.PrintHeader();
  for (const Workload& w : workloads) {
    Relation by_rows = Execute(w.plan, row_cat);
    Relation by_cols = Execute(w.plan, col_cat);
    // Row-identical, not just bag-equal: the kernels promise the same
    // sequential output whatever the storage layout.
    if (by_rows.size() != by_cols.size() || !by_rows.BagEquals(by_cols)) {
      std::fprintf(stderr, "FATAL: columnar run diverges on %s\n",
                   w.name.c_str());
      return 1;
    }
    for (size_t i = 0; i < by_rows.size(); ++i) {
      if (CompareRows(by_rows.rows()[i], by_cols.rows()[i]) != 0) {
        std::fprintf(stderr, "FATAL: row order diverges on %s at %zu\n",
                     w.name.c_str(), i);
        return 1;
      }
    }
    if (!w.reference.empty()) {
      bool same = by_cols.size() == w.reference.size();
      for (size_t i = 0; same && i < w.reference.size(); ++i) {
        same = RowsIdentical(by_cols.rows()[i], w.reference[i]);
      }
      if (!same) {
        std::fprintf(stderr, "FATAL: %s diverges from its row reference\n",
                     w.name.c_str());
        return 1;
      }
    }
    double row_s =
        bench::TimeMedian([&] { Execute(w.plan, row_cat); }, repeats);
    double col_s =
        bench::TimeMedian([&] { Execute(w.plan, col_cat); }, repeats);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", row_s / col_s);
    table.PrintRow({w.name, std::to_string(w.rows),
                    std::to_string(by_rows.size()),
                    bench::TablePrinter::Seconds(row_s),
                    bench::TablePrinter::Seconds(col_s), speedup});
  }
  return 0;
}
