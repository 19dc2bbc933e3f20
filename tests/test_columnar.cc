// Columnar relation storage (engine/column.h, engine/relation.h;
// docs/architecture.md §9): encode-time tag selection, sorted string
// dictionaries, validity bitmaps, the lazily materialized row view --
// and whole-plan equivalence: the vectorized kernel fast paths must
// produce row-for-row identical output to the row storage path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "engine/agg.h"
#include "engine/column.h"
#include "engine/executor.h"
#include "engine/interval_join.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "engine/temporal_ops.h"
#include "rewrite/rewriter.h"
#include "tests/random_expr.h"
#include "tests/random_query.h"

namespace periodk {
namespace {

// --- ColumnData ------------------------------------------------------------

TEST(ColumnDataTest, EncodePicksNarrowestTag) {
  std::vector<Row> rows = {
      {Value::Int(1), Value::Double(1.5), Value::Bool(true),
       Value::String("x"), Value::Int(1)},
      {Value::Int(2), Value::Double(2.5), Value::Bool(false),
       Value::String("y"), Value::String("mixed")},
  };
  EXPECT_EQ(ColumnData::Encode(rows, 0).tag(), ColumnTag::kInt);
  EXPECT_EQ(ColumnData::Encode(rows, 1).tag(), ColumnTag::kDouble);
  EXPECT_EQ(ColumnData::Encode(rows, 2).tag(), ColumnTag::kBool);
  EXPECT_EQ(ColumnData::Encode(rows, 3).tag(), ColumnTag::kString);
  EXPECT_EQ(ColumnData::Encode(rows, 4).tag(), ColumnTag::kMixed);
}

TEST(ColumnDataTest, StringDictionaryIsSortedAndSharedByGather) {
  std::vector<Row> rows = {{Value::String("beta")},
                           {Value::String("alpha")},
                           {Value::String("beta")}};
  ColumnData col = ColumnData::Encode(rows, 0);
  ASSERT_EQ(col.tag(), ColumnTag::kString);
  // Sorted, duplicate-free dictionary: code order == string order.
  ASSERT_EQ(col.dict()->size(), 2u);
  EXPECT_EQ(col.dict()->At(0), "alpha");
  EXPECT_EQ(col.dict()->At(1), "beta");
  EXPECT_EQ(col.codes()[0], 1u);
  EXPECT_EQ(col.codes()[1], 0u);
  EXPECT_EQ(col.codes()[2], 1u);
  // Gather reuses the source dictionary by pointer.
  ColumnData picked = ColumnData::Gather(col, {2, 0});
  EXPECT_EQ(picked.dict().get(), col.dict().get());
  EXPECT_EQ(picked.Get(0), Value::String("beta"));
}

TEST(ColumnDataTest, ValidityBitmapTracksNulls) {
  std::vector<Row> rows = {{Value::Int(7)}, {Value::Null()}, {Value::Int(9)}};
  ColumnData col = ColumnData::Encode(rows, 0);
  EXPECT_EQ(col.tag(), ColumnTag::kInt);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.Get(1), Value::Null());
  EXPECT_EQ(col.Get(2), Value::Int(9));
  // All-null columns have no representable type; they encode as kInt
  // with an all-invalid bitmap.
  std::vector<Row> all_null = {{Value::Null()}, {Value::Null()}};
  ColumnData nulls = ColumnData::Encode(all_null, 0);
  EXPECT_EQ(nulls.tag(), ColumnTag::kInt);
  EXPECT_EQ(nulls.null_count(), 2u);
}

TEST(ColumnDataTest, PackedKeysMatchValueEquality) {
  // -0.0 and +0.0 compare equal under Value::Compare, so their packed
  // key words must collide; NaN breaks the order, so the column is not
  // fast-keyable at all.
  std::vector<Row> rows = {{Value::Double(-0.0)}, {Value::Double(0.0)}};
  ColumnData col = ColumnData::Encode(rows, 0);
  ASSERT_TRUE(FastKeyable(col));
  uint64_t keys[4];  // 2 rows x (1 key word + null word)
  BuildPackedKeys({&col}, 0, rows.size(), keys);
  EXPECT_EQ(keys[0], keys[2]);
  EXPECT_EQ(keys[1], keys[3]);
  std::vector<Row> nan_rows = {{Value::Double(0.0 / 0.0)}};
  EXPECT_FALSE(FastKeyable(ColumnData::Encode(nan_rows, 0)));
}

TEST(KeyIndexTest, IdsFollowValueCompareOnRandomColumns) {
  // Grouping and cross-side matching mean Value::Compare equality
  // whichever key encoding KeyIndex picks: packed words (ints, doubles
  // with -0.0, strings in two different dictionaries) or Value keys
  // (mixed columns, tags that differ across the sides).  Brute force
  // over CompareRows is the oracle.
  Rng rng(0x6b1d);
  NonIntegerData mix;
  for (int trial = 0; trial < 400; ++trial) {
    size_t width = 1 + rng.Uniform(2);
    auto table = [&] {
      std::vector<random_data::Kind> kinds =
          random_data::Kinds(&rng, &mix, width);
      std::vector<Row> rows(1 + rng.Uniform(12));
      for (Row& row : rows) {
        for (size_t c = 0; c < width; ++c) {
          row.push_back(random_data::Cell(&rng, &mix, kinds[c], 0.15));
        }
      }
      return rows;
    };
    std::vector<Row> sides[2] = {table(), table()};
    std::vector<TypedColumn> cols[2];
    for (int side = 0; side < 2; ++side) {
      for (size_t c = 0; c < width; ++c) {
        cols[side].emplace_back(ColumnData::Encode(sides[side], c));
      }
    }
    KeyIndex index(cols[0], cols[1]);
    std::vector<Row> seen;  // distinct keys in first-appearance order
    for (int side = 0; side < 2; ++side) {
      for (size_t i = 0; i < sides[side].size(); ++i) {
        const Row& key = sides[side][i];
        size_t expected = 0;
        while (expected < seen.size() && CompareRows(seen[expected], key) != 0) {
          ++expected;
        }
        if (expected == seen.size()) seen.push_back(key);
        ASSERT_EQ(index.FindOrInsert(i, side), expected)
            << "trial " << trial << " side " << side << " row "
            << RowToString(key);
        bool has_null = false;
        for (const Value& v : key) has_null = has_null || v.is_null();
        ASSERT_EQ(index.HasNull(i, side), has_null) << "trial " << trial;
      }
    }
  }
}

// --- Relation: dual storage ------------------------------------------------

Relation MixedRelation() {
  Relation rel(Schema::FromNames({"i", "s", "d"}));
  rel.AddRow({Value::Int(1), Value::String("bb"), Value::Double(0.5)});
  rel.AddRow({Value::Null(), Value::String("aa"), Value::Null()});
  rel.AddRow({Value::Int(3), Value::Null(), Value::Double(-1.0)});
  rel.AddRow({Value::Int(1), Value::String("bb"), Value::Double(0.5)});
  return rel;
}

TEST(RelationColumnarTest, RowViewRoundTripsInOrder) {
  Relation rel = MixedRelation();
  std::vector<Row> original = rel.rows();
  rel.ToColumnar();
  ASSERT_TRUE(rel.is_columnar());
  ASSERT_EQ(rel.size(), original.size());
  const std::vector<Row>& view = rel.rows();  // lazy materialization
  ASSERT_EQ(view.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(CompareRows(view[i], original[i]), 0) << "row " << i;
  }
}

TEST(RelationColumnarTest, MutationDecaysToRowStorage) {
  Relation rel = MixedRelation();
  rel.ToColumnar();
  rel.AddRow({Value::Int(9), Value::String("zz"), Value::Double(9.0)});
  EXPECT_FALSE(rel.is_columnar());
  EXPECT_EQ(rel.size(), 5u);
  EXPECT_EQ(rel.rows().back()[0], Value::Int(9));
}

TEST(RelationColumnarTest, ConcurrentRowViewMaterializationIsSafe) {
  // Shared base tables are read by many query threads; the first rows()
  // call on each copy must build the view exactly once, race-free.
  Relation rel = MixedRelation();
  rel.ToColumnar();
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&rel, &mismatches] {
      const std::vector<Row>& view = rel.rows();
      if (view.size() != 4 || view[1][1] != Value::String("aa")) {
        ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Schema name lookup (the lazily built index) ---------------------------

TEST(SchemaTest, DuplicateNameShadowingUnchanged) {
  Schema schema({Column("r", "a"), Column("s", "a"), Column("", "b")});
  // Two unqualified matches: ambiguous, exactly like the linear scan.
  EXPECT_EQ(schema.Find("", "a"), -2);
  // A qualifier narrows to the unique match; matching is
  // case-insensitive on both parts.
  EXPECT_EQ(schema.Find("r", "a"), 0);
  EXPECT_EQ(schema.Find("S", "A"), 1);
  EXPECT_EQ(schema.Find("", "b"), 2);
  EXPECT_EQ(schema.Find("", "missing"), -1);
  EXPECT_EQ(schema.Find("t", "a"), -1);
  // Append invalidates the built index: a new duplicate turns the
  // previously unique name ambiguous.
  schema.Append(Column("t", "b"));
  EXPECT_EQ(schema.Find("", "b"), -2);
  EXPECT_EQ(schema.Find("t", "b"), 3);
}

// --- Columnar vs row-path equivalence --------------------------------------

/// Identical cells: same type, and for doubles the same bits (-0.0 and
/// NaN included), which Value::Compare does not distinguish.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (const double* x = a.TryDouble()) {
    return std::bit_cast<uint64_t>(*x) ==
           std::bit_cast<uint64_t>(*b.TryDouble());
  }
  return a.Compare(b) == 0;
}

/// nullopt when `a` and `b` hold identical rows in identical order.
std::optional<std::string> ExactDiff(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) {
    return StrCat("row count ", a.size(), " vs ", b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const Row& x = a.rows()[i];
    const Row& y = b.rows()[i];
    bool same = x.size() == y.size();
    for (size_t c = 0; same && c < x.size(); ++c) same = SameCell(x[c], y[c]);
    if (!same) {
      return StrCat("row ", i, ": ", RowToString(x), " vs ", RowToString(y));
    }
  }
  return std::nullopt;
}

Catalog Columnarized(const Catalog& catalog) {
  Catalog out = catalog;
  for (const std::string& name : out.TableNames()) {
    Relation rel = out.Get(name);
    rel.ToColumnar();
    out.Put(name, std::move(rel));
  }
  return out;
}

TEST(ColumnarEquivalenceTest, StringKeyJoinTranslatesDictionaries) {
  // The two inputs dictionary-encode different string sets, so equal
  // strings carry *different* codes; the join fast lane must translate
  // right codes into the left dictionary space instead of comparing
  // codes raw.  "zeta" exists only on the right: never matches.
  Schema schema = Schema::FromNames({"k", "v", "a_begin", "a_end"});
  Relation l(schema);
  l.AddRow({Value::String("ant"), Value::Int(1), Value::Int(0),
            Value::Int(10)});
  l.AddRow({Value::String("bee"), Value::Int(2), Value::Int(2),
            Value::Int(6)});
  l.AddRow({Value::Null(), Value::Int(3), Value::Int(0), Value::Int(16)});
  Relation r(schema);
  r.AddRow({Value::String("bee"), Value::Int(10), Value::Int(4),
            Value::Int(9)});
  r.AddRow({Value::String("zeta"), Value::Int(20), Value::Int(0),
            Value::Int(16)});
  r.AddRow({Value::String("ant"), Value::Int(30), Value::Int(9),
            Value::Int(12)});
  Catalog rows_cat;
  rows_cat.Put("l", std::move(l));
  rows_cat.Put("r", std::move(r));
  Catalog cols_cat = Columnarized(rows_cat);

  ExprPtr pred = And(Eq(Col(0), Col(4)),
                     And(Lt(Col(2), Col(7)), Lt(Col(6), Col(3))));
  PlanPtr plan = MakeJoin(MakeScan("l", schema), MakeScan("r", schema),
                          std::move(pred));
  Relation by_rows = Execute(plan, rows_cat, ExecOptions{});
  Relation by_cols = Execute(plan, cols_cat, ExecOptions{});
  EXPECT_EQ(by_cols.size(), 2u);
  auto diff = ExactDiff(by_cols, by_rows);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(ColumnarEquivalenceTest, StringGroupedTemporalOperatorsMatch) {
  Schema schema = Schema::FromNames({"g", "a_begin", "a_end"});
  Relation rel(schema);
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const char* names[] = {"x", "y", "z"};
    TimePoint b = rng.Range(0, 30);
    rel.AddRow({rng.Chance(0.1) ? Value::Null()
                                : Value::String(names[rng.Uniform(3)]),
                Value::Int(b), Value::Int(b + 1 + rng.Range(0, 6))});
  }
  Catalog rows_cat;
  rows_cat.Put("t", std::move(rel));
  Catalog cols_cat = Columnarized(rows_cat);
  PlanPtr scan = MakeScan("t", schema);
  std::vector<PlanPtr> plans = {
      MakeCoalesce(scan),
      MakeSplitAggregate(scan, {0},
                         {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}},
                         /*gap_rows=*/false, TimeDomain{0, 40}),
  };
  for (const PlanPtr& plan : plans) {
    Relation by_rows = Execute(plan, rows_cat, ExecOptions{});
    Relation by_cols = Execute(plan, cols_cat, ExecOptions{});
    auto diff = ExactDiff(by_cols, by_rows);
    EXPECT_FALSE(diff.has_value()) << PlanKindName(plan->kind) << ": "
                                   << *diff;
  }
}

TEST(ColumnarEquivalenceTest, GroupByIsExactAroundTwoTo53) {
  // Int(2^53 + 1) is not Double(2^53) although it rounds to it; the two
  // 2^53 values are one group.  Exact comparison plus agreeing hashes
  // make the grouping independent of hash-table order.
  constexpr int64_t k53 = int64_t{1} << 53;
  Schema schema = Schema::FromNames({"k"});
  Relation rel(schema);
  for (int i = 0; i < 3; ++i) {
    rel.AddRow({Value::Int(k53 + 1)});
    rel.AddRow({Value::Double(9007199254740992.0)});
    rel.AddRow({Value::Int(k53)});
  }
  Catalog rows_cat;
  rows_cat.Put("t", std::move(rel));
  Catalog cols_cat = Columnarized(rows_cat);
  PlanPtr plan = MakeAggregate(MakeScan("t", schema), {Col(0, "k")},
                               {Column("k")},
                               {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}});
  Relation by_rows = Execute(plan, rows_cat, ExecOptions{});
  Relation by_cols = Execute(plan, cols_cat, ExecOptions{});
  ASSERT_EQ(by_rows.size(), 2u);
  EXPECT_EQ(CompareRows(by_rows.rows()[0], {Value::Int(k53 + 1), Value::Int(3)}),
            0);
  EXPECT_EQ(CompareRows(by_rows.rows()[1], {Value::Int(k53), Value::Int(6)}),
            0);
  auto diff = ExactDiff(by_cols, by_rows);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

/// What a computation returned: its rows, or the dynamic type and text
/// of what it threw.
struct Outcome {
  std::optional<Relation> rows;
  std::string error;
};

template <typename Fn>
Outcome Capture(const Fn& fn) {
  try {
    return {fn(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, StrCat(typeid(e).name(), ": ", e.what())};
  }
}

/// A plan's result over one catalog.
Outcome RunPlan(const PlanPtr& plan, const Catalog& catalog,
                const ExecOptions& options = {}) {
  return Capture([&] { return Execute(plan, catalog, options); });
}

/// nullopt when both outcomes threw the same error, or returned
/// identical rows in identical order.
std::optional<std::string> OutcomeDiff(const Outcome& got,
                                       const Outcome& want) {
  if (got.error != want.error) {
    return StrCat("error '", got.error, "' vs '", want.error, "'");
  }
  return want.rows.has_value() ? ExactDiff(*got.rows, *want.rows)
                               : std::nullopt;
}

/// 200 randomized rewritten plans, NULL-heavy data and
/// duplicate-amplifying query shapes, executed over row and columnar
/// storage of the same base tables.  The outputs must be row-for-row
/// identical -- or both runs must throw the same error.  With `mix` the
/// tables hold non-integer data
/// (NonIntegerData), which exercises the Value-key grouping and the
/// error paths; without it no plan may throw.
void CheckRandomPlansMatchRowPath(const NonIntegerData* mix) {
  constexpr TimeDomain kDomain{0, 16};
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0xc01a7);
    Catalog rows_cat = RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/10,
                                            /*null_chance=*/0.25,
                                            /*empty_validity_chance=*/0.2,
                                            mix);
    PlanPtr encoded_p = AddRandomPeriodTable(&rng, &rows_cat, kDomain, 10,
                                             0.25, 0.2, mix);
    Catalog cols_cat = Columnarized(rows_cat);

    RewriteOptions options;
    SnapshotSemantics all[] = {SnapshotSemantics::kPeriodK,
                               SnapshotSemantics::kAlignment,
                               SnapshotSemantics::kIntervalPreservation,
                               SnapshotSemantics::kTeradata};
    options.semantics = all[rng.Uniform(4)];
    options.hoist_coalesce = rng.Chance(0.5);
    options.fuse_aggregation = rng.Chance(0.5);
    options.pre_aggregate = rng.Chance(0.5);
    options.coalesce_impl =
        rng.Chance(0.5) ? CoalesceImpl::kNative : CoalesceImpl::kWindow;

    RandomQueryConfig qc;
    qc.null_literal_chance = 0.2;   // NULL-heavy
    qc.union_dup_chance = 0.35;     // duplicate-amplifying
    qc.period_scan_chance = 0.25;
    qc.inexact_arg_chance = 0.3;
    qc.allow_difference = options.semantics != SnapshotSemantics::kTeradata;
    RandomQueryGenerator gen(&rng, qc);
    PlanPtr query = gen.Generate(3 + static_cast<int>(rng.Uniform(2)));
    PlanPtr plan = SnapshotRewriter(kDomain, options,
                                    PeriodScanEncodings(query, encoded_p))
                       .Rewrite(query);

    Outcome by_rows = RunPlan(plan, rows_cat, ExecOptions{});
    Outcome by_cols = RunPlan(plan, cols_cat, ExecOptions{});
    if (mix == nullptr) {
      ASSERT_EQ(by_rows.error, "") << "seed " << seed;
    }
    ASSERT_EQ(by_cols.error, by_rows.error)
        << "seed " << seed << "\nplan:\n" << plan->ToString();
    if (by_rows.rows.has_value()) {
      auto diff = ExactDiff(*by_cols.rows, *by_rows.rows);
      ASSERT_FALSE(diff.has_value()) << "seed " << seed << ": " << *diff
                                     << "\nplan:\n" << plan->ToString();
    }
  }
}

TEST(ColumnarEquivalenceTest, TwoHundredRandomPlansMatchRowPath) {
  CheckRandomPlansMatchRowPath(nullptr);
}

TEST(ColumnarEquivalenceTest, TwoHundredNonIntegerPlansMatchRowPath) {
  // Doubles, strings and mixed columns: once with integer endpoints
  // only, once with some double, string or NULL endpoints.
  NonIntegerData clean;
  NonIntegerData bad_endpoints{/*bad_endpoint_chance=*/0.05};
  for (const NonIntegerData* mix : {&clean, &bad_endpoints}) {
    SCOPED_TRACE(mix->bad_endpoint_chance);
    CheckRandomPlansMatchRowPath(mix);
  }
}

// --- Select and project change only the layout ----------------------------

// The row-at-a-time select and project the executor ran before both
// read typed columns: the reference for rows, order, cell types and
// errors.
Relation RowAtATimeSelect(const Plan& plan, const Relation& input) {
  Relation out(plan.schema);
  for (const Row& row : input.rows()) {
    if (plan.predicate->EvalBool(row)) out.AddRow(row);
  }
  return out;
}

Relation RowAtATimeProject(const Plan& plan, const Relation& input) {
  Relation out(plan.schema);
  for (const Row& row : input.rows()) {
    Row projected;
    for (const ExprPtr& e : plan.exprs) projected.push_back(e->Eval(row));
    out.AddRow(std::move(projected));
  }
  return out;
}

TEST(ColumnarEquivalenceTest, SelectAndProjectChangeOnlyTheLayout) {
  Schema schema =
      Schema::FromNames({"i", "d", "b", "s", "n", "m"});
  int errors = 0;
  int rows_out = 0;
  for (int seed = 0; seed < 400; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0x5e1ec7);
    Relation table(schema);
    for (uint64_t r = 0, n = rng.Uniform(24); r < n; ++r) {
      Row row;
      for (int c = 0; c < kLayoutArity; ++c) {
        row.push_back(RandomCell(&rng, static_cast<LayoutColumn>(c)));
      }
      table.AddRow(std::move(row));
    }
    Catalog rows_cat;
    rows_cat.Put("t", table);
    Catalog cols_cat = Columnarized(rows_cat);

    RandomLayoutExpr gen(&rng);
    PlanPtr scan = MakeScan("t", schema);
    PlanPtr select = MakeSelect(scan, gen.Gen(RandomLayoutExpr::kBool, 3));
    std::vector<ExprPtr> exprs;
    std::vector<Column> names;
    for (uint64_t k = 0, n = 1 + rng.Uniform(4); k < n; ++k) {
      exprs.push_back(rng.Chance(0.35)
                          ? gen.Column(RandomLayoutExpr::kAny)
                          : gen.Gen(RandomLayoutExpr::kAny, 3));
      names.push_back(Column(StrCat("e", k)));
    }
    PlanPtr project = MakeProject(scan, std::move(exprs), std::move(names));

    for (const PlanPtr& plan : {select, project}) {
      Outcome want = Capture([&] {
        return plan->kind == PlanKind::kSelect
                   ? RowAtATimeSelect(*plan, table)
                   : RowAtATimeProject(*plan, table);
      });
      if (want.rows.has_value()) {
        rows_out += static_cast<int>(want.rows->size());
      } else {
        ++errors;
      }
      for (const Catalog* catalog : {&rows_cat, &cols_cat}) {
        Outcome got = RunPlan(plan, *catalog);
        auto diff = OutcomeDiff(got, want);
        ASSERT_FALSE(diff.has_value())
            << "seed " << seed << (catalog == &rows_cat ? " rows" : " columns")
            << ": " << *diff << "\nplan:\n" << plan->ToString();
      }
    }
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(errors, 50);
  EXPECT_GT(rows_out, 2000);
}

TEST(ColumnarEquivalenceTest, OutOfRangeColumnsFailOnlyOverRows) {
  Schema schema = Schema::FromNames({"a", "b"});
  Relation table(schema);
  table.AddRow({Value::Int(1), Value::String("x")});
  Catalog rows_cat;
  rows_cat.Put("t", table);
  rows_cat.Put("empty", Relation(schema));
  Catalog cols_cat = Columnarized(rows_cat);
  const std::string error =
      StrCat(typeid(EngineError).name(),
             ": column index 5 out of range for row of arity 2");
  // A pass-through reference fails on a non-empty input, after the
  // expressions before it in the row, and not at all on an empty one.
  PlanPtr project = MakeProject(MakeScan("t", schema),
                                {Col(0), Col(5), Div(LitStr("y"), Col(0))},
                                {Column("a"), Column("x"), Column("q")});
  PlanPtr earlier = MakeProject(MakeScan("t", schema),
                                {Add(Col(1), LitInt(1)), Col(5)},
                                {Column("p"), Column("x")});
  PlanPtr empty = MakeProject(MakeScan("empty", schema), {Col(5)},
                              {Column("x")});
  PlanPtr select = MakeSelect(MakeScan("t", schema), Eq(Col(5), LitInt(1)));
  for (const Catalog* catalog : {&rows_cat, &cols_cat}) {
    EXPECT_EQ(RunPlan(project, *catalog).error, error);
    EXPECT_EQ(RunPlan(select, *catalog).error, error);
    EXPECT_EQ(RunPlan(earlier, *catalog).error,
              StrCat(typeid(EngineError).name(),
                     ": arithmetic on non-numeric values: x vs 1"));
    Outcome none = RunPlan(empty, *catalog);
    ASSERT_TRUE(none.rows.has_value()) << none.error;
    EXPECT_EQ(none.rows->size(), 0u);
  }
}

// --- Operators change only the layout --------------------------------------
//
// Joins, set operations, sort, distinct, aggregation, split and
// split-aggregate collect row ids (or finalized values) and emit typed
// columns.  The references below are the row-building loops they ran
// before, over the inputs' row views.  Every operator must match its
// reference in rows, order, cell types (double bits) and the first
// error thrown, over row-stored and columnar inputs, and must emit
// columns.

// Keys compared under Value::Compare through a hash map, as the set
// operations and the groupings compared them (KeyIndex's Value keys are
// the same map).
using RowIds = std::unordered_map<Row, uint32_t, RowHash, RowEq>;

uint32_t IdOf(RowIds& ids, Row key) {
  return ids.try_emplace(std::move(key), static_cast<uint32_t>(ids.size()))
      .first->second;
}

Row Cells(const Row& row, const std::vector<int>& cols) {
  Row out;
  for (int c : cols) out.push_back(row[static_cast<size_t>(c)]);
  return out;
}

// Left row l next to right row r.
Row Joined(const Relation& left, const Relation& right, size_t l, size_t r) {
  Row row = left.rows()[l];
  const Row& tail = right.rows()[r];
  row.insert(row.end(), tail.begin(), tail.end());
  return row;
}

bool Accepts(const ExprPtr& check, const Row& row) {
  return check == nullptr || check->EvalBool(row);
}

bool SqlLess(const Value& a, const Value& b) {
  std::optional<int> c = SqlCompare(a, b);
  return c.has_value() && *c < 0;
}

// The equi-key bucket of a join input row; kAbsent when a key cell is
// NULL (NULL never equi-joins).
uint32_t JoinKeyId(RowIds& ids, const JoinAnalysis& ja, const Row& row,
                   bool right) {
  Row key;
  for (const auto& [l, r] : ja.equi_keys) {
    const Value& v = row[static_cast<size_t>(right ? r : l)];
    if (v.is_null()) return KeyIndex::kAbsent;
    key.push_back(v);
  }
  return IdOf(ids, std::move(key));
}

// The overlap conjunct on a pair of rows under SQL comparison.
bool SqlOverlaps(const OverlapSpec& ov, const Row& lr, const Row& rr) {
  return SqlLess(lr[static_cast<size_t>(ov.left_begin)],
                 rr[static_cast<size_t>(ov.right_end)]) &&
         SqlLess(rr[static_cast<size_t>(ov.right_begin)],
                 lr[static_cast<size_t>(ov.left_end)]);
}

// The nested loop, and the hash join (left-major, each left row's
// matches in right order): an opaque predicate is tested on every pair;
// an analyzed one as its equi-keys, then its overlap conjunct, then the
// residual on the joined row.
Relation RowNestedLoopJoin(const Plan& plan, const Relation& left,
                           const Relation& right) {
  const JoinAnalysis& ja = plan.join;
  const bool opaque = ja.equi_keys.empty() && !ja.overlap.has_value();
  RowIds ids;
  std::vector<uint32_t> lid;
  std::vector<uint32_t> rid;
  for (const Row& row : left.rows()) lid.push_back(JoinKeyId(ids, ja, row, false));
  for (const Row& row : right.rows()) rid.push_back(JoinKeyId(ids, ja, row, true));
  Relation out(plan.schema);
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      if (!opaque) {
        if (lid[l] == KeyIndex::kAbsent || rid[r] != lid[l]) continue;
        if (ja.overlap.has_value() &&
            !SqlOverlaps(*ja.overlap, left.rows()[l], right.rows()[r])) {
          continue;
        }
      }
      Row row = Joined(left, right, l, r);
      if (Accepts(opaque ? plan.predicate : ja.residual, row)) {
        out.AddRow(std::move(row));
      }
    }
  }
  return out;
}

// The overlap join: equi-key buckets in first-appearance order (left
// rows, then right rows).  Per bucket, the pairs with a malformed side
// (not integers with begin < end) come first, tested as the nested
// loop tests them (the overlap under SQL comparison, then the
// residual); then the plane sweep's pairs, tested on the residual: both
// sides in begin order, left first on ties, each arriving interval
// paired with every still-open opposite one in arrival order.
Relation RowOverlapJoin(const Plan& plan, const Relation& left,
                        const Relation& right) {
  const JoinAnalysis& ja = plan.join;
  const OverlapSpec& ov = *ja.overlap;
  struct Staged {
    int64_t begin;
    int64_t end;
    size_t row;
  };
  struct Bucket {
    std::vector<Staged> fast[2];
    std::vector<size_t> slow[2];
  };
  const Relation* inputs[2] = {&left, &right};
  const int begins[2] = {ov.left_begin, ov.right_begin};
  const int ends[2] = {ov.left_end, ov.right_end};
  RowIds ids;
  std::vector<Bucket> buckets;
  for (int side = 0; side < 2; ++side) {
    for (size_t i = 0; i < inputs[side]->size(); ++i) {
      const Row& row = inputs[side]->rows()[i];
      uint32_t id = JoinKeyId(ids, ja, row, side == 1);
      if (id == KeyIndex::kAbsent) continue;
      if (id == buckets.size()) buckets.emplace_back();
      const int64_t* b = row[static_cast<size_t>(begins[side])].TryInt();
      const int64_t* e = row[static_cast<size_t>(ends[side])].TryInt();
      if (b != nullptr && e != nullptr && *b < *e) {
        buckets[id].fast[side].push_back({*b, *e, i});
      } else {
        buckets[id].slow[side].push_back(i);
      }
    }
  }
  Relation out(plan.schema);
  auto emit = [&](size_t l, size_t r, const ExprPtr& check) {
    Row row = Joined(left, right, l, r);
    if (Accepts(check, row)) out.AddRow(std::move(row));
  };
  auto emit_slow = [&](size_t l, size_t r) {
    if (SqlOverlaps(ov, left.rows()[l], right.rows()[r])) {
      emit(l, r, ja.residual);
    }
  };
  for (Bucket& bucket : buckets) {
    for (size_t l : bucket.slow[0]) {
      for (const Staged& r : bucket.fast[1]) emit_slow(l, r.row);
      for (size_t r : bucket.slow[1]) emit_slow(l, r);
    }
    for (const Staged& l : bucket.fast[0]) {
      for (size_t r : bucket.slow[1]) emit_slow(l.row, r);
    }
    for (std::vector<Staged>& fast : bucket.fast) {
      std::stable_sort(fast.begin(), fast.end(),
                       [](const Staged& a, const Staged& b) {
                         return a.begin < b.begin;
                       });
    }
    const std::vector<Staged>* fast = bucket.fast;
    std::vector<Staged> open[2];
    size_t next[2] = {0, 0};
    while (next[0] < fast[0].size() || next[1] < fast[1].size()) {
      const int side = next[1] >= fast[1].size() ||
                               (next[0] < fast[0].size() &&
                                fast[0][next[0]].begin <= fast[1][next[1]].begin)
                           ? 0
                           : 1;
      const Staged& cur = fast[side][next[side]++];
      std::vector<Staged>& opposite = open[1 - side];
      std::erase_if(opposite,
                    [&](const Staged& o) { return o.end <= cur.begin; });
      for (const Staged& o : opposite) {
        if (side == 0) {
          emit(cur.row, o.row, ja.residual);
        } else {
          emit(o.row, cur.row, ja.residual);
        }
      }
      open[side].push_back(cur);
    }
  }
  return out;
}

Relation RowUnionAll(const Plan& plan, const Relation& left,
                     const Relation& right) {
  Relation out(plan.schema, left.rows());
  for (const Row& row : right.rows()) out.AddRow(row);
  return out;
}

Relation RowExceptAll(const Plan& plan, const Relation& left,
                      const Relation& right) {
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  for (const Row& row : right.rows()) ++counts[row];
  Relation out(plan.schema);
  for (const Row& row : left.rows()) {
    auto it = counts.find(row);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      continue;
    }
    out.AddRow(row);
  }
  return out;
}

Relation RowAntiJoin(const Plan& plan, const Relation& left,
                     const Relation& right) {
  std::unordered_set<Row, RowHash, RowEq> present(right.rows().begin(),
                                                  right.rows().end());
  Relation out(plan.schema);
  for (const Row& row : left.rows()) {
    if (present.count(row) == 0) out.AddRow(row);
  }
  return out;
}

Relation RowDistinct(const Plan& plan, const Relation& input) {
  std::unordered_set<Row, RowHash, RowEq> seen;
  Relation out(plan.schema);
  for (const Row& row : input.rows()) {
    if (seen.insert(row).second) out.AddRow(row);
  }
  return out;
}

Relation RowSort(const Plan& plan, const Relation& input) {
  std::vector<Row> rows = input.rows();
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    for (const SortKey& k : plan.sort_keys) {
      int c = a[static_cast<size_t>(k.column)].Compare(
          b[static_cast<size_t>(k.column)]);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return Relation(plan.schema, std::move(rows));
}

// Hash aggregation: each row's keys, then its arguments, evaluated in
// expression order; groups in first-appearance order.
Relation RowAggregate(const Plan& plan, const Relation& input) {
  RowIds group_of;
  std::vector<Row> keys;
  std::vector<int64_t> stars;
  std::vector<std::vector<AggState>> states;
  auto add_group = [&](Row key) {
    keys.push_back(std::move(key));
    stars.push_back(0);
    states.emplace_back();
    for (const AggExpr& a : plan.aggs) states.back().emplace_back(a.func);
  };
  for (const Row& row : input.rows()) {
    Row key;
    for (const ExprPtr& e : plan.exprs) key.push_back(e->Eval(row));
    std::vector<Value> args;
    for (const AggExpr& a : plan.aggs) {
      args.push_back(a.func == AggFunc::kCountStar ? Value::Null()
                                                   : a.arg->Eval(row));
    }
    const uint32_t g = IdOf(group_of, key);
    if (g == keys.size()) add_group(std::move(key));
    ++stars[g];
    for (size_t a = 0; a < plan.aggs.size(); ++a) states[g][a].Accumulate(args[a]);
  }
  if (plan.exprs.empty() && keys.empty()) add_group({});
  Relation out(plan.schema);
  for (size_t g = 0; g < keys.size(); ++g) {
    Row row = keys[g];
    for (const AggState& s : states[g]) row.push_back(s.Finalize(stars[g]));
    out.AddRow(std::move(row));
  }
  return out;
}

// Row `row`'s trailing interval; false when it is empty.  Non-integer
// endpoints throw, begin first.
bool RowInterval(const Row& row, TimePoint* b, TimePoint* e) {
  const size_t n = row.size();
  for (size_t c : {n - 2, n - 1}) {
    if (row[c].TryInt() == nullptr) {
      throw EngineError("temporal column must hold integer time points, got " +
                        row[c].ToString());
    }
  }
  *b = row[n - 2].AsInt();
  *e = row[n - 1].AsInt();
  return *b < *e;
}

// Split: the endpoints of each group over both inputs (left rows, then
// right rows), then each left interval cut at its group's endpoints.
Relation RowSplit(const Relation& left, const Relation& right,
                  const std::vector<int>& group_cols) {
  RowIds group_of;
  std::vector<std::vector<TimePoint>> endpoints;
  for (const Relation* input : {&left, &right}) {
    for (const Row& row : input->rows()) {
      TimePoint b = 0;
      TimePoint e = 0;
      if (!RowInterval(row, &b, &e)) continue;
      const uint32_t g = IdOf(group_of, Cells(row, group_cols));
      if (g == endpoints.size()) endpoints.emplace_back();
      endpoints[g].push_back(b);
      endpoints[g].push_back(e);
    }
  }
  for (std::vector<TimePoint>& pts : endpoints) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }
  Relation out(left.schema());
  for (const Row& row : left.rows()) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!RowInterval(row, &b, &e)) continue;
    TimePoint start = b;
    for (TimePoint t : endpoints[group_of.at(Cells(row, group_cols))]) {
      if (t <= b || t >= e) continue;
      Row frag(row.begin(), row.end() - 2);
      frag.push_back(Value::Int(start));
      frag.push_back(Value::Int(t));
      out.AddRow(std::move(frag));
      start = t;
    }
    Row frag(row.begin(), row.end() - 2);
    frag.push_back(Value::Int(start));
    frag.push_back(Value::Int(e));
    out.AddRow(std::move(frag));
  }
  return out;
}

// Split-aggregate, fragment by fragment: per group (first appearance),
// the elementary fragments between its endpoints, each aggregated over
// the rows open on it in row order.  With gap rows the fragments cover
// the domain.
Relation RowSplitAggregate(const Relation& input,
                           const std::vector<int>& group_cols,
                           const std::vector<AggExpr>& aggs, bool gap_rows,
                           const TimeDomain& domain) {
  struct Item {
    TimePoint begin;
    TimePoint end;
    std::vector<Value> args;
  };
  RowIds group_of;
  std::vector<Row> keys;
  std::vector<std::vector<Item>> items;
  for (const Row& row : input.rows()) {
    Item item;
    if (!RowInterval(row, &item.begin, &item.end)) continue;
    for (const AggExpr& a : aggs) {
      if (a.func != AggFunc::kCountStar) item.args.push_back(a.arg->Eval(row));
    }
    const uint32_t g = IdOf(group_of, Cells(row, group_cols));
    if (g == keys.size()) {
      keys.push_back(Cells(row, group_cols));
      items.emplace_back();
    }
    items[g].push_back(std::move(item));
  }
  if (gap_rows && group_cols.empty() && keys.empty()) {
    keys.emplace_back();
    items.emplace_back();
  }
  Schema schema;
  for (int c : group_cols) schema.Append(input.schema().at(static_cast<size_t>(c)));
  for (const AggExpr& a : aggs) schema.Append(Column(a.name));
  schema.Append(Column("a_begin"));
  schema.Append(Column("a_end"));
  Relation out(std::move(schema));
  for (size_t g = 0; g < keys.size(); ++g) {
    // The fragment [from, to) aggregates the rows open at `at`.
    auto emit = [&](TimePoint at, TimePoint from, TimePoint to) {
      if (gap_rows) {
        from = std::max(from, domain.tmin);
        to = std::min(to, domain.tmax);
      }
      int64_t star = 0;
      std::vector<AggState> states;
      for (const AggExpr& a : aggs) states.emplace_back(a.func);
      for (const Item& item : items[g]) {
        if (item.begin > at || at >= item.end) continue;
        ++star;
        size_t k = 0;
        for (size_t a = 0; a < aggs.size(); ++a) {
          if (aggs[a].func != AggFunc::kCountStar) {
            states[a].Accumulate(item.args[k++]);
          }
        }
      }
      if (from >= to || (star == 0 && !gap_rows)) return;
      Row row = keys[g];
      for (const AggState& s : states) {
        row.push_back(s.Finalize(star));
      }
      row.push_back(Value::Int(from));
      row.push_back(Value::Int(to));
      out.AddRow(std::move(row));
    };
    std::vector<TimePoint> times;
    for (const Item& item : items[g]) {
      times.push_back(item.begin);
      times.push_back(item.end);
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());
    if (gap_rows && (times.empty() || times.front() > domain.tmin)) {
      emit(domain.tmin, domain.tmin,
           times.empty() ? domain.tmax : times.front());
    }
    for (size_t i = 0; i + 1 < times.size(); ++i) {
      emit(times[i], times[i], times[i + 1]);
    }
    if (gap_rows && !times.empty() && times.back() < domain.tmax) {
      emit(times.back(), times.back(), domain.tmax);
    }
  }
  return out;
}

// The operator tables: a join and group key, a string, a bool, a
// NULL-heavy int, a mixed column, an aggregation argument and the
// interval.
enum OperatorColumn { kKey, kStr, kBool, kSparse, kMix, kArg, kBegin, kEnd,
                      kOperatorArity };

Schema OperatorSchema() {
  return Schema::FromNames({"k", "s", "b", "n", "m", "v", "a_begin", "a_end"});
}

// Key cells of one table: ints; doubles with -0.0, 0.0 and NaN; or ints
// mixed with equal doubles (1 and 1.0).
Value KeyCell(Rng* rng, int kind) {
  if (rng->Chance(0.15)) return Value::Null();
  const int64_t i = rng->Range(0, 3);
  switch (kind) {
    case 0:
      return Value::Int(i);
    case 1:
      if (rng->Chance(0.1)) {
        return Value::Double(std::numeric_limits<double>::quiet_NaN());
      }
      if (i == 0) return Value::Double(rng->Chance(0.5) ? -0.0 : 0.0);
      return Value::Double(static_cast<double>(i) + (rng->Chance(0.3) ? 0.5 : 0));
    default:
      return rng->Chance(0.5) ? Value::Int(i)
                              : Value::Double(static_cast<double>(i));
  }
}

// Aggregation arguments: small ints and dyadic doubles (sums exact in
// any order), -0.0, infinities and, with `nan`, NaN.
Value ArgCell(Rng* rng, bool nan) {
  if (rng->Chance(0.15)) return Value::Null();
  switch (rng->Uniform(nan ? 6 : 5)) {
    case 0:
      return Value::Double(-0.0);
    case 1:
      return Value::Double(static_cast<double>(rng->Range(-16, 16)) / 4.0);
    case 2:
      return Value::Double(rng->Chance(0.5)
                               ? std::numeric_limits<double>::infinity()
                               : -std::numeric_limits<double>::infinity());
    case 5:
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    default:
      return Value::Int(rng->Range(-20, 20));
  }
}

struct TableShape {
  int key_kind = 0;
  std::vector<const char*> strings;
  // 0: integer intervals; 1: also empty and reversed ones; 2: also NULL,
  // double and string endpoints.
  int endpoints = 0;
  bool nan_args = true;
};

// `rows` random rows; some repeat an earlier row, some copy a row of
// `other` with its key, when an int, turned into the equal double.
Relation OperatorTable(Rng* rng, size_t rows, const TableShape& shape,
                       const Relation* other) {
  Relation t(OperatorSchema());
  for (size_t r = 0; r < rows; ++r) {
    if (!t.empty() && rng->Chance(0.15)) {
      t.AddRow(t.rows()[rng->Uniform(t.size())]);
      continue;
    }
    if (other != nullptr && !other->empty() && rng->Chance(0.35)) {
      Row row = other->rows()[rng->Uniform(other->size())];
      if (const int64_t* k = row[kKey].TryInt(); k != nullptr && rng->Chance(0.5)) {
        row[kKey] = Value::Double(static_cast<double>(*k));
      }
      t.AddRow(std::move(row));
      continue;
    }
    Row row(kOperatorArity);
    row[kKey] = KeyCell(rng, shape.key_kind);
    row[kStr] = rng->Chance(0.15)
                    ? Value::Null()
                    : Value::String(shape.strings[rng->Uniform(shape.strings.size())]);
    row[kBool] = RandomCell(rng, kBoolCol);
    row[kSparse] = RandomCell(rng, kNullCol);
    row[kMix] = RandomCell(rng, kMixedCol);
    row[kArg] = ArgCell(rng, shape.nan_args);
    const int64_t b = rng->Range(0, 11);
    row[kBegin] = Value::Int(b);
    row[kEnd] = Value::Int(b + 1 + rng->Range(0, 5));
    if (shape.endpoints > 0 && rng->Chance(0.2)) {
      switch (rng->Uniform(shape.endpoints == 1 ? 1 : 4)) {
        case 0:
          row[kEnd] = Value::Int(b - rng->Range(0, 2));  // empty or reversed
          break;
        case 1:
          row[kBegin] = Value::Null();
          break;
        case 2:
          row[kEnd] = Value::Double(static_cast<double>(b) + 2.5);
          break;
        default:
          row[kBegin] = Value::String("t");
          break;
      }
    }
    t.AddRow(std::move(row));
  }
  return t;
}

// One operator: its reference over the row-stored inputs and its run
// over either layout.
struct LayoutCase {
  std::string name;
  std::function<Relation(const Catalog&)> reference;
  std::function<Relation(const Catalog&)> run;
};

// Runs the case over both catalogs; adds to the error and row tallies.
void ExpectLayoutOnly(const LayoutCase& c, const Catalog& rows_cat,
                      const Catalog& cols_cat, const std::string& context,
                      int* errors, int* rows_out) {
  Outcome want = Capture([&] { return c.reference(rows_cat); });
  if (want.rows.has_value()) {
    *rows_out += static_cast<int>(want.rows->size());
  } else {
    ++*errors;
  }
  for (const Catalog* catalog : {&rows_cat, &cols_cat}) {
    Outcome got = Capture([&] { return c.run(*catalog); });
    const std::string where = StrCat(
        context, " ", c.name, catalog == &rows_cat ? " rows" : " columns");
    auto diff = OutcomeDiff(got, want);
    ASSERT_FALSE(diff.has_value()) << where << ": " << *diff;
    if (got.rows.has_value()) {
      EXPECT_TRUE(got.rows->is_columnar()) << where;
    }
  }
}

// The join predicates: equi-keys, an overlap conjunct, both, or an
// opaque disjunction, each with or without a residual; some residuals
// throw on some rows.
ExprPtr JoinResidual(Rng* rng) {
  const int right = kOperatorArity;
  switch (rng->Uniform(7)) {
    case 0:
      return Lt(Col(kArg), Col(right + kArg));
    case 1:
      return Ne(Col(kStr), Col(right + kStr));
    case 2:
      return Or(Col(kBool), Col(right + kBool));
    case 3:  // throws on string and bool cells
      return Gt(Add(Col(kMix), LitInt(1)), LitInt(0));
    case 4:  // throws on non-boolean cells
      return And(Col(right + kMix), Lit(Value::Bool(true)));
    case 5:  // out of range: throws at the first tested pair
      return Gt(Col(3 * right), LitInt(0));
    default:
      return nullptr;
  }
}

TEST(ColumnarEquivalenceTest, OperatorsChangeOnlyTheLayout) {
  const Schema schema = OperatorSchema();
  const int right = kOperatorArity;
  const ExprPtr equi = Eq(Col(kKey), Col(right + kKey));
  const ExprPtr overlap = And(Lt(Col(kBegin), Col(right + kEnd)),
                              Lt(Col(right + kBegin), Col(kEnd)));
  const ExprPtr opaque = Or(Eq(Col(kKey), Col(right + kKey)),
                            Lt(Col(kArg), Col(right + kArg)));
  const TimeDomain domain{2, 14};
  int errors = 0;
  int rows_out = 0;
  for (int seed = 0; seed < 120; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0x1a10c);
    TableShape lshape{static_cast<int>(rng.Uniform(3)),
                      {"a", "abc", "green"},
                      static_cast<int>(rng.Uniform(3))};
    TableShape rshape{static_cast<int>(rng.Uniform(3)),
                      {"abc", "green", "zeta", "a%b"},
                      lshape.endpoints};
    Relation l = OperatorTable(&rng, rng.Uniform(16), lshape, nullptr);
    Relation r = OperatorTable(&rng, rng.Uniform(16), rshape, &l);
    Catalog rows_cat;
    rows_cat.Put("l", l);
    rows_cat.Put("r", r);
    Catalog cols_cat = Columnarized(rows_cat);
    const PlanPtr ls = MakeScan("l", schema);
    const PlanPtr rs = MakeScan("r", schema);

    std::vector<LayoutCase> cases;
    auto add_join = [&](const std::string& name, const ExprPtr& predicate) {
      ExprPtr residual = JoinResidual(&rng);
      PlanPtr join = MakeJoin(ls, rs, residual == nullptr
                                          ? predicate
                                          : And(predicate, residual));
      const bool analyzed =
          !join->join.equi_keys.empty() || join->join.overlap.has_value();
      auto inputs = [](const Catalog& c) {
        return std::pair<const Relation&, const Relation&>(c.Get("l"),
                                                           c.Get("r"));
      };
      cases.push_back({name + " nested-loop",
                       [=](const Catalog& c) {
                         return RowNestedLoopJoin(*join, c.Get("l"), c.Get("r"));
                       },
                       [=](const Catalog& c) {
                         auto [lrel, rrel] = inputs(c);
                         return NestedLoopJoin(*join, lrel, rrel);
                       }});
      if (join->join.overlap.has_value()) {
        cases.push_back({name + " overlap",
                         [=](const Catalog& c) {
                           return RowOverlapJoin(*join, c.Get("l"), c.Get("r"));
                         },
                         [=](const Catalog& c) {
                           auto [lrel, rrel] = inputs(c);
                           return IntervalOverlapJoin(*join, lrel, rrel);
                         }});
      } else if (analyzed) {
        cases.push_back({name + " hash",
                         [=](const Catalog& c) {
                           return RowNestedLoopJoin(*join, c.Get("l"), c.Get("r"));
                         },
                         [=](const Catalog& c) {
                           auto [lrel, rrel] = inputs(c);
                           return HashJoin(*join, lrel, rrel);
                         }});
      }
    };
    add_join("equi", equi);
    add_join("equi+overlap", And(equi, overlap));
    add_join("overlap", overlap);
    add_join("opaque", opaque);

    auto add_plan = [&](const std::string& name, const PlanPtr& plan,
                        std::function<Relation(const Catalog&)> reference) {
      cases.push_back({name, std::move(reference),
                       [=](const Catalog& c) { return Execute(plan, c); }});
    };
    PlanPtr union_all = MakeUnionAll(ls, rs);
    add_plan("union", union_all, [=](const Catalog& c) {
      return RowUnionAll(*union_all, c.Get("l"), c.Get("r"));
    });
    PlanPtr except = MakeExceptAll(ls, rs);
    add_plan("except", except, [=](const Catalog& c) {
      return RowExceptAll(*except, c.Get("l"), c.Get("r"));
    });
    PlanPtr anti = MakeAntiJoin(ls, rs);
    add_plan("anti-join", anti, [=](const Catalog& c) {
      return RowAntiJoin(*anti, c.Get("l"), c.Get("r"));
    });
    PlanPtr distinct = MakeDistinct(MakeUnionAll(ls, rs));
    add_plan("distinct", distinct, [=](const Catalog& c) {
      return RowDistinct(*distinct, RowUnionAll(*union_all, c.Get("l"),
                                                c.Get("r")));
    });
    const std::vector<SortKey> sort_keys[] = {
        {{kKey, true}, {kStr, false}}, {{kMix, true}}, {{kArg, false}, {kBegin, true}}};
    PlanPtr sort = MakeSort(ls, sort_keys[rng.Uniform(3)]);
    add_plan("sort", sort, [=](const Catalog& c) {
      return RowSort(*sort, c.Get("l"));
    });
    std::vector<AggExpr> aggs = {
        {AggFunc::kCountStar, nullptr, "cnt"},
        {AggFunc::kCount, Col(kMix), "cnt_m"},
        {AggFunc::kSum, Col(kArg), "sum_v"},
        {AggFunc::kAvg, Col(kArg), "avg_v"},
        {AggFunc::kMin, Col(kStr), "min_s"},
        {AggFunc::kMax, Col(kSparse), "max_n"}};
    std::vector<ExprPtr> group_exprs = {Col(kKey), Col(kBool)};
    if (rng.Chance(0.3)) group_exprs = {Add(Col(kMix), LitInt(1))};  // throws
    if (rng.Chance(0.2)) group_exprs = {};
    std::vector<Column> group_names;
    for (size_t g = 0; g < group_exprs.size(); ++g) {
      group_names.push_back(Column(StrCat("g", g)));
    }
    PlanPtr aggregate = MakeAggregate(ls, group_exprs, group_names, aggs);
    add_plan("aggregate", aggregate, [=](const Catalog& c) {
      return RowAggregate(*aggregate, c.Get("l"));
    });

    const std::vector<int> groupings[] = {{}, {kKey}, {kStr, kBool}};
    const std::vector<int> group_cols = groupings[rng.Uniform(3)];
    cases.push_back({"split",
                     [=](const Catalog& c) {
                       return RowSplit(c.Get("l"), c.Get("r"), group_cols);
                     },
                     [=](const Catalog& c) {
                       return SplitRelation(c.Get("l"), c.Get("r"), group_cols);
                     }});
    const bool gap_rows = rng.Chance(0.5);
    const bool pre_aggregate = rng.Chance(0.5);
    std::vector<AggExpr> split_aggs = aggs;
    if (rng.Chance(0.2)) {  // throws on string and bool cells
      split_aggs.push_back({AggFunc::kSum, Add(Col(kMix), LitInt(1)), "bad"});
    }
    cases.push_back(
        {"split-aggregate",
         [=](const Catalog& c) {
           return RowSplitAggregate(c.Get("l"), group_cols, split_aggs,
                                    gap_rows, domain);
         },
         [=](const Catalog& c) {
           return SplitAggregateRelation(c.Get("l"), group_cols, split_aggs,
                                         gap_rows, domain, pre_aggregate);
         }});

    for (const LayoutCase& c : cases) {
      ExpectLayoutOnly(c, rows_cat, cols_cat, StrCat("seed ", seed), &errors,
                       &rows_out);
      if (HasFatalFailure()) return;
    }
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(errors, 200);
  EXPECT_GT(rows_out, 8000);
}

TEST(ColumnarEquivalenceTest, HashJoinMatchesNestedLoopOnRandomEquiJoins) {
  // One or two equi-key pairs over any column kind (so some keys compare
  // across tags, some are mixed or hold NaN), with or without a
  // residual, some of which throw: the hash join must emit the nested
  // loop's rows, in its order, or throw its error.  Either input is the
  // smaller one, so either is the build side.
  const Schema schema = OperatorSchema();
  const int right = kOperatorArity;
  int joined = 0;
  int errors = 0;
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0x4a54);
    TableShape lshape{static_cast<int>(rng.Uniform(3)), {"a", "abc"}, 1};
    TableShape rshape{static_cast<int>(rng.Uniform(3)), {"abc", "zeta"}, 1};
    const size_t small = rng.Uniform(10);
    const size_t large = small + 1 + rng.Uniform(20);
    const bool left_small = seed % 2 == 0;
    Relation l =
        OperatorTable(&rng, left_small ? small : large, lshape, nullptr);
    Relation r = OperatorTable(&rng, left_small ? large : small, rshape, &l);
    std::vector<ExprPtr> conjuncts;
    for (uint64_t k = 0, n = 1 + rng.Uniform(2); k < n; ++k) {
      const int col = static_cast<int>(rng.Uniform(kBegin));
      conjuncts.push_back(Eq(Col(col), Col(right + col)));
    }
    if (ExprPtr residual = JoinResidual(&rng)) conjuncts.push_back(residual);
    PlanPtr join = MakeJoin(MakeScan("l", schema), MakeScan("r", schema),
                            AndAll(conjuncts));
    ASSERT_FALSE(join->join.equi_keys.empty());
    Relation lc = l;
    Relation rc = r;
    lc.ToColumnar();
    rc.ToColumnar();
    for (const auto& [lrel, rrel] : {std::pair<const Relation*, const Relation*>{&l, &r},
                                     {&lc, &rc}}) {
      Outcome hash = Capture([&] { return HashJoin(*join, *lrel, *rrel); });
      Outcome loop = Capture([&] { return NestedLoopJoin(*join, *lrel, *rrel); });
      auto diff = OutcomeDiff(hash, loop);
      ASSERT_FALSE(diff.has_value()) << "seed " << seed << ": " << *diff;
      if (loop.rows.has_value()) {
        joined += static_cast<int>(loop.rows->size());
      } else {
        ++errors;
      }
    }
  }
  EXPECT_GT(joined, 500);
  EXPECT_GT(errors, 40);
}

TEST(ColumnarEquivalenceTest, EveryOperatorButWindowCoalescingEmitsColumns) {
  // Row-stored base tables, so no output is columnar by inheritance.
  constexpr TimeDomain kDomain{0, 16};
  int checked = 0;
  for (int seed = 0; seed < 100; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0xc01);
    Catalog catalog = RandomEncodedCatalog(&rng, kDomain, 10, 0.25, 0.2);
    PlanPtr encoded_p = AddRandomPeriodTable(&rng, &catalog, kDomain, 10,
                                             0.25, 0.2);
    RewriteOptions options;
    options.coalesce_impl =
        rng.Chance(0.5) ? CoalesceImpl::kNative : CoalesceImpl::kWindow;
    options.fuse_aggregation = rng.Chance(0.5);
    RandomQueryConfig qc;
    qc.period_scan_chance = 0.25;
    RandomQueryGenerator gen(&rng, qc);
    PlanPtr query = gen.Generate(3);
    PlanPtr plan = SnapshotRewriter(kDomain, options,
                                    PeriodScanEncodings(query, encoded_p))
                       .Rewrite(query);
    std::unordered_set<const Plan*> seen;
    std::function<void(const PlanPtr&)> visit = [&](const PlanPtr& node) {
      if (node == nullptr || !seen.insert(node.get()).second) return;
      visit(node->left);
      visit(node->right);
      if (node->kind == PlanKind::kScan || node->kind == PlanKind::kConstant) {
        return;
      }
      Relation out = Execute(node, catalog);
      const bool window = node->kind == PlanKind::kCoalesce &&
                          node->coalesce_impl == CoalesceImpl::kWindow;
      EXPECT_EQ(out.is_columnar(), !window)
          << "seed " << seed << ": " << PlanKindName(node->kind);
      ++checked;
    };
    visit(plan);
  }
  EXPECT_GT(checked, 500);
}

TEST(ColumnarEquivalenceTest, SplitAggregateSumTagsDifferByGroup) {
  // Group 0's SUM overflows int64 and widens to double; every other
  // group's stays an int, so the SUM column mixes the two tags.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Relation input(Schema::FromNames({"g", "v", "a_begin", "a_end"}));
  for (int g = 0; g < 8; ++g) {
    for (int i = 0; i < 3; ++i) {
      const int begin = g == 0 ? 0 : i;
      input.AddRow({Value::Int(g), Value::Int(g == 0 ? kMax : g + i),
                    Value::Int(begin), Value::Int(begin + 4)});
    }
  }
  const std::vector<AggExpr> aggs = {{AggFunc::kSum, Col(1), "sum_v"},
                                     {AggFunc::kCountStar, nullptr, "cnt"}};
  Relation one = SplitAggregateRelation(input, {0}, aggs, false, {0, 10});
  EXPECT_TRUE(one.is_columnar());
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one.rows().front()[1].type(), ValueType::kDouble);
  EXPECT_EQ(one.rows().back()[1].type(), ValueType::kInt);
}

}  // namespace
}  // namespace periodk
