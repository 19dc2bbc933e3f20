// Columnar relation storage (engine/column.h, engine/relation.h;
// docs/architecture.md §9): encode-time tag selection, sorted string
// dictionaries, validity bitmaps, the lazily materialized row view --
// and whole-plan equivalence: the vectorized kernel fast paths must
// produce row-for-row identical output to the row storage path at
// num_threads=1, and bag-equal output under parallel execution.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "engine/column.h"
#include "engine/executor.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "rewrite/rewriter.h"
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
/// storage of the same base tables.  At num_threads=1 the outputs must
/// be row-for-row identical -- or both runs must throw the same error;
/// under the chunked parallel paths they must stay bag-equal (or both
/// throw).  With `mix` the tables hold non-integer data
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

    ExecOptions parallel;
    parallel.num_threads = 4;
    Outcome by_cols_mt = RunPlan(plan, cols_cat, parallel);
    ASSERT_EQ(by_cols_mt.rows.has_value(), by_rows.rows.has_value())
        << "seed " << seed << " (parallel): " << by_cols_mt.error;
    if (by_rows.rows.has_value()) {
      ASSERT_TRUE(by_cols_mt.rows->BagEquals(*by_rows.rows))
          << "seed " << seed << " (parallel)\nplan:\n" << plan->ToString();
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

// Columns of the random layout table, one per kind of cell.
enum LayoutColumn { kIntCol, kDoubleCol, kBoolCol, kStringCol, kNullCol,
                    kMixedCol, kLayoutArity };

Value RandomInt(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0:
      return Value::Int(std::numeric_limits<int64_t>::max());
    case 1:
      return Value::Int(std::numeric_limits<int64_t>::min());
    case 2:
      return Value::Int(0);
    default:
      return Value::Int(rng->Range(-800, 800));
  }
}

Value RandomDouble(Rng* rng) {
  switch (rng->Uniform(7)) {
    case 0:
      return Value::Double(-0.0);
    case 1:
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    case 2:
      return Value::Double(0.0);
    case 3:
      return Value::Double(std::numeric_limits<double>::infinity());
    default:
      return Value::Double(static_cast<double>(rng->Range(-64, 64)) / 8.0);
  }
}

Value RandomString(Rng* rng) {
  const char* strings[] = {"", "a", "abc", "green", "xgreeny", "a%b", "A_c"};
  return Value::String(strings[rng->Uniform(7)]);
}

Value RandomCell(Rng* rng, LayoutColumn col) {
  if (rng->Chance(col == kNullCol ? 0.85 : 0.15)) return Value::Null();
  switch (col) {
    case kIntCol:
    case kNullCol:
      return RandomInt(rng);
    case kDoubleCol:
      return RandomDouble(rng);
    case kBoolCol:
      return Value::Bool(rng->Chance(0.5));
    case kStringCol:
      return RandomString(rng);
    default:
      break;
  }
  switch (rng->Uniform(4)) {  // kMixedCol
    case 0:
      return RandomInt(rng);
    case 1:
      return RandomDouble(rng);
    case 2:
      return Value::Bool(rng->Chance(0.5));
    default:
      return RandomString(rng);
  }
}

/// Random expression trees over every ExprKind and ScalarFunc.  Each
/// subtree is drawn for a wanted type (numeric, bool, string); with a
/// small chance it is drawn for any type, so type errors occur too, and
/// column references now and then fall outside the table.
class RandomLayoutExpr {
 public:
  enum Want { kNumeric, kBool, kString, kAny };

  explicit RandomLayoutExpr(Rng* rng) : rng_(rng) {}

  ExprPtr Gen(Want want, int depth) {
    if (rng_->Chance(0.06)) want = kAny;
    if (want == kAny) want = static_cast<Want>(rng_->Uniform(3));
    if (depth <= 0 || rng_->Chance(0.3)) return Leaf(want);
    switch (want) {
      case kNumeric:
        return Numeric(depth - 1);
      case kBool:
        return Bool(depth - 1);
      default:
        return String(depth - 1);
    }
  }

  ExprPtr Column(Want want) {
    if (rng_->Chance(0.03)) {
      return Col(kLayoutArity + static_cast<int>(rng_->Uniform(3)));
    }
    const LayoutColumn numeric[] = {kIntCol, kDoubleCol, kNullCol, kMixedCol};
    switch (want) {
      case kNumeric:
        return Col(numeric[rng_->Uniform(4)]);
      case kBool:
        return Col(rng_->Chance(0.8) ? kBoolCol : kMixedCol);
      case kString:
        return Col(rng_->Chance(0.8) ? kStringCol : kMixedCol);
      default:
        return Col(static_cast<int>(rng_->Uniform(kLayoutArity)));
    }
  }

 private:
  ExprPtr Leaf(Want want) {
    if (rng_->Chance(0.6)) return Column(want);
    if (rng_->Chance(0.1)) return Lit(Value::Null());
    switch (want) {
      case kNumeric:
        return Lit(rng_->Chance(0.5) ? RandomInt(rng_) : RandomDouble(rng_));
      case kBool:
        return Lit(Value::Bool(rng_->Chance(0.5)));
      default:
        return Lit(RandomString(rng_));
    }
  }

  ExprPtr Numeric(int depth) {
    switch (rng_->Uniform(6)) {
      case 0:
      case 1: {
        // + - * / %, with zero divisors and overflowing operands.
        auto op = static_cast<ArithOp>(rng_->Uniform(5));
        ExprPtr rhs = rng_->Chance(0.2) ? LitInt(0) : Gen(kNumeric, depth);
        if (op == ArithOp::kMod && rng_->Chance(0.5)) {
          rhs = LitInt(rng_->Range(-3, 3));
        }
        return Arith(op, Gen(kNumeric, depth), std::move(rhs));
      }
      case 2:
        return Neg(Gen(kNumeric, depth));
      case 3: {
        auto f = static_cast<ScalarFunc>(rng_->Uniform(5));
        std::vector<ExprPtr> args;
        size_t n = f == ScalarFunc::kLeast || f == ScalarFunc::kGreatest
                       ? 1 + rng_->Uniform(3)
                       : f == ScalarFunc::kIfNull ? 2 : 1;
        for (size_t i = 0; i < n; ++i) args.push_back(Gen(kNumeric, depth));
        return Func(f, std::move(args));
      }
      default:
        return Case(kNumeric, depth);
    }
  }

  ExprPtr Bool(int depth) {
    switch (rng_->Uniform(9)) {
      case 0: {
        Want side = rng_->Chance(0.7) ? kNumeric : kString;
        return Cmp(static_cast<CompareOp>(rng_->Uniform(6)), Gen(side, depth),
                   Gen(side, depth));
      }
      case 1:
        return And(Gen(kBool, depth), Gen(kBool, depth));
      case 2:
        return Or(Gen(kBool, depth), Gen(kBool, depth));
      case 3:
        return Not(Gen(kBool, depth));
      case 4: {
        std::vector<ExprPtr> candidates;
        for (uint64_t i = 0, n = 1 + rng_->Uniform(3); i < n; ++i) {
          candidates.push_back(Gen(kNumeric, depth));
        }
        return InList(Gen(kNumeric, depth), std::move(candidates),
                      rng_->Chance(0.5));
      }
      case 5:
        return Between(Gen(kNumeric, depth), Gen(kNumeric, depth),
                       Gen(kNumeric, depth), rng_->Chance(0.5));
      case 6:
        return IsNull(Gen(kAny, depth), rng_->Chance(0.5));
      case 7: {
        const char* patterns[] = {"%green%", "a%", "_", "%", "A\\_c", "abc"};
        ExprPtr pattern = rng_->Chance(0.7)
                              ? LitStr(patterns[rng_->Uniform(6)])
                              : Gen(kString, depth);
        return Like(Gen(kString, depth), std::move(pattern), rng_->Chance(0.5));
      }
      default:
        return Case(kBool, depth);
    }
  }

  ExprPtr String(int depth) {
    if (rng_->Chance(0.5)) {
      return Func(ScalarFunc::kIfNull,
                  {Gen(kString, depth), Gen(kString, depth)});
    }
    return Case(kString, depth);
  }

  // CASE over one or two branches, sometimes with an untaken branch
  // whose value would throw, and sometimes without ELSE.
  ExprPtr Case(Want want, int depth) {
    std::vector<std::pair<ExprPtr, ExprPtr>> branches;
    if (rng_->Chance(0.3)) {
      Value untaken = rng_->Chance(0.5) ? Value::Bool(false) : Value::Null();
      branches.emplace_back(Lit(untaken), Add(LitStr("abc"), LitInt(1)));
    }
    for (uint64_t i = 0, n = 1 + rng_->Uniform(2); i < n; ++i) {
      branches.emplace_back(Gen(kBool, depth), Gen(want, depth));
    }
    return CaseWhen(std::move(branches),
                    rng_->Chance(0.7) ? Gen(want, depth) : nullptr);
  }

  Rng* rng_;
};

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

}  // namespace
}  // namespace periodk
