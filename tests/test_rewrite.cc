// End-to-end tests of REWR (paper Fig. 4) on the running example:
// the rewritten queries must produce exactly the paper's Figure 1b/1c
// results, match the naive snapshot-by-snapshot oracle, and stay
// invariant under every optimization option.  The baseline semantics
// must exhibit exactly the AG and BD bugs described in the paper.
#include "rewrite/rewriter.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "baseline/naive.h"
#include "engine/temporal_ops.h"
#include "rewrite/period_enc.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

Relation RunRewritten(const PlanPtr& query, const RewriteOptions& options) {
  SnapshotRewriter rewriter(kExampleDomain, options);
  Catalog catalog = ExampleCatalog();
  return Execute(rewriter.Rewrite(query), catalog);
}

Relation Figure1b() {
  return EncodedRelation({"cnt"},
                         {{{Value::Int(0)}, Interval(0, 3)},
                          {{Value::Int(1)}, Interval(3, 8)},
                          {{Value::Int(2)}, Interval(8, 10)},
                          {{Value::Int(1)}, Interval(10, 16)},
                          {{Value::Int(0)}, Interval(16, 18)},
                          {{Value::Int(1)}, Interval(18, 20)},
                          {{Value::Int(0)}, Interval(20, 24)}});
}

Relation Figure1c() {
  return EncodedRelation({"skill"},
                         {{{Value::String("SP")}, Interval(6, 8)},
                          {{Value::String("SP")}, Interval(10, 12)},
                          {{Value::String("NS")}, Interval(3, 8)}});
}

TEST(RewriteExampleTest, QOnDutyMatchesFigure1b) {
  Relation out = RunRewritten(QOnDuty(), RewriteOptions{});
  EXPECT_TRUE(out.BagEquals(Figure1b())) << out.ToString();
}

TEST(RewriteExampleTest, QSkillReqMatchesFigure1c) {
  Relation out = RunRewritten(QSkillReq(), RewriteOptions{});
  EXPECT_TRUE(out.BagEquals(Figure1c())) << out.ToString();
}

TEST(RewriteExampleTest, OptionCombinationsAllAgree) {
  for (bool hoist : {true, false}) {
    for (bool fuse : {true, false}) {
      for (bool preagg : {true, false}) {
        for (CoalesceImpl impl :
             {CoalesceImpl::kNative, CoalesceImpl::kWindow}) {
          RewriteOptions o;
          o.hoist_coalesce = hoist;
          o.fuse_aggregation = fuse;
          o.pre_aggregate = preagg;
          o.coalesce_impl = impl;
          ASSERT_TRUE(RunRewritten(QOnDuty(), o).BagEquals(Figure1b()))
              << "hoist=" << hoist << " fuse=" << fuse
              << " preagg=" << preagg;
          ASSERT_TRUE(RunRewritten(QSkillReq(), o).BagEquals(Figure1c()))
              << "hoist=" << hoist << " fuse=" << fuse
              << " preagg=" << preagg;
        }
      }
    }
  }
}

TEST(RewriteExampleTest, MatchesNaiveOracle) {
  Catalog catalog = ExampleCatalog();
  EXPECT_TRUE(RunRewritten(QOnDuty(), RewriteOptions{})
                  .BagEquals(NaiveSnapshotEval(QOnDuty(), catalog,
                                               kExampleDomain)));
  EXPECT_TRUE(RunRewritten(QSkillReq(), RewriteOptions{})
                  .BagEquals(NaiveSnapshotEval(QSkillReq(), catalog,
                                               kExampleDomain)));
}

TEST(RewriteExampleTest, HoistingProducesSingleCoalesce) {
  RewriteOptions hoisted;
  hoisted.hoist_coalesce = true;
  SnapshotRewriter r1(kExampleDomain, hoisted);
  PlanPtr join_query = MakeSelect(
      MakeJoin(MakeScan("works", WorksSnapshotSchema()),
               MakeScan("assign", AssignSnapshotSchema()),
               Eq(Col(1, "skill"), Col(3, "skill"))),
      Eq(Col(2, "mach"), LitStr("M1")));
  EXPECT_EQ(CountKind(r1.Rewrite(join_query), PlanKind::kCoalesce), 1);
  RewriteOptions unhoisted;
  unhoisted.hoist_coalesce = false;
  SnapshotRewriter r2(kExampleDomain, unhoisted);
  EXPECT_GE(CountKind(r2.Rewrite(join_query), PlanKind::kCoalesce), 2);
}

// --- The AG bug (paper Example 1.1). ---------------------------------------

TEST(BugRegressionTest, AggregationGapBugInBaselines) {
  RewriteOptions alignment;
  alignment.semantics = SnapshotSemantics::kAlignment;
  Relation nat = RunRewritten(QOnDuty(), alignment);
  // PG-Nat-like evaluation returns NO rows for the gaps [0,3), [16,18),
  // [20,24): the count-0 tuples are missing (AG bug).
  for (const Row& row : nat.rows()) {
    ASSERT_NE(row[0], Value::Int(0))
        << "alignment baseline unexpectedly produced a gap row";
  }
  // It still returns the non-gap rows.
  Relation coalesced = CoalesceNative(nat);
  Catalog cat = ExampleCatalog();
  EXPECT_EQ(coalesced.size(), 4u);  // 1,2,1,1 rows of Figure 1b

  RewriteOptions ip;
  ip.semantics = SnapshotSemantics::kIntervalPreservation;
  Relation atsql = RunRewritten(QOnDuty(), ip);
  for (const Row& row : atsql.rows()) {
    ASSERT_NE(row[0], Value::Int(0));
  }
}

TEST(BugRegressionTest, OursReturnsGapRows) {
  Relation ours = RunRewritten(QOnDuty(), RewriteOptions{});
  int gap_rows = 0;
  for (const Row& row : ours.rows()) {
    if (row[0] == Value::Int(0)) ++gap_rows;
  }
  EXPECT_EQ(gap_rows, 3);  // [0,3), [16,18), [20,24)
}

// --- The BD bug (paper Example 1.2). ---------------------------------------

TEST(BugRegressionTest, BagDifferenceBugInBaselines) {
  RewriteOptions alignment;
  alignment.semantics = SnapshotSemantics::kAlignment;
  Relation nat = RunRewritten(QSkillReq(), alignment);
  // The SP rows are erroneously missing: an SP worker exists at every
  // relevant snapshot, so NOT-EXISTS-style difference drops SP entirely.
  for (const Row& row : nat.rows()) {
    ASSERT_NE(row[0], Value::String("SP"))
        << "alignment baseline unexpectedly kept multiplicities";
  }
  // NS is still returned ([3,8) has no NS worker).
  Relation coalesced = CoalesceNative(nat);
  ASSERT_EQ(coalesced.size(), 1u);
  EXPECT_EQ(coalesced.rows()[0][0], Value::String("NS"));

  RewriteOptions ip;
  ip.semantics = SnapshotSemantics::kIntervalPreservation;
  Relation atsql = RunRewritten(QSkillReq(), ip);
  for (const Row& row : atsql.rows()) {
    ASSERT_NE(row[0], Value::String("SP"));
  }
}

// --- Unique encoding. -------------------------------------------------------

TEST(RewriteExampleTest, EncodingUniqueAcrossEquivalentInputs) {
  // Splitting (Ann,SP,[3,10)) into [3,8) + [8,10) changes the input
  // encoding but not the snapshot database; our rewriting must produce
  // the identical (coalesced) output, the baselines need not.
  Catalog split_catalog;
  Relation works(Schema::FromNames({"name", "skill", "a_begin", "a_end"}));
  works.AddRow({Value::String("Ann"), Value::String("SP"), Value::Int(3),
                Value::Int(8)});
  works.AddRow({Value::String("Ann"), Value::String("SP"), Value::Int(8),
                Value::Int(10)});
  works.AddRow({Value::String("Joe"), Value::String("NS"), Value::Int(8),
                Value::Int(16)});
  works.AddRow({Value::String("Sam"), Value::String("SP"), Value::Int(8),
                Value::Int(16)});
  works.AddRow({Value::String("Ann"), Value::String("SP"), Value::Int(18),
                Value::Int(20)});
  split_catalog.Put("works", std::move(works));
  split_catalog.Put("assign", AssignRelation());

  SnapshotRewriter rewriter(kExampleDomain, RewriteOptions{});
  PlanPtr identity = MakeScan("works", WorksSnapshotSchema());
  Relation out_original =
      Execute(rewriter.Rewrite(identity), ExampleCatalog());
  Relation out_split = Execute(rewriter.Rewrite(identity), split_catalog);
  EXPECT_TRUE(out_original.BagEquals(out_split));
  // And the unique encoding equals the PERIODENC image of the logical
  // model (coalesced N^T relation).
  Relation logical = PeriodEnc(
      PeriodDec(ExampleCatalog().Get("works"), kExampleDomain),
      WorksSnapshotSchema());
  EXPECT_TRUE(out_original.BagEquals(logical));
}

TEST(RewriteExampleTest, DistinctUnderSnapshotSemantics) {
  // SELECT DISTINCT skill FROM works: at every point, each present
  // skill exactly once.
  PlanPtr q = MakeDistinct(
      MakeProject(MakeScan("works", WorksSnapshotSchema()),
                  {Col(1, "skill")}, {Column("skill")}));
  Relation ours = RunRewritten(q, RewriteOptions{});
  Catalog catalog = ExampleCatalog();
  Relation oracle = NaiveSnapshotEval(q, catalog, kExampleDomain);
  EXPECT_TRUE(ours.BagEquals(oracle)) << ours.ToString();
  Relation expect = EncodedRelation(
      {"skill"}, {{{Value::String("SP")}, Interval(3, 16)},
                  {{Value::String("SP")}, Interval(18, 20)},
                  {{Value::String("NS")}, Interval(8, 16)}});
  EXPECT_TRUE(ours.BagEquals(expect));
}

// --- Aggregate arguments. ---------------------------------------------------

// The number of columns named agg_arg_* in the projection that
// materializes `plan`'s aggregate arguments, and how many of them pass
// column `col` of the input through.
std::pair<int, int> ArgumentColumns(const PlanPtr& plan, int col) {
  const Plan* args = nullptr;
  std::function<void(const PlanPtr&)> find = [&](const PlanPtr& node) {
    if (node == nullptr || args != nullptr) return;
    if (node->kind == PlanKind::kProject &&
        node->schema.Find("", "agg_arg_0") >= 0) {
      args = node.get();
      return;
    }
    find(node->left);
    find(node->right);
  };
  find(plan);
  EXPECT_NE(args, nullptr) << plan->ToString();
  if (args == nullptr) return {0, 0};
  int named = 0;
  int passed = 0;
  for (size_t c = 0; c < args->exprs.size(); ++c) {
    if (!args->schema.at(c).name.starts_with("agg_arg_")) continue;
    ++named;
    const ExprPtr& e = args->exprs[c];
    passed += e->kind == ExprKind::kColumn && e->column == col;
  }
  return {named, passed};
}

TEST(RewriteAggregateTest, EqualArgumentsShareOneProjectedColumn) {
  // sum(x), avg(x) and count(x) read one projected x.  Literals are
  // equal only in type and bits, so x + NaN and x + 1.0, and x * -0.0
  // and x * 0.0, keep columns of their own.  Sharing changes no cell:
  // the result equals, row for row and bit for bit, the same query with
  // avg over x * 1 and count over x * 1 * 1, which share nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Relation t(Schema::FromNames({"g", "x", "a_begin", "a_end"}));
  const double xs[] = {1.5, -2.0, 0.25, 3.0, -0.5, 1.5};
  for (int i = 0; i < 12; ++i) {
    t.AddRow({Value::Int(i % 2),
              i == 7 ? Value::Null() : Value::Double(xs[i % 6]),
              Value::Int(i), Value::Int(i + 3 + i % 4)});
  }
  Catalog catalog;
  catalog.Put("t", t);
  const ExprPtr x = Col(1, "x");
  const ExprPtr one = LitInt(1);
  auto query = [&](const ExprPtr& avg_arg, const ExprPtr& count_arg) {
    return MakeAggregate(
        MakeScan("t", Schema::FromNames({"g", "x"})), {Col(0, "g")},
        {Column("g")},
        {{AggFunc::kSum, x, "s"},
         {AggFunc::kAvg, avg_arg, "a"},
         {AggFunc::kCount, count_arg, "c"},
         {AggFunc::kMin, Add(x, Lit(Value::Double(nan))), "min_nan"},
         {AggFunc::kMin, Add(x, Lit(Value::Double(1.0))), "min_one"},
         {AggFunc::kMin, Mul(x, Lit(Value::Double(-0.0))), "min_neg_zero"},
         {AggFunc::kMin, Mul(x, Lit(Value::Double(0.0))), "min_zero"}});
  };
  for (bool fuse : {true, false}) {
    RewriteOptions options;
    options.fuse_aggregation = fuse;
    SnapshotRewriter rewriter(TimeDomain{0, 24}, options);
    const PlanPtr shared = rewriter.Rewrite(query(x, x));
    const PlanPtr apart =
        rewriter.Rewrite(query(Mul(x, one), Mul(Mul(x, one), one)));
    // x and the four mins; then x, x * 1, x * 1 * 1 and the four mins.
    EXPECT_EQ(ArgumentColumns(shared, 1), std::pair(5, 1)) << fuse;
    EXPECT_EQ(ArgumentColumns(apart, 1), std::pair(7, 1)) << fuse;

    const Relation got = Execute(shared, catalog);
    const Relation want = Execute(apart, catalog);
    ASSERT_EQ(got.size(), want.size()) << fuse;
    for (size_t r = 0; r < got.size(); ++r) {
      for (size_t c = 0; c < got.schema().size(); ++c) {
        const Value& a = got.rows()[r][c];
        const Value& b = want.rows()[r][c];
        const double* d = a.TryDouble();
        const bool same =
            a.type() == b.type() &&
            (d != nullptr ? std::bit_cast<uint64_t>(*d) ==
                                std::bit_cast<uint64_t>(*b.TryDouble())
                          : a.Compare(b) == 0);
        EXPECT_TRUE(same) << "fuse " << fuse << " row " << r << ": "
                          << RowToString(got.rows()[r]) << " vs "
                          << RowToString(want.rows()[r]);
      }
    }
    // min(x + NaN) is NaN wherever x has a value (NaN ranks above every
    // number), which sharing min(x + 1.0)'s column would have hidden.
    bool saw_nan = false;
    for (const Row& row : got.rows()) {
      const double* d = row[4].TryDouble();
      saw_nan = saw_nan || (d != nullptr && std::isnan(*d));
      EXPECT_TRUE(row[4].is_null() || (d != nullptr && std::isnan(*d)))
          << RowToString(row);
    }
    EXPECT_TRUE(saw_nan);
  }
}

}  // namespace
}  // namespace periodk
