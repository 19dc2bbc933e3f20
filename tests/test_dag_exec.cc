// DAG-aware execution: shared subplans (REWR reuses rewritten inputs in
// snapshot DISTINCT/EXCEPT) must execute exactly once per run, the memo
// must never hand a consumer a relation another consumer still needs,
// and memoized execution must be bag-equivalent to the memo-free
// reference (the plan's tree expansion, tests/tree_expansion.h) on
// arbitrary plans.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "middleware/temporal_db.h"
#include "rewrite/rewriter.h"
#include "tests/random_query.h"
#include "tests/running_example.h"
#include "tests/tree_expansion.h"

namespace periodk {
namespace {

PlanPtr SnapshotScan(const char* table) {
  return MakeScan(table, Schema::FromNames({"a", "b"}));
}

TEST(DagExecTest, SharedSubplanExecutesOnce) {
  Rng rng(7);
  Catalog catalog = RandomEncodedCatalog(&rng, TimeDomain{0, 16}, 12);
  // One shared projection feeding two selections: 5 unique nodes, 7
  // after tree expansion.
  PlanPtr shared = MakeProjectColumns(
      MakeScan("r", Schema::FromNames({"a", "b", "a_begin", "a_end"})),
      {0, 1});
  PlanPtr plan = MakeUnionAll(MakeSelect(shared, Ge(Col(0), LitInt(1))),
                              MakeSelect(shared, Lt(Col(0), LitInt(1))));
  ExecStats memo;
  Relation memoized = Execute(plan, catalog, {}, &memo);
  EXPECT_EQ(memo.nodes_executed, 5);
  EXPECT_EQ(memo.memo_hits, 1);
  ExecStats reference;
  Relation expanded = ExecuteTreeExpanded(plan, catalog, &reference);
  EXPECT_EQ(reference.nodes_executed, 7);
  EXPECT_EQ(reference.memo_hits, 0);
  EXPECT_TRUE(memoized.BagEquals(expanded)) << memoized.ToString();
}

TEST(DagExecTest, MemoizedHandleNotStolenWhileConsumersRemain) {
  Rng rng(11);
  Catalog catalog = RandomEncodedCatalog(&rng, TimeDomain{0, 16}, 12);
  // Both consumers of the shared node are Distinct, which consumes
  // (Materializes) its input.  If the first consumer stole the memoized
  // relation, the second would aggregate over gutted rows.
  PlanPtr shared = MakeProjectColumns(
      MakeScan("r", Schema::FromNames({"a", "b", "a_begin", "a_end"})),
      {0, 1});
  PlanPtr plan = MakeUnionAll(MakeDistinct(shared), MakeDistinct(shared));
  ExecStats stats;
  Relation memoized = Execute(plan, catalog, {}, &stats);
  EXPECT_EQ(stats.memo_hits, 1);
  Relation reference = ExecuteTreeExpanded(plan, catalog);
  EXPECT_TRUE(memoized.BagEquals(reference)) << memoized.ToString();
}

TEST(DagExecTest, RewrittenNestedDistinctSharesSplitInputs) {
  Rng rng(23);
  TimeDomain domain{0, 16};
  Catalog catalog = RandomEncodedCatalog(&rng, domain, 12);
  // distinct(distinct(r)): each snapshot DISTINCT splits its input
  // against itself, so the rewritten plan references every rewritten
  // child twice.
  PlanPtr query = MakeDistinct(MakeDistinct(SnapshotScan("r")));
  SnapshotRewriter rewriter(domain);
  PlanPtr plan = rewriter.Rewrite(query);
  ExecStats memo;
  Relation memoized = Execute(plan, catalog, {}, &memo);
  ExecStats reference;
  Relation expanded = ExecuteTreeExpanded(plan, catalog, &reference);
  // Two nesting levels -> two shared nodes -> two executions avoided;
  // the tree expansion nearly doubles per level instead.
  EXPECT_EQ(memo.memo_hits, 2);
  EXPECT_EQ(memo.nodes_executed, 6);
  EXPECT_EQ(reference.nodes_executed, 11);
  EXPECT_TRUE(memoized.BagEquals(expanded)) << plan->ToString();
}

TEST(DagExecTest, RewrittenExceptAllExecutesEachInputOnce) {
  Rng rng(31);
  TimeDomain domain{0, 16};
  Catalog catalog = RandomEncodedCatalog(&rng, domain, 12);
  // REWR(Q1 - Q2) = C(N(R1, R2) -bag- N(R2, R1)): R1 and R2 are each
  // referenced by both splits.
  PlanPtr query = MakeExceptAll(SnapshotScan("r"), SnapshotScan("s"));
  SnapshotRewriter rewriter(domain);
  PlanPtr plan = rewriter.Rewrite(query);
  ExecStats memo;
  Relation memoized = Execute(plan, catalog, {}, &memo);
  EXPECT_EQ(memo.memo_hits, 2);
  ExecStats reference;
  Relation expanded = ExecuteTreeExpanded(plan, catalog, &reference);
  EXPECT_EQ(reference.nodes_executed, memo.nodes_executed + 2);
  EXPECT_TRUE(memoized.BagEquals(expanded)) << plan->ToString();
}

TEST(DagExecTest, PlanToStringAnnotatesSharedNodes) {
  TimeDomain domain{0, 16};
  SnapshotRewriter rewriter(domain);
  PlanPtr plan = rewriter.Rewrite(MakeDistinct(SnapshotScan("r")));
  std::string text = plan->ToString();
  EXPECT_NE(text.find("[shared #1]"), std::string::npos) << text;
  EXPECT_NE(text.find("[shared #1, see above]"), std::string::npos) << text;
  // Trees stay annotation-free.
  PlanPtr tree = MakeDistinct(SnapshotScan("r"));
  EXPECT_EQ(tree->ToString().find("[shared"), std::string::npos);
}

TemporalDB ExampleDb() {
  TemporalDB db(kExampleDomain);
  EXPECT_TRUE(
      db.PutPeriodTable("works", WorksRelation(), "a_begin", "a_end").ok());
  EXPECT_TRUE(
      db.PutPeriodTable("assign", AssignRelation(), "a_begin", "a_end").ok());
  return db;
}

TEST(DagExecTest, MiddlewareExplainShowsDagAndStats) {
  TemporalDB db = ExampleDb();
  auto text = db.Explain(
      "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("[shared #"), std::string::npos) << *text;
  auto analyzed = db.ExplainAnalyze(
      "SEQ VT (SELECT skill FROM assign EXCEPT ALL SELECT skill FROM works)");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("memo hits"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("result rows"), std::string::npos) << *analyzed;
}

TEST(DagExecPropertyTest, MemoizedMatchesMemoFreeReference) {
  Rng rng(0xDA6);
  TimeDomain domain{0, 16};
  for (int iter = 0; iter < 120; ++iter) {
    Catalog catalog =
        RandomEncodedCatalog(&rng, domain, 12, /*null_chance=*/0.15,
                             /*empty_validity_chance=*/0.1);
    RandomQueryGenerator gen(&rng);
    PlanPtr query = gen.Generate(3);
    SnapshotRewriter rewriter(domain);
    PlanPtr plan = rewriter.Rewrite(query);
    ExecStats memo;
    Relation memoized = Execute(plan, catalog, {}, &memo);
    ExecStats reference;
    Relation expanded = ExecuteTreeExpanded(plan, catalog, &reference);
    ASSERT_TRUE(memoized.BagEquals(expanded))
        << "iter " << iter << "\nquery:\n" << query->ToString()
        << "rewritten:\n" << plan->ToString();
    // Memoization may only remove work, never add it.
    ASSERT_LE(memo.nodes_executed, reference.nodes_executed);
    ASSERT_LE(memo.rows_materialized, reference.rows_materialized);
  }
}

}  // namespace
}  // namespace periodk
