// Partition-parallel execution: the work-stealing pool itself, and the
// equivalence of parallel operator execution (interval join, hash
// aggregation, coalesce and split+aggregate sweeps) with the sequential
// reference — including the hard guarantee that num_threads == 1 is
// bit-identical to the pre-parallel executor.
#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/temporal_ops.h"
#include "ra/plan.h"
#include "rewrite/rewriter.h"
#include "tests/random_query.h"

namespace periodk {
namespace {

// --- Thread pool unit tests. -----------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.Run(std::move(tasks));
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int runs = 0;
  pool.Run({[&] { ++runs; }, [&] { ++runs; }});
  EXPECT_EQ(runs, 2);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 7; ++i) tasks.push_back([&] { total.fetch_add(1); });
    pool.Run(std::move(tasks));
  }
  EXPECT_EQ(total.load(), 140);
}

TEST(ThreadPoolTest, PropagatesTaskException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&completed, i] {
      if (i == 5) throw std::runtime_error("task 5 failed");
      completed.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.Run(std::move(tasks)), std::runtime_error);
  // The batch still drained: the failure does not abandon peers.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPoolTest, ChunkPlanCoversRangeWithoutOverlap) {
  for (int64_t n : {0, 1, 2, 7, 100, 4097}) {
    auto ranges = PlanChunks(/*num_threads=*/4, n, /*min_grain=*/1);
    int64_t expect_begin = 0;
    for (const auto& [b, e] : ranges) {
      EXPECT_EQ(b, expect_begin);
      EXPECT_LE(b, e);
      expect_begin = e;
    }
    EXPECT_EQ(expect_begin, n);
  }
}

TEST(ThreadPoolTest, ChunkPlanRespectsGrainAndSequentialBudget) {
  // A single-thread budget always yields one chunk.
  EXPECT_EQ(PlanChunks(1, 1000, 1).size(), 1u);
  // Grain: a small input must not shatter into per-item chunks.
  EXPECT_EQ(PlanChunks(4, 100, 4096).size(), 1u);
  EXPECT_GT(PlanChunks(4, 100000, 4096).size(), 1u);
}

// --- Operator equivalence. -------------------------------------------------

PlanPtr OverlapJoinPlan(bool with_keys) {
  Schema schema = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  PlanPtr r = MakeScan("r", schema);
  PlanPtr s = MakeScan("s", schema);
  // b1 < e2 AND b2 < e1 (+ equi-key), the shape RewriteJoin emits.
  ExprPtr overlap = And(Lt(Col(2), Col(7)), Lt(Col(6), Col(3)));
  ExprPtr pred = with_keys ? And(Eq(Col(0), Col(4)), overlap) : overlap;
  return MakeJoin(r, s, pred);
}

Catalog BigEncodedCatalog(Rng* rng, int rows, int keys,
                          const TimeDomain& domain) {
  Catalog catalog;
  for (const char* name : {"r", "s"}) {
    Relation rel(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
    rel.Reserve(static_cast<size_t>(rows));
    for (int i = 0; i < rows; ++i) {
      TimePoint b = rng->Range(domain.tmin, domain.tmax - 2);
      TimePoint e = rng->Range(b + 1, std::min(b + 40, domain.tmax));
      rel.AddRow({Value::Int(rng->Range(0, keys)), Value::Int(rng->Range(0, 5)),
                  Value::Int(b), Value::Int(e)});
    }
    catalog.Put(name, std::move(rel));
  }
  return catalog;
}

TEST(ParallelExecTest, IntervalJoinMatchesSequential) {
  Rng rng(7101);
  TimeDomain domain{0, 500};
  Catalog catalog = BigEncodedCatalog(&rng, 3000, 64, domain);
  for (bool with_keys : {true, false}) {
    PlanPtr plan = OverlapJoinPlan(with_keys);
    Relation seq = Execute(plan, catalog);
    ExecStats stats;
    Relation par =
        Execute(plan, catalog, ExecOptions{.num_threads = 4}, &stats);
    EXPECT_TRUE(seq.BagEquals(par)) << "with_keys=" << with_keys;
    if (with_keys) {
      // 64 key partitions fan out; the counter proves the pool ran.
      EXPECT_GT(stats.parallel_tasks, 0);
    } else {
      // A single-bucket pure temporal join stays sequential.
      EXPECT_EQ(stats.parallel_tasks, 0);
    }
  }
}

TEST(ParallelExecTest, HashAggregateMatchesSequential) {
  Rng rng(7102);
  TimeDomain domain{0, 500};
  Catalog catalog = BigEncodedCatalog(&rng, 20000, 100, domain);
  Schema schema = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  PlanPtr agg = MakeAggregate(
      MakeScan("r", schema), {Col(0, "a")}, {Column("a")},
      {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
       AggExpr{AggFunc::kSum, Col(1), "s"},
       AggExpr{AggFunc::kMin, Col(2), "mn"},
       AggExpr{AggFunc::kMax, Col(3), "mx"},
       AggExpr{AggFunc::kAvg, Col(1), "av"}});
  Relation seq = Execute(agg, catalog);
  ExecStats stats;
  Relation par = Execute(agg, catalog, ExecOptions{.num_threads = 4}, &stats);
  EXPECT_TRUE(seq.BagEquals(par));
  EXPECT_GT(stats.parallel_tasks, 0);
}

TEST(ParallelExecTest, CoalesceAndSplitAggregateMatchSequential) {
  Rng rng(7103);
  TimeDomain domain{0, 300};
  Catalog catalog = BigEncodedCatalog(&rng, 8000, 200, domain);
  const Relation& input = catalog.Get("r");
  LazyThreadPool pool(4);

  ExecStats stats;
  OpContext ctx{&pool, &stats};
  Relation seq_c = CoalesceNative(input);
  Relation par_c = CoalesceNative(input, ctx);
  EXPECT_TRUE(seq_c.BagEquals(par_c));

  std::vector<AggExpr> aggs{AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
                            AggExpr{AggFunc::kSum, Col(1), "s"}};
  for (bool gap_rows : {false, true}) {
    Relation seq_a =
        SplitAggregateRelation(input, {0}, aggs, gap_rows, domain);
    Relation par_a =
        SplitAggregateRelation(input, {0}, aggs, gap_rows, domain, true, ctx);
    EXPECT_TRUE(seq_a.BagEquals(par_a)) << "gap_rows=" << gap_rows;
  }
  EXPECT_GT(stats.parallel_tasks, 0);
}

// Randomized end-to-end property: rewritten snapshot queries execute
// identically at 1 and 4 threads; thread count 1 is bit-identical
// (row order included) with the legacy entry point.
TEST(ParallelExecTest, RandomizedSnapshotQueriesAgreeAcrossThreadCounts) {
  Rng rng(7104);
  TimeDomain domain{0, 40};
  SnapshotRewriter rewriter(domain);
  RandomQueryGenerator gen(&rng);
  for (int iter = 0; iter < 120; ++iter) {
    Catalog catalog = RandomEncodedCatalog(&rng, domain, 24, 0.1, 0.1);
    PlanPtr query = gen.Generate(2 + static_cast<int>(rng.Uniform(2)));
    PlanPtr plan = rewriter.Rewrite(query);
    Relation legacy = Execute(plan, catalog);
    Relation one = Execute(plan, catalog, ExecOptions{.num_threads = 1});
    Relation four = Execute(plan, catalog, ExecOptions{.num_threads = 4});
    ASSERT_EQ(legacy.rows(), one.rows())
        << "iter " << iter << ": thread count 1 must be bit-identical\n"
        << query->ToString();
    ASSERT_TRUE(legacy.BagEquals(four))
        << "iter " << iter << "\n" << query->ToString();
  }
}

// Sequential runs must never touch the pool: the counter stays zero.
TEST(ParallelExecTest, SequentialRunReportsNoParallelTasks) {
  Rng rng(7105);
  TimeDomain domain{0, 500};
  Catalog catalog = BigEncodedCatalog(&rng, 3000, 64, domain);
  ExecStats stats;
  Execute(OverlapJoinPlan(true), catalog, ExecOptions{.num_threads = 1},
          &stats);
  EXPECT_EQ(stats.parallel_tasks, 0);
}

// EngineError thrown inside a pooled partition must surface intact:
// the aggregate argument does arithmetic on a string column, which
// only fails when a worker evaluates it mid-chunk.
TEST(ParallelExecTest, OperatorErrorPropagatesFromWorkers) {
  Relation rel(Schema::FromNames({"a", "b"}));
  rel.Reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    rel.AddRow({Value::Int(i % 7), Value::String("bad")});
  }
  Catalog catalog;
  catalog.Put("t", std::move(rel));
  PlanPtr agg = MakeAggregate(
      MakeScan("t", Schema::FromNames({"a", "b"})), {Col(0, "a")},
      {Column("a")}, {AggExpr{AggFunc::kSum, Add(Col(1), LitInt(1)), "s"}});
  EXPECT_THROW(Execute(agg, catalog, ExecOptions{.num_threads = 4}),
               EngineError);
}

}  // namespace
}  // namespace periodk
