// Randomized property test for Theorem 8.1 (the commutative diagram):
// for random period databases and random RA^agg queries, evaluating the
// REWR-rewritten query over the PERIODENC encoding must equal the naive
// snapshot-by-snapshot evaluation (the abstract model), for every
// combination of optimization options.  This is the strongest
// correctness check in the suite: it exercises selection, projection,
// join, union, bag difference, distinct and grouped/global aggregation
// in arbitrary nestings.
#include <gtest/gtest.h>

#include "baseline/naive.h"
#include "common/rng.h"
#include "engine/temporal_ops.h"
#include "rewrite/period_enc.h"
#include "rewrite/rewriter.h"
#include "tests/random_query.h"

namespace periodk {
namespace {

constexpr TimeDomain kDomain{0, 16};

Catalog RandomCatalog(Rng* rng) { return RandomEncodedCatalog(rng, kDomain); }

// Queries whose aggregates also sum non-dyadic doubles: the rewrite must
// equal the snapshot-by-snapshot oracle exactly, not just within
// rounding.
RandomQueryConfig InexactSums() {
  RandomQueryConfig config;
  config.inexact_arg_chance = 0.3;
  return config;
}

TEST(RewritePropertyTest, Theorem81CommutativeDiagram) {
  Rng rng(0x81081081);
  int checked = 0;
  for (int iter = 0; iter < 150; ++iter) {
    Catalog catalog = RandomCatalog(&rng);
    RandomQueryGenerator gen(&rng, InexactSums());
    PlanPtr query = gen.Generate(static_cast<int>(rng.Uniform(4)));
    Relation oracle = NaiveSnapshotEval(query, catalog, kDomain);
    RewriteOptions options;  // defaults: hoisted, fused, pre-aggregated
    SnapshotRewriter rewriter(kDomain, options);
    Relation ours = Execute(rewriter.Rewrite(query), catalog);
    ASSERT_TRUE(ours.BagEquals(oracle))
        << "query:\n" << query->ToString() << "\nrewritten:\n"
        << rewriter.Rewrite(query)->ToString() << "\nours:\n"
        << ours.ToString() << "\noracle:\n" << oracle.ToString();
    ++checked;
  }
  EXPECT_EQ(checked, 150);
}

TEST(RewritePropertyTest, OptimizationOptionsPreserveResults) {
  Rng rng(0x0f7105);
  for (int iter = 0; iter < 40; ++iter) {
    Catalog catalog = RandomCatalog(&rng);
    RandomQueryGenerator gen(&rng, InexactSums());
    PlanPtr query = gen.Generate(3);
    Relation oracle = NaiveSnapshotEval(query, catalog, kDomain);
    for (bool hoist : {true, false}) {
      for (bool fuse : {true, false}) {
        for (bool preagg : {true, false}) {
          RewriteOptions options;
          options.hoist_coalesce = hoist;
          options.fuse_aggregation = fuse;
          options.pre_aggregate = preagg;
          options.coalesce_impl =
              rng.Chance(0.5) ? CoalesceImpl::kNative : CoalesceImpl::kWindow;
          SnapshotRewriter rewriter(kDomain, options);
          Relation ours = Execute(rewriter.Rewrite(query), catalog);
          ASSERT_TRUE(ours.BagEquals(oracle))
              << "hoist=" << hoist << " fuse=" << fuse << " preagg=" << preagg
              << "\nquery:\n" << query->ToString();
        }
      }
    }
  }
}

TEST(RewritePropertyTest, OutputEncodingIsAlwaysCoalesced) {
  // Uniqueness: the result must be the canonical encoding -- coalescing
  // it again changes nothing, and re-encoding the decoded N^T relation
  // reproduces it exactly.
  Rng rng(0xca11ab1e);
  for (int iter = 0; iter < 60; ++iter) {
    Catalog catalog = RandomCatalog(&rng);
    RandomQueryGenerator gen(&rng);
    PlanPtr query = gen.Generate(static_cast<int>(rng.Uniform(3)));
    SnapshotRewriter rewriter(kDomain, RewriteOptions{});
    Relation ours = Execute(rewriter.Rewrite(query), catalog);
    Relation recoalesced = CoalesceRelation(ours, CoalesceImpl::kNative);
    ASSERT_TRUE(ours.BagEquals(recoalesced));
    Relation canonical =
        PeriodEnc(PeriodDec(ours, kDomain), ours.schema().Prefix(
                                                ours.schema().size() - 2));
    ASSERT_TRUE(ours.BagEquals(canonical));
  }
}

TEST(RewritePropertyTest, BaselinesAgreeOnPositiveAlgebra) {
  // For RA+ (no aggregation/difference/distinct) the baselines are
  // snapshot-reducible too (paper Table 1): they must be
  // snapshot-equivalent to the oracle (though not canonically encoded).
  Rng rng(0xba5e11);
  for (int iter = 0; iter < 60; ++iter) {
    Catalog catalog = RandomCatalog(&rng);
    RandomQueryGenerator gen(&rng);
    PlanPtr query = gen.Generate(2);
    if (ContainsKind(query, PlanKind::kAggregate) ||
        ContainsKind(query, PlanKind::kExceptAll) ||
        ContainsKind(query, PlanKind::kDistinct)) {
      continue;
    }
    Relation oracle = NaiveSnapshotEval(query, catalog, kDomain);
    for (SnapshotSemantics semantics :
         {SnapshotSemantics::kAlignment,
          SnapshotSemantics::kIntervalPreservation}) {
      RewriteOptions options;
      options.semantics = semantics;
      SnapshotRewriter rewriter(kDomain, options);
      Relation theirs = Execute(rewriter.Rewrite(query), catalog);
      ASSERT_TRUE(SnapshotEquivalentEncodings(theirs, oracle, kDomain))
          << SnapshotSemanticsName(semantics) << "\nquery:\n"
          << query->ToString();
    }
  }
}

}  // namespace
}  // namespace periodk
