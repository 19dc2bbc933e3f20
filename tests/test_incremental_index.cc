// Differential timeline index coverage: every merge path of the delta
// layer must be row-exact against the rebuild-from-scratch oracle and
// the unindexed scan path.  Unit level: WithDelta across append batches
// straddling the compaction threshold, K = 1, empty deltas, duplicate
// rows, and domain-bound endpoints.  Middleware level: random
// Insert/InsertRows interleaved with Timeslice/AS-OF probes across
// inline compactions, the compaction threshold itself, the
// stale-plan-cache/index regression, and the ExplainAnalyze delta
// counter.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "middleware/temporal_db.h"
#include "rewrite/rewriter.h"

namespace periodk {
namespace {

constexpr TimeDomain kDomain{0, 16};

Relation EncodedRelation(const std::vector<std::array<int64_t, 4>>& rows) {
  Relation rel(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
  for (const auto& r : rows) {
    rel.AddRow({Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2]),
                Value::Int(r[3])});
  }
  return rel;
}

/// Exact comparison: same rows in the same order (the index promises
/// scan-path row order, delta layer included).
void ExpectRowsIdentical(const Relation& got, const Relation& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  ASSERT_EQ(got.schema().size(), want.schema().size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.rows()[i], want.rows()[i]) << context << " at row " << i;
  }
}

/// A random encoded row; occasionally degenerate (empty validity), a
/// domain-spanning interval, or an exact duplicate of an existing row.
Row RandomEncodedRow(Rng* rng, const Relation& existing) {
  if (!existing.empty() && rng->Chance(0.2)) {
    return existing.rows()[rng->Uniform(existing.size())];  // duplicate
  }
  if (rng->Chance(0.1)) {
    // Domain-bound endpoints: alive from the first to the last instant.
    return {Value::Int(rng->Range(0, 3)), Value::Int(rng->Range(0, 9)),
            Value::Int(kDomain.tmin), Value::Int(kDomain.tmax)};
  }
  TimePoint b = rng->Range(kDomain.tmin, kDomain.tmax - 1);
  TimePoint e = rng->Chance(0.15) ? b  // empty validity: never alive
                                  : rng->Range(b + 1, kDomain.tmax);
  return {Value::Int(rng->Range(0, 3)), Value::Int(rng->Range(0, 9)),
          Value::Int(b), Value::Int(e)};
}

// --- Unit level: WithDelta against the rebuild oracle. ---------------------

TEST(IncrementalIndexTest, WithDeltaMatchesRebuildAcrossAppendChains) {
  Rng rng(0xD1FF);
  // K = 1 checkpoints after every event; 3 makes deltas straddle
  // checkpoint boundaries; 64 is the default; 999 never checkpoints.
  for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{64}, int64_t{999}}) {
    for (int iter = 0; iter < 8; ++iter) {
      Relation current = EncodedRelation({});
      for (int i = static_cast<int>(rng.Uniform(6)); i > 0; --i) {
        current.AddRow(RandomEncodedRow(&rng, current));
      }
      auto shared = std::make_shared<const Relation>(current);
      std::shared_ptr<const TimelineIndex> index =
          TimelineIndex::Build(shared, k);
      ASSERT_NE(index, nullptr);
      std::shared_ptr<const TimelineIndex> core;  // set by the first wrap
      for (int batch = 0; batch < 5; ++batch) {
        // Batch sizes 0..4 — empty deltas and threshold-straddlers.
        for (int i = static_cast<int>(rng.Uniform(5)); i > 0; --i) {
          current.AddRow(RandomEncodedRow(&rng, current));
        }
        shared = std::make_shared<const Relation>(current);
        index = TimelineIndex::WithDelta(index, shared);
        ASSERT_NE(index, nullptr) << "K=" << k << " batch=" << batch;
        EXPECT_TRUE(index->has_delta());
        EXPECT_TRUE(index->BuiltFor(shared.get()));
        // Chains flatten: one core, never a delta-of-a-delta.
        ASSERT_NE(index->base(), nullptr);
        EXPECT_FALSE(index->base()->has_delta());
        if (core == nullptr) {
          core = index->base();
        } else {
          EXPECT_EQ(index->base(), core) << "flattening must keep the core";
        }
        auto rebuilt = TimelineIndex::Build(shared, k);
        ASSERT_NE(rebuilt, nullptr);
        EXPECT_EQ(index->num_events(), rebuilt->num_events());
        for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax + 1; ++t) {
          std::string ctx = StrCat("K=", k, " iter=", iter, " batch=", batch,
                                   " t=", t);
          // (a) rebuild-from-scratch oracle, (b) unindexed scan path.
          ExpectRowsIdentical(index->Timeslice(t), rebuilt->Timeslice(t), ctx);
          ExpectRowsIdentical(index->Timeslice(t), TimesliceEncoded(*shared, t),
                              ctx);
          EXPECT_EQ(index->AliveAt(t), rebuilt->AliveAt(t)) << ctx;
        }
      }
    }
  }
}

TEST(IncrementalIndexTest, EmptyDeltaIsValidAndExact) {
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 10, 0, 5},
      {2, 20, 3, 16},
  }));
  auto base = TimelineIndex::Build(rel, 2);
  ASSERT_NE(base, nullptr);
  // A copy with zero appended rows: the copy-on-write contract holds
  // (prefix identical), the delta is just empty.
  auto same = std::make_shared<const Relation>(*rel);
  auto wrapped = TimelineIndex::WithDelta(base, same);
  ASSERT_NE(wrapped, nullptr);
  EXPECT_TRUE(wrapped->has_delta());
  EXPECT_EQ(wrapped->num_delta_events(), 0u);
  EXPECT_EQ(wrapped->num_events(), base->num_events());
  EXPECT_TRUE(wrapped->BuiltFor(same.get()));
  for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
    ExpectRowsIdentical(wrapped->Timeslice(t), TimesliceEncoded(*same, t),
                        StrCat("t=", t));
  }
}

TEST(IncrementalIndexTest, DuplicateRowsKeepTheirMultiplicity) {
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 10, 2, 9},
  }));
  auto base = TimelineIndex::Build(rel, 2);
  ASSERT_NE(base, nullptr);
  // Append two exact duplicates of the base row: a timeslice inside the
  // interval must return the row three times (multiset semantics).
  Relation next = *rel;
  next.AddRow({Value::Int(1), Value::Int(10), Value::Int(2), Value::Int(9)});
  next.AddRow({Value::Int(1), Value::Int(10), Value::Int(2), Value::Int(9)});
  auto shared = std::make_shared<const Relation>(std::move(next));
  auto index = TimelineIndex::WithDelta(base, shared);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_delta_events(), 4u);
  EXPECT_EQ(index->Timeslice(5).size(), 3u);
  ExpectRowsIdentical(index->Timeslice(5), TimesliceEncoded(*shared, 5),
                      "duplicates");
}

TEST(IncrementalIndexTest, WithDeltaRefusesBadShapes) {
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 10, 0, 5},
  }));
  auto base = TimelineIndex::Build(rel, 2);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(TimelineIndex::WithDelta(nullptr, rel), nullptr);
  EXPECT_EQ(TimelineIndex::WithDelta(base, nullptr), nullptr);
  // Arity mismatch: not a copy-on-write append of the same table.
  Relation narrow(Schema::FromNames({"a", "a_begin", "a_end"}));
  EXPECT_EQ(TimelineIndex::WithDelta(
                base, std::make_shared<const Relation>(std::move(narrow))),
            nullptr);
  // Fewer rows than the base covers: prefix contract violated.
  EXPECT_EQ(TimelineIndex::WithDelta(
                base, std::make_shared<const Relation>(EncodedRelation({}))),
            nullptr);
  // Non-integer endpoint in an appended row: the scan path throws on
  // such rows, so the delta refuses exactly like Build does.
  Relation bad = *rel;
  bad.AddRow({Value::Int(2), Value::Int(20), Value::Null(), Value::Int(9)});
  EXPECT_EQ(TimelineIndex::WithDelta(
                base, std::make_shared<const Relation>(std::move(bad))),
            nullptr);
}

// --- Middleware: maintenance, the compaction threshold, plan cache. -------

TemporalDB SeededDb(Rng* rng, int rows) {
  TemporalDB db(kDomain);
  EXPECT_TRUE(
      db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve").ok());
  std::vector<Row> batch;
  Relation empty = EncodedRelation({});
  for (int i = 0; i < rows; ++i) batch.push_back(RandomEncodedRow(rng, empty));
  EXPECT_TRUE(db.InsertRows("t", std::move(batch)).ok());
  return db;
}

/// One probe round: the DB's indexed answers vs. (a) an index rebuilt
/// from scratch over the current relation, (b) the scan path, and (c)
/// tau_t of the full SEQ VT result (the Thm 6.3 oracle).
void ExpectProbesExact(TemporalDB& db, Rng* rng, const std::string& context) {
  std::shared_ptr<const Relation> current = db.catalog().GetShared("t");
  auto rebuilt = TimelineIndex::Build(current);
  ASSERT_NE(rebuilt, nullptr) << context;
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  auto encoded = db.Query("SEQ VT (SELECT grp, val FROM t)", scan_opts);
  ASSERT_TRUE(encoded.ok()) << context;
  for (int probe = 0; probe < 3; ++probe) {
    TimePoint t = rng->Range(kDomain.tmin, kDomain.tmax - 1);
    std::string ctx = StrCat(context, " t=", t);
    auto sliced = db.Timeslice("t", t);
    ASSERT_TRUE(sliced.ok()) << ctx;
    ExpectRowsIdentical(*sliced, rebuilt->Timeslice(t), ctx + " (rebuild)");
    ExpectRowsIdentical(*sliced, TimesliceEncoded(*current, t),
                        ctx + " (scan)");
    std::string as_of =
        StrCat("SEQ VT AS OF ", t, " (SELECT grp, val FROM t)");
    auto indexed = db.Query(as_of);
    ASSERT_TRUE(indexed.ok()) << ctx;
    auto scanned = db.Query(as_of, scan_opts);
    ASSERT_TRUE(scanned.ok()) << ctx;
    EXPECT_TRUE(indexed->BagEquals(*scanned)) << ctx;
    EXPECT_TRUE(indexed->BagEquals(TimesliceEncoded(*encoded, t))) << ctx;
  }
}

TEST(IncrementalIndexMiddlewareTest, InterleavedWritesAndProbesStayExact) {
  Rng rng(0xBEEF);
  TemporalDB db = SeededDb(&rng, 6);
  ExpectProbesExact(db, &rng, "warmup");
  // ~3 events per iteration against the 64-event minimum threshold:
  // the run crosses several inline compactions.
  for (int iter = 0; iter < 60; ++iter) {
    const Relation& existing = db.catalog().Get("t");
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(db.Insert("t", RandomEncodedRow(&rng, existing)).ok());
    } else {
      std::vector<Row> batch;
      for (int i = static_cast<int>(rng.Uniform(5)); i > 0; --i) {
        batch.push_back(RandomEncodedRow(&rng, existing));
      }
      ASSERT_TRUE(db.InsertRows("t", std::move(batch)).ok());
    }
    ExpectProbesExact(db, &rng, StrCat("iter=", iter));
  }
  IndexMaintenanceStats stats = db.index_maintenance_stats();
  EXPECT_GT(stats.compactions, 0) << stats.ToString();
  EXPECT_GT(stats.delta_publishes, 0) << stats.ToString();
}

// The delta folds once it reaches clamp(10% of the base index's events,
// 64, 4096) events.  Every row below is alive on [2, 9), so each
// contributes exactly two events; one row short of the threshold the
// index still carries its delta, and the next append compacts.
TEST(IncrementalIndexMiddlewareTest, CompactionThresholdIsClampedTenPercent) {
  auto rows = [](int n) {
    std::vector<Row> out;
    for (int i = 0; i < n; ++i) {
      out.push_back({Value::Int(i % 4), Value::Int(i), Value::Int(2),
                     Value::Int(9)});
    }
    return out;
  };
  struct Case {
    int base_rows;
    int threshold_events;
  };
  // 200 base events: the minimum; 2,000: 10%; 60,000: the maximum.
  for (const Case& c : {Case{100, 64}, Case{1000, 200}, Case{30000, 4096}}) {
    std::string ctx = StrCat("base rows ", c.base_rows);
    TemporalDB db(kDomain);
    ASSERT_TRUE(
        db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve").ok());
    ASSERT_TRUE(db.InsertRows("t", rows(c.base_rows)).ok());
    ASSERT_TRUE(db.Timeslice("t", 5).ok());  // warm the index
    const int below = c.threshold_events / 2 - 1;
    ASSERT_TRUE(db.InsertRows("t", rows(below)).ok()) << ctx;
    auto index = db.catalog().GetIndex("t");
    ASSERT_NE(index, nullptr) << ctx;
    EXPECT_TRUE(index->has_delta()) << ctx;
    EXPECT_EQ(index->num_delta_events(), static_cast<size_t>(2 * below))
        << ctx;
    EXPECT_EQ(db.index_maintenance_stats().compactions, 0) << ctx;
    ASSERT_TRUE(db.InsertRows("t", rows(1)).ok()) << ctx;
    index = db.catalog().GetIndex("t");
    ASSERT_NE(index, nullptr) << ctx;
    EXPECT_FALSE(index->has_delta()) << ctx;
    EXPECT_TRUE(index->BuiltFor(db.catalog().GetShared("t").get())) << ctx;
    IndexMaintenanceStats stats = db.index_maintenance_stats();
    EXPECT_EQ(stats.compactions, 1) << ctx;
    EXPECT_EQ(stats.delta_publishes, 1) << ctx;
  }
}

// The stale-plan-cache / index interaction regression (ISSUE 10): a
// plan bound and cached *before* an insert must never be served with
// the pre-delta index after it.  Plans and indexes are invalidated
// through different mechanisms (per-table version tags vs. BuiltFor
// pointer identity + the publish under the same exclusive section), so
// this pins their composition: post-insert reads see the new row AND
// still run indexed, through the delta.
TEST(IncrementalIndexMiddlewareTest, CachedPlanNeverServesPreDeltaIndex) {
  Rng rng(0xCAC4E);
  TemporalDB db = SeededDb(&rng, 12);
  const std::string sql = "SEQ VT AS OF 5 (SELECT grp, val FROM t)";
  ASSERT_TRUE(db.Prepare(sql).ok());
  auto before = db.Query(sql);
  ASSERT_TRUE(before.ok());
  EXPECT_GE(db.plan_cache_stats().hits, 1) << "the prepared plan must serve";
  auto old_index = db.catalog().GetIndex("t");
  ASSERT_NE(old_index, nullptr);

  ASSERT_TRUE(db.Insert("t", {Value::Int(7), Value::Int(7), Value::Int(0),
                              Value::Int(16)})
                  .ok());
  // The publish swapped relation and index together (generation tag
  // bumped in the same exclusive section): the slot now holds a
  // delta-carrying index built for the new relation, not the old one.
  auto current = db.catalog().GetShared("t");
  auto new_index = db.catalog().GetIndex("t");
  ASSERT_NE(new_index, nullptr);
  EXPECT_NE(new_index, old_index);
  EXPECT_TRUE(new_index->has_delta());
  EXPECT_TRUE(new_index->BuiltFor(current.get()));
  EXPECT_FALSE(new_index->BuiltFor(nullptr));
  EXPECT_FALSE(old_index->BuiltFor(current.get()))
      << "the executor's BuiltFor check must reject the pre-delta index";

  auto after = db.Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() + 1)
      << "a cached plan served a pre-insert snapshot";
  // Still indexed, and the read crossed exactly the one-row delta.
  auto explained = db.ExplainAnalyze(sql);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("index timeslices: 1"), std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("index delta events: 2"), std::string::npos)
      << *explained;
  EXPECT_NE(explained->find("index maintenance: "), std::string::npos)
      << *explained;
}

}  // namespace
}  // namespace periodk
