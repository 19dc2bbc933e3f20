// TimelineIndex coverage: the checkpointed timeslice index must be
// *row-exact* against the scan path (`TimesliceEncoded`) — same rows in
// the same order — and bag-exact against the naive snapshot-by-snapshot
// oracle, for every t (domain bounds, begin/end endpoints, in between)
// and every checkpoint-interval shape (K = 1, K > #events).  On top of
// the index itself: the executor's routing (ExecStats::index_timeslices,
// stale-index rejection, use_timeline_index = false fallback), the
// rewriter's timeslice pushdown, the middleware's lazy index lifecycle,
// and a concurrent AS-OF serving smoke test.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_set>

#include "baseline/naive.h"
#include "common/str_util.h"
#include "common/rng.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "middleware/temporal_db.h"
#include "ra/cost_model.h"
#include "rewrite/rewriter.h"
#include "stats/table_stats.h"
#include "tests/random_query.h"

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

/// Exact comparison: same rows in the same order (stronger than
/// BagEquals — the index promises scan-path row order).
void ExpectRowsIdentical(const Relation& got, const Relation& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  ASSERT_EQ(got.schema().size(), want.schema().size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.rows()[i], want.rows()[i]) << context << " at row " << i;
  }
}

TEST(TimelineIndexTest, TimesliceMatchesScanOnSmallTable) {
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 10, 3, 10},
      {2, 20, 8, 16},
      {3, 30, 8, 16},
      {1, 11, 0, 3},
      {4, 40, 15, 16},
  }));
  for (int64_t k : {1, 2, 3, 64, 1000}) {
    auto index = TimelineIndex::Build(rel, k);
    ASSERT_NE(index, nullptr);
    EXPECT_TRUE(index->ColumnsAreTrailing());
    for (TimePoint t = -2; t <= 18; ++t) {
      ExpectRowsIdentical(index->Timeslice(t), TimesliceEncoded(*rel, t),
                          "K=" + std::to_string(k) +
                              " t=" + std::to_string(t));
    }
  }
}

TEST(TimelineIndexTest, EndpointAndBoundTimePoints) {
  // t exactly on a begin is alive, exactly on an end is not (half-open
  // [b, e)); domain bounds behave like any other point.
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 0, 0, 16},   // spans the whole domain
      {2, 0, 5, 9},
  }));
  auto index = TimelineIndex::Build(rel, 2);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->AliveAt(0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index->AliveAt(5), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index->AliveAt(8), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index->AliveAt(9), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index->AliveAt(15), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index->AliveAt(16), (std::vector<uint32_t>{}));
  EXPECT_EQ(index->AliveAt(-1), (std::vector<uint32_t>{}));
}

TEST(TimelineIndexTest, EmptyTableAndEmptyIntervals) {
  auto empty = std::make_shared<const Relation>(EncodedRelation({}));
  auto index = TimelineIndex::Build(empty, 1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_events(), 0u);
  EXPECT_TRUE(index->Timeslice(5).empty());

  // Empty (b == e) and reversed (b > e) validity intervals are never
  // alive — exactly the scan path's behavior.
  auto degenerate = std::make_shared<const Relation>(EncodedRelation({
      {1, 0, 5, 5},
      {2, 0, 9, 3},
      {3, 0, 2, 4},
  }));
  index = TimelineIndex::Build(degenerate, 1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_events(), 2u);  // only the valid row
  for (TimePoint t = 0; t < 16; ++t) {
    ExpectRowsIdentical(index->Timeslice(t), TimesliceEncoded(*degenerate, t),
                        "degenerate t=" + std::to_string(t));
  }
}

TEST(TimelineIndexTest, RefusesNonIntegerEndpointsAndNarrowSchemas) {
  // The scan path throws on non-integer endpoints; the index must not
  // silently differ, so Build refuses and callers keep the scan.
  Relation rel(Schema::FromNames({"a", "a_begin", "a_end"}));
  rel.AddRow({Value::Int(1), Value::Int(0), Value::Null()});
  EXPECT_EQ(TimelineIndex::Build(
                std::make_shared<const Relation>(std::move(rel))),
            nullptr);

  Relation text(Schema::FromNames({"a", "a_begin", "a_end"}));
  text.AddRow({Value::Int(1), Value::String("x"), Value::Int(3)});
  EXPECT_EQ(TimelineIndex::Build(
                std::make_shared<const Relation>(std::move(text))),
            nullptr);

  Relation narrow(Schema::FromNames({"only"}));
  EXPECT_EQ(TimelineIndex::Build(
                std::make_shared<const Relation>(std::move(narrow))),
            nullptr);
}

TEST(TimelineIndexTest, RandomTablesRowExactAcrossCheckpointIntervals) {
  Rng rng(0x11d3f00d);
  for (int iter = 0; iter < 80; ++iter) {
    Catalog catalog =
        RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/24, 0.0,
                             /*empty_validity_chance=*/0.15);
    for (const char* name : {"r", "s"}) {
      auto rel = catalog.GetShared(name);
      // K = 1 checkpoints after every event; the last K is far beyond
      // 2 * max_rows, so the index degenerates to one empty checkpoint
      // plus a full replay — both edge shapes must stay exact.
      for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{64}, int64_t{999}}) {
        auto index = TimelineIndex::Build(rel, k);
        ASSERT_NE(index, nullptr);
        for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
          ExpectRowsIdentical(
              index->Timeslice(t), TimesliceEncoded(*rel, t),
              StrCat(name, " iter=", iter, " K=", k, " t=", t));
        }
      }
    }
  }
}

// --- Event order: the radix sort on (time, is_end, row). -------------------

/// Every probe point of `rel` (each endpoint, its neighbours without
/// overflow, and the int64 bounds) through `index` vs the scan path.
void ExpectIndexMatchesScanEverywhere(const TimelineIndex& index,
                                      const Relation& rel,
                                      const std::string& context) {
  std::vector<TimePoint> probes = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max()};
  for (const Row& row : rel.rows()) {
    for (size_t c : {size_t{2}, size_t{3}}) {
      const TimePoint v = row[c].AsInt();
      probes.push_back(v);
      if (v > std::numeric_limits<int64_t>::min()) probes.push_back(v - 1);
      if (v < std::numeric_limits<int64_t>::max()) probes.push_back(v + 1);
    }
  }
  for (TimePoint t : probes) {
    ExpectRowsIdentical(index.Timeslice(t), TimesliceEncodedAt(rel, t, 2, 3),
                        StrCat(context, " t=", t));
  }
}

TEST(TimelineIndexEventOrderTest, TiesAtOneTimePointMatchScan) {
  // Hundreds of begin and end events on the same few time points, ends
  // of some rows on the begins of others, checkpoints cutting through
  // the ties (K = 1, 2, 5).
  Rng rng(0x71e5);
  std::vector<std::array<int64_t, 4>> rows;
  for (int i = 0; i < 300; ++i) {
    const int64_t b = std::array<int64_t, 3>{3, 7, 7}[rng.Uniform(3)];
    const int64_t e = b + std::array<int64_t, 2>{4, 8}[rng.Uniform(2)];
    rows.push_back({i % 5, i, b, e});
  }
  auto rel = std::make_shared<const Relation>(EncodedRelation(rows));
  for (int64_t k : {int64_t{1}, int64_t{2}, int64_t{5}, int64_t{64}}) {
    auto index = TimelineIndex::Build(rel, k);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->num_events(), 600u);
    ExpectIndexMatchesScanEverywhere(*index, *rel, StrCat("K=", k));
  }
}

TEST(TimelineIndexEventOrderTest, EmptyValidityRowsAmongTiesMatchScan) {
  // Empty (b == e) and reversed (b > e) rows sitting on the same time
  // points as valid ones add no events and never come back alive.
  std::vector<std::array<int64_t, 4>> rows;
  for (int i = 0; i < 120; ++i) {
    switch (i % 4) {
      case 0:
        rows.push_back({i, 0, 5, 5});
        break;
      case 1:
        rows.push_back({i, 0, 9, 5});
        break;
      default:
        rows.push_back({i, 0, 5, 9});
        break;
    }
  }
  auto rel = std::make_shared<const Relation>(EncodedRelation(rows));
  for (int64_t k : {int64_t{1}, int64_t{7}, int64_t{64}}) {
    auto index = TimelineIndex::Build(rel, k);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->num_events(), 120u);
    ExpectIndexMatchesScanEverywhere(*index, *rel, StrCat("K=", k));
  }
  // A table of empty rows only: no events, nothing alive.
  auto all_empty = std::make_shared<const Relation>(
      EncodedRelation({{1, 0, 4, 4}, {2, 0, 6, 1}}));
  auto index = TimelineIndex::Build(all_empty, 1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_events(), 0u);
  ExpectIndexMatchesScanEverywhere(*index, *all_empty, "all empty");
}

TEST(TimelineIndexEventOrderTest, ExtremeEndpointsMatchScan) {
  // Endpoints spanning the whole int64 range: time - min overflows
  // int64, and the span takes every radix pass.  Narrower spans around
  // the 16- and 32-bit digit boundaries take one, two and three passes.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::vector<int64_t>> point_sets = {
      {kMin, kMin + 1, -(int64_t{1} << 40), -1, 0, 1, int64_t{1} << 33,
       kMax - 1, kMax},
      {0, 1, (int64_t{1} << 16) - 1, int64_t{1} << 16},
      {-5, (int64_t{1} << 32) - 2, int64_t{1} << 32},
      {-(int64_t{1} << 47), int64_t{1} << 47}};
  Rng rng(0xe47e);
  for (const std::vector<int64_t>& points : point_sets) {
    std::vector<std::array<int64_t, 4>> rows;
    for (int i = 0; i < 200; ++i) {
      // Mostly a pair of listed points, sometimes a random full-range
      // value, so ties, empty rows and scattered digits all occur.
      auto pick = [&]() -> int64_t {
        if (rng.Chance(0.2)) return static_cast<int64_t>(rng.Next());
        return points[rng.Uniform(points.size())];
      };
      rows.push_back({i % 3, i, pick(), pick()});
    }
    auto rel = std::make_shared<const Relation>(EncodedRelation(rows));
    for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{64}}) {
      auto index = TimelineIndex::Build(rel, k);
      ASSERT_NE(index, nullptr);
      ExpectIndexMatchesScanEverywhere(*index, *rel,
                                       StrCat("K=", k, " set ", points[0]));
    }
    // The delta layer sorts its own events the same way.
    std::vector<std::array<int64_t, 4>> prefix(rows.begin(),
                                               rows.begin() + 120);
    auto base = TimelineIndex::Build(
        std::make_shared<const Relation>(EncodedRelation(prefix)), 4);
    ASSERT_NE(base, nullptr);
    auto delta = TimelineIndex::WithDelta(base, rel);
    ASSERT_NE(delta, nullptr);
    EXPECT_TRUE(delta->has_delta());
    ExpectIndexMatchesScanEverywhere(*delta, *rel,
                                     StrCat("delta set ", points[0]));
  }
}

// --- Executor routing. -----------------------------------------------------

TEST(TimelineIndexExecTest, RoutesTimesliceOverScanThroughIndex) {
  Rng rng(0xe0e0e0);
  Catalog catalog = RandomEncodedCatalog(&rng, kDomain, 20);
  auto rel = catalog.GetShared("r");
  catalog.PutIndex("r", TimelineIndex::Build(rel));
  PlanPtr plan = MakeTimeslice(
      MakeScan("r", Schema::FromNames({"a", "b", "a_begin", "a_end"})), 7);

  ExecStats stats;
  ExecOptions options;
  Relation indexed = Execute(plan, catalog, options, &stats);
  EXPECT_EQ(stats.index_timeslices, 1);

  ExecStats scan_stats;
  ExecOptions scan_options;
  scan_options.use_timeline_index = false;
  Relation scanned = Execute(plan, catalog, scan_options, &scan_stats);
  EXPECT_EQ(scan_stats.index_timeslices, 0);

  ExpectRowsIdentical(indexed, scanned, "indexed vs scan");
  ExpectRowsIdentical(indexed, TimesliceEncoded(*rel, 7), "indexed vs direct");
}

TEST(TimelineIndexExecTest, StaleOrMislayoutedIndexFallsBackToScan) {
  Catalog catalog;
  catalog.Put("r", EncodedRelation({{1, 2, 0, 8}, {3, 4, 4, 12}}));
  auto index = TimelineIndex::Build(catalog.GetShared("r"));
  ASSERT_NE(index, nullptr);
  catalog.PutIndex("r", index);
  // Replacing the relation both drops the catalog's index slot and, if
  // an old index were re-attached, fails its BuiltFor identity check.
  catalog.Put("r", EncodedRelation({{9, 9, 0, 16}}));
  EXPECT_EQ(catalog.GetIndex("r"), nullptr);
  catalog.PutIndex("r", index);  // stale on purpose

  PlanPtr plan = MakeTimeslice(
      MakeScan("r", Schema::FromNames({"a", "b", "a_begin", "a_end"})), 5);
  ExecStats stats;
  Relation result = Execute(plan, catalog, ExecOptions{}, &stats);
  EXPECT_EQ(stats.index_timeslices, 0);  // stale index rejected
  ExpectRowsIdentical(result, TimesliceEncoded(catalog.Get("r"), 5), "stale");

  // An index over non-trailing endpoint columns never serves kTimeslice.
  Relation odd(Schema::FromNames({"vb", "ve", "x"}));
  odd.AddRow({Value::Int(0), Value::Int(9), Value::Int(1)});
  catalog.Put("odd", std::move(odd));
  auto odd_index = TimelineIndex::Build(catalog.GetShared("odd"), 0, 1);
  ASSERT_NE(odd_index, nullptr);
  EXPECT_FALSE(odd_index->ColumnsAreTrailing());
  catalog.PutIndex("odd", odd_index);
  PlanPtr odd_plan =
      MakeTimeslice(MakeScan("odd", Schema::FromNames({"vb", "ve", "x"})), 4);
  ExecStats odd_stats;
  Execute(odd_plan, catalog, ExecOptions{}, &odd_stats);
  EXPECT_EQ(odd_stats.index_timeslices, 0);
}

// --- Rewriter pushdown. ----------------------------------------------------

TEST(TimeslicePushdownTest, PushesThroughCoalesceSelectProject) {
  Schema encoded = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  PlanPtr scan = MakeScan("r", encoded);
  PlanPtr select = MakeSelect(scan, Eq(Col(0), LitInt(1)));
  PlanPtr project = MakeProject(
      select, {Col(1, "b"), Col(2, "a_begin"), Col(3, "a_end")},
      {Column("b"), Column("a_begin"), Column("a_end")});
  PlanPtr pushed =
      PushDownTimeslice(MakeTimeslice(MakeCoalesce(project), 5));
  // Expected shape: Project(Select(Timeslice(Scan))).
  ASSERT_EQ(pushed->kind, PlanKind::kProject);
  ASSERT_EQ(pushed->left->kind, PlanKind::kSelect);
  ASSERT_EQ(pushed->left->left->kind, PlanKind::kTimeslice);
  ASSERT_EQ(pushed->left->left->left->kind, PlanKind::kScan);
  EXPECT_EQ(pushed->schema.size(), 1u);
  EXPECT_EQ(pushed->schema.at(0).name, "b");
}

TEST(TimeslicePushdownTest, StopsAtTemporalPredicatesAndComputedEndpoints) {
  Schema encoded = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  // Predicate touching an endpoint column: tau must stay above.
  PlanPtr temporal_select =
      MakeSelect(MakeScan("r", encoded), Ge(Col(2), LitInt(3)));
  PlanPtr pushed = PushDownTimeslice(MakeTimeslice(temporal_select, 5));
  EXPECT_EQ(pushed->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->kind, PlanKind::kSelect);

  // An endpoint that is computed, not a plain column reference.
  PlanPtr computed = MakeProject(
      MakeScan("r", encoded),
      {Col(0, "a"), Col(2, "a_begin"), Add(Col(3), LitInt(1))},
      {Column("a"), Column("a_begin"), Column("a_end")});
  pushed = PushDownTimeslice(MakeTimeslice(computed, 5));
  EXPECT_EQ(pushed->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->kind, PlanKind::kProject);

  // A data column reading an endpoint column: slicing below would drop
  // the column it needs.
  PlanPtr leaky = MakeProject(
      MakeScan("r", encoded), {Col(2, "copy"), Col(2, "b"), Col(3, "e")},
      {Column("copy"), Column("b"), Column("e")});
  pushed = PushDownTimeslice(MakeTimeslice(leaky, 5));
  EXPECT_EQ(pushed->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->kind, PlanKind::kProject);
}

TEST(TimeslicePushdownTest, CrossesReorderingAndNonTrailingProjections) {
  Schema encoded = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  // Projection that moves the endpoints away from the trailing
  // positions (swapped, even).  tau_{t} over its output reads columns
  // (1, 2) = (a_end, a_begin) of the child, so the pushdown must land a
  // generalized slice reading exactly those child columns.
  PlanPtr reshaped = MakeProject(
      MakeScan("r", encoded), {Col(0, "a"), Col(3, "e"), Col(2, "b2")},
      {Column("a"), Column("e"), Column("b2")});
  PlanPtr pushed = PushDownTimeslice(MakeTimeslice(reshaped, 5));
  ASSERT_EQ(pushed->kind, PlanKind::kProject);
  ASSERT_EQ(pushed->left->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->slice_begin_col, 3);
  EXPECT_EQ(pushed->left->slice_end_col, 2);
  ASSERT_EQ(pushed->left->left->kind, PlanKind::kScan);
  EXPECT_EQ(pushed->schema.size(), 1u);
  EXPECT_EQ(pushed->schema.at(0).name, "a");

  // Equivalence on data, including rows the swap makes empty.
  Catalog catalog;
  catalog.Put("r", EncodedRelation(
                       {{1, 10, 3, 9}, {2, 20, 0, 4}, {3, 30, 9, 3}}));
  PlanPtr sliced = MakeTimeslice(reshaped, 5);
  ExpectRowsIdentical(Execute(pushed, catalog), Execute(sliced, catalog),
                      "reordered endpoints");
}

// The encoded-table projection of a period table whose interval columns
// are stored away from the trailing position (the shape the middleware
// binder emits): the pushdown must cross it and the executor must serve
// the landed slice from an index over the stored positions.
TEST(TimeslicePushdownTest, NonTrailingPeriodTableReachesScanAndIndex) {
  Schema stored = Schema::FromNames({"vb", "ve", "x", "y"});
  PlanPtr scan = MakeScan("p", stored);
  // Encoded projection: data columns first, endpoints last.
  PlanPtr encoded = MakeProjectColumns(scan, {2, 3, 0, 1});
  PlanPtr sliced = MakeTimeslice(encoded, 6);
  PlanPtr pushed = PushDownTimeslice(sliced);
  ASSERT_EQ(pushed->kind, PlanKind::kProject);
  ASSERT_EQ(pushed->left->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->slice_begin_col, 0);
  EXPECT_EQ(pushed->left->slice_end_col, 1);
  ASSERT_EQ(pushed->left->left->kind, PlanKind::kScan);

  Catalog catalog;
  Relation rel(stored);
  Rng rng(0x5107ab);
  for (int i = 0; i < 40; ++i) {
    TimePoint b = rng.Range(kDomain.tmin, kDomain.tmax - 2);
    TimePoint e = rng.Chance(0.2) ? rng.Range(kDomain.tmin, b)
                                  : rng.Range(b + 1, kDomain.tmax - 1);
    rel.AddRow({Value::Int(b), Value::Int(e), Value::Int(rng.Range(0, 5)),
                Value::Int(rng.Range(0, 5))});
  }
  catalog.Put("p", std::move(rel));
  catalog.PutIndex(
      "p", TimelineIndex::Build(catalog.GetShared("p"), /*begin_col=*/0,
                                /*end_col=*/1));
  for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
    PlanPtr at = PushDownTimeslice(MakeTimeslice(encoded, t));
    ExecStats stats;
    Relation indexed = Execute(at, catalog, ExecOptions{}, &stats);
    EXPECT_EQ(stats.index_timeslices, 1) << "t=" << t;
    ExecOptions scan_options;
    scan_options.use_timeline_index = false;
    Relation scanned = Execute(at, catalog, scan_options);
    ExpectRowsIdentical(indexed, scanned, StrCat("pushed t=", t));
    Relation unpushed = Execute(MakeTimeslice(encoded, t), catalog);
    ExpectRowsIdentical(indexed, unpushed, StrCat("unpushed t=", t));
  }
}

TEST(TimeslicePushdownTest, PushedPlansStayBagEqualOnRandomQueries) {
  Rng rng(0x9a5bacc);
  RandomQueryConfig config;
  config.allow_aggregate = false;  // rewritten agg plans end in
  config.allow_difference = true;  // split-aggregate, not pi/sigma chains
  for (int iter = 0; iter < 60; ++iter) {
    Catalog catalog = RandomEncodedCatalog(&rng, kDomain, 10, 0.1, 0.1);
    RandomQueryGenerator gen(&rng, config);
    PlanPtr query = gen.Generate(static_cast<int>(rng.Uniform(3)));
    SnapshotRewriter rewriter(kDomain, RewriteOptions{});
    TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax - 1);
    PlanPtr sliced = MakeTimeslice(rewriter.Rewrite(query), t);
    PlanPtr pushed = PushDownTimeslice(sliced);
    ASSERT_EQ(pushed->schema.size(), sliced->schema.size());
    // Give the pushed plan real indexes so Timeslice-over-scan nodes
    // take the indexed route.
    catalog.PutIndex("r", TimelineIndex::Build(catalog.GetShared("r")));
    catalog.PutIndex("s", TimelineIndex::Build(catalog.GetShared("s")));
    Relation a = Execute(sliced, catalog);
    Relation b = Execute(pushed, catalog);
    ASSERT_TRUE(a.BagEquals(b))
        << "t=" << t << "\noriginal:\n" << sliced->ToString()
        << "\npushed:\n" << pushed->ToString();
    // Abstract-model oracle: tau_t of the naive snapshot-by-snapshot
    // evaluation must agree with both routes (Thm 6.3).
    Relation oracle = TimesliceEncoded(NaiveSnapshotEval(query, catalog,
                                                         kDomain), t);
    ASSERT_TRUE(b.BagEquals(oracle))
        << "t=" << t << "\nquery:\n" << query->ToString();
  }
}

// --- Snapshot reducibility (Thm 6.3) as a property. -------------------------
//
// The period-K AS-OF plan -- the query over tau_t of every table
// reference (SnapshotRewriter::RewriteAsOf) -- against tau_t over the
// REWR rewrite, at a random t in the domain: bag-equal with the
// timeline indexes on and off, over the trailing tables r/s and the
// non-trailing period table p, before and after appends served through
// differential (WithDelta) indexes.  The generators draw dyadic values
// only, so sums are exact in either plan's row order.

/// Stored endpoint columns of the random tables: p keeps them at (0, 2)
/// (AddRandomPeriodTable), r and s trail.
std::pair<int, int> PeriodColumns(const std::string& table) {
  return table == "p" ? std::pair{0, 2} : std::pair{2, 3};
}

void IndexAllTables(Catalog* catalog) {
  for (const std::string& name : catalog->TableNames()) {
    const auto [b, e] = PeriodColumns(name);
    // nullptr for non-integer endpoints: the scan path serves those.
    if (auto index = TimelineIndex::Build(catalog->GetShared(name), b, e)) {
      catalog->PutIndex(name, std::move(index));
    }
  }
}

/// Appends a few random rows to every table, keeping each table's
/// index warm as a WithDelta index the way the middleware's writer does.
void AppendWithDeltas(Rng* rng, Catalog* catalog) {
  for (const std::string& name : catalog->TableNames()) {
    std::shared_ptr<const Relation> old_rel = catalog->GetShared(name);
    std::shared_ptr<const TimelineIndex> old_index = catalog->GetIndex(name);
    std::vector<Row> rows = RandomAppendRows(
        rng, kDomain, /*period_layout=*/name == "p",
        1 + static_cast<int>(rng->Uniform(4)), /*null_chance=*/0.15,
        /*empty_validity_chance=*/0.15);
    const Relation batch(old_rel->schema(), std::move(rows));
    auto next = std::make_shared<const Relation>(
        Relation::Concat(old_rel->schema(), {old_rel.get(), &batch}));
    catalog->PutShared(name, next);
    if (old_index != nullptr) {
      auto delta = TimelineIndex::WithDelta(old_index, next);
      ASSERT_NE(delta, nullptr) << name;
      catalog->PutIndex(name, std::move(delta));
    }
  }
}

/// Distinct timeslice-over-scan nodes of a plan DAG.
int CountSlicedScans(const PlanPtr& plan) {
  std::unordered_set<const Plan*> seen;
  std::vector<const Plan*> stack = {plan.get()};
  int count = 0;
  while (!stack.empty()) {
    const Plan* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !seen.insert(node).second) continue;
    count += node->kind == PlanKind::kTimeslice &&
             node->left->kind == PlanKind::kScan;
    stack.push_back(node->left.get());
    stack.push_back(node->right.get());
  }
  return count;
}

/// Executes both plans with the index on and off; each pair must be
/// bag-equal.  With `lenient`, a plan may throw (non-integer
/// endpoints); only runs where both return rows are compared.
void ExpectSameSnapshot(const PlanPtr& as_of, const PlanPtr& sliced,
                        const Catalog& catalog, bool lenient,
                        const std::string& context) {
  for (bool use_index : {true, false}) {
    ExecOptions exec;
    exec.use_timeline_index = use_index;
    std::optional<Relation> got;
    std::optional<Relation> want;
    ExecStats stats;
    try {
      got = Execute(as_of, catalog, exec, &stats);
    } catch (const EngineError& error) {
      ASSERT_TRUE(lenient) << context << ": " << error.what();
    }
    try {
      want = Execute(sliced, catalog, exec);
    } catch (const EngineError& error) {
      ASSERT_TRUE(lenient) << context << ": " << error.what();
    }
    if (!got.has_value() || !want.has_value()) continue;
    ASSERT_TRUE(got->BagEquals(*want))
        << context << " index=" << use_index << "\nAS-OF plan:\n"
        << as_of->ToString() << "got:\n" << got->ToString() << "want:\n"
        << want->ToString();
    if (use_index && !lenient) {
      // Every slice is answered from its table's index.
      EXPECT_EQ(stats.index_timeslices, CountSlicedScans(as_of)) << context;
    }
  }
}

void CheckRandomAsOfPlans(uint64_t seed, int iterations,
                          const NonIntegerData* mix) {
  Rng rng(seed);
  for (int iter = 0; iter < iterations; ++iter) {
    Catalog catalog = RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/10,
                                           /*null_chance=*/0.15,
                                           /*empty_validity_chance=*/0.15,
                                           mix);
    PlanPtr encoded_p = AddRandomPeriodTable(&rng, &catalog, kDomain,
                                             /*max_rows=*/10,
                                             /*null_chance=*/0.15,
                                             /*empty_validity_chance=*/0.15,
                                             mix);
    RewriteOptions options;
    options.use_cost_model = rng.Chance(0.5);
    if (options.use_cost_model && mix == nullptr) {
      for (const std::string& name : catalog.TableNames()) {
        const auto [b, e] = PeriodColumns(name);
        catalog.PutStats(name,
                         TableStats::Collect(catalog.GetShared(name), b, e));
      }
    }
    RandomQueryConfig qc;
    qc.null_literal_chance = 0.1;
    qc.union_dup_chance = 0.2;
    qc.period_scan_chance = 0.3;
    qc.inexact_arg_chance = 0.3;
    RandomQueryGenerator gen(&rng, qc);
    PlanPtr query = gen.Generate(static_cast<int>(rng.Uniform(5)));
    CostModel cost(&catalog, kDomain);
    SnapshotRewriter rewriter(kDomain, options,
                              PeriodScanEncodings(query, encoded_p), &cost);
    const TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax - 1);
    PlanPtr as_of = rewriter.RewriteAsOf(query, t);
    for (PlanKind kind : {PlanKind::kCoalesce, PlanKind::kSplit,
                          PlanKind::kSplitAggregate}) {
      ASSERT_FALSE(ContainsKind(as_of, kind)) << as_of->ToString();
    }
    PlanPtr sliced = MakeTimeslice(rewriter.Rewrite(query), t);
    const std::string context =
        StrCat("seed ", seed, " iter ", iter, " t=", t, "\nquery:\n",
               query->ToString());
    IndexAllTables(&catalog);
    ExpectSameSnapshot(as_of, sliced, catalog, mix != nullptr, context);
    AppendWithDeltas(&rng, &catalog);
    ExpectSameSnapshot(as_of, sliced, catalog, mix != nullptr,
                       StrCat(context, " after appends"));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SnapshotReducibilityTest, AsOfPlanEqualsSlicedRewriteOnRandomQueries) {
  CheckRandomAsOfPlans(0x7e5d0c, /*iterations=*/400, /*mix=*/nullptr);
}

TEST(SnapshotReducibilityTest, NonIntegerDataAndEndpointsNeverCrash) {
  // Doubles, strings, and NULL / double / string endpoints: a plan may
  // refuse (EngineError), and where both plans return rows they agree.
  NonIntegerData mix;
  mix.bad_endpoint_chance = 0.05;
  CheckRandomAsOfPlans(0x90ddba11, /*iterations=*/200, &mix);
}

TEST(SnapshotReducibilityTest, EmptySnapshotsUnderAggregatesDifferenceDistinct) {
  // r lives on [8, 12), s on [4, 6): t < 4 sees both empty, t in [4, 6)
  // only s, and t >= 12 nothing again.
  Catalog catalog;
  catalog.Put("r", EncodedRelation({{1, 2, 8, 12}, {1, 2, 8, 12}, {2, 5, 9, 11}}));
  catalog.Put("s", EncodedRelation({{1, 2, 4, 6}, {3, 4, 5, 6}}));
  IndexAllTables(&catalog);
  const Schema snapshot = Schema::FromNames({"a", "b"});
  PlanPtr r = MakeScan("r", snapshot);
  PlanPtr s = MakeScan("s", snapshot);
  const std::vector<AggExpr> aggs = {
      AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
      AggExpr{AggFunc::kSum, Col(1, "b"), "sum_b"},
      AggExpr{AggFunc::kAvg, Col(1, "b"), "avg_b"},
      AggExpr{AggFunc::kMin, Col(0, "a"), "min_a"}};
  const std::vector<PlanPtr> queries = {
      MakeAggregate(r, {}, {}, aggs),
      MakeAggregate(MakeSelect(s, Eq(Col(0), LitInt(9))), {}, {}, aggs),
      MakeAggregate(MakeUnionAll(r, s), {Col(0, "a")}, {Column("a")}, aggs),
      MakeExceptAll(r, s),
      MakeExceptAll(s, r),
      MakeDistinct(r),
      MakeDistinct(MakeUnionAll(s, s)),
      MakeAggregate(MakeExceptAll(r, r), {}, {}, aggs),
      MakeAggregate(MakeDistinct(MakeJoin(r, s, Eq(Col(0), Col(2)))), {}, {},
                    aggs)};
  SnapshotRewriter rewriter(kDomain, RewriteOptions{});
  for (size_t q = 0; q < queries.size(); ++q) {
    for (TimePoint t = kDomain.tmin; t < kDomain.tmax; ++t) {
      PlanPtr as_of = rewriter.RewriteAsOf(queries[q], t);
      PlanPtr sliced = MakeTimeslice(rewriter.Rewrite(queries[q]), t);
      ExpectSameSnapshot(as_of, sliced, catalog, /*lenient=*/false,
                         StrCat("query ", q, " t=", t));
      if (queries[q]->kind == PlanKind::kAggregate &&
          queries[q]->exprs.empty()) {
        // An ungrouped aggregate over an empty snapshot is one row.
        EXPECT_EQ(Execute(as_of, catalog).size(), 1u)
            << "query " << q << " t=" << t;
      }
    }
  }
}

// --- Middleware: AS OF serving, lazy index lifecycle, oracle. --------------

TemporalDB SeededDb(Rng* rng, int rows) {
  TemporalDB db(kDomain);
  EXPECT_TRUE(
      db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve").ok());
  std::vector<Row> batch;
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(kDomain.tmin, kDomain.tmax - 2);
    TimePoint e = rng->Range(b + 1, kDomain.tmax - 1);
    batch.push_back({Value::Int(rng->Range(0, 3)), Value::Int(rng->Range(0, 9)),
                     Value::Int(b), Value::Int(e)});
  }
  EXPECT_TRUE(db.InsertRows("t", std::move(batch)).ok());
  return db;
}

TEST(TimelineIndexMiddlewareTest, AsOfQueriesMatchScanPathAndOracle) {
  Rng rng(0xa50f);
  for (int iter = 0; iter < 25; ++iter) {
    TemporalDB db = SeededDb(&rng, static_cast<int>(rng.Uniform(30)));
    for (const char* sql :
         {"SELECT grp, val FROM t", "SELECT val FROM t WHERE grp = 1",
          "SELECT grp FROM t WHERE val >= 4 "
          "UNION ALL SELECT grp FROM t WHERE grp = 2"}) {
      TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax - 1);
      std::string as_of = StrCat("SEQ VT AS OF ", t, " (", sql, ")");
      auto indexed = db.Query(as_of);
      ASSERT_TRUE(indexed.ok()) << as_of;

      RewriteOptions scan_opts;
      scan_opts.use_timeline_index = false;
      auto scanned = db.Query(as_of, scan_opts);
      ASSERT_TRUE(scanned.ok()) << as_of;
      EXPECT_TRUE(indexed->BagEquals(*scanned)) << as_of;

      // Thm 6.3 commutation check: AS OF t must equal tau_t of the full
      // SEQ VT period result computed on the independent scan path.
      auto encoded = db.Query(StrCat("SEQ VT (", sql, ")"), scan_opts);
      ASSERT_TRUE(encoded.ok());
      Relation oracle = TimesliceEncoded(*encoded, t);
      EXPECT_TRUE(indexed->BagEquals(oracle)) << as_of;
    }
  }
}

TEST(TimelineIndexMiddlewareTest, TimesliceEntryPointUsesIndexAndStaysExact) {
  Rng rng(0x5EED);
  TemporalDB db = SeededDb(&rng, 40);
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
    auto indexed = db.Timeslice("t", t);
    ASSERT_TRUE(indexed.ok());
    TemporalDB scan_db(kDomain, scan_opts);
    // Same data through a scan-only instance.
    Relation copy = db.catalog().Get("t");
    ASSERT_TRUE(scan_db.PutPeriodTable("t", std::move(copy), "vb", "ve").ok());
    auto scanned = scan_db.Timeslice("t", t);
    ASSERT_TRUE(scanned.ok());
    ExpectRowsIdentical(*indexed, *scanned, StrCat("t=", t));
  }
}

TEST(TimelineIndexMiddlewareTest, ExplainAnalyzeShowsIndexHits) {
  Rng rng(0xEA);
  TemporalDB db = SeededDb(&rng, 10);
  auto explained = db.ExplainAnalyze("SEQ VT AS OF 5 (SELECT grp FROM t)");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("index timeslices: 1"), std::string::npos)
      << *explained;
}

TEST(TimelineIndexMiddlewareTest, AsOfSlicesEveryTableReferenceFromIndex) {
  // A join and an aggregation: the period-K AS-OF plan slices each
  // table reference (both join inputs) and keeps no REWR operator.
  Rng rng(0x70b1);
  TemporalDB db = SeededDb(&rng, 30);
  ASSERT_TRUE(
      db.CreatePeriodTable("u", {"ub", "grp", "ue", "tag"}, "ub", "ue").ok());
  std::vector<Row> batch;
  for (int i = 0; i < 20; ++i) {
    TimePoint b = rng.Range(kDomain.tmin, kDomain.tmax - 2);
    batch.push_back({Value::Int(b), Value::Int(rng.Range(0, 3)),
                     Value::Int(rng.Range(b + 1, kDomain.tmax - 1)),
                     Value::Int(i)});
  }
  ASSERT_TRUE(db.InsertRows("u", std::move(batch)).ok());
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  for (const auto& [sql, slices] : std::vector<std::pair<std::string, int>>{
           {"SELECT t.val, u.tag FROM t, u WHERE t.grp = u.grp", 2},
           {"SELECT grp, count(*) AS n, sum(val) AS s FROM t GROUP BY grp", 1},
           {"SELECT count(*) AS n FROM u WHERE tag > 100", 1}}) {
    const std::string as_of = StrCat("SEQ VT AS OF 6 (", sql, ")");
    auto explained = db.ExplainAnalyze(as_of);
    ASSERT_TRUE(explained.ok()) << as_of;
    EXPECT_NE(explained->find(StrCat("index timeslices: ", slices)),
              std::string::npos)
        << *explained;
    for (const char* kind : {"Coalesce", "Split"}) {
      EXPECT_EQ(explained->find(kind), std::string::npos) << *explained;
    }
    auto indexed = db.Query(as_of);
    ASSERT_TRUE(indexed.ok()) << as_of;
    auto encoded = db.Query(StrCat("SEQ VT (", sql, ")"), scan_opts);
    ASSERT_TRUE(encoded.ok()) << sql;
    EXPECT_TRUE(indexed->BagEquals(TimesliceEncoded(*encoded, 6))) << as_of;
  }
}

TEST(TimelineIndexMiddlewareTest, NonTrailingPeriodTableServedFromIndex) {
  Rng rng(0xb0b);
  TemporalDB db(kDomain);
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"vb", "grp", "ve", "val"}, "vb", "ve").ok());
  std::vector<Row> batch;
  for (int i = 0; i < 30; ++i) {
    TimePoint b = rng.Range(kDomain.tmin, kDomain.tmax - 2);
    TimePoint e = rng.Range(b + 1, kDomain.tmax - 1);
    batch.push_back({Value::Int(b), Value::Int(rng.Range(0, 3)), Value::Int(e),
                     Value::Int(rng.Range(0, 9))});
  }
  ASSERT_TRUE(db.InsertRows("t", std::move(batch)).ok());
  auto explained = db.ExplainAnalyze("SEQ VT AS OF 5 (SELECT grp, val FROM t)");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("index timeslices: 1"), std::string::npos)
      << *explained;
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  // Thm 6.3 oracle: tau_t of the full SEQ VT result on the scan path.
  auto encoded = db.Query("SEQ VT (SELECT grp, val FROM t)", scan_opts);
  ASSERT_TRUE(encoded.ok());
  for (TimePoint t = kDomain.tmin; t < kDomain.tmax; ++t) {
    auto indexed =
        db.Query(StrCat("SEQ VT AS OF ", t, " (SELECT grp, val FROM t)"));
    ASSERT_TRUE(indexed.ok());
    auto scanned =
        db.Query(StrCat("SEQ VT AS OF ", t, " (SELECT grp, val FROM t)"),
                 scan_opts);
    ASSERT_TRUE(scanned.ok());
    EXPECT_TRUE(indexed->BagEquals(*scanned)) << "t=" << t;
    EXPECT_TRUE(indexed->BagEquals(TimesliceEncoded(*encoded, t)))
        << "t=" << t;
  }
}

TEST(TimelineIndexMiddlewareTest, WritersInvalidateLazilyBuiltIndexes) {
  Rng rng(0x17a1);
  TemporalDB db = SeededDb(&rng, 10);
  auto before = db.Query("SEQ VT AS OF 5 (SELECT grp, val FROM t)");
  ASSERT_TRUE(before.ok());
  // Insert a row alive at t = 5; the next AS-OF read must see it (a
  // stale index would keep serving the old snapshot).
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(7), Value::Int(7), Value::Int(0),
                      Value::Int(16)})
          .ok());
  auto after = db.Query("SEQ VT AS OF 5 (SELECT grp, val FROM t)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() + 1);
}

TEST(TimelineIndexMiddlewareTest, ConcurrentAsOfServingStaysConsistent) {
  TemporalDB db(kDomain);
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve").ok());
  constexpr int kWrites = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = db.Query("SEQ VT AS OF 8 (SELECT val FROM t)");
        if (!result.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i % 4), Value::Int(i),
                                Value::Int(i % 8), Value::Int(8 + i % 8)})
                    .ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  // Final state: every row with vb <= 8 < ve is visible.
  auto final_result = db.Query("SEQ VT AS OF 8 (SELECT val FROM t)");
  ASSERT_TRUE(final_result.ok());
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  auto scan_result = db.Query("SEQ VT AS OF 8 (SELECT val FROM t)", scan_opts);
  ASSERT_TRUE(scan_result.ok());
  EXPECT_TRUE(final_result->BagEquals(*scan_result));
  auto encoded = db.Query("SEQ VT (SELECT val FROM t)", scan_opts);
  ASSERT_TRUE(encoded.ok());
  EXPECT_TRUE(final_result->BagEquals(TimesliceEncoded(*encoded, 8)));
}

}  // namespace
}  // namespace periodk
