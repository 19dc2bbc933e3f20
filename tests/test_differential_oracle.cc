// Differential testing against the embedded SQLite oracle
// (docs/testing.md): randomized snapshot queries are rewritten with
// REWR, executed by the engine, transpiled to SQL
// (src/sql/transpile.h), executed by SQLite over the same data, and
// compared as multisets.  A divergence is shrunk to a minimal plan and
// minimal data, then dumped as a self-contained SQL reproducer
// (differential_repro_<seed>.sql in the working directory).
//
// Seed count: PERIODK_DIFF_SEEDS (default 500).  Operator-kind
// coverage is asserted only at >= 300 seeds so a quick
// PERIODK_DIFF_SEEDS=20 debugging run still passes.
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "engine/timeline_index.h"
#include "ra/cost_model.h"
#include "random_query.h"
#include "rewrite/rewriter.h"
#include "sql/transpile.h"
#include "sqlite_oracle.h"
#include "stats/table_stats.h"

namespace periodk {
namespace {

constexpr TimeDomain kDomain{0, 16};

using EngineFn = std::function<Relation(const PlanPtr&, const Catalog&)>;

int SeedCount() {
  const char* env = std::getenv("PERIODK_DIFF_SEEDS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return 500;
}

Relation PlainEngine(const PlanPtr& plan, const Catalog& catalog) {
  return Execute(plan, catalog, ExecOptions{});
}

/// Engine variant with every base table forced into columnar storage
/// (dictionary-encoded strings included), so the fuzz corpus exercises
/// the vectorized kernel fast paths and their row-path fallbacks.
Relation ColumnarEngine(const PlanPtr& plan, const Catalog& catalog) {
  Catalog columnar = catalog;
  for (const std::string& name : columnar.TableNames()) {
    Relation rel = columnar.Get(name);
    rel.ToColumnar();
    columnar.Put(name, std::move(rel));
  }
  return Execute(plan, columnar, ExecOptions{});
}

/// One generated differential case: data + rewritten multiset plan,
/// plus (when the mid_insert_chance knob is on) per-table append
/// batches to apply *between* query evaluations.
struct FuzzCase {
  Catalog catalog;
  PlanPtr plan;
  std::string description;
  std::map<std::string, std::vector<Row>> mid_inserts;
  // Period-K cases: the snapshot query AS OF a seed-derived t
  // (SnapshotRewriter::RewriteAsOf); null for the baselines.
  PlanPtr as_of_plan;
  TimePoint as_of_t = 0;
};

FuzzCase BuildCase(int seed, double mid_insert_chance = 0.0) {
  Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0x5107ab);
  FuzzCase out;
  out.catalog = RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/10,
                                     /*null_chance=*/0.15,
                                     /*empty_validity_chance=*/0.15);
  PlanPtr encoded_p = AddRandomPeriodTable(&rng, &out.catalog, kDomain,
                                           /*max_rows=*/10,
                                           /*null_chance=*/0.15,
                                           /*empty_validity_chance=*/0.15);

  RewriteOptions options;
  SnapshotSemantics all[] = {
      SnapshotSemantics::kPeriodK, SnapshotSemantics::kAlignment,
      SnapshotSemantics::kIntervalPreservation, SnapshotSemantics::kTeradata};
  options.semantics = all[rng.Uniform(4)];
  options.hoist_coalesce = rng.Chance(0.5);
  options.fuse_aggregation = rng.Chance(0.5);
  options.pre_aggregate = rng.Chance(0.5);
  options.coalesce_impl =
      rng.Chance(0.5) ? CoalesceImpl::kNative : CoalesceImpl::kWindow;
  options.use_cost_model = rng.Chance(0.5);
  if (options.use_cost_model) {
    // Attach statistics so the cost model's join-reorder pre-pass sees
    // real cardinalities (tables without stats estimate flat and keep
    // the structural order).  The oracle compares multisets, so a
    // reorder-induced row-order change is invisible to it.
    for (const std::string& name : out.catalog.TableNames()) {
      std::shared_ptr<const Relation> rel = out.catalog.GetShared(name);
      // "p" stores its interval columns at (0, 2); "r"/"s" are
      // PERIODENC with trailing endpoints.
      int b = name == "p" ? 0 : static_cast<int>(rel->schema().size()) - 2;
      int e = name == "p" ? 2 : static_cast<int>(rel->schema().size()) - 1;
      out.catalog.PutStats(name, TableStats::Collect(rel, b, e));
    }
  }

  RandomQueryConfig qc;
  qc.null_literal_chance = 0.15;
  qc.union_dup_chance = 0.2;
  qc.period_scan_chance = 0.25;
  qc.mid_insert_chance = mid_insert_chance;
  // Snapshot difference is N/A under Teradata semantics (Table 1).
  qc.allow_difference = options.semantics != SnapshotSemantics::kTeradata;

  RandomQueryGenerator gen(&rng, qc);
  int depth = 3 + static_cast<int>(rng.Uniform(2));
  PlanPtr snapshot_query = gen.Generate(depth);
  CostModel cost(&out.catalog, kDomain);
  SnapshotRewriter rewriter(kDomain, options,
                            PeriodScanEncodings(snapshot_query, encoded_p),
                            options.use_cost_model ? &cost : nullptr);
  PlanPtr plan = rewriter.Rewrite(snapshot_query);
  if (options.semantics == SnapshotSemantics::kPeriodK) {
    // t comes from the seed, not the generator: no random draw.
    out.as_of_t = kDomain.tmin + seed % (kDomain.tmax - kDomain.tmin);
    out.as_of_plan = rewriter.RewriteAsOf(snapshot_query, out.as_of_t);
  }

  std::string wrappers;
  if (rng.Chance(0.2)) {
    TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax);
    plan = MakeTimeslice(plan, t);
    if (rng.Chance(0.5)) {
      // The AS-OF plan the middleware runs: for period-K, the query
      // over sliced scans (RewriteAsOf); the baselines push the slice
      // into their rewrite.
      if (options.semantics == SnapshotSemantics::kPeriodK) {
        plan = rewriter.RewriteAsOf(snapshot_query, t);
        wrappers += StrCat(" as-of@", t);
      } else {
        plan = PushDownTimeslice(plan);
        wrappers += StrCat(" timeslice@", t, "(pushed)");
      }
    } else {
      wrappers += StrCat(" timeslice@", t);
    }
  }
  if (rng.Chance(0.2)) {
    plan = MakeSort(plan, {SortKey{0, rng.Chance(0.5)}});
    wrappers += " sort";
  }
  out.plan = plan;
  out.description =
      StrCat("seed ", seed, " semantics=",
             SnapshotSemanticsName(options.semantics),
             " hoist=", options.hoist_coalesce, " fuse=",
             options.fuse_aggregation, " preagg=", options.pre_aggregate,
             " impl=", options.coalesce_impl == CoalesceImpl::kNative
                           ? "native"
                           : "window",
             " cost=", options.use_cost_model, " depth=", depth, wrappers);
  // Mid-sequence insert batches are drawn *last*, so a zero-valued knob
  // leaves every existing seed's plan/data stream bit-identical.
  if (qc.mid_insert_chance > 0) {
    for (const char* name : {"r", "s", "p"}) {
      if (!rng.Chance(qc.mid_insert_chance)) continue;
      int count = 1 + static_cast<int>(rng.Uniform(4));
      out.mid_inserts[name] = RandomAppendRows(
          &rng, kDomain, /*period_layout=*/std::string(name) == "p", count,
          /*null_chance=*/0.15, /*empty_validity_chance=*/0.15);
    }
    if (!out.mid_inserts.empty()) out.description += " +mid-inserts";
  }
  return out;
}

/// Applies a case's mid-sequence inserts the way the middleware's write
/// path does: copy-on-write append, then attach a differential
/// (WithDelta) timeline index built from the pre-insert index, so the
/// executor's indexed routes serve post-write reads through the delta.
/// Returns the names of the tables that grew.
std::vector<std::string> ApplyMidInsertsWithIndexes(FuzzCase* c) {
  std::vector<std::string> grown;
  for (const auto& [table, rows] : c->mid_inserts) {
    std::shared_ptr<const Relation> old_rel = c->catalog.GetShared(table);
    int arity = static_cast<int>(old_rel->schema().size());
    // "p" stores its interval columns at (0, 2); "r"/"s" are PERIODENC
    // with trailing endpoints (same mapping as the stats attachment).
    int b = table == "p" ? 0 : arity - 2;
    int e = table == "p" ? 2 : arity - 1;
    std::shared_ptr<const TimelineIndex> old_index =
        TimelineIndex::Build(old_rel, b, e);
    Relation next = *old_rel;
    for (const Row& row : rows) next.AddRow(Row(row));
    auto next_shared = std::make_shared<const Relation>(std::move(next));
    c->catalog.PutShared(table, next_shared);
    if (old_index != nullptr) {
      auto with_delta = TimelineIndex::WithDelta(old_index, next_shared);
      // Appended endpoints are integers by construction, so the delta
      // build can only refuse on a contract bug — surface it.
      EXPECT_NE(with_delta, nullptr) << table;
      if (with_delta != nullptr) c->catalog.PutIndex(table, with_delta);
    }
    grown.push_back(table);
  }
  return grown;
}

/// Runs `plan` through the engine and the oracle; nullopt = match.
std::optional<std::string> Diverges(const PlanPtr& plan,
                                    const Catalog& catalog,
                                    const EngineFn& engine) {
  SqlScript script = TranspilePlan(plan);
  SqliteOracle oracle;
  oracle.LoadCatalog(catalog);
  Relation ours = engine(plan, catalog);
  Relation theirs = oracle.RunScript(script, plan->schema.size());
  return DiffRelations(ours, theirs);
}

bool DivergesQuietly(const PlanPtr& plan, const Catalog& catalog,
                     const EngineFn& engine) {
  try {
    return Diverges(plan, catalog, engine).has_value();
  } catch (const std::exception&) {
    return false;  // an error is not a clean reproduction of the diff
  }
}

/// Greedy structural shrink: descend into a direct child subplan as
/// long as the child alone still reproduces the divergence.
PlanPtr ShrinkPlan(PlanPtr plan, const Catalog& catalog,
                   const EngineFn& engine) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const PlanPtr& child : {plan->left, plan->right}) {
      if (child != nullptr && DivergesQuietly(child, catalog, engine)) {
        plan = child;
        progressed = true;
        break;
      }
    }
  }
  return plan;
}

/// Data shrink: drop base-table rows one at a time while the
/// divergence persists, to a fixpoint.
Catalog ShrinkRows(const PlanPtr& plan, Catalog catalog,
                   const EngineFn& engine) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const std::string& name : catalog.TableNames()) {
      const Relation& rel = catalog.Get(name);
      for (size_t drop = 0; drop < rel.size(); ++drop) {
        Relation smaller(rel.schema());
        for (size_t i = 0; i < rel.size(); ++i) {
          if (i != drop) smaller.AddRow(Row(rel.rows()[i]));
        }
        Catalog trial = catalog;  // snapshot copy, O(#tables)
        trial.Put(name, std::move(smaller));
        if (DivergesQuietly(plan, trial, engine)) {
          catalog = std::move(trial);
          progressed = true;
          break;
        }
      }
      if (progressed) break;
    }
  }
  return catalog;
}

/// Writes the self-contained SQL reproducer and returns its path.
std::string DumpReproducer(const std::string& dir, int seed,
                           const PlanPtr& plan, const Catalog& catalog,
                           const std::string& diff,
                           const std::string& description) {
  std::map<std::string, Relation> tables;
  for (const std::string& name : catalog.TableNames()) {
    tables.emplace(name, catalog.Get(name));
  }
  std::string header =
      StrCat("periodk differential fuzzer reproducer\n", description,
             "\ndivergence:\n", diff, "\nplan:\n", plan->ToString());
  std::string body =
      BuildReproducerSql(tables, TranspilePlanToSql(plan), header);
  std::string path = StrCat(dir, "differential_repro_", seed, ".sql");
  std::ofstream file(path);
  file << body;
  return path;
}

void CountKinds(const PlanPtr& plan, std::unordered_set<const Plan*>* seen,
                std::map<PlanKind, int>* counts) {
  if (plan == nullptr || !seen->insert(plan.get()).second) return;
  ++(*counts)[plan->kind];
  CountKinds(plan->left, seen, counts);
  CountKinds(plan->right, seen, counts);
}

/// Shared fuzz driver; returns the number of divergences found (after
/// shrinking and dumping each into `dump_dir`).
int RunFuzz(int seeds, const EngineFn& engine, const std::string& dump_dir,
            int stop_after, std::map<PlanKind, int>* kind_counts) {
  int found = 0;
  for (int seed = 0; seed < seeds && found < stop_after; ++seed) {
    FuzzCase c = BuildCase(seed);
    if (kind_counts != nullptr) {
      // Per-case visited set: addresses recycle across cases.
      std::unordered_set<const Plan*> seen;
      CountKinds(c.plan, &seen, kind_counts);
    }
    std::optional<std::string> diff;
    try {
      diff = Diverges(c.plan, c.catalog, engine);
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.description << "\nerror: " << e.what() << "\nplan:\n"
                    << c.plan->ToString();
      ++found;
      continue;
    }
    if (!diff.has_value()) continue;
    ++found;
    PlanPtr small = ShrinkPlan(c.plan, c.catalog, engine);
    Catalog data = ShrinkRows(small, c.catalog, engine);
    std::string small_diff = Diverges(small, data, engine).value_or(*diff);
    std::string path = DumpReproducer(dump_dir, seed, small, data, small_diff,
                                      c.description);
    ADD_FAILURE() << c.description << "\n"
                  << small_diff << "\nreproducer: " << path
                  << "\nshrunk plan:\n"
                  << small->ToString();
  }
  return found;
}

// --- Deterministic warm-up cases ------------------------------------------

Catalog TinyCatalog() {
  Catalog catalog;
  Relation r(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
  r.AddRow({Value::Int(1), Value::Int(2), Value::Int(0), Value::Int(8)});
  r.AddRow({Value::Int(1), Value::Int(2), Value::Int(4), Value::Int(12)});
  r.AddRow({Value::Int(1), Value::Null(), Value::Int(2), Value::Int(6)});
  r.AddRow({Value::Int(3), Value::Int(0), Value::Int(5), Value::Int(5)});
  Relation s(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
  s.AddRow({Value::Int(1), Value::Int(2), Value::Int(6), Value::Int(10)});
  s.AddRow({Value::Null(), Value::Null(), Value::Int(0), Value::Int(16)});
  catalog.Put("r", std::move(r));
  catalog.Put("s", std::move(s));
  return catalog;
}

PlanPtr EncodedScan(const char* name) {
  return MakeScan(name, Schema::FromNames({"a", "b", "a_begin", "a_end"}));
}

TEST(DifferentialOracle, HandBuiltCoalesceMatches) {
  Catalog catalog = TinyCatalog();
  for (CoalesceImpl impl : {CoalesceImpl::kNative, CoalesceImpl::kWindow}) {
    PlanPtr plan = MakeCoalesce(EncodedScan("r"), impl);
    auto diff = Diverges(plan, catalog, PlainEngine);
    EXPECT_FALSE(diff.has_value()) << diff.value_or("");
  }
}

TEST(DifferentialOracle, HandBuiltBagDifferenceMatches) {
  Catalog catalog = TinyCatalog();
  PlanPtr plan = MakeExceptAll(EncodedScan("r"), EncodedScan("s"));
  auto diff = Diverges(plan, catalog, PlainEngine);
  EXPECT_FALSE(diff.has_value()) << diff.value_or("");
}

TEST(DifferentialOracle, HandBuiltSplitAggregateMatches) {
  Catalog catalog = TinyCatalog();
  for (bool gap_rows : {false, true}) {
    PlanPtr plan = MakeSplitAggregate(
        EncodedScan("r"), {},
        {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
         AggExpr{AggFunc::kSum, Col(1, "b"), "sum_b"}},
        gap_rows, kDomain);
    auto diff = Diverges(plan, catalog, PlainEngine);
    EXPECT_FALSE(diff.has_value()) << "gap_rows=" << gap_rows << "\n"
                                   << diff.value_or("");
    // Grouped variant (Teradata-style gap rows per observed group).
    PlanPtr grouped = MakeSplitAggregate(
        EncodedScan("r"), {0}, {AggExpr{AggFunc::kMax, Col(1, "b"), "max_b"}},
        gap_rows, kDomain);
    diff = Diverges(grouped, catalog, PlainEngine);
    EXPECT_FALSE(diff.has_value()) << "grouped gap_rows=" << gap_rows << "\n"
                                   << diff.value_or("");
  }
}

TEST(DifferentialOracle, HandBuiltTimesliceOnNonTrailingColumnsMatches) {
  Catalog catalog = TinyCatalog();
  // Slice on explicit non-trailing endpoint columns: reorder r to
  // (a_begin, a, a_end, b) first, then slice columns 0 and 2.
  PlanPtr reordered = MakeProjectColumns(EncodedScan("r"), {2, 0, 3, 1});
  PlanPtr plan = MakeTimesliceAt(reordered, 5, 0, 2);
  auto diff = Diverges(plan, catalog, PlainEngine);
  EXPECT_FALSE(diff.has_value()) << diff.value_or("");
}

// LowerSplitAggregates checked engine-vs-engine, isolating lowering
// bugs from transpiler bugs.
TEST(DifferentialOracle, SplitAggregateLoweringMatchesFusedOperator) {
  Rng rng(20260807);
  for (int i = 0; i < 50; ++i) {
    Catalog catalog =
        RandomEncodedCatalog(&rng, kDomain, 10, 0.2, 0.2);
    bool grouped = rng.Chance(0.5);
    bool gap_rows = rng.Chance(0.5);
    AggFunc funcs[] = {AggFunc::kCountStar, AggFunc::kCount, AggFunc::kSum,
                       AggFunc::kAvg,       AggFunc::kMin,   AggFunc::kMax};
    AggFunc f = funcs[rng.Uniform(6)];
    AggExpr agg{f, f == AggFunc::kCountStar ? nullptr : Col(1, "b"), "agg"};
    PlanPtr fused = MakeSplitAggregate(
        EncodedScan("r"), grouped ? std::vector<int>{0} : std::vector<int>{},
        {agg}, gap_rows, kDomain);
    PlanPtr lowered = LowerSplitAggregates(fused);
    ASSERT_FALSE(ContainsKind(lowered, PlanKind::kSplitAggregate));
    Relation a = Execute(fused, catalog, ExecOptions{});
    Relation b = Execute(lowered, catalog, ExecOptions{});
    auto diff = DiffRelations(a, b);
    EXPECT_FALSE(diff.has_value())
        << "i=" << i << " grouped=" << grouped << " gap_rows=" << gap_rows
        << " func=" << static_cast<int>(f) << "\n"
        << diff.value_or("");
    if (diff.has_value()) break;
  }
}

// --- The randomized differential suite ------------------------------------

TEST(DifferentialOracle, RandomizedQueriesMatchSqlite) {
  int seeds = SeedCount();
  std::map<PlanKind, int> kind_counts;
  int found = RunFuzz(seeds, PlainEngine, "", /*stop_after=*/3, &kind_counts);
  EXPECT_EQ(found, 0) << "reproducers dumped to the working directory";

  if (seeds >= 300) {
    // Every operator kind must be reachable from the fuzzer's grammar
    // (kConstant via the gap tuple, kAntiJoin via alignment/IP
    // difference, kSplitAggregate via fusion, kSplit via the unfused
    // path and snapshot DISTINCT, kTimeslice/kSort via the wrappers).
    for (PlanKind kind :
         {PlanKind::kScan, PlanKind::kConstant, PlanKind::kSelect,
          PlanKind::kProject, PlanKind::kJoin, PlanKind::kUnionAll,
          PlanKind::kExceptAll, PlanKind::kAggregate, PlanKind::kDistinct,
          PlanKind::kSort, PlanKind::kAntiJoin, PlanKind::kCoalesce,
          PlanKind::kSplit, PlanKind::kSplitAggregate,
          PlanKind::kTimeslice}) {
      EXPECT_GT(kind_counts[kind], 0)
          << "operator kind never generated: " << PlanKindName(kind);
    }
  }
}

TEST(DifferentialOracle, RandomizedQueriesMatchSqliteOnColumnarStorage) {
  // Same corpus, columnar base tables: the engine must agree with the
  // oracle whether a kernel takes its vectorized lane or falls back.
  int found = RunFuzz(SeedCount(), ColumnarEngine, "", /*stop_after=*/3,
                      /*kind_counts=*/nullptr);
  EXPECT_EQ(found, 0) << "reproducers dumped to the working directory";
}

// Every period-K case's query planned AS OF a seed-derived t -- the
// query over sliced scans -- against SQLite, with timeline indexes
// attached so the slices take the indexed route.
TEST(DifferentialOracle, AsOfPlansMatchSqlite) {
  int checked = 0;
  int failures = 0;
  for (int seed = 0; seed < SeedCount() && failures < 3; ++seed) {
    FuzzCase c = BuildCase(seed);
    if (c.as_of_plan == nullptr) continue;
    ++checked;
    for (const std::string& table : c.catalog.TableNames()) {
      // "p" stores its interval columns at (0, 2); "r"/"s" trail.
      const int arity = static_cast<int>(c.catalog.Get(table).schema().size());
      const int b = table == "p" ? 0 : arity - 2;
      const int e = table == "p" ? 2 : arity - 1;
      c.catalog.PutIndex(table,
                         TimelineIndex::Build(c.catalog.GetShared(table), b, e));
    }
    std::optional<std::string> diff;
    try {
      diff = Diverges(c.as_of_plan, c.catalog, PlainEngine);
    } catch (const std::exception& e) {
      diff = StrCat("error: ", e.what());
    }
    if (diff.has_value()) {
      ADD_FAILURE() << c.description << " as-of@" << c.as_of_t << "\n"
                    << *diff << "\nplan:\n" << c.as_of_plan->ToString();
      ++failures;
    }
  }
  EXPECT_GT(checked, 0);
}

// Mid-sequence writes (ISSUE 10): evaluate each fuzz query, apply the
// case's random insert batches the way the middleware does (COW append
// + WithDelta index), and evaluate again — the SQLite oracle, reloaded
// with the post-write data, validates post-write reads.  On top of the
// re-run query, a forced indexed timeslice probe per grown table pins
// the executor's delta-merging route itself against the oracle and
// checks (via ExecStats) that the index, delta included, really served.
TEST(DifferentialOracle, MidSequenceInsertsKeepIndexedReadsExact) {
  int seeds = SeedCount();
  int failures = 0;
  for (int seed = 0; seed < seeds && failures < 3; ++seed) {
    FuzzCase c = BuildCase(seed, /*mid_insert_chance=*/0.5);
    if (c.mid_inserts.empty()) continue;  // pre-write runs cover this seed
    // Query evaluation #1: before any write (same stream as the main
    // suite; kept so a failure here localizes to the write application).
    std::optional<std::string> diff;
    try {
      diff = Diverges(c.plan, c.catalog, PlainEngine);
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.description << "\npre-insert error: " << e.what();
      ++failures;
      continue;
    }
    if (diff.has_value()) {
      ADD_FAILURE() << c.description << "\npre-insert divergence:\n" << *diff;
      ++failures;
      continue;
    }
    std::vector<std::string> grown = ApplyMidInsertsWithIndexes(&c);
    // Query evaluation #2: post-write, oracle reloaded with the grown
    // tables, engine serving scans of them plus delta-carrying indexes.
    try {
      diff = Diverges(c.plan, c.catalog, PlainEngine);
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.description << "\npost-insert error: " << e.what();
      ++failures;
      continue;
    }
    if (diff.has_value()) {
      ADD_FAILURE() << c.description << "\npost-insert divergence:\n" << *diff;
      ++failures;
      continue;
    }
    // Forced indexed AS-OF probes: a timeslice directly over each grown
    // table's scan takes the executor's indexed route.
    for (const std::string& table : grown) {
      auto index = c.catalog.GetIndex(table);
      if (index == nullptr) continue;  // base was unindexable
      const Schema& stored = c.catalog.Get(table).schema();
      for (TimePoint t : {kDomain.tmin, TimePoint{7}, kDomain.tmax - 1}) {
        PlanPtr probe =
            table == "p"
                ? MakeTimesliceAt(MakeScan(table, stored), t, 0, 2)
                : MakeTimeslice(MakeScan(table, stored), t);
        ExecStats stats;
        Relation indexed = Execute(probe, c.catalog, ExecOptions{}, &stats);
        EXPECT_EQ(stats.index_timeslices, 1)
            << c.description << " table=" << table << " t=" << t;
        EXPECT_EQ(stats.index_delta_events,
                  static_cast<int64_t>(index->num_delta_events()))
            << c.description << " table=" << table << " t=" << t;
        auto probe_diff = Diverges(probe, c.catalog, PlainEngine);
        if (probe_diff.has_value()) {
          ADD_FAILURE() << c.description << " table=" << table << " t=" << t
                        << "\nindexed probe divergence:\n"
                        << *probe_diff;
          ++failures;
          break;
        }
      }
      if (failures >= 3) break;
    }
  }
  EXPECT_EQ(failures, 0);
}

// --- Sensitivity: an injected executor bug must be caught -----------------

TEST(DifferentialOracle, InjectedDuplicateDropIsCaught) {
  // Classic bag bug: the "engine" silently drops one copy of every
  // duplicated result row.  The differential harness must catch it and
  // shrink it to a reproducer.
  struct RowCmp {
    bool operator()(const Row& a, const Row& b) const {
      return CompareRows(a, b) < 0;
    }
  };
  EngineFn buggy = [](const PlanPtr& plan, const Catalog& catalog) {
    Relation out = Execute(plan, catalog, ExecOptions{});
    std::map<Row, int, RowCmp> counts;
    for (const Row& row : out.rows()) ++counts[row];
    Relation shaved(out.schema());
    for (const auto& [row, count] : counts) {
      int keep = count > 1 ? count - 1 : count;
      for (int i = 0; i < keep; ++i) shaved.AddRow(Row(row));
    }
    return shaved;
  };

  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  bool caught = false;
  for (int seed = 0; seed < 200 && !caught; ++seed) {
    FuzzCase c = BuildCase(seed);
    std::optional<std::string> diff;
    try {
      diff = Diverges(c.plan, c.catalog, buggy);
    } catch (const std::exception&) {
      continue;
    }
    if (!diff.has_value()) continue;
    caught = true;
    PlanPtr small = ShrinkPlan(c.plan, c.catalog, buggy);
    Catalog data = ShrinkRows(small, c.catalog, buggy);
    std::string small_diff = Diverges(small, data, buggy).value_or(*diff);
    std::string path =
        DumpReproducer(dir, seed, small, data, small_diff, c.description);

    // The dump must be a self-contained replayable script.
    std::ifstream file(path);
    ASSERT_TRUE(file.good()) << path;
    std::stringstream content;
    content << file.rdbuf();
    std::string text = content.str();
    EXPECT_NE(text.find("CREATE TABLE"), std::string::npos);
    EXPECT_NE(text.find("SELECT"), std::string::npos);
    EXPECT_NE(text.find("divergence:"), std::string::npos);

    // Shrinking must not lose the divergence, and the minimal plan
    // should be no larger than the original.
    EXPECT_TRUE(Diverges(small, data, buggy).has_value());
  }
  EXPECT_TRUE(caught)
      << "injected duplicate-dropping bug survived 200 fuzz seeds";
}

}  // namespace
}  // namespace periodk
