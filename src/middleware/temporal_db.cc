#include "middleware/temporal_db.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/str_util.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "ra/cost_model.h"
#include "sql/parser.h"
#include "stats/table_stats.h"

namespace periodk {

namespace {

/// Plan-cache capacity; on overflow the cache restarts empty (a serving
/// workload inlining distinct literals must not grow memory forever).
constexpr size_t kPlanCacheMaxEntries = 1024;

/// An append's delta is folded into a fresh full index once it reaches
/// clamp(kCompactionRatio * base events, kMinCompactionEvents,
/// kMaxCompactionEvents) events.  The delta is checkpointed too, so the
/// threshold bounds memory and merge overhead, not correctness or
/// per-lookup replay.
constexpr double kCompactionRatio = 0.10;
constexpr int64_t kMinCompactionEvents = 64;
constexpr int64_t kMaxCompactionEvents = 4096;

/// Cache key for a (SQL text, rewrite options) pair.  Every option that
/// changes the produced plan is part of the key — use_cost_model shapes
/// plans (join reorder, strategy hints), so it is included — and plans
/// cached under different options never alias.  use_timeline_index is
/// deliberately absent: it only changes how a plan executes, never the
/// plan itself.
std::string PlanCacheKey(const std::string& sql,
                         const RewriteOptions& options) {
  return StrCat(static_cast<int>(options.semantics),
                static_cast<int>(options.hoist_coalesce),
                static_cast<int>(options.fuse_aggregation),
                static_cast<int>(options.pre_aggregate),
                static_cast<int>(options.coalesce_impl),
                static_cast<int>(options.use_cost_model), "|", sql);
}

/// A whole table as the catalog stores it: typed columns.  Appends
/// concatenate the stored columns and the batch's (Relation::Concat).
std::shared_ptr<const Relation> StoreColumnar(Relation&& relation) {
  relation.ToColumnar();
  return std::make_shared<const Relation>(std::move(relation));
}

}  // namespace

std::string PlanCacheStats::ToString() const {
  return StrCat("plan cache: ", hits, " hits, ", misses, " misses, ",
                invalidations, " invalidations, ", entries, " entries");
}

std::string IndexMaintenanceStats::ToString() const {
  return StrCat("index maintenance: ", delta_publishes, " delta publishes, ",
                compactions, " compactions");
}

TemporalDB::TemporalDB(TemporalDB&& other)
    : domain_(other.domain_), options_(other.options_) {
  // Steal the guarded state under other's locks, in the serving path's
  // order (writer before catalog; plan cache last).  Writes to this
  // object's own guarded fields need no locks: nothing else can see an
  // object still under construction.
  MutexLock writer_lock(other.writer_mu_);
  SharedMutexLock catalog_lock(other.catalog_mu_);
  MutexLock cache_lock(other.plan_cache_mu_);
  catalog_ = std::move(other.catalog_);
  period_tables_ = std::move(other.period_tables_);
  catalog_generation_ = other.catalog_generation_;
  table_versions_ = std::move(other.table_versions_);
  maintenance_stats_ = other.maintenance_stats_;
  plan_cache_ = std::move(other.plan_cache_);
  cache_stats_ = other.cache_stats_;
}

IndexMaintenanceStats TemporalDB::index_maintenance_stats() const {
  SharedReaderLock lock(catalog_mu_);
  return maintenance_stats_;
}

// --- Writers.  All serialize on writer_mu_, build new table state
// outside the reader lock, and publish with a brief exclusive lock so
// readers only ever block for a pointer swap. -------------------------------

std::shared_ptr<const TimelineIndex> TemporalDB::MaintainIndex(
    const std::shared_ptr<const Relation>& old_relation,
    const std::shared_ptr<const TimelineIndex>& old_index,
    const std::shared_ptr<const Relation>& next,
    const std::shared_ptr<const TableStats>& next_stats, int begin_idx,
    int end_idx) const {
  // Only a current index over exactly the columns the period metadata
  // names can be extended; anything else (no index yet, a racing layout
  // change, a hand-attached index) drops the slot for a lazy rebuild.
  if (old_index == nullptr || !old_index->BuiltFor(old_relation.get()) ||
      old_index->begin_col() != begin_idx || old_index->end_col() != end_idx) {
    return nullptr;
  }
  std::shared_ptr<const TimelineIndex> delta =
      TimelineIndex::WithDelta(old_index, next);
  if (delta == nullptr) return nullptr;  // unindexable appended rows
  const int64_t base_events =
      static_cast<int64_t>(delta->num_events() - delta->num_delta_events());
  const int64_t threshold = std::clamp(
      static_cast<int64_t>(kCompactionRatio * static_cast<double>(base_events)),
      kMinCompactionEvents, kMaxCompactionEvents);
  if (static_cast<int64_t>(delta->num_delta_events()) < threshold) {
    return delta;
  }
  // Checkpoint-K for the folded index comes from the fresh statistics
  // when the cost model is on, like the lazy build path.
  int64_t checkpoint_interval = TimelineIndex::kDefaultCheckpointInterval;
  if (options_.use_cost_model && next_stats != nullptr &&
      next_stats->BuiltFor(next.get())) {
    checkpoint_interval = CostModel::PickCheckpointInterval(*next_stats);
  }
  std::shared_ptr<const TimelineIndex> folded =
      TimelineIndex::Build(next, begin_idx, end_idx, checkpoint_interval);
  return folded != nullptr ? folded : delta;
}

void TemporalDB::Publish(
    const std::string& name, std::shared_ptr<const Relation> next,
    std::shared_ptr<const TableStats> stats, int begin_idx, int end_idx,
    const sql::PeriodTableInfo* period,
    const std::shared_ptr<const Relation>& old_relation,
    const std::shared_ptr<const TimelineIndex>& old_index) {
  // Index maintenance rides the same copy-on-write publication: the old
  // index plus the appended rows become a differential index (or, past
  // the threshold, a freshly folded one) — still outside the locks.
  std::shared_ptr<const TimelineIndex> index =
      MaintainIndex(old_relation, old_index, next, stats, begin_idx, end_idx);
  SharedMutexLock lock(catalog_mu_);
  catalog_.PutShared(name, std::move(next));
  catalog_.PutStats(name, std::move(stats));
  // PutShared dropped the index slot; restore the maintained index in
  // the same critical section so no reader observes the gap.
  if (index != nullptr) {
    ++(index->has_delta() ? maintenance_stats_.delta_publishes
                          : maintenance_stats_.compactions);
    catalog_.PutIndex(name, std::move(index));
  }
  if (period != nullptr) period_tables_[name] = *period;
  ++catalog_generation_;
  table_versions_[name] = catalog_generation_;
}

Status TemporalDB::CreateTable(const std::string& name,
                               const std::vector<std::string>& columns) {
  MutexLock writer_lock(writer_mu_);
  // writer_mu_ alone would suffice for this read (only writers modify
  // the catalog and they serialize), but "either of two locks" is not
  // a provable protocol — the shared lock is contention-free here and
  // lets the analysis check the read.
  {
    SharedReaderLock lock(catalog_mu_);
    if (catalog_.Has(name)) {
      return Status::AlreadyExists(StrCat("table exists: ", name));
    }
  }
  auto next = StoreColumnar(Relation{Schema::FromNames(columns)});
  Publish(name, next, TableStats::Collect(next), -1, -1, nullptr);
  InvalidatePlanCache();
  return Status::OK();
}

Status TemporalDB::CreatePeriodTable(const std::string& name,
                                     const std::vector<std::string>& columns,
                                     const std::string& begin_column,
                                     const std::string& end_column) {
  if (begin_column == end_column) {
    return Status::InvalidArgument(
        StrCat("period begin and end must be distinct columns, got (",
               begin_column, ", ", end_column, ")"));
  }
  Schema schema = Schema::FromNames(columns);
  if (schema.Find("", begin_column) < 0 || schema.Find("", end_column) < 0) {
    return Status::InvalidArgument(
        StrCat("period columns (", begin_column, ", ", end_column,
               ") must be part of the schema"));
  }
  MutexLock writer_lock(writer_mu_);
  {
    SharedReaderLock lock(catalog_mu_);
    if (catalog_.Has(name)) {
      return Status::AlreadyExists(StrCat("table exists: ", name));
    }
  }
  const int begin_idx = schema.Find("", begin_column);
  const int end_idx = schema.Find("", end_column);
  const sql::PeriodTableInfo period{begin_column, end_column};
  auto next = StoreColumnar(Relation{std::move(schema)});
  Publish(name, next, TableStats::Collect(next, begin_idx, end_idx),
          begin_idx, end_idx, &period);
  InvalidatePlanCache();
  return Status::OK();
}

// periodk-lint: allow(relation-by-value): ownership sink, callers move
Status TemporalDB::PutPeriodTable(const std::string& name, Relation relation,
                                  const std::string& begin_column,
                                  const std::string& end_column) {
  if (begin_column == end_column) {
    return Status::InvalidArgument(
        StrCat("period begin and end must be distinct columns, got (",
               begin_column, ", ", end_column, ")"));
  }
  const int begin_idx = relation.schema().Find("", begin_column);
  const int end_idx = relation.schema().Find("", end_column);
  if (begin_idx < 0 || end_idx < 0) {
    return Status::InvalidArgument(
        StrCat("period columns (", begin_column, ", ", end_column,
               ") must be part of the schema"));
  }
  MutexLock writer_lock(writer_mu_);
  const sql::PeriodTableInfo period{begin_column, end_column};
  auto next = StoreColumnar(std::move(relation));
  Publish(name, next, TableStats::Collect(next, begin_idx, end_idx),
          begin_idx, end_idx, &period);
  InvalidatePlanCacheForTable(name);
  return Status::OK();
}

Status TemporalDB::InsertRows(const std::string& table,
                              std::vector<Row> rows) {
  MutexLock writer_lock(writer_mu_);
  std::shared_ptr<const Relation> current;
  std::shared_ptr<const TableStats> current_stats;
  std::shared_ptr<const TimelineIndex> old_index;
  int begin_idx = -1;
  int end_idx = -1;
  {
    SharedReaderLock lock(catalog_mu_);
    if (!catalog_.Has(table)) {
      return Status::NotFound(StrCat("unknown table: ", table));
    }
    current = catalog_.GetShared(table);
    current_stats = catalog_.GetStats(table);
    old_index = catalog_.GetIndex(table);
    auto pt = period_tables_.find(table);
    if (pt != period_tables_.end()) {
      begin_idx = current->schema().Find("", pt->second.begin_column);
      end_idx = current->schema().Find("", pt->second.end_column);
    }
  }
  // Validate every arity before any row lands: a bulk insert is atomic,
  // so a mid-batch mismatch must not leave the table half-populated.
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != current->schema().size()) {
      return Status::InvalidArgument(StrCat(
          "arity mismatch inserting into ", table, " at row ", i, ": got ",
          rows[i].size(), " values, expected ", current->schema().size()));
    }
  }
  if (rows.empty()) return Status::OK();
  // Every writer publishes statistics with the relation they describe.
  if (current_stats == nullptr || !current_stats->BuiltFor(current.get())) {
    return Status::Internal(
        StrCat("statistics of ", table, " do not describe its relation"));
  }
  // Copy-on-write outside the reader lock: pinned snapshots keep the
  // old relation and statistics alive and untouched.  The next version
  // extends both by the batch -- the stored columns are copied, never
  // re-encoded, and only the batch is encoded and profiled.
  // periodk-lint: columnar-lane-begin(insert-rows)
  const Relation batch(current->schema(), std::move(rows));
  auto next = std::make_shared<const Relation>(
      Relation::Concat(current->schema(), {current.get(), &batch}));
  std::shared_ptr<const TableStats> stats =
      TableStats::Extend(*current_stats, next);
  // periodk-lint: columnar-lane-end(insert-rows)
  Publish(table, std::move(next), std::move(stats), begin_idx, end_idx,
          nullptr, current, old_index);
  InvalidatePlanCacheForTable(table);
  return Status::OK();
}

// --- Plan cache. -----------------------------------------------------------

void TemporalDB::InvalidatePlanCache() {
  MutexLock lock(plan_cache_mu_);
  if (plan_cache_.empty()) return;
  plan_cache_.clear();
  ++cache_stats_.invalidations;
}

void TemporalDB::InvalidatePlanCacheForTable(const std::string& table) {
  MutexLock lock(plan_cache_mu_);
  size_t dropped = 0;
  for (auto it = plan_cache_.begin(); it != plan_cache_.end();) {
    bool reads_table = false;
    for (const auto& [name, version] : it->second.table_versions) {
      if (name == table) {
        reads_table = true;
        break;
      }
    }
    if (reads_table) {
      it = plan_cache_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) ++cache_stats_.invalidations;
}

PlanCacheStats TemporalDB::plan_cache_stats() const {
  MutexLock lock(plan_cache_mu_);
  PlanCacheStats stats = cache_stats_;
  stats.entries = static_cast<int64_t>(plan_cache_.size());
  return stats;
}

// --- Readers.  Every entry point pins one snapshot and runs entirely
// against it. ---------------------------------------------------------------

TemporalDB::Snapshot TemporalDB::PinSnapshot() const {
  SharedReaderLock lock(catalog_mu_);
  return Snapshot{catalog_, period_tables_, catalog_generation_,
                  table_versions_};
}

std::shared_ptr<const TimelineIndex> TemporalDB::EnsureTimelineIndex(
    const std::string& table, int begin_col, int end_col, Snapshot& snap,
    bool use_cost_model) const {
  std::shared_ptr<const Relation> relation = snap.catalog.GetShared(table);
  std::shared_ptr<const TimelineIndex> index = snap.catalog.GetIndex(table);
  if (index != nullptr && index->BuiltFor(relation.get()) &&
      index->begin_col() == begin_col && index->end_col() == end_col) {
    return index;
  }
  // Replay cost per lookup is O(K); checkpoint memory is O(avg alive
  // set) per checkpoint.  With statistics available, size K to the
  // table's alive-set profile instead of the one-size default (either
  // choice answers every lookup identically).
  int64_t checkpoint_interval = TimelineIndex::kDefaultCheckpointInterval;
  if (use_cost_model) {
    std::shared_ptr<const TableStats> stats = snap.catalog.GetStats(table);
    if (stats != nullptr && stats->BuiltFor(relation.get())) {
      checkpoint_interval = CostModel::PickCheckpointInterval(*stats);
    }
  }
  index = TimelineIndex::Build(relation, begin_col, end_col,
                               checkpoint_interval);
  if (index == nullptr) return nullptr;  // unindexable: scan path decides
  snap.catalog.PutIndex(table, index);
  {
    // Publish back to the live catalog, double-checked under the
    // generation tag: only while the catalog still is the exact state
    // the index was built against.  If another reader raced its own
    // build in first, keep that one — the two are interchangeable.
    SharedMutexLock lock(catalog_mu_);
    if (catalog_generation_ == snap.generation &&
        catalog_.GetIndex(table) == nullptr) {
      catalog_.PutIndex(table, index);
    }
  }
  return index;
}

void TemporalDB::EnsureTimelineIndexes(const PlanPtr& plan, Snapshot& snap,
                                       bool use_cost_model) const {
  // A period-K AS-OF plan slices every table reference wherever it sits
  // (under joins, aggregations, both sides of a union), and a
  // baseline's pushed slice lands on its scans, so walk the whole DAG,
  // each shared node once.
  // (`class` disambiguates from the TemporalDB::Plan member function.)
  std::unordered_set<const class Plan*> visited;
  std::vector<const class Plan*> stack = {plan.get()};
  while (!stack.empty()) {
    const class Plan* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !visited.insert(node).second) continue;
    stack.push_back(node->left.get());
    stack.push_back(node->right.get());
    if (node->kind != PlanKind::kTimeslice || node->left == nullptr ||
        node->left->kind != PlanKind::kScan) {
      continue;
    }
    const std::string& table = node->left->table;
    if (!snap.catalog.Has(table)) continue;
    int arity = static_cast<int>(snap.catalog.Get(table).schema().size());
    if (arity < 2) continue;
    // Index over exactly the columns this slice reads: the trailing two
    // for the PERIODENC default, or the stored positions of a period
    // table that keeps its interval elsewhere.  The executor rejects
    // any other layout.
    auto [begin_col, end_col] = ResolveSliceColumns(*node);
    if (begin_col >= arity || end_col >= arity) continue;
    EnsureTimelineIndex(table, begin_col, end_col, snap, use_cost_model);
  }
}

Result<PlanPtr> TemporalDB::PlanSql(const std::string& sql,
                                    const RewriteOptions& options,
                                    const Snapshot& snap) const {
  try {
    Result<sql::Statement> parsed = sql::Parse(sql);
    if (!parsed.ok()) return parsed.status();
    sql::Binder binder(&snap.catalog, &snap.period_tables);
    Result<sql::BoundStatement> bound = binder.Bind(*parsed);
    if (!bound.ok()) return bound.status();
    return PlanBound(*bound, options, snap);
  } catch (const std::exception& error) {
    // Planning reports every failure as a Status; this is the backstop
    // that keeps every read entry point's no-throw boundary airtight.
    return Status::Internal(error.what());
  }
}

Result<PlanPtr> TemporalDB::PlanBound(const sql::BoundStatement& bound,
                                      const RewriteOptions& options,
                                      const Snapshot& snap) const {
  PlanPtr plan = bound.plan;
  // One model per planning pass: it reads the snapshot's statistics
  // and memoizes per plan node, so the rewriter's reorder pre-pass
  // and the strategy-hint pass below share estimates.
  std::optional<CostModel> cost;
  if (options.use_cost_model) cost.emplace(&snap.catalog, domain_);
  if (bound.snapshot) {
    SnapshotRewriter rewriter(domain_, options, bound.encoded_tables,
                              cost.has_value() ? &*cost : nullptr);
    if (bound.as_of.has_value()) {
      if (!domain_.Contains(*bound.as_of)) {
        return Status::InvalidArgument(
            StrCat("AS OF time ", *bound.as_of, " outside the domain ",
                   domain_.ToString()));
      }
      // Period-K: the query over tau_t of every table reference (Thm
      // 6.3), each slice a timeline-index lookup; the baselines slice
      // their rewrite.
      plan = rewriter.RewriteAsOf(plan, *bound.as_of);
    } else {
      plan = rewriter.Rewrite(plan);
    }
  } else if (cost.has_value()) {
    // Non-snapshot statements scan stored tables directly; their
    // commutative join clusters reorder with the same model.
    plan = ReorderJoins(plan, *cost);
  }
  if (cost.has_value()) {
    // Mark tiny overlap joins for the nested loop.  Runs on the final
    // plan (rewritten or sliced) so the hint lands on the joins that
    // actually execute.
    plan = ApplyJoinStrategyHints(plan, *cost);
  }
  if (!bound.order_by.empty()) {
    Result<std::vector<SortKey>> keys =
        sql::BindOrderBy(bound.order_by, plan->schema);
    if (!keys.ok()) return keys.status();
    plan = MakeSort(std::move(plan), std::move(keys.value()));
  }
  return plan;
}

Result<PlanPtr> TemporalDB::PlanForSnapshot(const std::string& sql,
                                            const RewriteOptions& options,
                                            const Snapshot& snap) const {
  const std::string key = PlanCacheKey(sql, options);
  {
    MutexLock lock(plan_cache_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      // An entry is served iff every base table it was bound against
      // is still at the version the binding saw.  Mutations of tables
      // the plan never reads leave it hot.
      bool valid = true;
      for (const auto& [table, version] : it->second.table_versions) {
        auto tv = snap.table_versions.find(table);
        if (tv == snap.table_versions.end() || tv->second != version) {
          valid = false;
          break;
        }
      }
      if (valid) {
        ++cache_stats_.hits;
        return it->second.plan;
      }
    }
    ++cache_stats_.misses;
  }
  // Parse/bind/rewrite outside the lock: planning is the expensive part
  // and touches no cache state.  Failed statements are not cached: they
  // carry no plan to reuse and an error may be transient (e.g. a table
  // created later).
  Result<PlanPtr> plan = PlanSql(sql, options, snap);
  if (!plan.ok()) return plan;
  // Record the base tables the plan reads at the versions the pinned
  // snapshot saw: the entry stays valid exactly as long as none of
  // those tables mutates.  A table absent from the snapshot's version
  // map (never published through a writer) pins version 0 and can
  // never be served once it appears — the conservative direction.
  std::vector<std::pair<std::string, uint64_t>> versions;
  for (const std::string& table : CollectScanTables(*plan)) {
    auto tv = snap.table_versions.find(table);
    versions.emplace_back(table,
                          tv == snap.table_versions.end() ? 0 : tv->second);
  }
  // The version tags carry the snapshot state this plan is valid for,
  // so an insert racing a catalog mutation is harmless — queries pinned
  // to any other state simply miss.
  MutexLock lock(plan_cache_mu_);
  if (plan_cache_.size() >= kPlanCacheMaxEntries) plan_cache_.clear();
  plan_cache_.insert_or_assign(key, CachedPlan{*plan, std::move(versions)});
  return plan;
}

Result<PlanPtr> TemporalDB::Plan(const std::string& sql) const {
  return Plan(sql, options_);
}

Result<PlanPtr> TemporalDB::Plan(const std::string& sql,
                                 const RewriteOptions& options) const {
  return PlanForSnapshot(sql, options, PinSnapshot());
}

Result<PlanPtr> TemporalDB::Prepare(const std::string& sql) const {
  return Prepare(sql, options_);
}

Result<PlanPtr> TemporalDB::Prepare(const std::string& sql,
                                    const RewriteOptions& options) const {
  return Plan(sql, options);
}

Result<std::string> TemporalDB::Explain(const std::string& sql) const {
  Result<PlanPtr> plan = Plan(sql, options_);
  if (!plan.ok()) return plan.status();
  return (*plan)->ToString();
}

Result<std::string> TemporalDB::ExplainAnalyze(const std::string& sql) const {
  Snapshot snap = PinSnapshot();
  Result<PlanPtr> plan = PlanForSnapshot(sql, options_, snap);
  if (!plan.ok()) return plan.status();
  try {
    ExecStats stats;
    ExecOptions exec;
    exec.use_timeline_index = options_.use_timeline_index;
    if (exec.use_timeline_index) {
      EnsureTimelineIndexes(*plan, snap, options_.use_cost_model);
    }
    Relation result = Execute(*plan, snap.catalog, exec, &stats);
    std::string rendered;
    if (options_.use_cost_model) {
      // Per-node estimated vs. actual cardinality.  Deterministic:
      // estimates are a pure function of plan + snapshot statistics,
      // actuals are looked up per node while the *plan walk* dictates
      // the order (node_rows is never iterated).
      CostModel cost(&snap.catalog, domain_);
      PlanAnnotator annotate = [&](const class Plan& node) {
        std::string suffix =
            StrCat("  [est=", static_cast<int64_t>(cost.EstimateRows(node)));
        auto it = stats.node_rows.find(&node);
        if (it != stats.node_rows.end()) {
          suffix = StrCat(suffix, " actual=", it->second);
        }
        return StrCat(suffix, "]");
      };
      rendered = (*plan)->ToString(0, annotate);
    } else {
      rendered = (*plan)->ToString();
    }
    // The execution counters carry the per-run delta replay
    // (index delta events); the maintenance line adds the DB-lifetime
    // write-path view (delta publishes / compactions) so an operator
    // can see whether a slow AS-OF is riding an uncompacted delta.
    return StrCat(rendered, stats.ToString(), "\n",
                  index_maintenance_stats().ToString(), "\n",
                  result.size(), " result rows\n");
  } catch (const std::exception& error) {
    // EngineError plus anything execution-adjacent (e.g.
    // std::bad_alloc): the boundary never throws.
    return Status::Internal(error.what());
  }
}

Result<Relation> TemporalDB::Query(const std::string& sql) const {
  return Query(sql, options_);
}

Result<Relation> TemporalDB::Query(const std::string& sql,
                                   const RewriteOptions& options) const {
  Snapshot snap = PinSnapshot();
  Result<PlanPtr> plan = PlanForSnapshot(sql, options, snap);
  if (!plan.ok()) return plan.status();
  try {
    ExecOptions exec;
    exec.use_timeline_index = options.use_timeline_index;
    // First indexed read builds the (per-snapshot, COW-shared) index.
    if (exec.use_timeline_index) {
      EnsureTimelineIndexes(*plan, snap, options.use_cost_model);
    }
    return Execute(*plan, snap.catalog, exec);
  } catch (const std::exception& error) {
    // EngineError plus anything execution-adjacent (e.g.
    // std::bad_alloc): the boundary never throws.
    return Status::Internal(error.what());
  }
}

Result<Relation> TemporalDB::Timeslice(const std::string& table,
                                       TimePoint t) const {
  Snapshot snap = PinSnapshot();
  if (!snap.catalog.Has(table)) {
    return Status::NotFound(StrCat("unknown table: ", table));
  }
  auto it = snap.period_tables.find(table);
  if (it == snap.period_tables.end()) {
    return Status::InvalidArgument(StrCat(table, " is not a period table"));
  }
  const Relation& stored = snap.catalog.Get(table);
  int begin_idx = stored.schema().Find("", it->second.begin_column);
  int end_idx = stored.schema().Find("", it->second.end_column);
  try {  // the middleware boundary never throws, index path included
    if (options_.use_timeline_index) {
      // Point lookup through the timeline index: checkpoint + bounded
      // replay, row-identical to the scan path below.  Build() returns
      // nullptr for unindexable tables (non-integer endpoints), which
      // keeps the scan path's diagnostics.
      std::shared_ptr<const TimelineIndex> index = EnsureTimelineIndex(
          table, begin_idx, end_idx, snap, options_.use_cost_model);
      if (index != nullptr) return index->Timeslice(t);
    }
    return TimesliceEncodedAt(stored, t, begin_idx, end_idx);
  } catch (const std::exception& error) {
    return Status::Internal(error.what());
  }
}

}  // namespace periodk
