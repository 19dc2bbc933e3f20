// TemporalDB: the database middleware of paper Section 9.  It stores
// SQL period relations, accepts SQL with the SEQ VT (...) snapshot
// modifier, rewrites snapshot queries with REWR and executes them on
// the bundled multiset engine.  This is the library's primary public
// entry point:
//
//   TemporalDB db(TimeDomain{0, 24});
//   db.CreatePeriodTable("works", {"name", "skill", "ts", "te"},
//                        "ts", "te");
//   db.Insert("works", {...});
//   auto result = db.Query(
//       "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')");
//
// Concurrency model — snapshot isolation: the catalog stores immutable
// relations behind shared_ptr<const Relation>.  Every read entry point
// (Query/Plan/Prepare/Explain/ExplainAnalyze/Timeslice) pins a snapshot
// — an O(#tables) copy of the handle map plus the period-table metadata
// and a generation number, taken under a shared_mutex — and runs
// entirely against that pinned state.  Writers (CreateTable /
// CreatePeriodTable / PutPeriodTable / Insert / InsertRows) serialize
// among themselves, build the table's next version copy-on-write
// *outside* the reader lock, and publish it with a brief exclusive
// lock.  Any number of concurrent readers therefore observe consistent
// snapshots while a writer mutates; no external locking is needed.
//
// Serving path: executable plans are cached per (SQL text, rewrite
// options).  Each cache entry records the base tables its plan scans
// and the per-table version each was at when the plan was bound; an
// entry is served only to queries whose pinned snapshot still has every
// one of those tables at the recorded version, so a plan raced by a
// catalog mutation can never be served stale.  Invalidation is per
// table: mutating T (Insert / InsertRows / PutPeriodTable) evicts only
// the plans that read T, so a hot plan survives writes to unrelated
// tables.  Creating a table conservatively flushes everything.  Tables
// are stored columnar (engine/column.h), so every query scans typed
// column arrays: a table written whole (CreateTable, CreatePeriodTable,
// PutPeriodTable) is encoded and profiled once, and an append extends
// the stored columns and statistics by the batch (Relation::Concat,
// TableStats::Extend) -- it costs the batch plus one copy of the
// stored columns, never a re-encode or a row view.
// Point-in-time reads (SEQ VT AS OF, Timeslice) are answered from
// per-table timeline indexes (engine/timeline_index.h) built lazily on
// the first indexed read; a period-K AS-OF query runs as the plain
// query over one indexed slice per table reference
// (SnapshotRewriter::RewriteAsOf).  Appends keep the indexes warm: the
// new rows become a differential delta published next to the base
// index, which the writer folds into a fresh full index once the delta
// reaches a fixed share of the index; see docs/architecture.md §8.
#ifndef PERIODK_MIDDLEWARE_TEMPORAL_DB_H_
#define PERIODK_MIDDLEWARE_TEMPORAL_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/executor.h"
#include "rewrite/rewriter.h"
#include "sql/binder.h"

namespace periodk {

/// Counters of the middleware plan cache.
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;        // lookups that had to plan (or failed to)
  int64_t invalidations = 0; // mutations that evicted at least one plan
  int64_t entries = 0;       // currently cached plans

  std::string ToString() const;
};

/// Counters of the write-path index maintenance.  An append to a table
/// with a warm timeline index publishes the appended rows as a
/// differential delta next to it (TimelineIndex::WithDelta); once the
/// delta reaches clamp(10% of the base index's events, 64, 4096) events
/// the writer folds it into a fresh full index instead.
struct IndexMaintenanceStats {
  int64_t delta_publishes = 0;  // appends that published a delta index
  int64_t compactions = 0;      // deltas folded into a full index
  std::string ToString() const;
};

class TemporalDB {
 public:
  explicit TemporalDB(TimeDomain domain, RewriteOptions options = {})
      : domain_(domain), options_(options) {}

  /// Movable (the destination gets fresh mutexes); not copyable.  The
  /// move takes `other`'s writer, catalog, and plan-cache locks — in
  /// that order, the same order the serving path acquires them — so a
  /// move racing concurrent readers or writers of `other` linearizes
  /// as one big exclusive writer instead of being undefined behavior.
  /// The thread-safety annotations enforce that the guarded state is
  /// only moved under those locks.  The moved-from instance is empty
  /// (no tables, no cached plans) and safe only to destroy or reassign.
  TemporalDB(TemporalDB&& other);
  TemporalDB& operator=(TemporalDB&&) = delete;

  const TimeDomain& domain() const { return domain_; }
  const RewriteOptions& options() const { return options_; }
  /// Not synchronized: configure options before sharing the instance
  /// across threads (per-call options are the thread-safe alternative).
  void set_options(const RewriteOptions& options) { options_ = options; }

  /// Creates an ordinary (non-temporal) table.  AlreadyExists when the
  /// name is taken.  Thread-safe (serializes with other writers).
  [[nodiscard]] Status CreateTable(const std::string& name,
                                   const std::vector<std::string>& columns);

  /// Creates a period table; `begin_column` / `end_column` must be two
  /// distinct members of `columns` holding integer time points within
  /// the domain (InvalidArgument otherwise; AlreadyExists when the name
  /// is taken).  Thread-safe (serializes with other writers).
  [[nodiscard]] Status CreatePeriodTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::string& begin_column, const std::string& end_column);

  /// Registers an existing relation as a period table (bulk load);
  /// replaces any previous table of that name atomically.  Readers
  /// pinned to the old snapshot keep the old relation alive.
  /// Thread-safe (serializes with other writers).
  // periodk-lint: allow(relation-by-value): ownership sink, callers move
  [[nodiscard]] Status PutPeriodTable(const std::string& name,
                                      Relation relation,
                                      const std::string& begin_column,
                                      const std::string& end_column);

  /// Copy-on-write append of one row: InsertRows of {row}, with its
  /// cost — the row plus one copy of the stored columns — so loads
  /// batch through InsertRows or BulkLoader.  InvalidArgument on arity
  /// mismatch, NotFound for unknown tables.  Thread-safe.
  [[nodiscard]] Status Insert(const std::string& table, Row row) {
    return InsertRows(table, {std::move(row)});
  }
  /// Copy-on-write bulk append; atomic: every row's arity is validated
  /// before any row lands, so a failure leaves the table untouched, and
  /// readers pinned to the old snapshot keep seeing the table without
  /// the batch.  The next version extends the stored typed columns and
  /// statistics by the batch (Relation::Concat, TableStats::Extend): it
  /// costs the batch, one copy of the stored columns and at most one
  /// probe pass per stored column for its distinct count -- never a
  /// re-encode, a re-profile or a row view.  Thread-safe.
  [[nodiscard]] Status InsertRows(const std::string& table,
                                  std::vector<Row> rows);

  /// Parses, binds, (for SEQ VT queries) rewrites, and executes against
  /// a pinned catalog snapshot on the calling thread.  Planning is
  /// served from the plan cache when possible, and
  /// options.use_timeline_index routes AS-OF timeslices through lazily
  /// built timeline indexes.
  /// Thread-safe: any number of concurrent Query() calls may race any
  /// writer; each observes one consistent snapshot.  Never throws; all
  /// failures (parse/bind/execution) come back as the Status.
  [[nodiscard]] Result<Relation> Query(const std::string& sql) const;
  [[nodiscard]] Result<Relation> Query(const std::string& sql,
                                       const RewriteOptions& options) const;

  /// The executable plan for a statement (after rewriting), for EXPLAIN.
  [[nodiscard]] Result<PlanPtr> Plan(const std::string& sql) const;
  [[nodiscard]] Result<PlanPtr> Plan(const std::string& sql,
                                     const RewriteOptions& options) const;

  /// Plans the statement and warms the plan cache (no execution);
  /// subsequent Query() calls with the same text and options are cache
  /// hits until the next catalog mutation.  Returns a Status for every
  /// failure (unknown table, parse error, ...) — never throws across
  /// the middleware boundary.
  [[nodiscard]] Result<PlanPtr> Prepare(const std::string& sql) const;
  [[nodiscard]] Result<PlanPtr> Prepare(
      const std::string& sql, const RewriteOptions& options) const;

  /// EXPLAIN: the executable plan rendered as an indented tree; shared
  /// subplans are printed once and tagged `[shared #n]`.
  [[nodiscard]] Result<std::string> Explain(const std::string& sql) const;

  /// EXPLAIN ANALYZE: executes the statement and appends the engine's
  /// execution counters (nodes executed, memo hits, rows materialized,
  /// index timeslices and delta events).
  [[nodiscard]] Result<std::string> ExplainAnalyze(
      const std::string& sql) const;

  /// tau_T of a period table: its snapshot at time t, with the two
  /// interval columns dropped.  NotFound for unknown tables,
  /// InvalidArgument for non-period tables.  Served from the table's
  /// timeline index — O(log #events + K + answer) after the first call
  /// has built the index — unless options().use_timeline_index is off
  /// or the table holds non-integer endpoints, in which case it is the
  /// O(table) scan.  Both paths return identical rows in identical
  /// order.  Thread-safe, like every read entry point.
  [[nodiscard]] Result<Relation> Timeslice(const std::string& table,
                                           TimePoint t) const;

  /// The live catalog.  Unsynchronized direct access for single-threaded
  /// use (tests, benches); references obtained through it are
  /// invalidated by the next mutation of the same table.  Concurrent
  /// readers should go through Query()/Timeslice(), which pin snapshots.
  /// Unsynchronized by contract (see the doc comment above), so the
  /// one legitimate analysis opt-out: taking the reader lock here would
  /// only pretend to help — the returned reference outlives it.
  const Catalog& catalog() const PERIODK_NO_THREAD_SAFETY_ANALYSIS {
    return catalog_;
  }
  bool IsPeriodTable(const std::string& name) const {
    SharedReaderLock lock(catalog_mu_);
    return period_tables_.count(name) > 0;
  }

  /// Plan-cache observability.  Thread-safe.
  [[nodiscard]] PlanCacheStats plan_cache_stats() const;

  /// Maintenance observability: delta publishes and compactions so far.
  /// Thread-safe.
  [[nodiscard]] IndexMaintenanceStats index_maintenance_stats() const;

 private:
  /// An immutable view of the catalog pinned by one read operation: the
  /// relation-handle map (shares table storage with the live catalog),
  /// the period-table metadata, and the generation that identifies this
  /// exact catalog state for plan-cache tagging.
  struct Snapshot {
    Catalog catalog;
    std::map<std::string, sql::PeriodTableInfo> period_tables;
    uint64_t generation = 0;
    // Per-table publication versions (the generation at which each
    // table last changed) — what plan-cache hits are validated against.
    std::map<std::string, uint64_t> table_versions;
  };
  Snapshot PinSnapshot() const PERIODK_EXCLUDES(catalog_mu_);

  /// Lazily builds/publishes the timeline index of `table` over the
  /// endpoint columns (begin_col, end_col), attaching it to the pinned
  /// snapshot.  Publication back to the live catalog is double-checked
  /// under the generation tag: it happens only while the catalog is
  /// still at the snapshot's generation (a concurrent writer's
  /// copy-on-write publication simply wins and the index stays
  /// snapshot-local).  Returns nullptr when the table cannot be indexed
  /// exactly (non-integer endpoints) — callers fall back to the scan.
  /// `use_cost_model` sizes the checkpoint interval from the table's
  /// statistics (CostModel::PickCheckpointInterval) instead of the
  /// fixed default; either interval yields identical query results.
  std::shared_ptr<const TimelineIndex> EnsureTimelineIndex(
      const std::string& table, int begin_col, int end_col, Snapshot& snap,
      bool use_cost_model) const PERIODK_EXCLUDES(catalog_mu_);
  /// Ensures an index for every timeslice over a scan anywhere in the
  /// plan DAG: the slice a period-K AS-OF plan puts on each table
  /// reference, or the slices PushDownTimeslice lands on a baseline's
  /// scans.
  void EnsureTimelineIndexes(const PlanPtr& plan, Snapshot& snap,
                             bool use_cost_model) const;

  /// Maintains a table's timeline index across a copy-on-write append
  /// from `old_relation` to `next`: wraps the current index and the
  /// appended rows into a differential index, or — once the delta
  /// reaches the compaction threshold — folds them into a fresh full
  /// index (checkpoint-K sized from `next_stats` when the cost model is
  /// on).  nullptr drops the slot (no warm index, a stale one, or
  /// unindexable appended rows) for a lazy rebuild on read.  Pure; runs
  /// outside the catalog locks like the rest of the writer's build phase.
  std::shared_ptr<const TimelineIndex> MaintainIndex(
      const std::shared_ptr<const Relation>& old_relation,
      const std::shared_ptr<const TimelineIndex>& old_index,
      const std::shared_ptr<const Relation>& next,
      const std::shared_ptr<const TableStats>& next_stats, int begin_idx,
      int end_idx) const;
  /// The tail every writer shares.  `next` is the table's next
  /// version, stored columnar, and `stats` its statistics (BuiltFor
  /// it): a whole table is encoded and collected (CreateTable,
  /// CreatePeriodTable, PutPeriodTable), an append extends the stored
  /// ones (InsertRows).  When `old_index` is set (an append to
  /// `old_relation`), maintains it outside the catalog lock.  Then
  /// publishes relation, statistics, index and — when `period` is set —
  /// the period metadata in one exclusive section, bumping the
  /// generation so no reader observes a partial state.
  void Publish(const std::string& name, std::shared_ptr<const Relation> next,
               std::shared_ptr<const TableStats> stats, int begin_idx,
               int end_idx, const sql::PeriodTableInfo* period,
               const std::shared_ptr<const Relation>& old_relation = nullptr,
               const std::shared_ptr<const TimelineIndex>& old_index = nullptr)
      PERIODK_REQUIRES(writer_mu_) PERIODK_EXCLUDES(catalog_mu_);

  /// Parses, binds and plans `sql` against `snap`, bypassing the cache.
  /// Never throws: every failure, exceptions included, is the Status.
  [[nodiscard]] Result<PlanPtr> PlanSql(const std::string& sql,
                                        const RewriteOptions& options,
                                        const Snapshot& snap) const;
  /// Plans a bound statement against `snap` (the snapshot supplies the
  /// statistics the cost model reads when options.use_cost_model is on).
  [[nodiscard]] Result<PlanPtr> PlanBound(
      const sql::BoundStatement& bound, const RewriteOptions& options,
      const Snapshot& snap) const;
  /// Plans against the pinned snapshot, consulting/warming the cache.
  [[nodiscard]] Result<PlanPtr> PlanForSnapshot(
      const std::string& sql, const RewriteOptions& options,
      const Snapshot& snap) const;
  /// Flushes every cached plan (table creation).
  void InvalidatePlanCache() PERIODK_EXCLUDES(plan_cache_mu_);
  /// Evicts only the cached plans whose base-table set contains
  /// `table` (Insert / InsertRows / PutPeriodTable).  Plans over other
  /// tables stay hot; the per-table version check at serve time makes
  /// eviction purely hygienic, so a racing in-flight planner is
  /// harmless.
  void InvalidatePlanCacheForTable(const std::string& table)
      PERIODK_EXCLUDES(plan_cache_mu_);

  TimeDomain domain_;
  RewriteOptions options_;

  // Catalog state.  catalog_mu_ orders readers (shared: snapshot pins)
  // against publication (exclusive: pointer swaps only — writers build
  // table copies outside it).  writer_mu_ serializes writers so
  // copy-on-write never loses an update; it is always acquired before
  // catalog_mu_ (declared to the analysis via ACQUIRED_BEFORE).
  mutable SharedMutex catalog_mu_;
  Mutex writer_mu_ PERIODK_ACQUIRED_BEFORE(catalog_mu_);
  // Mutable for exactly one reason: read entry points lazily attach
  // timeline indexes (a cache over immutable relations, never data)
  // under the exclusive lock — see EnsureTimelineIndex.
  mutable Catalog catalog_ PERIODK_GUARDED_BY(catalog_mu_);
  std::map<std::string, sql::PeriodTableInfo> period_tables_
      PERIODK_GUARDED_BY(catalog_mu_);
  // Bumped under the exclusive lock on every publication; a pinned
  // generation therefore names one exact catalog state.
  uint64_t catalog_generation_ PERIODK_GUARDED_BY(catalog_mu_) = 0;
  // table name -> generation at which that table was last published.
  std::map<std::string, uint64_t> table_versions_
      PERIODK_GUARDED_BY(catalog_mu_);
  // Write-path maintenance counters; they change in the same exclusive
  // section as the publication they count.
  IndexMaintenanceStats maintenance_stats_ PERIODK_GUARDED_BY(catalog_mu_);

  // Bound-plan cache, keyed by (SQL text, rewrite options).  Mutable:
  // Query()/Plan() are logically const; the cache is an optimization.
  // All cache state is guarded by plan_cache_mu_.  Entries record the
  // per-table versions their plan was bound against and are only served
  // to queries whose snapshot matches every one of them — correctness
  // does not depend on invalidation racing well with in-flight
  // planners.
  // The cache is bounded (it restarts empty on overflow), so
  // unboundedly many distinct statements cannot grow memory forever.
  struct CachedPlan {
    PlanPtr plan;
    // Base tables the plan scans, each with the version it was bound
    // against.  A hit requires every listed table to still be at its
    // recorded version in the query's snapshot; a plan scanning no
    // table (constant-only) is valid forever.
    std::vector<std::pair<std::string, uint64_t>> table_versions;
  };
  mutable Mutex plan_cache_mu_;
  mutable std::unordered_map<std::string, CachedPlan> plan_cache_
      PERIODK_GUARDED_BY(plan_cache_mu_);
  mutable PlanCacheStats cache_stats_ PERIODK_GUARDED_BY(plan_cache_mu_);
};

/// Batches row-at-a-time producers into atomic InsertRows() calls.
/// Each Insert() publishes a new table version copy-on-write — one copy
/// of the stored columns, so pinned reader snapshots stay untouched —
/// which makes row-wise bulk loading quadratic in bytes copied; the
/// loader buffers rows per table and ships each table's batch once at
/// Flush().  Row order per table is preserved.
class BulkLoader {
 public:
  explicit BulkLoader(TemporalDB* db) : db_(db) {}
  /// Buffers one row; validation happens at Flush() (InsertRows checks
  /// every arity before any row lands).
  [[nodiscard]] Status Insert(const std::string& table, Row row) {
    pending_[table].push_back(std::move(row));
    return Status::OK();
  }
  /// Ships every buffered batch; stops at the first failure.  Each
  /// batch is erased from the buffer as it is handed to InsertRows —
  /// whether it lands or fails — so a retrying Flush() never
  /// double-inserts an already-shipped table and never reports success
  /// for rows that were consumed by a failed batch.
  [[nodiscard]] Status Flush() {
    while (!pending_.empty()) {
      auto it = pending_.begin();
      std::vector<Row> rows = std::move(it->second);
      const std::string table = it->first;
      pending_.erase(it);
      Status status = db_->InsertRows(table, std::move(rows));
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

 private:
  TemporalDB* db_;
  std::map<std::string, std::vector<Row>> pending_;
};

}  // namespace periodk

#endif  // PERIODK_MIDDLEWARE_TEMPORAL_DB_H_
