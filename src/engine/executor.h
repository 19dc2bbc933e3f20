// Catalog of materialized relations and the plan executor.  Execution is
// operator-at-a-time (each operator materializes its output), which
// keeps the engine simple and is adequate for the paper-scale workloads.
// Leaves are zero-copy: scans share the catalog's relation handle,
// constants share the plan's.  Physical join selection reads the plan's
// build-time predicate analysis (ra/join_analysis.h): the sweep-based
// interval join when an overlap conjunct was recognized, a hash join on
// plain equi-keys, and a nested loop only for genuinely opaque
// predicates.
//
// Plans are DAGs, not trees: REWR shares subplans (snapshot DISTINCT
// splits a query against itself, snapshot difference references each
// rewritten input twice), so execution memoizes per run — a subplan
// reachable through several parents executes exactly once and later
// consumers reuse the materialized handle (copying only when other
// consumers still need it; the last consumer may steal).
//
// Concurrency: the catalog stores immutable relations behind
// shared_ptr<const Relation>, so copying a Catalog produces an O(#tables)
// *snapshot* that shares table storage — the middleware pins such a
// snapshot per query and publishes mutations copy-on-write, which makes
// any number of concurrent executions against their pinned snapshots
// safe.  One execution runs on its caller's thread: every operator is
// one sequential loop.
#ifndef PERIODK_ENGINE_EXECUTOR_H_
#define PERIODK_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/relation.h"
#include "ra/plan.h"

namespace periodk {

class TableStats;
class TimelineIndex;

class Catalog {
 public:
  // periodk-lint: allow(relation-by-value): ownership sink, callers move
  void Put(const std::string& name, Relation relation) {
    PutShared(name, std::make_shared<const Relation>(std::move(relation)));
  }

  /// Publishes a pre-wrapped relation handle (the middleware writers
  /// share one handle between the catalog and the stats collector).
  /// Like Put, replacing the relation drops its timeline index and
  /// statistics (stale ones would also be rejected by BuiltFor, but
  /// dropping here frees the memory).
  void PutShared(const std::string& name,
                 std::shared_ptr<const Relation> relation) {
    tables_.insert_or_assign(name, std::move(relation));
    indexes_.erase(name);
    stats_.erase(name);
  }
  bool Has(const std::string& name) const { return tables_.count(name) > 0; }
  const Relation& Get(const std::string& name) const;
  /// The shared handle of a table; throws EngineError when absent.
  /// Holding the handle keeps the relation alive across catalog
  /// mutations that replace the entry (copy-on-write publication).
  std::shared_ptr<const Relation> GetShared(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Attaches an immutable timeline index to a table.  The index should
  /// be built from the table's current relation object (BuiltFor);
  /// consumers verify that before trusting it, so attaching a
  /// mismatched index degrades to the scan path instead of corrupting
  /// results.  Like relations, index handles are shared by catalog
  /// copies and replaced — never mutated — in place.
  void PutIndex(const std::string& name,
                std::shared_ptr<const TimelineIndex> index) {
    indexes_.insert_or_assign(name, std::move(index));
  }
  /// The table's timeline index, or nullptr when none is attached.
  std::shared_ptr<const TimelineIndex> GetIndex(const std::string& name) const;

  /// Attaches immutable statistics to a table.  Same discipline as
  /// PutIndex: the stats should be collected from the table's current
  /// relation object (TableStats::BuiltFor), consumers verify that
  /// before trusting them, and handles are shared by catalog copies
  /// and replaced — never mutated — in place.
  void PutStats(const std::string& name,
                std::shared_ptr<const TableStats> stats) {
    stats_.insert_or_assign(name, std::move(stats));
  }
  /// The table's statistics, or nullptr when none are attached.
  std::shared_ptr<const TableStats> GetStats(const std::string& name) const;

 private:
  // Copying the maps copies shared_ptrs, not relations: a Catalog copy
  // is an immutable snapshot of the whole database (indexes and stats
  // included).
  std::map<std::string, std::shared_ptr<const Relation>> tables_;
  std::map<std::string, std::shared_ptr<const TimelineIndex>> indexes_;
  std::map<std::string, std::shared_ptr<const TableStats>> stats_;
};

/// Per-execution counters, for tests and EXPLAIN ANALYZE-style output.
struct ExecStats {
  /// Operator evaluations actually performed: one per *unique* reachable
  /// plan node, however many parents share it.
  int64_t nodes_executed = 0;
  /// Node requests answered from the memo instead of re-executing.
  int64_t memo_hits = 0;
  /// Rows written into freshly materialized operator outputs (borrowed
  /// scan/constant handles do not count).
  int64_t rows_materialized = 0;
  /// Always 0: nothing in the library writes it; e2ebench still reads it.
  int64_t parallel_tasks = 0;
  /// kTimeslice nodes answered from a timeline index instead of the
  /// O(table) scan (shown by TemporalDB::ExplainAnalyze as index hits).
  int64_t index_timeslices = 0;
  /// Differential-layer events consulted by indexed lookups: the sum of
  /// the delta sizes of every index answered from (0 when each index
  /// was fully compacted).  Measures how much uncompacted write traffic
  /// a read crossed — see TemporalDB's IndexMaintenanceStats.
  int64_t index_delta_events = 0;
  /// Always 0: nothing in the library writes it; e2ebench still reads it.
  int64_t cost_gated_fanouts = 0;
  /// Actual output rows per executed plan node.  Keys are plan-node
  /// identities;
  /// consumers (ExplainAnalyze) render them by walking the plan, never
  /// by iterating this map, so pointer order cannot leak into output.
  std::map<const Plan*, int64_t> node_rows;

  /// Counter rendering; deterministic (node_rows is deliberately not
  /// printed here — it has no meaning without the plan to walk).
  std::string ToString() const;
};

/// Execution-time knobs, distinct from the plan-shaping RewriteOptions.
struct ExecOptions {
  /// Ignored: nothing in the library reads it; e2ebench still sets it.
  int num_threads = 1;
  /// Route kTimeslice-over-kScan through the table's TimelineIndex when
  /// the catalog carries a current one (checkpoint lookup + bounded
  /// replay instead of an O(table) scan).  The indexed result is
  /// row-identical — same rows, same order — to the scan path; false is
  /// the bit-identical fallback that never consults an index.
  bool use_timeline_index = true;
  /// Ignored: nothing in the library reads it; e2ebench still sets it.
  bool use_cost_model = true;
};

/// Column indices 0, 1, ..., n - 1.
std::vector<int> FirstColumns(size_t n);

/// Rows of `left` (with `right`, pairs (l, r): left's cells, then
/// right's) as `exprs` read them: a row of the input's arity filled only
/// in the columns the expressions reference, read through typed columns.
/// A reference outside the row stays unfilled, so Expr::Eval raises its
/// out-of-range error, with the row's arity, at the first row that
/// evaluates it.
class ScratchRow {
 public:
  ScratchRow(const std::vector<ExprPtr>& exprs, const Relation& left,
             const Relation* right = nullptr);

  const Row& Load(size_t i) { return Load(i, 0); }
  const Row& Load(size_t l, size_t r) {
    for (size_t k = 0; k < slots_.size(); ++k) {
      row_[slots_[k]] = cols_[k]->Get(k < left_slots_ ? l : r);
    }
    return row_;
  }

 private:
  Row row_;
  std::vector<size_t> slots_;  // ascending: left's cells come first
  size_t left_slots_ = 0;
  std::vector<TypedColumn> cols_;
};

/// The expression projection of project, aggregation and the
/// split-aggregate: `exprs` over `input` as typed columns, one per
/// expression.  A column reference within the input's arity passes
/// through (Relation::ReadColumn).  An expression the typed evaluator
/// admits (engine/typed_eval.h) runs over whole typed columns; it
/// cannot raise.  Every other expression is evaluated row by row, in
/// expression order within a row, over a scratch row holding only the
/// cells the expressions reference, so the first error surfaces at the
/// row and in the order a row-at-a-time loop reaches it.  When
/// `row_needed` is given, it is asked first for each row, in order and
/// before any typed work (it may throw), and a row it rejects is not
/// evaluated: its cells hold NULL.
std::vector<TypedColumn> EvalColumns(
    const Relation& input, const std::vector<ExprPtr>& exprs,
    const std::function<bool(size_t)>& row_needed = {});

/// Executes a logical plan against the catalog; throws EngineError on
/// invariant violations (e.g. unknown table).  `stats`, when non-null,
/// receives the run's counters.
Relation Execute(const PlanPtr& plan, const Catalog& catalog,
                 const ExecOptions& options = {}, ExecStats* stats = nullptr);

}  // namespace periodk

#endif  // PERIODK_ENGINE_EXECUTOR_H_
