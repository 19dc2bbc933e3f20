// TimelineIndex: a checkpointed timeline index over one PERIODENC
// relation, in the spirit of the Timeline Index of Kaufmann et al.
// (SIGMOD 2013) and of the endpoint-sorted sweep structures the
// interval-overlap join already uses.  It turns the timeslice operator
// tau_T (paper Sec. 5.1, Def 6.2) — an O(table) scan per query in
// `TimesliceEncoded` — into a binary search over a global event list
// plus a bounded replay:
//
//   * every valid row [b, e) contributes a begin event at b and an end
//     event at e; events are globally sorted by time;
//   * every `checkpoint_interval` (K) events, the index stores a
//     checkpoint: the sorted set of row ids alive after applying the
//     events so far;
//   * Timeslice(t) binary-searches the number of events with time <= t,
//     starts from the nearest checkpoint at or below that position, and
//     replays at most K - 1 endpoint events.
//
// The index is immutable and tied to the exact Relation object it was
// built from (writers publish new Relation objects copy-on-write, so a
// stale index can always be detected by pointer identity — see
// `BuiltFor`).  The executor routes kTimeslice-over-kScan through it
// when the catalog carries one (ExecOptions::use_timeline_index), and
// the middleware builds it lazily on the first indexed read.
//
// Differential layer (rdf3x-style DifferentialIndex): a copy-on-write
// append publishes a new Relation whose prefix rows are value-identical
// to the old one, so instead of rebuilding, `WithDelta` wraps the old
// index (the *base*) together with a small index built over only the
// appended rows (the *delta*, with absolute row ids).  Lookups merge
// the two answers: base ids are all smaller than delta ids, so the
// merged alive set stays sorted and Timeslice's projection is untouched.
// Chained appends flatten — the base of a delta-carrying index never
// itself carries a delta — and the delta is checkpointed like the base,
// so replay stays bounded by K even before compaction folds the delta
// into a fresh full index (see TemporalDB's IndexMaintenanceStats).
#ifndef PERIODK_ENGINE_TIMELINE_INDEX_H_
#define PERIODK_ENGINE_TIMELINE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/relation.h"
#include "engine/schema.h"
#include "temporal/interval.h"

namespace periodk {

class TimelineIndex {
 public:
  /// Default events-per-checkpoint.  Checkpoints cost
  /// O(avg alive set) memory each; K = 64 keeps replay short while the
  /// checkpoint storage stays well below the table itself for
  /// short-interval workloads.
  static constexpr int64_t kDefaultCheckpointInterval = 64;

  /// Builds the index over the trailing two (a_begin, a_end) columns of
  /// `source` — the PERIODENC invariant position.  Returns nullptr when
  /// the index cannot represent the relation exactly: fewer than two
  /// columns, or any row whose endpoint values are not integers (the
  /// scan path throws on such rows, so callers must fall back to it).
  /// Rows with an empty validity interval (begin >= end) are indexed as
  /// never alive, exactly like the scan path treats them.
  /// Complexity: O(n) time (a radix sort of the endpoint events),
  /// O(n + checkpoints) space.
  /// Thread-safety: Build is a pure function; the returned index is
  /// immutable and safe to share across threads.
  static std::shared_ptr<const TimelineIndex> Build(
      std::shared_ptr<const Relation> source,
      int64_t checkpoint_interval = kDefaultCheckpointInterval);

  /// As above with explicit endpoint columns (used by
  /// TemporalDB::Timeslice for period tables whose interval columns are
  /// stored away from the trailing position).  Preconditions:
  /// 0 <= begin_col, end_col < arity and begin_col != end_col.
  static std::shared_ptr<const TimelineIndex> Build(
      std::shared_ptr<const Relation> source, int begin_col, int end_col,
      int64_t checkpoint_interval = kDefaultCheckpointInterval);

  /// Differential wrap: an index for `source` that answers from `base`
  /// plus a delta built over only the appended row range — O(appended)
  /// instead of O(table) for a columnar source (a row-stored one has
  /// its columns encoded whole, Relation::ReadColumn).  Preconditions checked (nullptr returned on
  /// violation, so callers fall back to a full build or the scan):
  /// `source` must have the same arity as base's relation, at least as
  /// many rows (the copy-on-write append contract: prefix rows are
  /// value-identical), and integer endpoints in every appended row.
  /// When `base` already carries a delta, the chain flattens: the new
  /// index keeps base's *core* and re-derives one delta covering every
  /// row appended since the core was built (still O(total delta), which
  /// the compaction threshold bounds).  Zero appended rows are valid
  /// and yield an empty delta.
  /// Thread-safety: pure; the result is immutable like Build's.
  static std::shared_ptr<const TimelineIndex> WithDelta(
      std::shared_ptr<const TimelineIndex> base,
      std::shared_ptr<const Relation> source);

  /// True iff the index was built from exactly this Relation object.
  /// Catalog mutations publish new Relation objects (copy-on-write), so
  /// pointer identity proves the index is current.
  bool BuiltFor(const Relation* relation) const {
    return source_.get() == relation;
  }

  /// True iff the indexed endpoint columns are the trailing two — the
  /// only layout kTimeslice's encoded-input invariant permits, and
  /// therefore a precondition for the executor to use this index.
  bool ColumnsAreTrailing() const;

  int begin_col() const { return begin_col_; }
  int end_col() const { return end_col_; }
  int64_t checkpoint_interval() const { return checkpoint_interval_; }
  /// Total events answered from, base and delta combined.
  size_t num_events() const {
    return base_ != nullptr ? base_->events_.size() + delta_->events_.size()
                            : events_.size();
  }
  size_t num_checkpoints() const {
    return base_ != nullptr
               ? base_->checkpoints_.size() + delta_->checkpoints_.size()
               : checkpoints_.size();
  }
  /// True iff this index answers through a differential delta (built by
  /// WithDelta and not yet compacted into a full index).
  bool has_delta() const { return base_ != nullptr; }
  /// Events in the delta layer; 0 for a fully compacted index.  The
  /// writer's compaction threshold and ExecStats::index_delta_events
  /// both read this.
  size_t num_delta_events() const {
    return delta_ != nullptr ? delta_->events_.size() : 0;
  }
  /// The fully compacted core a differential index answers from
  /// (nullptr when this index has no delta).  Exposed so tests can pin
  /// the flattening invariant: a base never itself carries a delta.
  std::shared_ptr<const TimelineIndex> base() const { return base_; }

  /// Row ids (ascending) of rows alive at t: begin <= t < end.  Pure
  /// comparisons — any int64 t is safe, including domain bounds.
  /// Complexity: O(log #events + K + |result|).
  std::vector<uint32_t> AliveAt(TimePoint t) const;

  /// Materialized tau_t: the alive rows with the two endpoint columns
  /// dropped, in source row order — result rows are identical, in
  /// identical order, to `TimesliceEncoded(source, t)`.
  Relation Timeslice(TimePoint t) const;

 private:
  TimelineIndex() = default;

  /// Build over rows [first_row, source->size()) with absolute row ids;
  /// Build is the first_row = 0 case, WithDelta's delta the rest.
  static std::shared_ptr<const TimelineIndex> BuildFrom(
      std::shared_ptr<const Relation> source, int begin_col, int end_col,
      int64_t checkpoint_interval, size_t first_row);

  void ReadKeptColumns();  // fills kept_

  struct Event {
    TimePoint time = 0;
    uint32_t row = 0;
    bool is_end = false;  // tie-break only; any order at equal t works
  };

  std::shared_ptr<const Relation> source_;
  int begin_col_ = 0;
  int end_col_ = 0;
  int64_t checkpoint_interval_ = kDefaultCheckpointInterval;
  Schema out_schema_;          // source schema minus the endpoint columns
  std::vector<int> keep_cols_;  // source column ids of out_schema_
  // keep_cols_ read once (not by a delta): borrowed from a columnar
  // source_, encoded from a row-stored one; a lookup gathers from them.
  std::vector<TypedColumn> kept_;
  // Globally sorted by (time, is_end, row); event_times_ mirrors the
  // times for branch-free binary search.
  std::vector<Event> events_;
  std::vector<TimePoint> event_times_;
  // checkpoints_[c] = sorted row ids alive after the first
  // c * checkpoint_interval_ events (checkpoints_[0] is empty).
  std::vector<std::vector<uint32_t>> checkpoints_;
  // Differential layer (both set or both null; see WithDelta).  When
  // set, this object's own event/checkpoint vectors are empty and every
  // lookup concatenates base answers (ids < delta_first_row_) with
  // delta answers (ids >= delta_first_row_).  base_ is always a core:
  // base_->base_ == nullptr.
  std::shared_ptr<const TimelineIndex> base_;
  std::shared_ptr<const TimelineIndex> delta_;
  // First row id the delta covers == base_'s relation row count.
  size_t delta_first_row_ = 0;
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_TIMELINE_INDEX_H_
