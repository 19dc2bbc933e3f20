#include "engine/timeline_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "engine/event_sort.h"

namespace periodk {

namespace {

/// The alive set of BuildFrom's sweep over row ids [first, first + n):
/// a bitmap plus one summary bit per bitmap word, so Sorted() costs the
/// members plus n / 4096 summary words -- a checkpoint costs its size,
/// not the table's -- and insert/erase are O(1).
class AliveRows {
 public:
  AliveRows(size_t first, size_t n)
      : first_(first), words_((n + 63) / 64), summary_((n + 4095) / 4096) {}

  void Insert(uint32_t row) {
    const size_t i = row - first_;
    words_[i >> 6] |= uint64_t{1} << (i & 63);
    summary_[i >> 12] |= uint64_t{1} << ((i >> 6) & 63);
    ++count_;
  }
  void Erase(uint32_t row) {
    const size_t i = row - first_;
    uint64_t& word = words_[i >> 6];
    word &= ~(uint64_t{1} << (i & 63));
    if (word == 0) summary_[i >> 12] &= ~(uint64_t{1} << ((i >> 6) & 63));
    --count_;
  }
  /// The members, ascending.
  std::vector<uint32_t> Sorted() const {
    std::vector<uint32_t> out;
    out.reserve(count_);
    for (size_t s = 0; s < summary_.size(); ++s) {
      for (uint64_t live = summary_[s]; live != 0; live &= live - 1) {
        const size_t w = s * 64 + static_cast<size_t>(std::countr_zero(live));
        for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          out.push_back(static_cast<uint32_t>(
              first_ + w * 64 + static_cast<size_t>(std::countr_zero(bits))));
        }
      }
    }
    return out;
  }

 private:
  size_t first_;
  size_t count_ = 0;
  std::vector<uint64_t> words_;    // bit i: row first_ + i is alive
  std::vector<uint64_t> summary_;  // bit w: words_[w] != 0
};

}  // namespace

std::shared_ptr<const TimelineIndex> TimelineIndex::Build(
    std::shared_ptr<const Relation> source, int64_t checkpoint_interval) {
  if (source == nullptr || source->schema().size() < 2) return nullptr;
  int n = static_cast<int>(source->schema().size());
  return Build(std::move(source), n - 2, n - 1, checkpoint_interval);
}

std::shared_ptr<const TimelineIndex> TimelineIndex::Build(
    std::shared_ptr<const Relation> source, int begin_col, int end_col,
    int64_t checkpoint_interval) {
  return BuildFrom(std::move(source), begin_col, end_col, checkpoint_interval,
                   /*first_row=*/0);
}

std::shared_ptr<const TimelineIndex> TimelineIndex::WithDelta(
    std::shared_ptr<const TimelineIndex> base,
    std::shared_ptr<const Relation> source) {
  if (base == nullptr || source == nullptr) return nullptr;
  // Flatten: keep the compacted core and re-derive one delta over every
  // row appended since it was built.
  std::shared_ptr<const TimelineIndex> core =
      base->base_ != nullptr ? base->base_ : std::move(base);
  size_t first_row = core->source_->size();
  if (source->schema().size() != core->source_->schema().size() ||
      source->size() < first_row) {
    return nullptr;  // not a copy-on-write append of core's relation
  }
  // The delta reuses the core's checkpoint interval, so even an
  // uncompacted lookup replays at most K - 1 events per layer.
  std::shared_ptr<const TimelineIndex> delta =
      BuildFrom(source, core->begin_col_, core->end_col_,
                core->checkpoint_interval_, first_row);
  if (delta == nullptr) return nullptr;  // unindexable appended endpoints
  auto index = std::shared_ptr<TimelineIndex>(new TimelineIndex());
  index->source_ = std::move(source);
  index->begin_col_ = core->begin_col_;
  index->end_col_ = core->end_col_;
  index->checkpoint_interval_ = core->checkpoint_interval_;
  index->out_schema_ = core->out_schema_;
  index->keep_cols_ = core->keep_cols_;
  index->ReadKeptColumns();
  index->delta_first_row_ = first_row;
  index->base_ = std::move(core);
  index->delta_ = std::move(delta);
  return index;
}

std::shared_ptr<const TimelineIndex> TimelineIndex::BuildFrom(
    std::shared_ptr<const Relation> source, int begin_col, int end_col,
    int64_t checkpoint_interval, size_t first_row) {
  if (source == nullptr) return nullptr;
  int arity = static_cast<int>(source->schema().size());
  if (begin_col < 0 || end_col < 0 || begin_col >= arity ||
      end_col >= arity || begin_col == end_col) {
    return nullptr;
  }
  if (checkpoint_interval < 1) {
    checkpoint_interval = kDefaultCheckpointInterval;
  }
  auto index = std::shared_ptr<TimelineIndex>(new TimelineIndex());
  index->source_ = source;
  index->begin_col_ = begin_col;
  index->end_col_ = end_col;
  index->checkpoint_interval_ = checkpoint_interval;
  for (int c = 0; c < arity; ++c) {
    if (c == begin_col || c == end_col) continue;
    index->keep_cols_.push_back(c);
    index->out_schema_.Append(source->schema().at(static_cast<size_t>(c)));
  }

  // The scan path (TimesliceEncoded) throws on non-integer endpoints;
  // an index would silently skip them, so it refuses to build and the
  // caller keeps the scan path's behavior.
  TypedColumn bc = source->ReadColumn(static_cast<size_t>(begin_col));
  TypedColumn ec = source->ReadColumn(static_cast<size_t>(end_col));
  size_t n = source->size();
  size_t valid = 0;
  TimePoint min_time = 0;
  TimePoint max_time = 0;
  for (size_t i = first_row; i < n; ++i) {
    const int64_t* b = bc->TryInt(i);
    const int64_t* e = ec->TryInt(i);
    if (b == nullptr || e == nullptr) return nullptr;
    if (*b >= *e) continue;  // empty validity: never alive, like the scan
    min_time = valid == 0 ? *b : std::min(min_time, *b);
    max_time = valid == 0 ? *e : std::max(max_time, *e);
    ++valid;
  }
  // The valid rows' begin events, then their end events, each in row
  // order: fed sorted on (is_end, row), so the stable time sort yields
  // (time, is_end, row).
  const auto for_each_event = [&](const auto& fn) {
    for (bool is_end : {false, true}) {
      for (size_t i = first_row; i < n; ++i) {
        const int64_t b = *bc->TryInt(i);
        const int64_t e = *ec->TryInt(i);
        if (b >= e) continue;
        fn(Event{is_end ? e : b, static_cast<uint32_t>(i), is_end});
      }
    }
  };
  index->events_ = SortEventsByTime<Event>(2 * valid, min_time, max_time,
                                           for_each_event);

  index->event_times_.reserve(index->events_.size());
  AliveRows alive(first_row, n - first_row);
  size_t k = static_cast<size_t>(checkpoint_interval);
  index->checkpoints_.reserve(index->events_.size() / k + 1);
  index->checkpoints_.emplace_back();  // checkpoint 0: nothing alive
  for (size_t i = 0; i < index->events_.size(); ++i) {
    const Event& event = index->events_[i];
    index->event_times_.push_back(event.time);
    if (!event.is_end) {
      alive.Insert(event.row);
    } else {
      alive.Erase(event.row);
    }
    if ((i + 1) % k == 0) index->checkpoints_.push_back(alive.Sorted());
  }
  // A delta (first_row > 0) is only replayed by the index wrapping it.
  if (first_row == 0) index->ReadKeptColumns();
  return index;
}

bool TimelineIndex::ColumnsAreTrailing() const {
  int arity = static_cast<int>(keep_cols_.size()) + 2;
  return begin_col_ == arity - 2 && end_col_ == arity - 1;
}

/// Positions the replay window for time t: base is the checkpoint at or
/// below the event position, and `replay` collects the window's begin /
/// end rows.  A row cannot be removed and later re-added within one
/// window (each row has exactly one begin and one end event), so the
/// alive set at t is exactly
///   { r in base : r not removed } union { r added : r not removed }.
std::vector<uint32_t> TimelineIndex::AliveAt(TimePoint t) const {
  if (base_ != nullptr) {
    // Every base id is below delta_first_row_ and every delta id at or
    // above it, so concatenation is the sorted merge.
    std::vector<uint32_t> out = base_->AliveAt(t);
    std::vector<uint32_t> delta = delta_->AliveAt(t);
    out.insert(out.end(), delta.begin(), delta.end());
    return out;
  }
  // Events with time <= t are applied; upper_bound gives their count.
  size_t pos = static_cast<size_t>(
      std::upper_bound(event_times_.begin(), event_times_.end(), t) -
      event_times_.begin());
  size_t k = static_cast<size_t>(checkpoint_interval_);
  size_t c = pos / k;
  const std::vector<uint32_t>& base = checkpoints_[c];
  // The replay window: rows whose begin (added) or end (removed) events
  // fall between the checkpoint and the query position, at most
  // checkpoint_interval - 1 of them.
  std::vector<uint32_t> added;
  std::vector<uint32_t> removed;
  for (size_t i = c * k; i < pos; ++i) {
    const Event& event = events_[i];
    (event.is_end ? removed : added).push_back(event.row);
  }
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());

  std::vector<uint32_t> out;
  out.reserve(base.size() + added.size());
  // Merge the two disjoint sorted lists (base rows began at or before
  // the checkpoint, added rows after it), skipping removed rows: the
  // merged ids ascend, so one cursor walks the sorted removed list.
  size_t bi = 0;
  size_t ai = 0;
  size_t ri = 0;
  while (bi < base.size() || ai < added.size()) {
    uint32_t next;
    if (ai >= added.size() || (bi < base.size() && base[bi] < added[ai])) {
      next = base[bi++];
    } else {
      next = added[ai++];
    }
    while (ri < removed.size() && removed[ri] < next) ++ri;
    if (ri < removed.size() && removed[ri] == next) continue;
    out.push_back(next);
  }
  return out;
}

void TimelineIndex::ReadKeptColumns() {
  for (int c : keep_cols_) {
    kept_.push_back(source_->ReadColumn(static_cast<size_t>(c)));
  }
}

Relation TimelineIndex::Timeslice(TimePoint t) const {
  // `alive` is ascending, so rows come out in source order.
  const std::vector<uint32_t> alive = AliveAt(t);
  std::vector<ColumnData> cols;
  cols.reserve(kept_.size());
  for (const TypedColumn& column : kept_) {
    cols.push_back(ColumnData::Gather(*column, alive));
  }
  return Relation::FromColumns(out_schema_, std::move(cols), alive.size());
}

}  // namespace periodk
