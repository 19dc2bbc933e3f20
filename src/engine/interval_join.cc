#include "engine/interval_join.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/event_sort.h"
#include "engine/typed_eval.h"
#include "temporal/interval.h"

namespace periodk {

// periodk-lint: columnar-lane-begin(joins)
namespace {

// Typed equi-key columns of both sides.
std::pair<std::vector<TypedColumn>, std::vector<TypedColumn>> ReadEquiKeys(
    const JoinAnalysis& ja, const Relation& left, const Relation& right) {
  std::vector<TypedColumn> lkeys;
  std::vector<TypedColumn> rkeys;
  lkeys.reserve(ja.equi_keys.size());
  rkeys.reserve(ja.equi_keys.size());
  for (const auto& [l, r] : ja.equi_keys) {
    lkeys.push_back(left.ReadColumn(static_cast<size_t>(l)));
    rkeys.push_back(right.ReadColumn(static_cast<size_t>(r)));
  }
  return {std::move(lkeys), std::move(rkeys)};
}

// A join condition as a test of pair (l, r) over a two-source scratch
// row; a null condition accepts every pair.  The nested loop's, the
// reference.
auto PairTest(const Relation& left, const Relation& right,
              const ExprPtr& expr) {
  return [expr, scratch = ScratchRow({expr}, left, &right)](
             uint32_t l, uint32_t r) mutable {
    return expr == nullptr || expr->EvalBool(scratch.Load(l, r));
  };
}

/// SQL `a < b` (false when either side is NULL or incomparable).
bool StrictlyLess(const Value& a, const Value& b) {
  const std::optional<int> c = SqlCompare(a, b);
  return c.has_value() && *c < 0;
}

// The (left row, right row) pairs a join keeps, in emission order.
struct JoinPairs {
  std::vector<uint32_t> left;
  std::vector<uint32_t> right;

  void Add(uint32_t l, uint32_t r) {
    left.push_back(l);
    right.push_back(r);
  }
};

// `pairs` stably ordered by left row (a counting sort over the left
// input's `num_left` rows).
JoinPairs LeftMajor(const JoinPairs& pairs, size_t num_left) {
  std::vector<uint32_t> start(num_left + 1, 0);
  for (uint32_t l : pairs.left) ++start[l + 1];
  for (size_t i = 0; i < num_left; ++i) start[i + 1] += start[i];
  JoinPairs out;
  out.left.resize(pairs.left.size());
  out.right.resize(pairs.right.size());
  for (size_t k = 0; k < pairs.left.size(); ++k) {
    const uint32_t at = start[pairs.left[k]]++;
    out.left[at] = pairs.left[k];
    out.right[at] = pairs.right[k];
  }
  return out;
}

// The join's output: each pair's left columns, then its right columns.
Relation GatherPairs(const Plan& plan, const Relation& left,
                     const Relation& right, const JoinPairs& pairs) {
  return Relation::Gather(
      plan.schema, {{left, FirstColumns(left.schema().size()), pairs.left},
                    {right, FirstColumns(right.schema().size()), pairs.right}});
}

// An equi-join's build side, shared by the hash join and the overlap
// join's staging: the key index over the smaller input (side 0; the
// larger input is looked up as side 1) and the smaller input's rows
// grouped by key in one offsets + ids array.  Keys are numbered by
// first appearance in the smaller input, and key k's rows are
// ids[offsets[k], offsets[k + 1]), ascending.  A NULL key never
// equi-joins: its row is in no group, and Probe never finds it.
struct EquiBuild {
  EquiBuild(const JoinAnalysis& ja, const Relation& left,
            const Relation& right)
      : build_left(left.size() < right.size()),
        probe_size(build_left ? right.size() : left.size()),
        columns(ReadEquiKeys(ja, left, right)),
        index(build_left ? columns.first : columns.second,
              build_left ? columns.second : columns.first) {
    const size_t build_size = build_left ? left.size() : right.size();
    std::vector<uint32_t> key(build_size, KeyIndex::kAbsent);
    for (uint32_t b = 0; b < build_size; ++b) {
      if (index.HasNull(b, 0)) continue;
      key[b] = index.FindOrInsert(b, 0);
      if (key[b] == offsets.size()) offsets.push_back(0);
      ++offsets[key[b]];
    }
    uint32_t total = 0;
    for (uint32_t& o : offsets) total += std::exchange(o, total);
    offsets.push_back(total);
    ids.resize(total);
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (uint32_t b = 0; b < build_size; ++b) {
      if (key[b] != KeyIndex::kAbsent) ids[fill[key[b]]++] = b;
    }
  }

  size_t num_keys() const { return offsets.size() - 1; }
  /// The key of row p of the larger input, or kAbsent when the key is
  /// NULL or not in the smaller input.
  uint32_t Probe(size_t p) const {
    return index.HasNull(p, 1) ? KeyIndex::kAbsent : index.Find(p, 1);
  }

  bool build_left;  // the left input is the smaller one
  size_t probe_size;
  std::pair<std::vector<TypedColumn>, std::vector<TypedColumn>> columns;
  KeyIndex index;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> ids;
};

// periodk-lint: typed-lane-begin(overlap-join)

// The overlap conjunct `left begin < right end AND right begin < left
// end` of an analyzed join, tested on pair (l, r) under SQL comparison:
// integer endpoints directly, any other (NULL, double, string) through
// their Values.  Endpoints are decoded once per row.  Never raises.
class OverlapTest {
 public:
  OverlapTest(const OverlapSpec& ov, const Relation& left,
              const Relation& right)
      : left_(left, ov.left_begin, ov.left_end),
        right_(right, ov.right_begin, ov.right_end) {}

  bool operator()(size_t l, size_t r) const {
    if (left_.is_int[l] != 0 && right_.is_int[r] != 0) {
      return left_.b[l] < right_.e[r] && right_.b[r] < left_.e[l];
    }
    // periodk-lint: allow(row-eval-in-typed-lane): SQL compares malformed ends
    return StrictlyLess(left_.begin->Get(l), right_.end->Get(r)) &&
           StrictlyLess(right_.begin->Get(r), left_.end->Get(l));
  }

 private:
  // One side's endpoints: an integer pair, or (is_int 0) a row
  // compared through its Values.
  struct Ends {
    Ends(const Relation& rel, int bcol, int ecol)
        : begin(rel.ReadColumn(static_cast<size_t>(bcol))),
          end(rel.ReadColumn(static_cast<size_t>(ecol))),
          b(rel.size()),
          e(rel.size()),
          is_int(rel.size()) {
      for (size_t i = 0; i < rel.size(); ++i) {
        const int64_t* pb = begin->TryInt(i);
        const int64_t* pe = end->TryInt(i);
        is_int[i] = pb != nullptr && pe != nullptr;
        if (is_int[i] != 0) {
          b[i] = *pb;
          e[i] = *pe;
        }
      }
    }
    TypedColumn begin;
    TypedColumn end;
    std::vector<int64_t> b;
    std::vector<int64_t> e;
    std::vector<char> is_int;
  };
  Ends left_;
  Ends right_;
};

// A join's residual as a filter over candidate pairs, shared by the
// hash join and the overlap join.  When the type pass admits the
// residual over the candidates' gathered residual columns it runs
// typed (SelectTyped), and then cannot raise; otherwise, or when an
// int64 overflow abandons the typed result, each pair is tested on a
// scratch row in candidate order, so the first error is the first
// failing candidate's.
class ResidualFilter {
 public:
  ResidualFilter(const Relation& left, const Relation& right,
                 const ExprPtr& residual)
      : left_(left), right_(right), residual_(residual) {
    if (residual_ == nullptr) return;
    scratch_.emplace(std::vector<ExprPtr>{residual_}, left, &right);
    // The typed path reads the referenced columns only, renumbered in
    // column order: the left input's first, then the right's.  A
    // reference outside the pair's columns stays on the row path,
    // which raises its error.
    std::vector<int> refs;
    CollectColumns(residual_, &refs);
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    const auto split = static_cast<int>(left.schema().size());
    const auto arity = split + static_cast<int>(right.schema().size());
    if (!refs.empty() && (refs.front() < 0 || refs.back() >= arity)) return;
    for (int c : refs) {
      if (c < split) {
        left_cols_.push_back(c);
        schema_.Append(left.schema().at(static_cast<size_t>(c)));
      } else {
        right_cols_.push_back(c - split);
        schema_.Append(right.schema().at(static_cast<size_t>(c - split)));
      }
    }
    typed_ = RemapColumns(residual_, [&refs](int c) {
      return static_cast<int>(std::lower_bound(refs.begin(), refs.end(), c) -
                              refs.begin());
    });
  }

  /// Keeps the pairs of `pairs` the residual accepts, in order.
  void Filter(JoinPairs& pairs) {
    if (residual_ == nullptr || pairs.left.empty()) return;
    size_t kept = 0;
    auto keep = [&pairs, &kept](size_t k) {
      pairs.left[kept] = pairs.left[k];
      pairs.right[kept] = pairs.right[k];
      ++kept;
    };
    std::optional<std::vector<uint32_t>> ids;
    if (typed_ != nullptr) {
      ids = SelectTyped(
          *typed_, Relation::Gather(schema_, {{left_, left_cols_, pairs.left},
                                              {right_, right_cols_,
                                               pairs.right}}));
    }
    if (ids.has_value()) {
      for (uint32_t k : *ids) keep(k);
    } else {
      for (size_t k = 0; k < pairs.left.size(); ++k) {
        const Row& row = scratch_->Load(pairs.left[k], pairs.right[k]);
        // periodk-lint: allow(row-eval-in-typed-lane): the row path raises
        if (residual_->EvalBool(row)) keep(k);
      }
    }
    pairs.left.resize(kept);
    pairs.right.resize(kept);
  }

 private:
  const Relation& left_;
  const Relation& right_;
  ExprPtr residual_;
  // periodk-lint: allow(row-eval-in-typed-lane): the row path's scratch
  std::optional<ScratchRow> scratch_;
  // The typed path: `typed_` is the residual over `schema_`, the left
  // input's `left_cols_` and then the right input's `right_cols_`;
  // nullptr when a reference lies outside the pair's columns.
  ExprPtr typed_;
  Schema schema_;
  std::vector<int> left_cols_;
  std::vector<int> right_cols_;
};

// One staged row of the sweep with its decoded interval.
struct SweepRow {
  TimePoint begin = 0;
  TimePoint end = 0;
  uint32_t row = 0;
};

// One input's staged rows, flat, grouped by bucket.  Rows whose
// endpoint columns decode to a well-formed interval (integers,
// begin < end) ride the sweep: bucket b's are fast[fast_at[b],
// fast_at[b + 1]), ordered by begin, then by row.  The rest -- NULL,
// double or string endpoints, empty or reversed intervals -- can still
// satisfy the raw predicate under SQL comparison semantics (an empty
// interval's `b1 < e2 AND b2 < e1` holds against any interval
// containing it), so they take the nested-loop slow lane: bucket b's
// are slow[slow_at[b], slow_at[b + 1]), by row.
struct StagedSide {
  std::vector<SweepRow> fast;
  std::vector<uint32_t> fast_at;
  std::vector<uint32_t> slow;
  std::vector<uint32_t> slow_at;

  std::span<const SweepRow> Fast(size_t b) const {
    return {fast.data() + fast_at[b], fast.data() + fast_at[b + 1]};
  }
  std::span<const uint32_t> Slow(size_t b) const {
    return {slow.data() + slow_at[b], slow.data() + slow_at[b + 1]};
  }
  /// Bucket b's well-formed rows by row (the slow lane's order).
  std::vector<uint32_t> FastByRow(size_t b) const {
    std::vector<uint32_t> rows;
    for (const SweepRow& r : Fast(b)) rows.push_back(r.row);
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

// Stages the (row, bucket) pairs `for_each_staged(fn)` feeds, rows
// ascending within each bucket, into `num_buckets` buckets: the fast
// rows by one stable radix sort on begin and a stable counting pass by
// bucket, the slow rows by a counting pass.
template <typename ForEachStaged>
StagedSide Stage(const Relation& rel, int bcol, int ecol, size_t num_buckets,
                 const ForEachStaged& for_each_staged) {
  struct Event {
    TimePoint time = 0;  // begin
    TimePoint end = 0;
    uint32_t row = 0;
    uint32_t bucket = 0;
  };
  const TypedColumn bc = rel.ReadColumn(static_cast<size_t>(bcol));
  const TypedColumn ec = rel.ReadColumn(static_cast<size_t>(ecol));
  StagedSide side;
  side.fast_at.assign(num_buckets + 1, 0);
  side.slow_at.assign(num_buckets + 1, 0);
  std::vector<Event> events;
  std::vector<std::pair<uint32_t, uint32_t>> slow;  // (row, bucket)
  TimePoint min_time = 0;
  TimePoint max_time = 0;
  for_each_staged([&](uint32_t row, uint32_t bucket) {
    const int64_t* b = bc->TryInt(row);
    const int64_t* e = ec->TryInt(row);
    if (b != nullptr && e != nullptr && *b < *e) {
      min_time = events.empty() ? *b : std::min(min_time, *b);
      max_time = events.empty() ? *b : std::max(max_time, *b);
      events.push_back(Event{*b, *e, row, bucket});
      ++side.fast_at[bucket + 1];
    } else {
      slow.emplace_back(row, bucket);
      ++side.slow_at[bucket + 1];
    }
  });
  for (size_t b = 0; b < num_buckets; ++b) {
    side.fast_at[b + 1] += side.fast_at[b];
    side.slow_at[b + 1] += side.slow_at[b];
  }
  const std::vector<Event> by_begin = SortEventsByTime<Event>(
      events.size(), min_time, max_time, [&events](const auto& fn) {
        for (const Event& event : events) fn(event);
      });
  side.fast.resize(events.size());
  std::vector<uint32_t> fill(side.fast_at.begin(), side.fast_at.end() - 1);
  for (const Event& event : by_begin) {
    side.fast[fill[event.bucket]++] = {event.time, event.end, event.row};
  }
  side.slow.resize(slow.size());
  fill.assign(side.slow_at.begin(), side.slow_at.end() - 1);
  for (const auto& [row, bucket] : slow) side.slow[fill[bucket]++] = row;
  return side;
}

// Reusable sweep scratch: the active sets keep arrival (begin-stable)
// order and drop expired entries lazily during the emission scan, so
// the emitted pair order is a pure function of the staged rows.
using ActiveEntry = std::pair<TimePoint, uint32_t>;
struct SweepScratch {
  std::vector<ActiveEntry> active_l;
  std::vector<ActiveEntry> active_r;
};

/// Plane sweep over one bucket's well-formed intervals, each side in
/// begin order, calling emit(left row, right row) per overlapping pair:
/// advance both inputs in begin order (left first on ties); an arriving
/// interval pairs with every active opposite interval that has not yet
/// ended, so each pair is emitted exactly once, when its
/// later-starting member arrives.
template <typename Emit>
void SweepBucket(std::span<const SweepRow> ls, std::span<const SweepRow> rs,
                 SweepScratch& scratch, const Emit& emit) {
  if (ls.empty() || rs.empty()) return;
  std::vector<ActiveEntry>& active_l = scratch.active_l;
  std::vector<ActiveEntry>& active_r = scratch.active_r;
  active_l.clear();
  active_r.clear();
  // Emits `cur` against every still-active opposite entry, compacting
  // expired entries (end <= cur.begin) out in the same pass.
  auto emit_against = [](const SweepRow& cur,
                         std::vector<ActiveEntry>& opposite,
                         const auto& emit_pair) {
    size_t kept = 0;
    for (ActiveEntry& entry : opposite) {
      if (entry.first > cur.begin) {
        emit_pair(entry.second);
        opposite[kept++] = entry;
      }
    }
    opposite.resize(kept);
  };
  size_t i = 0;
  size_t j = 0;
  while (i < ls.size() || j < rs.size()) {
    bool take_left =
        j >= rs.size() || (i < ls.size() && ls[i].begin <= rs[j].begin);
    if (take_left) {
      const SweepRow& cur = ls[i++];
      emit_against(cur, active_r, [&](uint32_t r) { emit(cur.row, r); });
      active_l.emplace_back(cur.end, cur.row);
    } else {
      const SweepRow& cur = rs[j++];
      emit_against(cur, active_l, [&](uint32_t l) { emit(l, cur.row); });
      active_r.emplace_back(cur.end, cur.row);
    }
  }
}

}  // namespace

Relation IntervalOverlapJoin(const Plan& plan, const Relation& left,
                             const Relation& right) {
  const JoinAnalysis& ja = plan.join;
  if (!ja.overlap.has_value()) {
    throw EngineError("IntervalOverlapJoin requires an overlap conjunct");
  }
  const OverlapSpec& ov = *ja.overlap;

  // Partition both inputs on the equi-keys (one bucket for a pure
  // temporal join).  A key on one side only can never emit, so only
  // the keys the larger input finds in the smaller one's index make
  // buckets, numbered by their key's first appearance on the left.
  // NULL keys never equi-join, matching the three-valued semantics of
  // the predicate they came from.
  const EquiBuild build(ja, left, right);
  const size_t probe_size = build.probe_size;
  std::vector<uint32_t> probe_key(probe_size);
  std::vector<uint32_t> bucket_of(build.num_keys(), KeyIndex::kAbsent);
  uint32_t num_buckets = 0;
  for (uint32_t p = 0; p < probe_size; ++p) {
    const uint32_t k = probe_key[p] = build.Probe(p);
    if (k != KeyIndex::kAbsent && bucket_of[k] == KeyIndex::kAbsent) {
      // Probing the left input meets its keys in first-appearance
      // order; built on the left, the key ids are that order.
      bucket_of[k] = build.build_left ? 0 : num_buckets++;
    }
  }
  if (build.build_left) {
    for (uint32_t& b : bucket_of) {
      if (b != KeyIndex::kAbsent) b = num_buckets++;
    }
  }
  const auto stage_build = [&](const auto& fn) {
    for (uint32_t k = 0; k < build.num_keys(); ++k) {
      if (bucket_of[k] == KeyIndex::kAbsent) continue;
      for (uint32_t i = build.offsets[k]; i < build.offsets[k + 1]; ++i) {
        fn(build.ids[i], bucket_of[k]);
      }
    }
  };
  const auto stage_probe = [&](const auto& fn) {
    for (uint32_t p = 0; p < probe_size; ++p) {
      if (probe_key[p] != KeyIndex::kAbsent) fn(p, bucket_of[probe_key[p]]);
    }
  };
  StagedSide ls;
  StagedSide rs;
  if (build.build_left) {
    ls = Stage(left, ov.left_begin, ov.left_end, num_buckets, stage_build);
    rs = Stage(right, ov.right_begin, ov.right_end, num_buckets, stage_probe);
  } else {
    ls = Stage(left, ov.left_begin, ov.left_end, num_buckets, stage_probe);
    rs = Stage(right, ov.right_begin, ov.right_end, num_buckets, stage_build);
  }

  // Bucketing has established the equi-keys.  Swept pairs overlap;
  // pairs with a malformed side are candidates when the overlap
  // conjunct holds under SQL comparison, which never raises.  The
  // candidates are then tested, in order, on the residual.
  std::optional<OverlapTest> overlaps;
  if (!ls.slow.empty() || !rs.slow.empty()) overlaps.emplace(ov, left, right);
  JoinPairs pairs;
  auto slow_pair = [&](uint32_t l, uint32_t r) {
    if ((*overlaps)(l, r)) pairs.Add(l, r);
  };
  SweepScratch scratch;
  for (size_t b = 0; b < num_buckets; ++b) {
    // Slow lane first: each slow left row against the right's
    // well-formed rows and then its slow rows, by row; then each
    // well-formed left row, by row, against the right's slow rows.
    if (!ls.Slow(b).empty()) {
      const std::vector<uint32_t> fast_right = rs.FastByRow(b);
      for (uint32_t l : ls.Slow(b)) {
        for (uint32_t r : fast_right) slow_pair(l, r);
        for (uint32_t r : rs.Slow(b)) slow_pair(l, r);
      }
    }
    if (!rs.Slow(b).empty()) {
      for (uint32_t l : ls.FastByRow(b)) {
        for (uint32_t r : rs.Slow(b)) slow_pair(l, r);
      }
    }
    SweepBucket(ls.Fast(b), rs.Fast(b), scratch,
                [&pairs](uint32_t l, uint32_t r) { pairs.Add(l, r); });
  }
  ResidualFilter(left, right, ja.residual).Filter(pairs);
  return GatherPairs(plan, left, right, pairs);
}
// periodk-lint: typed-lane-end(overlap-join)

Relation NestedLoopJoin(const Plan& plan, const Relation& left,
                        const Relation& right) {
  const JoinAnalysis& ja = plan.join;
  JoinPairs pairs;
  if (ja.equi_keys.empty() && !ja.overlap.has_value()) {
    // Genuinely opaque predicate: evaluate it per pair.
    auto predicate = PairTest(left, right, plan.predicate);
    for (uint32_t l = 0; l < left.size(); ++l) {
      for (uint32_t r = 0; r < right.size(); ++r) {
        if (predicate(l, r)) pairs.Add(l, r);
      }
    }
    return GatherPairs(plan, left, right, pairs);
  }
  // Analyzed predicate: test the decomposed conjuncts directly on the
  // source rows (equivalent to the full predicate — join_analysis.h
  // guarantees the parts conjoined back are the original under SQL
  // three-valued logic), the residual last.  Equi-keys match when both
  // rows carry the same non-NULL key id; the overlap conjunct compares
  // integer endpoints directly and anything else under SQL comparison
  // rules.  Same left-major emission order as the opaque path.
  auto [lkeys, rkeys] = ReadEquiKeys(ja, left, right);
  KeyIndex key_of(lkeys, rkeys);
  auto key_ids = [&key_of](size_t n, int side) {
    std::vector<uint32_t> ids(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = key_of.HasNull(i, side) ? KeyIndex::kAbsent
                                       : key_of.FindOrInsert(i, side);
    }
    return ids;
  };
  std::vector<uint32_t> lid = key_ids(left.size(), 0);
  std::vector<uint32_t> rid = key_ids(right.size(), 1);
  std::optional<OverlapTest> overlaps;
  if (ja.overlap.has_value()) overlaps.emplace(*ja.overlap, left, right);
  auto residual = PairTest(left, right, ja.residual);
  for (uint32_t l = 0; l < left.size(); ++l) {
    if (lid[l] == KeyIndex::kAbsent) continue;
    for (uint32_t r = 0; r < right.size(); ++r) {
      if (rid[r] == lid[l] && (!overlaps || (*overlaps)(l, r)) &&
          residual(l, r)) {
        pairs.Add(l, r);
      }
    }
  }
  return GatherPairs(plan, left, right, pairs);
}

Relation HashJoin(const Plan& plan, const Relation& left,
                  const Relation& right) {
  // Probe the smaller input's key groups with the other input in order.
  const EquiBuild build(plan.join, left, right);
  JoinPairs pairs;
  for (uint32_t p = 0; p < build.probe_size; ++p) {
    const uint32_t k = build.Probe(p);
    if (k == KeyIndex::kAbsent) continue;
    for (uint32_t i = build.offsets[k]; i < build.offsets[k + 1]; ++i) {
      if (build.build_left) {
        pairs.Add(build.ids[i], p);
      } else {
        pairs.Add(p, build.ids[i]);
      }
    }
  }
  // Left-major, each left row's matches in right order: the nested
  // loop's emission order, so the residual's first error is its too.
  if (build.build_left) pairs = LeftMajor(pairs, left.size());
  ResidualFilter(left, right, plan.join.residual).Filter(pairs);
  return GatherPairs(plan, left, right, pairs);
}
// periodk-lint: columnar-lane-end(joins)

}  // namespace periodk
