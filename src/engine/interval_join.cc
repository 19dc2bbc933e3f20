#include "engine/interval_join.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "temporal/interval.h"

namespace periodk {

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
// row; a null condition accepts every pair.  Copies own their scratch
// row: one per worker.
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

// The overlap conjunct `left begin < right end AND right begin < left
// end` of an analyzed join, tested on pair (l, r) under SQL comparison:
// integer endpoints directly, any other (NULL, double, string) through
// their Values.  Endpoints are decoded once per row.
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

// One input row staged for the sweep with its decoded interval.
struct SweepRow {
  TimePoint begin = 0;
  TimePoint end = 0;
  uint32_t row = 0;
};

// Per-equi-key bucket.  Rows whose endpoint columns decode to a
// well-formed interval (integers, begin < end) ride the sweep; the rest
// -- NULL or string endpoints, empty-validity rows -- can still satisfy
// the raw predicate under SQL comparison semantics (an empty interval's
// `b1 < e2 AND b2 < e1` holds against any interval containing it), so
// they take the nested-loop slow lane.
struct Bucket {
  std::vector<SweepRow> fast_left;
  std::vector<SweepRow> fast_right;
  std::vector<uint32_t> slow_left;
  std::vector<uint32_t> slow_right;
};

// Reusable per-worker sweep scratch: the active sets keep arrival
// (begin-stable) order and drop expired entries lazily during the
// emission scan.  Arrival order makes the emitted pair order a pure
// function of the staged rows — removing a row that never overlaps
// anything (index pruning) cannot perturb the order of the remaining
// pairs, which is what makes the pruned join row-identical.
using ActiveEntry = std::pair<TimePoint, uint32_t>;
struct SweepScratch {
  std::vector<ActiveEntry> active_l;
  std::vector<ActiveEntry> active_r;
};

/// Plane sweep over one bucket's well-formed intervals, calling
/// emit(left row, right row) per overlapping pair: advance both inputs
/// in begin order; an arriving interval pairs with every active
/// opposite interval that has not yet ended, so each pair is emitted
/// exactly once, when its later-starting member arrives.  Sorts the
/// bucket's staged rows, so each bucket must be swept by one worker.
template <typename Emit>
void SweepBucket(Bucket& bucket, SweepScratch& scratch, const Emit& emit) {
  std::vector<SweepRow>& ls = bucket.fast_left;
  std::vector<SweepRow>& rs = bucket.fast_right;
  if (ls.empty() || rs.empty()) return;
  auto by_begin = [](const SweepRow& a, const SweepRow& b) {
    return a.begin < b.begin;
  };
  // Stable: rows sharing a begin stay in staging (= source) order, so
  // the emitted order survives the removal of non-emitting rows.
  std::stable_sort(ls.begin(), ls.end(), by_begin);
  std::stable_sort(rs.begin(), rs.end(), by_begin);
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

// periodk-lint: columnar-lane-begin(joins)
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
  const JoinAnalysis& ja = plan.join;
  // Build on the smaller input (side 0 of the key index): each key's
  // rows, ascending, in one offsets + ids array.  Probe with the other
  // input in order.
  auto [lkeys, rkeys] = ReadEquiKeys(ja, left, right);
  const bool build_left = left.size() < right.size();
  const size_t build_size = build_left ? left.size() : right.size();
  const size_t probe_size = build_left ? right.size() : left.size();
  KeyIndex key_of(build_left ? lkeys : rkeys, build_left ? rkeys : lkeys);
  std::vector<uint32_t> key(build_size, KeyIndex::kAbsent);
  std::vector<uint32_t> offsets;  // key k's rows: ids[offsets[k], offsets[k + 1])
  for (uint32_t b = 0; b < build_size; ++b) {
    if (key_of.HasNull(b, 0)) continue;  // NULL never equi-joins
    key[b] = key_of.FindOrInsert(b, 0);
    if (key[b] == offsets.size()) offsets.push_back(0);
    ++offsets[key[b]];
  }
  uint32_t total = 0;
  for (uint32_t& o : offsets) total += std::exchange(o, total);
  offsets.push_back(total);
  std::vector<uint32_t> ids(total);
  std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
  for (uint32_t b = 0; b < build_size; ++b) {
    if (key[b] != KeyIndex::kAbsent) ids[fill[key[b]]++] = b;
  }
  JoinPairs candidates;
  for (uint32_t p = 0; p < probe_size; ++p) {
    if (key_of.HasNull(p, 1)) continue;
    const uint32_t id = key_of.Find(p, 1);
    if (id == KeyIndex::kAbsent) continue;
    for (uint32_t k = offsets[id]; k < offsets[id + 1]; ++k) {
      if (build_left) {
        candidates.Add(ids[k], p);
      } else {
        candidates.Add(p, ids[k]);
      }
    }
  }
  // Left-major, each left row's matches in right order: the nested
  // loop's emission order, so the residual's first error is its too.
  if (build_left) candidates = LeftMajor(candidates, left.size());
  auto residual = PairTest(left, right, ja.residual);
  JoinPairs pairs;
  for (size_t k = 0; k < candidates.left.size(); ++k) {
    if (residual(candidates.left[k], candidates.right[k])) {
      pairs.Add(candidates.left[k], candidates.right[k]);
    }
  }
  return GatherPairs(plan, left, right, pairs);
}

Relation IntervalOverlapJoin(const Plan& plan, const Relation& left,
                             const Relation& right, const OpContext& ctx,
                             const JoinCandidates& candidates) {
  const JoinAnalysis& ja = plan.join;
  if (!ja.overlap.has_value()) {
    throw EngineError("IntervalOverlapJoin requires an overlap conjunct");
  }
  const OverlapSpec& ov = *ja.overlap;

  // Hash-partition both inputs on the equi-keys (single bucket for a
  // pure temporal join), buckets in first-appearance order of their
  // key.  NULL keys never equi-join, matching the three-valued
  // semantics of the predicate they came from.
  auto [lkeys, rkeys] = ReadEquiKeys(ja, left, right);
  KeyIndex bucket_of(lkeys, rkeys);
  std::vector<Bucket> buckets;
  bool any_slow = false;
  auto stage = [&](int side, const Relation& rel, int bcol, int ecol,
                   const std::vector<char>* keep) {
    TypedColumn bc = rel.ReadColumn(static_cast<size_t>(bcol));
    TypedColumn ec = rel.ReadColumn(static_cast<size_t>(ecol));
    for (uint32_t i = 0; i < rel.size(); ++i) {
      if (bucket_of.HasNull(i, side)) continue;
      uint32_t bid = bucket_of.FindOrInsert(i, side);
      if (bid == buckets.size()) buckets.emplace_back();
      Bucket& bucket = buckets[bid];
      const int64_t* b = bc->TryInt(i);
      const int64_t* e = ec->TryInt(i);
      if (b != nullptr && e != nullptr && *b < *e) {
        // A pruned row provably overlaps nothing on the opposite side.
        // Its bucket is still created above so the partition set — and
        // with it the output's partition order — matches the unpruned
        // run exactly.
        if (keep == nullptr || (*keep)[i] != 0) {
          (side == 0 ? bucket.fast_left : bucket.fast_right)
              .push_back(SweepRow{*b, *e, i});
        }
      } else {
        (side == 0 ? bucket.slow_left : bucket.slow_right).push_back(i);
        any_slow = true;
      }
    }
  };
  stage(0, left, ov.left_begin, ov.left_end, candidates.left);
  stage(1, right, ov.right_begin, ov.right_end, candidates.right);

  // Bucketing has established the equi-keys.  Swept pairs overlap, so
  // they are tested on the residual only; pairs with a malformed side
  // are tested as the nested loop tests them, the overlap conjunct
  // under SQL comparison and then the residual.
  std::optional<OverlapTest> overlaps;
  if (any_slow) overlaps.emplace(ov, left, right);
  const auto residual = PairTest(left, right, ja.residual);
  auto join_buckets = [&](int64_t begin, int64_t end, JoinPairs& pairs) {
    auto residual_test = residual;
    auto slow_test = [&](uint32_t l, uint32_t r) {
      return (*overlaps)(l, r) && residual_test(l, r);
    };
    SweepScratch scratch;
    for (int64_t bi = begin; bi < end; ++bi) {
      Bucket& bucket = buckets[static_cast<size_t>(bi)];
      // Slow lane first.
      for (uint32_t l : bucket.slow_left) {
        for (const SweepRow& r : bucket.fast_right) {
          if (slow_test(l, r.row)) pairs.Add(l, r.row);
        }
        for (uint32_t r : bucket.slow_right) {
          if (slow_test(l, r)) pairs.Add(l, r);
        }
      }
      for (const SweepRow& l : bucket.fast_left) {
        for (uint32_t r : bucket.slow_right) {
          if (slow_test(l.row, r)) pairs.Add(l.row, r);
        }
      }
      SweepBucket(bucket, scratch, [&](uint32_t l, uint32_t r) {
        if (residual_test(l, r)) pairs.Add(l, r);
      });
    }
  };

  // The partitions the sweep needs anyway are the parallel work units:
  // chunks of buckets fan out to the pool, each collecting its own
  // pairs, concatenated in partition order afterwards — so the result
  // row order depends only on the chunk plan, not on worker scheduling.
  // A single-bucket join (pure temporal, no equi-keys) stays sequential
  // by construction.
  auto ranges = PlanChunks(
      ctx.num_threads(static_cast<int64_t>(left.size() + right.size())),
      static_cast<int64_t>(buckets.size()),
      /*min_grain=*/1);
  std::vector<JoinPairs> chunk_pairs(ranges.size());
  FanOut(ctx, ranges, [&](size_t c, int64_t b, int64_t e) {
    join_buckets(b, e, chunk_pairs[c]);
  });
  JoinPairs& pairs = chunk_pairs.front();
  for (size_t c = 1; c < chunk_pairs.size(); ++c) {
    const JoinPairs& p = chunk_pairs[c];
    for (size_t k = 0; k < p.left.size(); ++k) pairs.Add(p.left[k], p.right[k]);
  }
  return GatherPairs(plan, left, right, pairs);
}
// periodk-lint: columnar-lane-end(joins)

}  // namespace periodk
