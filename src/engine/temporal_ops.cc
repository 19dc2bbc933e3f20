#include "engine/temporal_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>

#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "engine/window.h"

namespace periodk {

namespace {

[[noreturn]] void ThrowNotTime(const Value& v) {
  throw EngineError("temporal column must hold integer time points, got " +
                    v.ToString());
}

size_t NonTemporalArity(const Relation& r, const char* op) {
  if (r.schema().size() < 2) {
    throw EngineError(std::string(op) + " requires a period-encoded input");
  }
  return r.schema().size() - 2;
}

/// Decodes the trailing interval of an encoded row (for the operator
/// that works on rows: CoalesceWindow).  Returns false for an empty
/// validity interval (begin >= end: annotation 0 everywhere); throws on
/// non-integer endpoints.  DecodeInterval applies the same rule, with
/// the same error, to typed columns — so *both* coalesce implementations
/// drop the same degenerate rows and reject the same malformed ones.
bool DecodeRowInterval(const Row& row, size_t nattr, TimePoint* b,
                       TimePoint* e) {
  for (size_t c : {nattr, nattr + 1}) {
    if (row[c].type() != ValueType::kInt) ThrowNotTime(row[c]);
  }
  *b = row[nattr].AsInt();
  *e = row[nattr + 1].AsInt();
  return *b < *e;
}

/// The typed kernels' endpoint decoding: row i's interval, false when
/// it is empty, DecodeRowInterval's error on non-integer endpoints.
bool DecodeInterval(const ColumnData& bc, const ColumnData& ec, size_t i,
                    TimePoint* b, TimePoint* e) {
  const int64_t* pb = bc.TryInt(i);
  if (pb == nullptr) ThrowNotTime(bc.Get(i));
  const int64_t* pe = ec.TryInt(i);
  if (pe == nullptr) ThrowNotTime(ec.Get(i));
  *b = *pb;
  *e = *pe;
  return *b < *e;
}

/// Typed reads of columns `cols` of `input`.
std::vector<TypedColumn> ReadColumns(const Relation& input,
                                     const std::vector<int>& cols) {
  std::vector<TypedColumn> out;
  out.reserve(cols.size());
  for (int c : cols) out.push_back(input.ReadColumn(static_cast<size_t>(c)));
  return out;
}

using Intervals = std::vector<std::pair<TimePoint, TimePoint>>;

// One coalesced maximal segment [begin, end) carrying `count`
// duplicates.
struct CoalescedSegment {
  TimePoint begin = 0;
  TimePoint end = 0;
  int64_t count = 0;
};

// Endpoint sweep over one group's intervals: ±1 events, segments
// between annotation changepoints.
void SweepIntervalsToSegments(const Intervals& intervals,
                              std::vector<std::pair<TimePoint, int64_t>>& events,
                              std::vector<CoalescedSegment>& out) {
  events.clear();
  events.reserve(intervals.size() * 2);
  for (const auto& [b, e] : intervals) {
    events.emplace_back(b, 1);
    events.emplace_back(e, -1);
  }
  std::sort(events.begin(), events.end());
  int64_t count = 0;
  TimePoint seg_start = 0;
  size_t i = 0;
  while (i < events.size()) {
    TimePoint t = events[i].first;
    int64_t delta = 0;
    while (i < events.size() && events[i].first == t) {
      delta += events[i].second;
      ++i;
    }
    int64_t next = count + delta;
    if (next == count) continue;  // not an annotation changepoint
    if (count > 0) out.push_back({seg_start, t, count});
    seg_start = t;
    count = next;
  }
}

}  // namespace

// periodk-lint: columnar-lane-begin(coalesce-native)
Relation CoalesceNative(const Relation& input, const OpContext& ctx) {
  size_t nattr = NonTemporalArity(input, "Coalesce");
  // Group by the attribute prefix in first-appearance order; each group
  // keeps its intervals and one representative row for emission.
  std::vector<int> attr_cols = FirstColumns(nattr);
  std::vector<TypedColumn> attrs = ReadColumns(input, attr_cols);
  TypedColumn bc = input.ReadColumn(nattr);
  TypedColumn ec = input.ReadColumn(nattr + 1);
  KeyIndex groups(attrs);
  std::vector<Intervals> intervals;
  std::vector<uint32_t> rep;
  for (size_t i = 0; i < input.size(); ++i) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeInterval(*bc, *ec, i, &b, &e)) continue;
    uint32_t gid = groups.FindOrInsert(i);
    if (gid == intervals.size()) {
      intervals.emplace_back();
      rep.push_back(static_cast<uint32_t>(i));
    }
    intervals[gid].emplace_back(b, e);
  }
  size_t ngroups = intervals.size();

  // The per-group sweeps are independent: chunks of groups fan out to
  // the pool, each into its own segment slots.
  std::vector<std::vector<CoalescedSegment>> segments(ngroups);
  auto ranges = PlanChunks(ctx.num_threads(static_cast<int64_t>(input.size())),
                           static_cast<int64_t>(ngroups),
                           /*min_grain=*/1);
  FanOut(ctx, ranges, [&](size_t, int64_t b, int64_t e) {
    std::vector<std::pair<TimePoint, int64_t>> events;
    for (int64_t gi = b; gi < e; ++gi) {
      SweepIntervalsToSegments(intervals[static_cast<size_t>(gi)], events,
                               segments[static_cast<size_t>(gi)]);
    }
  });

  // Emission in group order: each segment repeats its group's
  // representative attributes `count` times with the new endpoints.
  std::vector<uint32_t> src;
  NewIntervals coalesced;
  for (size_t gi = 0; gi < ngroups; ++gi) {
    for (const CoalescedSegment& s : segments[gi]) {
      for (int64_t c = 0; c < s.count; ++c) {
        src.push_back(rep[gi]);
        coalesced.begin.push_back(s.begin);
        coalesced.end.push_back(s.end);
      }
    }
  }
  return Relation::Gather(input.schema(), {{input, attr_cols, src}},
                          &coalesced);
}
// periodk-lint: columnar-lane-end(coalesce-native)

Relation CoalesceWindow(const Relation& input) {
  size_t nattr = NonTemporalArity(input, "Coalesce");
  int tcol = static_cast<int>(nattr);
  int dcol = tcol + 1;

  // Step 1 (SQL: UNION ALL of two projections): each tuple becomes a
  // +1 event at its begin and a -1 event at its end.
  Schema ev_schema = input.schema().Prefix(nattr);
  ev_schema.Append(Column("t"));
  ev_schema.Append(Column("delta"));
  Relation events(std::move(ev_schema));
  events.Reserve(input.size() * 2);
  for (const Row& row : input.rows()) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeRowInterval(row, nattr, &b, &e)) continue;
    Row open(row.begin(), row.begin() + static_cast<long>(nattr));
    Row close = open;
    open.push_back(Value::Int(b));
    open.push_back(Value::Int(1));
    close.push_back(Value::Int(e));
    close.push_back(Value::Int(-1));
    events.AddRow(std::move(open));
    events.AddRow(std::move(close));
  }

  std::vector<int> partition;
  for (size_t i = 0; i < nattr; ++i) partition.push_back(static_cast<int>(i));

  // Step 2 (SQL: sum(delta) OVER (PARTITION BY attrs ORDER BY t RANGE
  // UNBOUNDED PRECEDING)): open-interval count per time point.
  WindowSpec w_count{partition, {{tcol, true}}, WindowFunc::kRunningSumRange,
                     dcol};
  Relation with_count = ApplyWindow(events, w_count, "cnt");
  int cntcol = dcol + 1;

  // Step 3 (SQL: row_number() OVER (PARTITION BY attrs, t)): keep one
  // row per distinct time point (peers carry the same count).
  std::vector<int> partition_t = partition;
  partition_t.push_back(tcol);
  WindowSpec w_rn{partition_t, {}, WindowFunc::kRowNumber, -1};
  Relation with_rn = ApplyWindow(with_count, w_rn, "rn");
  int rncol = cntcol + 1;
  Relation dedup(with_rn.schema());
  for (const Row& row : with_rn.rows()) {
    if (row[static_cast<size_t>(rncol)].AsInt() == 1) dedup.AddRow(row);
  }

  // Step 4 (SQL: lag(cnt) OVER (PARTITION BY attrs ORDER BY t)): keep
  // only annotation changepoints.
  WindowSpec w_lag{partition, {{tcol, true}}, WindowFunc::kLag, cntcol};
  Relation with_lag = ApplyWindow(dedup, w_lag, "prev_cnt");
  int lagcol = rncol + 1;
  Relation changes(with_lag.schema());
  for (const Row& row : with_lag.rows()) {
    const Value& prev = row[static_cast<size_t>(lagcol)];
    if (prev.is_null() ||
        prev.AsInt() != row[static_cast<size_t>(cntcol)].AsInt()) {
      changes.AddRow(row);
    }
  }

  // Step 5 (SQL: lead(t) OVER (PARTITION BY attrs ORDER BY t)): the end
  // of each maximal interval is the next changepoint.
  WindowSpec w_lead{partition, {{tcol, true}}, WindowFunc::kLead, tcol};
  Relation with_lead = ApplyWindow(changes, w_lead, "next_t");
  int leadcol = lagcol + 1;

  // Step 6 (SQL: final filter + join against a numbers relation to
  // restore multiplicities): emit cnt duplicates per maximal interval.
  Relation out(input.schema());
  for (const Row& row : with_lead.rows()) {
    int64_t cnt = row[static_cast<size_t>(cntcol)].AsInt();
    if (cnt <= 0) continue;
    const Value& next_t = row[static_cast<size_t>(leadcol)];
    if (next_t.is_null()) {
      throw EngineError("coalesce: open interval never closes");
    }
    for (int64_t c = 0; c < cnt; ++c) {
      Row o(row.begin(), row.begin() + static_cast<long>(nattr));
      o.push_back(row[static_cast<size_t>(tcol)]);
      o.push_back(next_t);
      out.AddRow(std::move(o));
    }
  }
  return out;
}

Relation CoalesceRelation(const Relation& input, CoalesceImpl impl,
                          const OpContext& ctx) {
  return impl == CoalesceImpl::kNative ? CoalesceNative(input, ctx)
                                       : CoalesceWindow(input);
}

namespace {
// -1 = unlimited; counts down while a SplitBudgetScope is active.
thread_local int64_t t_split_budget = -1;
}  // namespace

SplitBudgetScope::SplitBudgetScope(int64_t max_fragments)
    : previous_(t_split_budget) {
  t_split_budget = max_fragments;
}

SplitBudgetScope::~SplitBudgetScope() { t_split_budget = previous_; }

// periodk-lint: columnar-lane-begin(split-and-timeslice)
Relation SplitRelation(const Relation& left, const Relation& right,
                       const std::vector<int>& group_cols) {
  size_t nattr = NonTemporalArity(left, "Split");
  if (left.schema().size() != right.schema().size()) {
    throw EngineError("Split requires union-compatible inputs");
  }
  // Endpoint sets per G-group over left UNION right.
  const Relation* sides[2] = {&left, &right};
  std::vector<TypedColumn> keys[2];
  std::vector<TypedColumn> ends[2];
  for (int side = 0; side < 2; ++side) {
    keys[side] = ReadColumns(*sides[side], group_cols);
    ends[side] = ReadColumns(*sides[side], {static_cast<int>(nattr),
                                            static_cast<int>(nattr) + 1});
  }
  KeyIndex groups(keys[0], keys[1]);
  std::vector<std::vector<TimePoint>> endpoints;
  for (int side = 0; side < 2; ++side) {
    for (size_t i = 0; i < sides[side]->size(); ++i) {
      TimePoint b = 0;
      TimePoint e = 0;
      if (!DecodeInterval(*ends[side][0], *ends[side][1], i, &b, &e)) continue;
      uint32_t gid = groups.FindOrInsert(i, side);
      if (gid == endpoints.size()) endpoints.emplace_back();
      endpoints[gid].push_back(b);
      endpoints[gid].push_back(e);
    }
  }
  for (std::vector<TimePoint>& pts : endpoints) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }
  auto charge_budget = [](int64_t fragments) {
    if (t_split_budget < 0) return;
    t_split_budget -= fragments;
    if (t_split_budget < 0) throw SplitBudgetExceeded();
  };
  // Fragment k: the attributes of left row src[k] over the new interval.
  std::vector<uint32_t> src;
  NewIntervals fragments;
  auto emit = [&](size_t i, TimePoint from, TimePoint to) {
    src.push_back(static_cast<uint32_t>(i));
    fragments.begin.push_back(from);
    fragments.end.push_back(to);
  };
  for (size_t i = 0; i < left.size(); ++i) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeInterval(*ends[0][0], *ends[0][1], i, &b, &e)) continue;
    const std::vector<TimePoint>& pts = endpoints[groups.Find(i)];
    TimePoint start = b;
    auto lo = std::upper_bound(pts.begin(), pts.end(), b);
    auto hi = std::lower_bound(lo, pts.end(), e);
    charge_budget(hi - lo + 1);
    for (auto it = lo; it != hi; ++it) {
      emit(i, start, *it);
      start = *it;
    }
    emit(i, start, e);
  }
  return Relation::Gather(left.schema(), {{left, FirstColumns(nattr), src}},
                          &fragments);
}

namespace {

// Partial aggregate for one (group, begin, end) cell.
struct Partial {
  TimePoint begin = 0;
  TimePoint end = 0;
  int64_t star = 0;
  std::vector<AggState> states;
};

// Running sweep state for one aggregate function, opened and closed
// partial by partial.  Each function keeps only what it needs:
//   * count: the count of the open partials;
//   * sum and avg: their count, their integer sum, the exact sum of
//     their finite double sums (ExactSum), and how many of them hold
//     NaN, +inf or -inf, so no closed partial leaves a trace in a later
//     fragment and each fragment's double sum is rounded once;
//   * min and max: an ordered multiset of their extrema (min/max
//     distribute over the partial decomposition).
//
// The integer sum is maintained in 128-bit arithmetic so that summing
// endpoint-magnitude values (a TimeDomain touching INT64_MIN/INT64_MAX
// puts such values in plain columns) is never UB: opens and closes
// cancel exactly, a fragment whose true sum fits int64 finalizes as
// that exact integer, and one that does not widens to the double sum —
// the same behavior AggState has on overflow.  (The 128-bit sum itself
// cannot overflow: it would take 2^64 simultaneously open partials.)
struct RunningAgg {
  explicit RunningAgg(AggFunc f) : func(f) {}

  AggFunc func;
  int64_t count = 0;
  int64_t n_nonint = 0;
  __int128 isum = 0;
  ExactSum dsum;
  int64_t n_nan = 0;
  int64_t n_pos_inf = 0;
  int64_t n_neg_inf = 0;
  std::map<Value, int64_t> extrema;

  void Open(const AggState& s) { Apply(s, 1); }
  void Close(const AggState& s) { Apply(s, -1); }

  Value Finalize(int64_t star) {
    switch (func) {
      case AggFunc::kCountStar:
        return Value::Int(star);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (n_nonint == 0 &&
            isum >= static_cast<__int128>(
                        std::numeric_limits<int64_t>::min()) &&
            isum <= static_cast<__int128>(
                        std::numeric_limits<int64_t>::max())) {
          return Value::Int(static_cast<int64_t>(isum));
        }
        return Value::Double(DoubleSum());
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(DoubleSum() / static_cast<double>(count));
      case AggFunc::kMin:
        return extrema.empty() ? Value::Null() : extrema.begin()->first;
      case AggFunc::kMax:
        return extrema.empty() ? Value::Null() : extrema.rbegin()->first;
    }
    throw EngineError("unknown aggregate function");
  }

 private:
  void Apply(const AggState& s, int dir) {
    switch (func) {
      case AggFunc::kCountStar:
        return;
      case AggFunc::kCount:
        count += dir * s.count;
        return;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        count += dir * s.count;
        isum += dir * s.isum;
        if (!s.all_int) n_nonint += dir;
        if (std::isnan(s.dsum)) {
          n_nan += dir;
        } else if (std::isinf(s.dsum)) {
          (s.dsum > 0 ? n_pos_inf : n_neg_inf) += dir;
        } else if (dir > 0) {
          dsum.Add(s.dsum);
        } else {
          dsum.Subtract(s.dsum);
        }
        return;
      case AggFunc::kMin:
      case AggFunc::kMax:
        if (!s.extreme.has_value()) return;
        if (dir > 0) {
          ++extrema[*s.extreme];
        } else if (--extrema[*s.extreme] == 0) {
          extrema.erase(*s.extreme);
        }
        return;
    }
  }

  // The double sum of the open partials, IEEE-style: NaN when one is
  // NaN or both infinities are open, else an open infinity, else the
  // finite sums' exact total rounded once.
  double DoubleSum() {
    if (n_nan > 0 || (n_pos_inf > 0 && n_neg_inf > 0)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (n_pos_inf > 0) return std::numeric_limits<double>::infinity();
    if (n_neg_inf > 0) return -std::numeric_limits<double>::infinity();
    return dsum.Round();
  }
};

}  // namespace

Relation SplitAggregateRelation(const Relation& input,
                                const std::vector<int>& group_cols,
                                const std::vector<AggExpr>& aggs,
                                bool gap_rows, const TimeDomain& domain,
                                bool pre_aggregate, const OpContext& ctx) {
  size_t nattr = NonTemporalArity(input, "SplitAggregate");
  TypedColumn bc = input.ReadColumn(nattr);
  TypedColumn ec = input.ReadColumn(nattr + 1);
  // Aggregate arguments as typed columns.  Expressions are evaluated
  // row by row, each row's endpoints decoded first and rows with empty
  // intervals skipped -- the order the sweep decodes them -- so every
  // error surfaces at the same row.
  std::vector<ExprPtr> arg_exprs;
  std::vector<int> arg_of(aggs.size(), -1);  // index into args
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].func == AggFunc::kCountStar) continue;
    arg_of[a] = static_cast<int>(arg_exprs.size());
    arg_exprs.push_back(aggs[a].arg);
  }
  std::vector<TypedColumn> args =
      EvalColumns(input, arg_exprs, [&](size_t i) {
        TimePoint b = 0;
        TimePoint e = 0;
        return DecodeInterval(*bc, *ec, i, &b, &e);
      });
  // gap_rows with grouping emits full-domain coverage per *observed*
  // group (count 0 where the group is absent) -- Teradata-style grouped
  // gaps; without grouping it implements the paper's correct global
  // aggregation.

  // Output schema: group columns, aggregate columns, fragment interval.
  Schema schema;
  for (int c : group_cols) {
    schema.Append(input.schema().at(static_cast<size_t>(c)));
  }
  for (const AggExpr& a : aggs) schema.Append(Column(a.name));
  schema.Append(Column("a_begin"));
  schema.Append(Column("a_end"));

  // Phase 1: pre-aggregate per (group, begin, end) cell.  Without the
  // optimization every row becomes its own partial (ablation mode).
  // Groups are kept in first-appearance order, so the fragment output
  // order is a pure function of the logical input.
  std::vector<TypedColumn> keys = ReadColumns(input, group_cols);
  KeyIndex groups(keys);
  std::vector<uint32_t> group_rep;  // representative input row per group
  std::vector<std::vector<Partial>> group_partials;
  PackedKeyMap cells(/*width=*/3, /*expected=*/64);  // (group, begin, end)
  std::vector<uint32_t> cell_slot;  // cell id -> partial index in its group
  for (size_t i = 0; i < input.size(); ++i) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeInterval(*bc, *ec, i, &b, &e)) continue;
    uint32_t gid = groups.FindOrInsert(i);
    if (gid == group_partials.size()) {
      group_partials.emplace_back();
      group_rep.push_back(static_cast<uint32_t>(i));
    }
    std::vector<Partial>& partials = group_partials[gid];
    size_t slot = partials.size();
    if (pre_aggregate) {
      const uint64_t cell[3] = {gid, static_cast<uint64_t>(b),
                                static_cast<uint64_t>(e)};
      uint32_t cid = cells.FindOrInsert(cell);
      if (cid < cell_slot.size()) {
        slot = cell_slot[cid];
      } else {
        cell_slot.push_back(static_cast<uint32_t>(slot));
      }
    }
    if (slot == partials.size()) {
      Partial p;
      p.begin = b;
      p.end = e;
      p.states.reserve(aggs.size());
      for (const AggExpr& a : aggs) p.states.emplace_back(a.func);
      partials.push_back(std::move(p));
    }
    Partial& p = partials[slot];
    p.star += 1;
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (arg_of[a] >= 0) {
        p.states[a].AccumulateColumn(*args[static_cast<size_t>(arg_of[a])], i);
      }
    }
  }
  // Global aggregation over an empty input still produces the
  // full-domain gap row.  With grouping there is no such row: gaps are
  // emitted per *observed* group, and an empty input has none (a
  // synthetic empty-key group would emit rows narrower than the output
  // schema).
  if (gap_rows && group_cols.empty() && group_partials.empty()) {
    group_rep.push_back(0);  // no key column reads it
    group_partials.emplace_back();
  }

  // Phase 2: per group, sweep partial endpoints maintaining running
  // aggregate state; each elementary fragment gets the finalized values.
  // Fragment k is group rep[k]'s key, the values values[a][k] and the
  // interval [begin[k], end[k]).
  struct Fragments {
    std::vector<uint32_t> rep;
    std::vector<std::vector<Value>> values;
    NewIntervals intervals;
  };
  auto sweep_group = [&](size_t gi, Fragments& out) {
    const std::vector<Partial>& partials = group_partials[gi];
    // (time, is_close, partial index); closes and opens at equal time
    // are both applied before the next segment is emitted.
    std::vector<std::tuple<TimePoint, int, size_t>> events;
    events.reserve(partials.size() * 2);
    for (size_t i = 0; i < partials.size(); ++i) {
      events.emplace_back(partials[i].begin, 0, i);
      events.emplace_back(partials[i].end, 1, i);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                return std::get<0>(a) < std::get<0>(b);
              });
    std::vector<RunningAgg> running;
    running.reserve(aggs.size());
    for (const AggExpr& a : aggs) running.emplace_back(a.func);
    int64_t star = 0;
    TimePoint prev = domain.tmin;
    bool have_prev = gap_rows;
    auto emit = [&](TimePoint from, TimePoint to) {
      if (gap_rows) {
        // Gap rows declare the result complete over [tmin, tmax); input
        // intervals may exceed the domain, so fragments are clamped to
        // it — otherwise the output would claim validity at time points
        // the domain does not contain.
        from = std::max(from, domain.tmin);
        to = std::min(to, domain.tmax);
      }
      if (from >= to) return;
      out.rep.push_back(group_rep[gi]);
      for (size_t a = 0; a < aggs.size(); ++a) {
        out.values[a].push_back(running[a].Finalize(star));
      }
      out.intervals.begin.push_back(from);
      out.intervals.end.push_back(to);
    };
    size_t i = 0;
    while (i < events.size()) {
      TimePoint t = std::get<0>(events[i]);
      if (have_prev && (star > 0 || gap_rows)) emit(prev, t);
      while (i < events.size() && std::get<0>(events[i]) == t) {
        const Partial& p = partials[std::get<2>(events[i])];
        if (std::get<1>(events[i]) == 0) {
          star += p.star;
          for (size_t a = 0; a < aggs.size(); ++a) running[a].Open(p.states[a]);
        } else {
          star -= p.star;
          for (size_t a = 0; a < aggs.size(); ++a) {
            running[a].Close(p.states[a]);
          }
        }
        ++i;
      }
      prev = t;
      have_prev = true;
    }
    if (gap_rows && prev < domain.tmax) emit(prev, domain.tmax);
  };

  // The per-group sweeps are independent; chunks of groups fan out to
  // the pool exactly like the coalesce sweep, each into its own
  // fragments, concatenated in chunk order.
  size_t ngroups = group_partials.size();
  auto ranges = PlanChunks(ctx.num_threads(static_cast<int64_t>(input.size())),
                           static_cast<int64_t>(ngroups),
                           /*min_grain=*/1);
  std::vector<Fragments> chunks(ranges.size());
  FanOut(ctx, ranges, [&](size_t c, int64_t b, int64_t e) {
    chunks[c].values.resize(aggs.size());
    for (int64_t gi = b; gi < e; ++gi) {
      sweep_group(static_cast<size_t>(gi), chunks[c]);
    }
  });
  auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  Fragments& all = chunks.front();
  for (size_t c = 1; c < chunks.size(); ++c) {
    append(all.rep, chunks[c].rep);
    for (size_t a = 0; a < aggs.size(); ++a) {
      append(all.values[a], chunks[c].values[a]);
    }
    append(all.intervals.begin, chunks[c].intervals.begin);
    append(all.intervals.end, chunks[c].intervals.end);
  }
  // Keys gathered at each fragment's group representative, each
  // aggregate column encoded once, then the fragment endpoints.
  std::vector<ColumnData> cols;
  cols.reserve(schema.size());
  for (const TypedColumn& k : keys) {
    cols.push_back(ColumnData::Gather(*k, all.rep));
  }
  for (const std::vector<Value>& v : all.values) {
    cols.push_back(ColumnData::FromValues(v));
  }
  cols.push_back(ColumnData::FromInts(std::move(all.intervals.begin)));
  cols.push_back(ColumnData::FromInts(std::move(all.intervals.end)));
  const size_t n = all.rep.size();
  return Relation::FromColumns(std::move(schema), std::move(cols), n);
}

Relation TimesliceEncodedAt(const Relation& input, TimePoint t,
                            int begin_col, int end_col) {
  int arity = static_cast<int>(input.schema().size());
  if (arity < 2 || begin_col < 0 || end_col < 0 || begin_col >= arity ||
      end_col >= arity || begin_col == end_col) {
    throw EngineError(StrCat("TimesliceAt: bad endpoint columns (", begin_col,
                             ", ", end_col, ") for arity ", arity));
  }
  Schema schema;
  std::vector<int> keep;
  keep.reserve(static_cast<size_t>(arity) - 2);
  for (int c = 0; c < arity; ++c) {
    if (c == begin_col || c == end_col) continue;
    keep.push_back(c);
    schema.Append(input.schema().at(static_cast<size_t>(c)));
  }
  TypedColumn bc = input.ReadColumn(static_cast<size_t>(begin_col));
  TypedColumn ec = input.ReadColumn(static_cast<size_t>(end_col));
  std::vector<uint32_t> alive;
  for (size_t i = 0; i < input.size(); ++i) {
    // Pure comparisons — no endpoint arithmetic, so the whole int64
    // range (a TimeDomain touching INT64_MIN/INT64_MAX) is safe.
    TimePoint b = 0;
    TimePoint e = 0;
    DecodeInterval(*bc, *ec, i, &b, &e);
    if (b <= t && t < e) alive.push_back(static_cast<uint32_t>(i));
  }
  return Relation::Gather(std::move(schema), {{input, keep, alive}});
}

Relation TimesliceEncoded(const Relation& input, TimePoint t) {
  int nattr = static_cast<int>(NonTemporalArity(input, "Timeslice"));
  return TimesliceEncodedAt(input, t, nattr, nattr + 1);
}
// periodk-lint: columnar-lane-end(split-and-timeslice)

}  // namespace periodk
