#include "engine/temporal_ops.h"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>

#include "common/status.h"
#include "common/str_util.h"
#include "engine/event_sort.h"
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
Relation CoalesceNative(const Relation& input) {
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

  // Per group, in group order, a sweep; each segment repeats its
  // group's representative attributes `count` times with the new
  // endpoints.
  std::vector<uint32_t> src;
  NewIntervals coalesced;
  std::vector<std::pair<TimePoint, int64_t>> events;
  std::vector<CoalescedSegment> segments;
  for (size_t gi = 0; gi < intervals.size(); ++gi) {
    segments.clear();
    SweepIntervalsToSegments(intervals[gi], events, segments);
    for (const CoalescedSegment& s : segments) {
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

Relation CoalesceRelation(const Relation& input, CoalesceImpl impl) {
  return impl == CoalesceImpl::kNative ? CoalesceNative(input)
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

// One argument's per-cell state in the split-aggregate, folded column
// by column in phase 1, for the count, sum and avg over it:
//   * the cell's non-null values (count);
//   * sum, avg over a column that can hold Ints (kInt, kMixed): their
//     total in 128 bits (isum), so opens and closes cancel exactly and
//     endpoint-magnitude values never overflow;
//   * sum, avg over a kMixed column: how many values are Doubles
//     (doubles; over a kDouble column every value is);
//   * sum, avg over a column that can hold Doubles: each row's Double,
//     0.0 for any other value, at the row's position in the cells' row
//     array (terms), which the sweep adds and subtracts row by row.
struct CellColumn {
  std::vector<uint32_t> count;
  std::vector<__int128> isum;
  std::vector<uint32_t> doubles;
  bool all_doubles = false;
  std::vector<double> terms;
};

// A sum or avg over the open cells.
struct RunningSum {
  int64_t count = 0;
  __int128 isum = 0;
  int64_t doubles = 0;
  ExactSum dsum;
};

// A cell opens at its begin and closes at its end.
struct CellEvent {
  TimePoint time = 0;
  uint32_t cell = 0;
  bool is_end = false;
};

// One aggregate's finalized fragments: per fragment an int64 or a
// double's bits and its type, or, for min and max, the Value itself.
struct FragmentColumn {
  std::vector<int64_t> bits;
  std::vector<ValueType> types;
  std::vector<Value> values;

  void PushNull() {
    bits.push_back(0);
    types.push_back(ValueType::kNull);
  }
  void PushInt(int64_t v) {
    bits.push_back(v);
    types.push_back(ValueType::kInt);
  }
  void PushDouble(double v) {
    bits.push_back(std::bit_cast<int64_t>(v));
    types.push_back(ValueType::kDouble);
  }

  // The column FromValues would encode from the same cells: kInt or
  // kDouble arrays, kMixed only when Int and Double fragments mix.
  ColumnData Encode() && {
    if (!values.empty()) return ColumnData::FromValues(values);
    bool ints = false;
    bool doubles = false;
    bool nulls = false;
    for (ValueType t : types) {
      ints = ints || t == ValueType::kInt;
      doubles = doubles || t == ValueType::kDouble;
      nulls = nulls || t == ValueType::kNull;
    }
    std::vector<uint8_t> null_flags;
    if (nulls) {
      null_flags.reserve(types.size());
      for (ValueType t : types) null_flags.push_back(t == ValueType::kNull);
    }
    if (!doubles) return ColumnData::FromInts(std::move(bits), null_flags);
    if (!ints) {
      std::vector<double> d(bits.size());
      for (size_t i = 0; i < bits.size(); ++i) {
        d[i] = std::bit_cast<double>(bits[i]);
      }
      return ColumnData::FromDoubles(std::move(d), null_flags);
    }
    std::vector<Value> cells(bits.size());
    for (size_t i = 0; i < bits.size(); ++i) {
      if (types[i] == ValueType::kInt) cells[i] = Value::Int(bits[i]);
      if (types[i] == ValueType::kDouble) {
        cells[i] = Value::Double(std::bit_cast<double>(bits[i]));
      }
    }
    return ColumnData::FromValues(cells);
  }
};

}  // namespace

Relation SplitAggregateRelation(const Relation& input,
                                const std::vector<int>& group_cols,
                                const std::vector<AggExpr>& aggs,
                                bool gap_rows, const TimeDomain& domain,
                                bool pre_aggregate) {
  size_t nattr = NonTemporalArity(input, "SplitAggregate");
  TypedColumn bc = input.ReadColumn(nattr);
  TypedColumn ec = input.ReadColumn(nattr + 1);
  // Aggregate arguments as typed columns, one per structurally
  // distinct expression, so sum(x) and avg(x) share x's fold and pass.
  // Expressions are evaluated row by row, each row's endpoints decoded
  // first and rows with empty intervals skipped -- the order the sweep
  // decodes them -- so every error surfaces at the same row.
  std::vector<ExprPtr> arg_exprs;
  std::vector<int> arg_of(aggs.size(), -1);  // index into args
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].func == AggFunc::kCountStar) continue;
    size_t j = 0;
    while (j < arg_exprs.size() &&
           !ExprStructurallyEqual(arg_exprs[j], aggs[a].arg)) {
      ++j;
    }
    if (j == arg_exprs.size()) arg_exprs.push_back(aggs[a].arg);
    arg_of[a] = static_cast<int>(j);
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

  // periodk-lint: typed-lane-begin(split-aggregate)
  // Phase 1: every row with a non-empty interval joins a cell, its
  // (group, begin, end); without pre-aggregation (ablation mode) each
  // row is a cell of its own.  Groups and cells are numbered in
  // first-appearance order, so the fragment output order is a pure
  // function of the logical input.
  const size_t naggs = aggs.size();
  std::vector<TypedColumn> keys = ReadColumns(input, group_cols);
  KeyIndex groups(keys);
  std::vector<uint32_t> group_rep;  // representative input row per group
  std::vector<uint32_t> cell_group;
  NewIntervals cell_span;
  PackedKeyMap cell_ids(/*width=*/3, pre_aggregate ? input.size() : 0);
  std::vector<uint32_t> rows;      // the rows in cells, in row order
  std::vector<uint32_t> row_cell;  // and their cells
  TimePoint min_time = 0;
  TimePoint max_time = 0;
  for (size_t i = 0; i < input.size(); ++i) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeInterval(*bc, *ec, i, &b, &e)) continue;
    const uint32_t gid = groups.FindOrInsert(i);
    if (gid == group_rep.size()) group_rep.push_back(static_cast<uint32_t>(i));
    auto cid = static_cast<uint32_t>(cell_group.size());
    if (pre_aggregate) {
      const uint64_t cell[3] = {gid, static_cast<uint64_t>(b),
                                static_cast<uint64_t>(e)};
      cid = cell_ids.FindOrInsert(cell);
    }
    if (cid == cell_group.size()) {
      cell_group.push_back(gid);
      cell_span.begin.push_back(b);
      cell_span.end.push_back(e);
    }
    min_time = rows.empty() ? b : std::min(min_time, b);
    max_time = rows.empty() ? e : std::max(max_time, e);
    rows.push_back(static_cast<uint32_t>(i));
    row_cell.push_back(cid);
  }
  const size_t ncells = cell_group.size();
  // Global aggregation over an empty input still produces the
  // full-domain gap row.  With grouping there is no such row: gaps are
  // emitted per *observed* group, and an empty input has none (a
  // synthetic empty-key group would emit rows narrower than the output
  // schema).
  if (gap_rows && group_cols.empty() && group_rep.empty()) {
    group_rep.push_back(0);  // no key column reads it
  }
  const size_t ngroups = group_rep.size();

  // Events, one open and one close per cell, ordered by group and then
  // time: the radix sort on time, then a stable counting sort on the
  // group.  Group g's events are events[group_events[g],
  // group_events[g + 1]).
  const auto for_each_event = [&](const auto& fn) {
    for (bool is_end : {false, true}) {
      for (size_t c = 0; c < ncells; ++c) {
        fn(CellEvent{is_end ? cell_span.end[c] : cell_span.begin[c],
                     static_cast<uint32_t>(c), is_end});
      }
    }
  };
  const std::vector<CellEvent> by_time = SortEventsByTime<CellEvent>(
      2 * ncells, min_time, max_time, for_each_event);
  std::vector<uint32_t> group_events(ngroups + 1, 0);
  for (uint32_t g : cell_group) group_events[g + 1] += 2;
  for (size_t g = 0; g < ngroups; ++g) group_events[g + 1] += group_events[g];
  std::vector<CellEvent> events(by_time.size());
  {
    std::vector<uint32_t> fill(group_events.begin(), group_events.end() - 1);
    for (const CellEvent& ev : by_time) {
      events[fill[cell_group[ev.cell]]++] = ev;
    }
  }
  // Cells renumbered in the order the sweep opens them, so each pass
  // over the events reads the per-cell arrays nearly front to back.
  std::vector<uint32_t> rank(ncells);
  {
    uint32_t next = 0;
    for (const CellEvent& ev : events) {
      if (!ev.is_end) rank[ev.cell] = next++;
    }
  }
  for (CellEvent& ev : events) ev.cell = rank[ev.cell];
  // Cell c's rows, in row order: rows[offsets[c], offsets[c + 1]) after
  // a counting sort on the cell.  Its count(*) is their number.
  std::vector<uint32_t> offsets(ncells + 1, 0);
  for (uint32_t& c : row_cell) {
    c = rank[c];
    ++offsets[c + 1];
  }
  for (size_t c = 0; c < ncells; ++c) offsets[c + 1] += offsets[c];
  {
    std::vector<uint32_t> fill(offsets.begin(), offsets.end() - 1);
    std::vector<uint32_t> by_cell(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      by_cell[fill[row_cell[k]]++] = rows[k];
    }
    rows = std::move(by_cell);
  }
  // Each argument folded over each cell's rows (CellColumn), sums only
  // where a sum or avg reads it; min and max keep each cell's extreme
  // Value, NULL for none.
  std::vector<char> counted(args.size(), 0);
  std::vector<char> summed(args.size(), 0);
  for (size_t a = 0; a < naggs; ++a) {
    const AggFunc func = aggs[a].func;
    if (func == AggFunc::kCount || func == AggFunc::kSum ||
        func == AggFunc::kAvg) {
      counted[static_cast<size_t>(arg_of[a])] = 1;
    }
    if (func == AggFunc::kSum || func == AggFunc::kAvg) {
      summed[static_cast<size_t>(arg_of[a])] = 1;
    }
  }
  std::vector<CellColumn> cell_cols(args.size());
  for (size_t j = 0; j < args.size(); ++j) {
    if (counted[j] == 0) continue;
    const ColumnData& col = *args[j];
    const ColumnTag tag = col.tag();
    const bool sums = summed[j] != 0;
    CellColumn& cc = cell_cols[j];
    cc.count.assign(ncells, 0);
    if (sums && (tag == ColumnTag::kInt || tag == ColumnTag::kMixed)) {
      cc.isum.assign(ncells, 0);
    }
    if (sums && tag == ColumnTag::kMixed) cc.doubles.assign(ncells, 0);
    cc.all_doubles = sums && tag == ColumnTag::kDouble;
    if (sums && (tag == ColumnTag::kDouble || tag == ColumnTag::kMixed)) {
      cc.terms.assign(rows.size(), 0.0);
    }
    for (size_t c = 0; c < ncells; ++c) {
      for (uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
        const uint32_t r = rows[k];
        if (col.IsNull(r)) continue;
        ++cc.count[c];
        if (!sums) continue;
        switch (tag) {
          case ColumnTag::kInt:
            cc.isum[c] += col.ints()[r];
            break;
          case ColumnTag::kDouble:
            cc.terms[k] = col.doubles()[r];
            break;
          case ColumnTag::kMixed:
            if (const int64_t* i = col.mixed()[r].TryInt()) {
              cc.isum[c] += *i;
            } else if (const double* d = col.mixed()[r].TryDouble()) {
              ++cc.doubles[c];
              cc.terms[k] = *d;
            }
            break;
          case ColumnTag::kBool:
          case ColumnTag::kString:
            break;  // counted, but a non-numeric value adds nothing
        }
      }
    }
  }
  std::vector<std::vector<Value>> extremes(naggs);
  for (size_t a = 0; a < naggs; ++a) {
    const AggFunc func = aggs[a].func;
    if (func != AggFunc::kMin && func != AggFunc::kMax) continue;
    // min and max order arbitrary Values (CompareExtremes), as hash
    // aggregation does.
    const ColumnData& col = *args[static_cast<size_t>(arg_of[a])];
    extremes[a].assign(ncells, Value::Null());
    for (size_t c = 0; c < ncells; ++c) {
      Value& extreme = extremes[a][c];
      for (uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
        if (col.IsNull(rows[k])) continue;
        // periodk-lint: allow(row-eval-in-typed-lane): min and max keep Values
        Value v = col.Get(rows[k]);
        const int order = extreme.is_null() ? 0 : CompareExtremes(v, extreme);
        if (extreme.is_null() ||
            (func == AggFunc::kMin ? order < 0 : order > 0)) {
          extreme = std::move(v);
        }
      }
    }
  }

  // Phase 2: per group, sweep the cells' events.  A first pass finds
  // the group's elementary fragments from its count(*) alone; then each
  // argument of a count, sum or avg, and each min and max, runs its own
  // pass over the events, moving counts and Int totals once per cell
  // and each open row's Double through an ExactSum, and finalizes each
  // fragment straight into its columns.
  // Fragment k is group rep[k]'s key, the values cols[a][k] and the
  // interval [begin[k], end[k]).
  struct Fragments {
    std::vector<uint32_t> rep;
    std::vector<FragmentColumn> cols;
    NewIntervals intervals;
    // The current group's fragments: fragment k is finalized once the
    // events before at[k] are applied, over stars[k] rows.
    std::vector<uint32_t> at;
    std::vector<int64_t> stars;
  };
  Fragments out;
  out.cols.resize(naggs);
  for (size_t g = 0; g < ngroups; ++g) {
    const uint32_t first = group_events[g];
    const uint32_t last = group_events[g + 1];
    out.at.clear();
    out.stars.clear();
    int64_t star = 0;
    auto fragment = [&](TimePoint from, TimePoint to, uint32_t i) {
      if (gap_rows) {
        // Gap rows declare the result complete over [tmin, tmax); input
        // intervals may exceed the domain, so fragments are clamped to
        // it — otherwise the output would claim validity at time points
        // the domain does not contain.
        from = std::max(from, domain.tmin);
        to = std::min(to, domain.tmax);
      }
      if (from >= to) return;
      out.at.push_back(i);
      out.stars.push_back(star);
      out.rep.push_back(group_rep[g]);
      out.intervals.begin.push_back(from);
      out.intervals.end.push_back(to);
    };
    // Closes and opens at equal time are all applied before the next
    // fragment is emitted.
    TimePoint prev = domain.tmin;
    bool have_prev = gap_rows;
    for (uint32_t i = first; i < last;) {
      const TimePoint t = events[i].time;
      if (have_prev && (star > 0 || gap_rows)) fragment(prev, t, i);
      for (; i < last && events[i].time == t; ++i) {
        const uint32_t c = events[i].cell;
        const int64_t size = offsets[c + 1] - offsets[c];
        star += events[i].is_end ? -size : size;
      }
      prev = t;
      have_prev = true;
    }
    if (gap_rows && prev < domain.tmax) fragment(prev, domain.tmax, last);

    // One pass: apply(cell, +1 / -1) opens or closes a cell,
    // finalize() appends the open cells' values.
    auto pass = [&](const auto& apply, const auto& finalize) {
      size_t k = 0;
      for (uint32_t i = first; i < last; ++i) {
        for (; k < out.at.size() && out.at[k] == i; ++k) finalize();
        apply(events[i].cell, events[i].is_end ? -1 : 1);
      }
      for (; k < out.at.size(); ++k) finalize();
    };
    for (size_t a = 0; a < naggs; ++a) {
      if (aggs[a].func != AggFunc::kCountStar) continue;
      for (int64_t s : out.stars) out.cols[a].PushInt(s);
    }
    // count, sum and avg: one pass per argument, finalizing every one
    // of them that reads it, the exact total rounded once.
    for (size_t j = 0; j < args.size(); ++j) {
      if (counted[j] == 0) continue;
      const CellColumn& cc = cell_cols[j];
      RunningSum run;
      auto apply = [&](uint32_t c, int dir) {
        run.count += dir * int64_t{cc.count[c]};
        if (!cc.isum.empty()) run.isum += dir * cc.isum[c];
        if (!cc.doubles.empty()) run.doubles += dir * int64_t{cc.doubles[c]};
        const uint32_t doubles =
            cc.all_doubles ? cc.count[c]
                           : cc.doubles.empty() ? 0 : cc.doubles[c];
        if (doubles == 0) return;
        for (uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
          if (dir > 0) {
            run.dsum.Add(cc.terms[k]);
          } else {
            run.dsum.Subtract(cc.terms[k]);
          }
        }
      };
      auto finalize = [&] {
        const int64_t doubles = cc.all_doubles ? run.count : run.doubles;
        std::optional<double> total;
        for (size_t a = 0; a < naggs; ++a) {
          const AggFunc func = aggs[a].func;
          if (arg_of[a] != static_cast<int>(j) || func == AggFunc::kMin ||
              func == AggFunc::kMax) {
            continue;
          }
          FragmentColumn& col = out.cols[a];
          if (func == AggFunc::kCount) {
            col.PushInt(run.count);
          } else if (run.count == 0) {
            col.PushNull();
          } else if (func == AggFunc::kSum &&
                     SumIsInt(doubles == 0, run.isum)) {
            col.PushInt(static_cast<int64_t>(run.isum));
          } else {
            if (!total.has_value()) total = run.dsum.Round(run.isum);
            col.PushDouble(func == AggFunc::kSum
                               ? *total
                               : *total / static_cast<double>(run.count));
          }
        }
      };
      pass(apply, finalize);
    }
    for (size_t a = 0; a < naggs; ++a) {
      const AggFunc func = aggs[a].func;
      if (func != AggFunc::kMin && func != AggFunc::kMax) continue;
      // The open cells' extremes.
      std::map<Value, int64_t, ExtremeLess> extrema;
      pass(
          [&](uint32_t c, int dir) {
            const Value& v = extremes[a][c];
            if (v.is_null()) return;
            if (dir > 0) {
              ++extrema[v];
            } else if (--extrema[v] == 0) {
              extrema.erase(v);
            }
          },
          [&] {
            out.cols[a].values.push_back(
                extrema.empty()              ? Value::Null()
                : func == AggFunc::kMin ? extrema.begin()->first
                                        : extrema.rbegin()->first);
          });
    }
  }

  // Keys gathered at each fragment's group representative, each
  // aggregate column encoded once, then the fragment endpoints.
  std::vector<ColumnData> cols;
  cols.reserve(schema.size());
  for (const TypedColumn& k : keys) {
    cols.push_back(ColumnData::Gather(*k, out.rep));
  }
  for (FragmentColumn& col : out.cols) cols.push_back(std::move(col).Encode());
  cols.push_back(ColumnData::FromInts(std::move(out.intervals.begin)));
  cols.push_back(ColumnData::FromInts(std::move(out.intervals.end)));
  // periodk-lint: typed-lane-end(split-aggregate)
  const size_t n = out.rep.size();
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
