#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "engine/interval_join.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "ra/cost_model.h"
#include "stats/table_stats.h"

namespace periodk {

const Relation& Catalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw EngineError(StrCat("unknown table: ", name));
  }
  return *it->second;
}

std::shared_ptr<const Relation> Catalog::GetShared(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    throw EngineError(StrCat("unknown table: ", name));
  }
  return it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, rel] : tables_) names.push_back(name);
  return names;
}

std::shared_ptr<const TimelineIndex> Catalog::GetIndex(
    const std::string& name) const {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second;
}

std::shared_ptr<const TableStats> Catalog::GetStats(
    const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : it->second;
}

namespace {

// Execution passes relations between operators through shared handles
// so that leaves need no materialization: scans share the catalog's
// relation handle and constants share the plan's, while every computed
// intermediate is uniquely owned.  Operators that only read take a
// const reference; operators that want to consume their input call
// Materialize, which moves from a uniquely-owned intermediate and
// copies only when the input is a leaf handle or still shared.
using RelHandle = std::shared_ptr<const Relation>;

Relation Materialize(RelHandle h) {
  if (h.use_count() == 1) {
    // Sole owner of a computed intermediate (created via Own below, so
    // the underlying object is non-const): steal it.  A memoized handle
    // reaches use_count 1 only after its last consumer claimed it, and
    // scan/constant handles are co-owned by the catalog/plan, so the
    // steal never races an outstanding reader.
    return std::move(*std::const_pointer_cast<Relation>(h));
  }
  return *h;
}

Relation ExecSelect(const Plan& plan, RelHandle in) {
  Relation out(plan.schema);
  if (in.use_count() == 1) {
    Relation input = Materialize(std::move(in));
    for (Row& row : input.mutable_rows()) {
      if (plan.predicate->EvalBool(row)) out.AddRow(std::move(row));
    }
  } else {
    for (const Row& row : in->rows()) {
      if (plan.predicate->EvalBool(row)) out.AddRow(row);
    }
  }
  return out;
}

Relation ExecProject(const Plan& plan, const Relation& input) {
  Relation out(plan.schema);
  out.Reserve(input.size());
  for (const Row& row : input.rows()) {
    Row projected;
    projected.reserve(plan.exprs.size());
    for (const ExprPtr& e : plan.exprs) projected.push_back(e->Eval(row));
    out.AddRow(std::move(projected));
  }
  return out;
}

Relation ExecHashJoin(const Plan& plan, const Relation& left,
                      const Relation& right) {
  const std::vector<std::pair<int, int>>& keys = plan.join.equi_keys;
  const ExprPtr& residual = plan.join.residual;
  Relation out(plan.schema);
  // Build on the right input.
  std::unordered_map<Row, std::vector<const Row*>, RowHash, RowEq> build;
  build.reserve(right.size());
  for (const Row& row : right.rows()) {
    Row key;
    key.reserve(keys.size());
    bool has_null = false;
    for (const auto& [l, r] : keys) {
      const Value& v = row[static_cast<size_t>(r)];
      if (v.is_null()) has_null = true;
      key.push_back(v);
    }
    if (has_null) continue;  // NULL never equi-joins
    build[key].push_back(&row);
  }
  for (const Row& lrow : left.rows()) {
    Row key;
    key.reserve(keys.size());
    bool has_null = false;
    for (const auto& [l, r] : keys) {
      const Value& v = lrow[static_cast<size_t>(l)];
      if (v.is_null()) has_null = true;
      key.push_back(v);
    }
    if (has_null) continue;
    auto it = build.find(key);
    if (it == build.end()) continue;
    for (const Row* rrow : it->second) {
      Row combined = lrow;
      combined.insert(combined.end(), rrow->begin(), rrow->end());
      if (residual == nullptr || residual->EvalBool(combined)) {
        out.AddRow(std::move(combined));
      }
    }
  }
  return out;
}

Relation ExecJoin(const Plan& plan, const Relation& left,
                  const Relation& right, const OpContext& ctx) {
  // The cost model's plan-level hint wins over the structural dispatch
  // (it is part of the plan shape: the sweep and the nested loop emit
  // rows in different orders, so this substitution is never silent).
  if (plan.join_strategy == JoinStrategy::kNestedLoop) {
    return NestedLoopJoin(plan, left, right);
  }
  // Physical join selection from the build-time predicate analysis:
  // interval sweep when an overlap conjunct was recognized (with the
  // equi-keys as partition keys), hash join on plain equi-keys, nested
  // loop only for genuinely opaque predicates.
  if (plan.join.overlap.has_value()) {
    return IntervalOverlapJoin(plan, left, right, ctx);
  }
  if (!plan.join.equi_keys.empty()) {
    // Execution-time cost gate: for tiny inputs the hash build costs
    // more than |L|*|R| predicate evaluations.  The demotion is
    // row-identical — the hash join probes left in order and chains
    // right matches in right order, exactly the nested loop's emission
    // order — so it is safe without a plan-level marker.
    if (ctx.use_cost_model &&
        static_cast<int64_t>(left.size()) *
                static_cast<int64_t>(right.size()) <=
            kTinyJoinProduct) {
      if (ctx.stats != nullptr) ++ctx.stats->cost_nl_joins;
      return NestedLoopJoin(plan, left, right);
    }
    return ExecHashJoin(plan, left, right);
  }
  return NestedLoopJoin(plan, left, right);
}

// periodk-lint: allow(relation-by-value): left's rows are adopted
Relation ExecUnionAll(const Plan& plan, Relation left, const Relation& right) {
  Relation out(plan.schema, std::move(left.mutable_rows()));
  out.Reserve(out.size() + right.size());
  for (const Row& row : right.rows()) out.AddRow(row);
  return out;
}

// periodk-lint: allow(relation-by-value): left is consumed in place
Relation ExecExceptAll(const Plan& plan, Relation left,
                       const Relation& right) {
  // Bag difference: each right row cancels one left duplicate.
  std::unordered_map<Row, int64_t, RowHash, RowEq> counts;
  counts.reserve(right.size());
  for (const Row& row : right.rows()) ++counts[row];
  Relation out(plan.schema);
  for (Row& row : left.mutable_rows()) {
    auto it = counts.find(row);
    if (it != counts.end() && it->second > 0) {
      --it->second;
      continue;
    }
    out.AddRow(std::move(row));
  }
  return out;
}

// periodk-lint: allow(relation-by-value): left is consumed in place
Relation ExecAntiJoin(const Plan& plan, Relation left, const Relation& right) {
  std::unordered_map<Row, bool, RowHash, RowEq> present;
  present.reserve(right.size());
  for (const Row& row : right.rows()) present.try_emplace(row, true);
  Relation out(plan.schema);
  for (Row& row : left.mutable_rows()) {
    if (present.count(row) == 0) out.AddRow(std::move(row));
  }
  return out;
}

struct GroupState {
  int64_t star_count = 0;
  std::vector<AggState> states;
};

/// Hash-aggregation groups in *first-appearance order*: keys[g] and
/// groups[g] describe the g-th distinct key encountered.  Both the row
/// path and the columnar packed-key path fill this structure, so their
/// outputs are row-for-row identical regardless of which lane ran.
struct GroupTable {
  std::vector<Row> keys;
  std::vector<GroupState> groups;
};

/// Accumulates rows [begin, end) of the input into `table`.
void AccumulateGroups(const Plan& plan, const Relation& input, int64_t begin,
                      int64_t end, GroupTable& table) {
  const size_t num_aggs = plan.aggs.size();
  // Columnar inputs whose group keys and aggregate arguments are all
  // plain column references skip the row view entirely; when every key
  // column is additionally fast-keyable, grouping runs on packed uint64
  // key words (dictionary codes for strings) instead of hashing Values.
  // periodk-lint: columnar-lane-begin(group-accumulate)
  if (input.is_columnar()) {
    std::vector<int> key_cols;
    std::vector<int> agg_cols;
    key_cols.reserve(plan.exprs.size());
    agg_cols.reserve(num_aggs);
    bool fast = true;
    for (const ExprPtr& e : plan.exprs) {
      if (e->kind != ExprKind::kColumn) {
        fast = false;
        break;
      }
      key_cols.push_back(e->column);
    }
    for (size_t a = 0; fast && a < num_aggs; ++a) {
      if (plan.aggs[a].func == AggFunc::kCountStar) {
        agg_cols.push_back(-1);
        continue;
      }
      const ExprPtr& arg = plan.aggs[a].arg;
      if (arg == nullptr || arg->kind != ExprKind::kColumn) {
        fast = false;
        break;
      }
      agg_cols.push_back(arg->column);
    }
    if (fast) {
      const std::vector<ColumnData>& cols = input.columns();
      auto accumulate = [&](GroupState& g, size_t r) {
        g.star_count += 1;
        for (size_t a = 0; a < num_aggs; ++a) {
          if (agg_cols[a] < 0) continue;
          g.states[a].AccumulateColumn(cols[static_cast<size_t>(agg_cols[a])],
                                       r);
        }
      };
      std::vector<uint64_t> packed;
      if (BuildPackedKeys(cols, key_cols, input.size(), &packed)) {
        const size_t width = key_cols.size() + 1;
        PackedKeyMap map(width, static_cast<size_t>(end - begin));
        std::vector<uint32_t> rep;  // first input row of each group
        for (int64_t i = begin; i < end; ++i) {
          size_t r = static_cast<size_t>(i);
          uint32_t gid = map.FindOrInsert(&packed[r * width]);
          if (gid == table.groups.size()) {
            rep.push_back(static_cast<uint32_t>(r));
            table.groups.emplace_back();
            table.groups.back().states.resize(num_aggs);
          }
          accumulate(table.groups[gid], r);
        }
        table.keys.reserve(rep.size());
        for (uint32_t r : rep) {
          Row key;
          key.reserve(key_cols.size());
          for (int c : key_cols) {
            key.push_back(cols[static_cast<size_t>(c)].Get(r));
          }
          table.keys.push_back(std::move(key));
        }
        return;
      }
      // Mixed/NaN key columns: Value keys, still straight off the
      // columns and still in first-appearance order.
      std::unordered_map<Row, size_t, RowHash, RowEq> gid_of;
      for (int64_t i = begin; i < end; ++i) {
        size_t r = static_cast<size_t>(i);
        Row key;
        key.reserve(key_cols.size());
        for (int c : key_cols) {
          key.push_back(cols[static_cast<size_t>(c)].Get(r));
        }
        auto [it, inserted] = gid_of.try_emplace(std::move(key),
                                                 table.groups.size());
        if (inserted) {
          table.keys.push_back(it->first);
          table.groups.emplace_back();
          table.groups.back().states.resize(num_aggs);
        }
        accumulate(table.groups[it->second], r);
      }
      return;
    }
  }
  // periodk-lint: columnar-lane-end(group-accumulate)
  std::unordered_map<Row, size_t, RowHash, RowEq> gid_of;
  const std::vector<Row>& rows = input.rows();
  for (int64_t i = begin; i < end; ++i) {
    const Row& row = rows[static_cast<size_t>(i)];
    Row key;
    key.reserve(plan.exprs.size());
    for (const ExprPtr& e : plan.exprs) key.push_back(e->Eval(row));
    auto [it, inserted] = gid_of.try_emplace(std::move(key),
                                             table.groups.size());
    if (inserted) {
      table.keys.push_back(it->first);
      table.groups.emplace_back();
      table.groups.back().states.resize(num_aggs);
    }
    GroupState& g = table.groups[it->second];
    g.star_count += 1;
    for (size_t i2 = 0; i2 < num_aggs; ++i2) {
      if (plan.aggs[i2].func == AggFunc::kCountStar) continue;
      g.states[i2].Accumulate(plan.aggs[i2].arg->Eval(row));
    }
  }
}

Relation ExecAggregate(const Plan& plan, const Relation& input,
                       const OpContext& ctx) {
  // Partition-parallel hash aggregation: each chunk of the input builds
  // a private group table, merged in chunk order at the join point
  // (AggState partials merge exactly — the same machinery
  // pre-aggregation uses).  The single-chunk path is the sequential
  // operator, bit for bit.
  auto ranges = PlanChunks(ctx.num_threads(static_cast<int64_t>(input.size())),
                           static_cast<int64_t>(input.size()),
                           /*min_grain=*/4096);
  GroupTable table;
  if (ranges.size() <= 1) {
    AccumulateGroups(plan, input, 0, static_cast<int64_t>(input.size()),
                     table);
  } else {
    std::vector<GroupTable> tables(ranges.size());
    std::vector<ExecStats> chunk_stats(ranges.size());
    RunChunks(ctx.pool->get(), ranges, [&](size_t c, int64_t b, int64_t e) {
      AccumulateGroups(plan, input, b, e, tables[c]);
      chunk_stats[c].parallel_tasks = 1;
    });
    table = std::move(tables[0]);
    std::unordered_map<Row, size_t, RowHash, RowEq> gid_of;
    gid_of.reserve(table.keys.size());
    for (size_t g = 0; g < table.keys.size(); ++g) {
      gid_of.emplace(table.keys[g], g);
    }
    for (size_t c = 1; c < tables.size(); ++c) {
      GroupTable& src = tables[c];
      for (size_t g = 0; g < src.keys.size(); ++g) {
        auto [it, inserted] = gid_of.try_emplace(std::move(src.keys[g]),
                                                 table.groups.size());
        if (inserted) {
          table.keys.push_back(it->first);
          table.groups.push_back(std::move(src.groups[g]));
          continue;
        }
        GroupState& dst = table.groups[it->second];
        dst.star_count += src.groups[g].star_count;
        // Both sides sized their states on group creation, so this is
        // a straight element-wise merge (empty only when aggs is empty).
        for (size_t i = 0; i < dst.states.size(); ++i) {
          dst.states[i].Merge(src.groups[g].states[i]);
        }
      }
    }
    if (ctx.stats != nullptr) {
      for (const ExecStats& s : chunk_stats) ctx.stats->Merge(s);
    }
  }
  if (plan.exprs.empty() && table.groups.empty()) {
    table.keys.emplace_back();
    table.groups.emplace_back();
    table.groups.back().states.resize(plan.aggs.size());
  }
  Relation out(plan.schema);
  out.Reserve(table.groups.size());
  for (size_t g = 0; g < table.groups.size(); ++g) {
    Row row = std::move(table.keys[g]);
    for (size_t i = 0; i < plan.aggs.size(); ++i) {
      row.push_back(
          table.groups[g].states[i].Finalize(plan.aggs[i].func,
                                             table.groups[g].star_count));
    }
    out.AddRow(std::move(row));
  }
  return out;
}

// periodk-lint: allow(relation-by-value): input is consumed in place
Relation ExecDistinct(const Plan& plan, Relation input) {
  std::unordered_map<Row, bool, RowHash, RowEq> seen;
  seen.reserve(input.size());
  Relation out(plan.schema);
  for (Row& row : input.mutable_rows()) {
    auto [it, inserted] = seen.try_emplace(row, true);
    if (inserted) out.AddRow(std::move(row));
  }
  return out;
}

// periodk-lint: allow(relation-by-value): input is sorted in place
Relation ExecSort(const Plan& plan, Relation input) {
  std::stable_sort(
      input.mutable_rows().begin(), input.mutable_rows().end(),
      [&](const Row& a, const Row& b) {
        for (const SortKey& k : plan.sort_keys) {
          int c = a[static_cast<size_t>(k.column)].Compare(
              b[static_cast<size_t>(k.column)]);
          if (c != 0) return k.ascending ? c < 0 : c > 0;
        }
        return false;
      });
  return Relation(plan.schema, std::move(input.mutable_rows()));
}

// One plan execution.  Plans are DAGs (REWR shares subplans), so the
// context pre-counts how many consumers each node has and memoizes the
// handle of every shared node: the node executes once, later consumers
// hit the memo.  The entry is dropped when its last consumer claims the
// handle, at which point that consumer may be the sole owner again and
// Materialize's move optimization applies — copy-on-consume happens
// only while use_count proves other consumers remain.
class ExecutionContext {
 public:
  ExecutionContext(const Catalog& catalog, ExecStats* stats,
                   LazyThreadPool* pool, bool use_timeline_index,
                   bool use_cost_model)
      : catalog_(catalog),
        stats_(stats),
        pool_(pool),
        use_timeline_index_(use_timeline_index),
        use_cost_model_(use_cost_model) {}

  RelHandle Run(const PlanPtr& plan) {
    CountConsumers(plan);
    return ExecuteNode(plan);
  }

 private:
  void CountConsumers(const PlanPtr& plan) {
    if (plan == nullptr) return;
    // Children are counted only on the node's first visit: under
    // memoization a shared parent executes once, so it requests each
    // child once regardless of how many parents it has itself.
    if (++consumers_left_[plan.get()] > 1) return;
    CountConsumers(plan->left);
    CountConsumers(plan->right);
  }

  RelHandle ExecuteNode(const PlanPtr& plan) {
    int& left = consumers_left_.at(plan.get());
    auto it = memo_.find(plan.get());
    if (it != memo_.end()) {
      if (stats_ != nullptr) ++stats_->memo_hits;
      RelHandle h = it->second;
      // The last consumer drops the memo entry; its handle may then be
      // uniquely owned again, re-enabling Materialize's move.
      if (--left == 0) memo_.erase(it);
      return h;
    }
    if (left <= 1) return Compute(plan);  // sole consumer: no memo entry
    RelHandle h = Compute(plan);
    memo_.emplace(plan.get(), h);
    --left;
    return h;
  }

  /// Wraps a freshly computed intermediate in a uniquely-owned handle.
  // periodk-lint: allow(relation-by-value): ownership sink, callers move
  RelHandle Own(Relation relation) {
    if (stats_ != nullptr) {
      stats_->rows_materialized += static_cast<int64_t>(relation.size());
    }
    return std::make_shared<Relation>(std::move(relation));
  }

  OpContext Ctx() const { return OpContext{pool_, stats_, use_cost_model_}; }

  /// Derives an interval-join sweep filter for one side of an overlap
  /// join: when that side is a base-table scan with a current
  /// TimelineIndex over exactly the overlap endpoint columns, rows
  /// whose interval misses the opposite side's combined endpoint span
  /// cannot satisfy the overlap conjunct against *any* opposite row —
  /// fast lane or slow lane — and are excluded from the sweep.
  /// Returns true and fills `keep` (one byte per source row) when
  /// pruning applies; false leaves the join untouched.
  bool ComputeJoinCandidates(const Plan& join_plan, bool left_side,
                             const RelHandle& self, const Relation& other,
                             std::vector<char>& keep) {
    const PlanPtr& child = left_side ? join_plan.left : join_plan.right;
    if (child->kind != PlanKind::kScan) return false;
    std::shared_ptr<const TimelineIndex> index =
        catalog_.GetIndex(child->table);
    const OverlapSpec& ov = *join_plan.join.overlap;
    int bcol = left_side ? ov.left_begin : ov.right_begin;
    int ecol = left_side ? ov.left_end : ov.right_end;
    if (index == nullptr || !index->BuiltFor(self.get()) ||
        index->begin_col() != bcol || index->end_col() != ecol) {
      return false;
    }
    // Combined span [lo, hi] of the opposite side's numeric endpoints:
    // a row [b, e) of this side matches some opposite row [ob, oe) only
    // if b < oe and ob < e, hence only if b < hi and e > lo.  Double
    // endpoints compare numerically against integers under SQL
    // semantics, so they widen the span via floor/ceil; NULL, string
    // and bool endpoints can never satisfy the strict comparisons and
    // do not contribute.
    int obcol = left_side ? ov.right_begin : ov.left_begin;
    int oecol = left_side ? ov.right_end : ov.left_end;
    constexpr double kInt64Lo = -9223372036854775808.0;  // -2^63 exactly
    constexpr double kInt64Hi = 9223372036854775808.0;   // 2^63 exactly
    bool any = false;
    TimePoint lo = 0;
    TimePoint hi = 0;
    bool give_up = false;
    auto bound = [&](const Value& v, bool round_down,
                     TimePoint* out) -> bool {
      if (v.type() == ValueType::kInt) {
        *out = v.AsInt();
        return true;
      }
      if (v.type() != ValueType::kDouble) return false;
      double d = round_down ? std::floor(v.AsDouble())
                            : std::ceil(v.AsDouble());
      if (!(d >= kInt64Lo && d < kInt64Hi)) {
        give_up = true;  // non-finite or beyond int64: skip pruning
        return false;
      }
      *out = static_cast<TimePoint>(d);
      return true;
    };
    for (const Row& row : other.rows()) {
      TimePoint b = 0;
      TimePoint e = 0;
      bool has_b = bound(row[static_cast<size_t>(obcol)], true, &b);
      bool has_e = bound(row[static_cast<size_t>(oecol)], false, &e);
      if (give_up) return false;
      if (!has_b || !has_e) continue;
      if (!any || b < lo) lo = b;
      if (!any || e > hi) hi = e;
      any = true;
    }
    keep.assign(self->size(), 0);
    if (any) {
      // AliveInRange is defined on half-open [lo, hi); a collapsed span
      // (every opposite interval empty or reversed) still matches rows
      // covering it, and those are exactly the rows alive at lo.
      std::vector<uint32_t> ids = lo < hi ? index->AliveInRange(lo, hi)
                                          : index->AliveAt(lo);
      for (uint32_t id : ids) keep[id] = 1;
    }
    if (stats_ != nullptr) {
      ++stats_->index_join_prunes;
      stats_->index_delta_events +=
          static_cast<int64_t>(index->num_delta_events());
    }
    return true;
  }

  RelHandle Compute(const PlanPtr& plan) {
    RelHandle h = ComputeImpl(plan);
    if (stats_ != nullptr) {
      // Actual output rows per node, for ExplainAnalyze's est-vs-actual
      // rendering.  Only this top-level dispatch (calling thread)
      // writes the map, never the chunk workers.
      stats_->node_rows[plan.get()] = static_cast<int64_t>(h->size());
    }
    return h;
  }

  RelHandle ComputeImpl(const PlanPtr& plan) {
    if (stats_ != nullptr) ++stats_->nodes_executed;
    switch (plan->kind) {
      case PlanKind::kScan:
        // Shares the catalog's handle: zero-copy, and the co-ownership
        // keeps use_count above 1 so Materialize never steals a base
        // table — and keeps the relation alive even if a concurrent
        // writer publishes a replacement into its source catalog.
        return catalog_.GetShared(plan->table);
      case PlanKind::kConstant:
        return plan->constant;
      case PlanKind::kSelect:
        return Own(ExecSelect(*plan, ExecuteNode(plan->left)));
      case PlanKind::kProject:
        return Own(ExecProject(*plan, *ExecuteNode(plan->left)));
      case PlanKind::kJoin: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        if (use_timeline_index_ && plan->join.overlap.has_value() &&
            plan->join_strategy == JoinStrategy::kAuto) {
          JoinCandidates cands;
          std::vector<char> keep_l;
          std::vector<char> keep_r;
          if (ComputeJoinCandidates(*plan, /*left_side=*/true, l, *r,
                                    keep_l)) {
            cands.left = &keep_l;
          }
          if (ComputeJoinCandidates(*plan, /*left_side=*/false, r, *l,
                                    keep_r)) {
            cands.right = &keep_r;
          }
          if (cands.left != nullptr || cands.right != nullptr) {
            return Own(IntervalOverlapJoin(*plan, *l, *r, Ctx(), cands));
          }
        }
        return Own(ExecJoin(*plan, *l, *r, Ctx()));
      }
      case PlanKind::kUnionAll: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(ExecUnionAll(*plan, Materialize(std::move(l)), *r));
      }
      case PlanKind::kExceptAll: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(ExecExceptAll(*plan, Materialize(std::move(l)), *r));
      }
      case PlanKind::kAntiJoin: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(ExecAntiJoin(*plan, Materialize(std::move(l)), *r));
      }
      case PlanKind::kAggregate:
        return Own(ExecAggregate(*plan, *ExecuteNode(plan->left), Ctx()));
      case PlanKind::kDistinct:
        return Own(ExecDistinct(*plan, Materialize(ExecuteNode(plan->left))));
      case PlanKind::kSort:
        return Own(ExecSort(*plan, Materialize(ExecuteNode(plan->left))));
      case PlanKind::kCoalesce:
        return Own(CoalesceRelation(*ExecuteNode(plan->left),
                                    plan->coalesce_impl, Ctx()));
      case PlanKind::kSplit: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(SplitRelation(*l, *r, plan->split_group));
      }
      case PlanKind::kSplitAggregate:
        return Own(SplitAggregateRelation(
            *ExecuteNode(plan->left), plan->split_group, plan->aggs,
            plan->gap_rows, plan->domain, plan->pre_aggregate, Ctx()));
      case PlanKind::kTimeslice: {
        // Executing the child keeps the memo's consumer bookkeeping
        // exact and, for scans, is a zero-copy handle share anyway.
        RelHandle in = ExecuteNode(plan->left);
        auto [begin_col, end_col] = ResolveSliceColumns(*plan);
        if (use_timeline_index_ && plan->left->kind == PlanKind::kScan) {
          std::shared_ptr<const TimelineIndex> index =
              catalog_.GetIndex(plan->left->table);
          // Trust the index only if it was built from this exact
          // relation object (writers publish copy-on-write, so a stale
          // index fails the pointer check) over the same endpoint
          // columns this slice reads — trailing for the PERIODENC
          // default, or the stored positions of a non-trailing period
          // table after the generalized pushdown.
          if (index != nullptr && index->BuiltFor(in.get()) &&
              index->begin_col() == begin_col &&
              index->end_col() == end_col) {
            if (stats_ != nullptr) {
              ++stats_->index_timeslices;
              stats_->index_delta_events +=
                  static_cast<int64_t>(index->num_delta_events());
            }
            return Own(index->Timeslice(plan->slice_time));
          }
        }
        return Own(
            TimesliceEncodedAt(*in, plan->slice_time, begin_col, end_col));
      }
    }
    throw EngineError("unknown plan kind");
  }

  const Catalog& catalog_;
  ExecStats* stats_;
  LazyThreadPool* pool_;
  bool use_timeline_index_;
  bool use_cost_model_;
  // Requests not yet served per node; nodes starting > 1 are shared.
  std::unordered_map<const Plan*, int> consumers_left_;
  // Results of shared nodes awaiting their remaining consumers.
  std::unordered_map<const Plan*, RelHandle> memo_;
};

}  // namespace

int OpContext::num_threads() const {
  return pool == nullptr ? 1 : pool->num_threads();
}

int OpContext::num_threads(int64_t work) const {
  const int n = num_threads();
  if (use_cost_model && work < kParallelMinRows) {
    if (n > 1 && stats != nullptr) ++stats->cost_gated_fanouts;
    return 1;
  }
  return n;
}

Relation GatherChunks(std::vector<Relation> outs,
                      std::vector<ExecStats> chunk_stats,
                      const OpContext& ctx) {
  Relation out = std::move(outs.front());
  for (size_t c = 1; c < outs.size(); ++c) {
    out.Reserve(out.size() + outs[c].size());
    for (Row& row : outs[c].mutable_rows()) out.AddRow(std::move(row));
  }
  if (ctx.stats != nullptr) {
    for (const ExecStats& s : chunk_stats) ctx.stats->Merge(s);
  }
  return out;
}

void ExecStats::Merge(const ExecStats& other) {
  nodes_executed += other.nodes_executed;
  memo_hits += other.memo_hits;
  rows_materialized += other.rows_materialized;
  parallel_tasks += other.parallel_tasks;
  index_timeslices += other.index_timeslices;
  index_delta_events += other.index_delta_events;
  index_join_prunes += other.index_join_prunes;
  cost_nl_joins += other.cost_nl_joins;
  cost_gated_fanouts += other.cost_gated_fanouts;
  for (const auto& [node, rows] : other.node_rows) node_rows[node] = rows;
}

std::string ExecStats::ToString() const {
  return StrCat("nodes executed: ", nodes_executed,
                ", memo hits: ", memo_hits,
                ", rows materialized: ", rows_materialized,
                ", parallel tasks: ", parallel_tasks,
                ", index timeslices: ", index_timeslices,
                ", index delta events: ", index_delta_events,
                ", index join prunes: ", index_join_prunes,
                ", cost nl joins: ", cost_nl_joins,
                ", cost gated fan-outs: ", cost_gated_fanouts);
}

Relation Execute(const PlanPtr& plan, const Catalog& catalog,
                 const ExecOptions& options, ExecStats* stats) {
  // Lazy: workers spawn only if some operator actually fans out, so
  // small (single-chunk) queries cost no thread churn even at high
  // num_threads settings.
  LazyThreadPool pool(options.num_threads);
  ExecutionContext context(catalog, stats,
                           options.num_threads > 1 ? &pool : nullptr,
                           options.use_timeline_index,
                           options.use_cost_model);
  return Materialize(context.Run(plan));
}

}  // namespace periodk
