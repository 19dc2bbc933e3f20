#include "engine/executor.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/status.h"
#include "common/str_util.h"
#include "engine/interval_join.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "engine/typed_eval.h"
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
// intermediate is uniquely owned.  Operators read their inputs through
// const references and build new outputs; only the plan's result leaves
// through Materialize, which moves from a uniquely-owned intermediate
// and copies only when the result is a leaf handle or still shared.
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

// Every column of `rel`, typed: the keys of the whole-row operators.
std::vector<TypedColumn> ReadAllColumns(const Relation& rel) {
  std::vector<TypedColumn> cols;
  for (size_t c = 0; c < rel.schema().size(); ++c) {
    cols.push_back(rel.ReadColumn(c));
  }
  return cols;
}

// Rows `ids` of `input`, every column, under the plan's schema.
Relation GatherRows(const Plan& plan, const Relation& input,
                    const std::vector<uint32_t>& ids) {
  return Relation::Gather(plan.schema,
                          {{input, FirstColumns(input.schema().size()), ids}});
}

// periodk-lint: columnar-lane-begin(operators)
Relation ExecSelect(const Plan& plan, const Relation& input) {
  std::optional<std::vector<uint32_t>> ids =
      SelectTyped(*plan.predicate, input);
  if (!ids.has_value()) {  // the row path: the only one that raises
    ids.emplace();
    ScratchRow scratch({plan.predicate}, input);
    for (size_t i = 0; i < input.size(); ++i) {
      if (plan.predicate->EvalBool(scratch.Load(i))) {
        ids->push_back(static_cast<uint32_t>(i));
      }
    }
  }
  return GatherRows(plan, input, *ids);
}

Relation ExecProject(const Plan& plan, const Relation& input) {
  std::vector<ColumnData> cols;
  cols.reserve(plan.exprs.size());
  for (TypedColumn& c : EvalColumns(input, plan.exprs)) {
    cols.push_back(std::move(c).Release());
  }
  return Relation::FromColumns(plan.schema, std::move(cols), input.size());
}

Relation ExecJoin(const Plan& plan, const Relation& left,
                  const Relation& right) {
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
    return IntervalOverlapJoin(plan, left, right);
  }
  if (!plan.join.equi_keys.empty()) return HashJoin(plan, left, right);
  return NestedLoopJoin(plan, left, right);
}

// EXCEPT ALL (bag difference: each right row cancels one left
// duplicate) and the anti-join (a left row with any match goes).  Whole
// rows are the keys, equal under Value::Compare across the sides.
Relation ExecDifference(const Plan& plan, const Relation& left,
                        const Relation& right) {
  std::vector<TypedColumn> lcols = ReadAllColumns(left);
  std::vector<TypedColumn> rcols = ReadAllColumns(right);
  KeyIndex row_ids(lcols, rcols);
  std::vector<int64_t> counts;
  for (size_t r = 0; r < right.size(); ++r) {
    uint32_t id = row_ids.FindOrInsert(r, 1);
    if (id == counts.size()) counts.push_back(0);
    ++counts[id];
  }
  std::vector<uint32_t> kept;
  for (size_t l = 0; l < left.size(); ++l) {
    uint32_t id = row_ids.Find(l, 0);
    if (id == KeyIndex::kAbsent || counts[id] == 0) {
      kept.push_back(static_cast<uint32_t>(l));
    } else if (plan.kind == PlanKind::kExceptAll) {
      --counts[id];
    }
  }
  return GatherRows(plan, left, kept);
}

Relation ExecDistinct(const Plan& plan, const Relation& input) {
  // A row is kept when its key is new: ids are dense in first-appearance
  // order, so a new key's id is the number of rows kept so far.
  std::vector<TypedColumn> cols = ReadAllColumns(input);
  KeyIndex row_ids(cols);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < input.size(); ++i) {
    if (row_ids.FindOrInsert(i) == kept.size()) {
      kept.push_back(static_cast<uint32_t>(i));
    }
  }
  return GatherRows(plan, input, kept);
}

Relation ExecSort(const Plan& plan, const Relation& input) {
  // The sort keys' cells, read once; then a stable permutation.
  std::vector<std::vector<Value>> keys;
  for (const SortKey& k : plan.sort_keys) {
    TypedColumn col = input.ReadColumn(static_cast<size_t>(k.column));
    keys.emplace_back(input.size());
    for (size_t i = 0; i < input.size(); ++i) keys.back()[i] = col->Get(i);
  }
  std::vector<uint32_t> order(input.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int c = keys[k][a].Compare(keys[k][b]);
      if (c != 0) return plan.sort_keys[k].ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return GatherRows(plan, input, order);
}

struct GroupState {
  int64_t star_count = 0;
  std::vector<AggState> states;
};

Relation ExecAggregate(const Plan& plan, const Relation& input) {
  const size_t num_aggs = plan.aggs.size();
  // The kernel reads typed columns: the grouping keys, then each
  // aggregate's argument (EvalColumns: errors surface at the row and in
  // the order a row-at-a-time loop reaches them).
  std::vector<ExprPtr> exprs = plan.exprs;
  std::vector<int> arg_of(num_aggs, -1);  // index into args
  for (size_t a = 0; a < num_aggs; ++a) {
    if (plan.aggs[a].func == AggFunc::kCountStar) continue;
    arg_of[a] = static_cast<int>(exprs.size() - plan.exprs.size());
    exprs.push_back(plan.aggs[a].arg);
  }
  std::vector<TypedColumn> args = EvalColumns(input, exprs);
  const auto args_begin =
      args.begin() + static_cast<ptrdiff_t>(plan.exprs.size());
  std::vector<TypedColumn> keys(std::make_move_iterator(args.begin()),
                                std::make_move_iterator(args_begin));
  args.erase(args.begin(), args_begin);
  std::vector<AggState> fresh;
  fresh.reserve(num_aggs);
  for (const AggExpr& a : plan.aggs) fresh.emplace_back(a.func);

  // Groups in *first-appearance order*: groups[g] is the g-th distinct
  // key encountered, rep[g] its first input row.
  std::vector<uint32_t> rep;
  std::vector<GroupState> groups;
  KeyIndex index(keys);
  for (size_t i = 0; i < input.size(); ++i) {
    const auto r = static_cast<uint32_t>(i);
    const uint32_t gid = index.FindOrInsert(r);
    if (gid == groups.size()) {
      rep.push_back(r);
      groups.push_back({0, fresh});
    }
    GroupState& g = groups[gid];
    g.star_count += 1;
    for (size_t a = 0; a < num_aggs; ++a) {
      if (arg_of[a] >= 0) {
        g.states[a].AccumulateColumn(*args[static_cast<size_t>(arg_of[a])], r);
      }
    }
  }
  if (keys.empty() && groups.empty()) groups.push_back({0, fresh});
  // Keys gathered at each group's representative row, then one column
  // of finalized values per aggregate.
  std::vector<ColumnData> cols;
  cols.reserve(keys.size() + num_aggs);
  for (const TypedColumn& k : keys) cols.push_back(ColumnData::Gather(*k, rep));
  std::vector<Value> cells(groups.size());
  for (size_t a = 0; a < num_aggs; ++a) {
    for (size_t g = 0; g < groups.size(); ++g) {
      cells[g] = groups[g].states[a].Finalize(groups[g].star_count);
    }
    cols.push_back(ColumnData::FromValues(cells));
  }
  return Relation::FromColumns(plan.schema, std::move(cols), groups.size());
}
// periodk-lint: columnar-lane-end(operators)

// One plan execution.  Plans are DAGs (REWR shares subplans), so the
// context pre-counts how many consumers each node has and memoizes the
// handle of every shared node: the node executes once, later consumers
// hit the memo.  The entry is dropped when its last consumer claims the
// handle, so a shared intermediate is freed as soon as its last
// consumer is done with it.
class ExecutionContext {
 public:
  ExecutionContext(const Catalog& catalog, ExecStats* stats,
                   bool use_timeline_index)
      : catalog_(catalog),
        stats_(stats),
        use_timeline_index_(use_timeline_index) {}

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
      // The last consumer drops the memo entry, so the relation is freed
      // once that consumer is done with it.
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

  RelHandle Compute(const PlanPtr& plan) {
    RelHandle h = ComputeImpl(plan);
    if (stats_ != nullptr) {
      // Actual output rows per node, for ExplainAnalyze's est-vs-actual
      // rendering.
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
        return Own(ExecSelect(*plan, *ExecuteNode(plan->left)));
      case PlanKind::kProject:
        return Own(ExecProject(*plan, *ExecuteNode(plan->left)));
      case PlanKind::kJoin: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(ExecJoin(*plan, *l, *r));
      }
      case PlanKind::kUnionAll: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(Relation::Concat(plan->schema, {l.get(), r.get()}));
      }
      case PlanKind::kExceptAll:
      case PlanKind::kAntiJoin: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(ExecDifference(*plan, *l, *r));
      }
      case PlanKind::kAggregate:
        return Own(ExecAggregate(*plan, *ExecuteNode(plan->left)));
      case PlanKind::kDistinct:
        return Own(ExecDistinct(*plan, *ExecuteNode(plan->left)));
      case PlanKind::kSort:
        return Own(ExecSort(*plan, *ExecuteNode(plan->left)));
      case PlanKind::kCoalesce:
        return Own(
            CoalesceRelation(*ExecuteNode(plan->left), plan->coalesce_impl));
      case PlanKind::kSplit: {
        RelHandle l = ExecuteNode(plan->left);
        RelHandle r = ExecuteNode(plan->right);
        return Own(SplitRelation(*l, *r, plan->split_group));
      }
      case PlanKind::kSplitAggregate:
        return Own(SplitAggregateRelation(
            *ExecuteNode(plan->left), plan->split_group, plan->aggs,
            plan->gap_rows, plan->domain, plan->pre_aggregate));
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
          // default, or the stored positions of a period table that
          // keeps its interval elsewhere.
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
  bool use_timeline_index_;
  // Requests not yet served per node; nodes starting > 1 are shared.
  std::unordered_map<const Plan*, int> consumers_left_;
  // Results of shared nodes awaiting their remaining consumers.
  std::unordered_map<const Plan*, RelHandle> memo_;
};

}  // namespace

std::vector<int> FirstColumns(size_t n) {
  std::vector<int> cols(n);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

ScratchRow::ScratchRow(const std::vector<ExprPtr>& exprs,
                       const Relation& left, const Relation* right)
    : row_(left.schema().size() +
           (right != nullptr ? right->schema().size() : 0)) {
  std::vector<int> refs;
  for (const ExprPtr& e : exprs) {
    if (e != nullptr) CollectColumns(e, &refs);
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  const size_t split = left.schema().size();
  for (int c : refs) {
    if (c < 0 || static_cast<size_t>(c) >= row_.size()) continue;
    const auto slot = static_cast<size_t>(c);
    slots_.push_back(slot);
    if (slot < split) ++left_slots_;
    cols_.push_back(slot < split ? left.ReadColumn(slot)
                                 : right->ReadColumn(slot - split));
  }
}

// periodk-lint: columnar-lane-begin(eval-columns)
std::vector<TypedColumn> EvalColumns(
    const Relation& input, const std::vector<ExprPtr>& exprs,
    const std::function<bool(size_t)>& row_needed) {
  const size_t arity = input.schema().size();
  const size_t n = input.size();
  auto passes_through = [arity](const ExprPtr& e) {
    return e->kind == ExprKind::kColumn && e->column >= 0 &&
           static_cast<size_t>(e->column) < arity;
  };
  // Rows `row_needed` accepts, recorded as it is asked.
  std::vector<uint8_t> needed;
  // `row_exprs` row by row, in order within a row, over a scratch row
  // of the cells they reference.  Only the first pass asks row_needed,
  // before each row's expressions, as a row-at-a-time loop does.
  auto by_row = [&](const std::vector<ExprPtr>& row_exprs, bool ask) {
    std::vector<std::vector<Value>> values(row_exprs.size(),
                                           std::vector<Value>(n));
    if (!ask && row_exprs.empty()) return values;
    ScratchRow scratch(row_exprs, input);
    for (size_t i = 0; i < n; ++i) {
      if (ask) needed[i] = row_needed(i) ? 1 : 0;
      if (!needed.empty() && needed[i] == 0) continue;
      if (row_exprs.empty()) continue;
      const Row& row = scratch.Load(i);
      for (size_t k = 0; k < row_exprs.size(); ++k) {
        values[k][i] = row_exprs[k]->Eval(row);
      }
    }
    return values;
  };
  // Computed expressions the type pass admits run typed (they cannot
  // raise), after the row path has raised whatever the rest raise.
  std::vector<ExprPtr> row_exprs;
  std::vector<char> typed(exprs.size(), 0);
  for (size_t k = 0; k < exprs.size(); ++k) {
    if (passes_through(exprs[k])) continue;
    typed[k] = TypedAdmits(*exprs[k], input) ? 1 : 0;
    if (typed[k] == 0) row_exprs.push_back(exprs[k]);
  }
  if (row_needed) needed.resize(n);
  std::vector<std::vector<Value>> values =
      by_row(row_exprs, static_cast<bool>(row_needed));
  std::vector<TypedColumn> out;
  out.reserve(exprs.size());
  size_t next = 0;
  for (size_t k = 0; k < exprs.size(); ++k) {
    const ExprPtr& e = exprs[k];
    if (passes_through(e)) {
      out.push_back(input.ReadColumn(static_cast<size_t>(e->column)));
    } else if (typed[k] == 0) {
      out.emplace_back(ColumnData::FromValues(values[next++]));
    } else if (std::optional<ColumnData> col =
                   EvalTyped(*e, input, row_needed ? &needed : nullptr)) {
      out.emplace_back(std::move(*col));
    } else {  // an int64 overflow abandoned the typed result
      out.emplace_back(ColumnData::FromValues(by_row({e}, false)[0]));
    }
  }
  return out;
}
// periodk-lint: columnar-lane-end(eval-columns)

std::string ExecStats::ToString() const {
  return StrCat("nodes executed: ", nodes_executed,
                ", memo hits: ", memo_hits,
                ", rows materialized: ", rows_materialized,
                ", index timeslices: ", index_timeslices,
                ", index delta events: ", index_delta_events);
}

Relation Execute(const PlanPtr& plan, const Catalog& catalog,
                 const ExecOptions& options, ExecStats* stats) {
  ExecutionContext context(catalog, stats, options.use_timeline_index);
  return Materialize(context.Run(plan));
}

}  // namespace periodk
