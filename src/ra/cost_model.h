// Cardinality estimation over logical plans, fed by the per-table
// statistics of stats/table_stats.h (docs/architecture.md §11).  The
// model is deliberately small — textbook selectivities refined with the
// interval profiles the stats collector gathers for period tables — and
// every consumer treats an estimate as a *hint*: the rewriter orders
// commutative join clusters (ReorderJoins), plan build marks tiny joins
// for nested-loop execution (ApplyJoinStrategyHints), and TemporalDB
// sizes timeline-index checkpoints.  All of it sits behind
// RewriteOptions::use_cost_model; off reproduces the structural
// behavior bit-identically.
#ifndef PERIODK_RA_COST_MODEL_H_
#define PERIODK_RA_COST_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "ra/plan.h"
#include "temporal/interval.h"

namespace periodk {

class Catalog;
class TableStats;

/// Break-even threshold of the planner's hint (ApplyJoinStrategyHints):
/// an overlap join whose estimated input product is below this is
/// planned as a nested loop, whose |L|*|R| compares cost less than the
/// sweep's setup.
inline constexpr int64_t kTinyJoinProduct = 1024;

/// Cardinality estimator over one catalog snapshot.  One instance is
/// built per planning pass and discarded with it.  Estimates never
/// fail:
/// missing stats degrade to actual relation sizes (scans) and fixed
/// default selectivities.
class CostModel {
 public:
  /// `catalog` may be null (every scan then estimates a default size);
  /// `domain` bounds interval spans when a table profile is missing.
  CostModel(const Catalog* catalog, TimeDomain domain);

  /// Estimated output rows of `plan` (>= 0, finite).  Memoized per
  /// node within one top-level call, so shared DAG nodes are costed
  /// once per estimate.
  double EstimateRows(const Plan& plan) const;
  double EstimateRows(const PlanPtr& plan) const { return EstimateRows(*plan); }

  /// Estimated distinct values of output column `col` of `plan`,
  /// capped by the node's estimated rows-producing child.
  double EstimateDistinct(const Plan& plan, int col) const;

  /// Selectivity in [0, 1] of `predicate` filtering the output of
  /// `input` (conjunctions multiply, disjunctions use
  /// inclusion-exclusion, unknown shapes default to 1/3).
  double Selectivity(const ExprPtr& predicate, const Plan& input) const;

  /// Timeline-index checkpoint interval for a table with this profile:
  /// about twice the average number of alive rows, clamped to
  /// [16, 4096] and rounded to a power of two — checkpoints then cost
  /// about as much as the bounded replay they save.  Result rows are
  /// identical for any K; only build size / probe time move.
  static int64_t PickCheckpointInterval(const TableStats& stats);

 private:
  struct IntervalProfile {
    bool valid = false;
    double avg_length = 0.0;
    double min_begin = 0.0;
    double max_end = 0.0;
  };

  double EstimateRowsImpl(const Plan& plan) const;
  /// Interval profile of the node's PERIODENC payload, traced through
  /// the interval-preserving operators down to period-table scans.
  IntervalProfile Profile(const Plan& plan) const;
  double OverlapSelectivity(const Plan& left, const Plan& right) const;
  const TableStats* StatsFor(const Plan& scan) const;

  const Catalog* catalog_;
  TimeDomain domain_;
  // Keyed by node identity, valid only while those nodes are alive:
  // cleared at the start of every outermost EstimateRows call (the
  // reorder search discards candidate nodes between calls, and the
  // allocator recycles their addresses).
  mutable std::unordered_map<const Plan*, double> memo_;
  mutable int memo_depth_ = 0;
  // Stats handles consulted so far, pinned for the model's lifetime
  // (nullptr entries cache "table has no current stats").
  mutable std::unordered_map<std::string, std::shared_ptr<const TableStats>>
      stats_cache_;
};

/// Reorders maximal clusters of adjacent kJoin nodes greedily by
/// estimated intermediate cardinality.  The result is semantically
/// equal (same bag of rows, same schema): conjuncts move to the first
/// join covering their columns and a final column projection restores
/// the original output order.  Clusters whose reordering does not beat
/// the structural order by a margin keep the original nodes, so flat
/// estimates return `plan` itself (bit-identical).  Shared subplans are
/// rewritten once; multi-parent join nodes are treated as cluster
/// leaves to preserve DAG sharing.
[[nodiscard]] PlanPtr ReorderJoins(const PlanPtr& plan, const CostModel& cost);

/// Marks joins whose estimated input product is below kTinyJoinProduct
/// with JoinStrategy::kNestedLoop — a *plan-level* choice (rendered by
/// Plan::ToString) because the sweep join's output order differs from
/// the nested loop's, so the substitution must be visible, not a silent
/// execution-time swap.  Returns `plan` itself when nothing changes.
[[nodiscard]] PlanPtr ApplyJoinStrategyHints(const PlanPtr& plan,
                                             const CostModel& cost);

}  // namespace periodk

#endif  // PERIODK_RA_COST_MODEL_H_
