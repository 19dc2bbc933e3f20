// Physical temporal operators over PERIODENC-encoded relations
// (multiset relations whose last two columns are interval endpoints):
//
//  * multiset coalescing C (paper Def 8.2) -- both a native sweep
//    implementation and a "SQL-style" implementation built from analytic
//    window functions (the form the paper's middleware emits, Sec. 9);
//  * the split operator N_G (paper Def 8.3);
//  * split fused with aggregation and pre-aggregation (the key
//    optimization of Sec. 9 responsible for the Table 3 aggregation
//    speedups);
//  * the timeslice operator.
#ifndef PERIODK_ENGINE_TEMPORAL_OPS_H_
#define PERIODK_ENGINE_TEMPORAL_OPS_H_

#include <vector>

#include "common/status.h"
#include "engine/agg.h"
#include "engine/executor.h"
#include "engine/expr.h"
#include "engine/relation.h"
#include "ra/plan.h"
#include "temporal/interval.h"

namespace periodk {

/// Native multiset coalescing: hash-groups rows by their non-temporal
/// prefix, then sweeps interval endpoints per group counting open
/// intervals, emitting `count` duplicates per maximal constant-count
/// interval.  O(n log n) from the per-group endpoint sort; this is the
/// "inside the database kernel" implementation the paper proposes.
Relation CoalesceNative(const Relation& input);

/// SQL-style multiset coalescing via analytic window functions,
/// mirroring the rewriting the paper's middleware ships to the backend
/// (count open intervals per time point with a RANGE running sum,
/// detect changepoints with LAG, close intervals with LEAD, keep
/// maximal intervals with a filter).  Several sort passes, like the
/// 2-7 sorting steps the paper observes across DBMSs.  Both coalesce
/// implementations drop rows with an empty validity interval
/// (begin >= end, annotation 0 everywhere) through the same decoding
/// helper, so they cannot diverge on degenerate rows.
Relation CoalesceWindow(const Relation& input);

/// Dispatches on the requested implementation.
Relation CoalesceRelation(const Relation& input, CoalesceImpl impl);

/// N_G(left, right) (Def 8.3): splits every interval of `left` at all
/// endpoint time points of G-group-mates in left UNION right.  Output
/// fragments cover exactly the input intervals; any two output
/// fragments of the same group are equal or disjoint.
Relation SplitRelation(const Relation& left, const Relation& right,
                       const std::vector<int>& group_cols);

/// Split + aggregation in one operator (Sec. 9): emits one row
/// (group..., aggs..., frag_begin, frag_end) per elementary fragment of
/// each group, aggregating the rows alive over it.  Rows are first
/// gathered per (group, begin, end) cell (pre-aggregation), then a
/// per-group endpoint sweep opens and closes the cells.
/// With `gap_rows`, fragments covering the whole `domain` are emitted,
/// including empty gaps (count = 0, sum/avg/min/max = NULL): for global
/// aggregation this is the fused form of REWR's union-with-neutral-tuple
/// rule that fixes the AG bug; for grouped aggregation it yields
/// Teradata-style per-observed-group gaps (used by that baseline only --
/// snapshot semantics has no gap rows for groups).
/// `pre_aggregate = false` disables the pre-aggregation optimization
/// (for the ablation benchmark): every input row is then its own cell.
/// It changes the work, not the result.  SUM and AVG follow
/// AggState's exact rule (engine/agg.h): Int sums in 128 bits, so a
/// fragment whose sum fits int64 finalizes as that exact integer even
/// through transient overflow and aggregating endpoint-magnitude values
/// (a TimeDomain touching INT64_MIN/INT64_MAX) is defined behavior;
/// anything else is the exact total rounded once.
Relation SplitAggregateRelation(const Relation& input,
                                const std::vector<int>& group_cols,
                                const std::vector<AggExpr>& aggs,
                                bool gap_rows, const TimeDomain& domain,
                                bool pre_aggregate = true);

/// tau_T over an encoded relation: rows whose interval contains t, with
/// the two temporal columns dropped.
Relation TimesliceEncoded(const Relation& input, TimePoint t);

/// tau_T with explicit endpoint columns (the generalized kTimeslice
/// shape): rows with input[begin_col] <= t < input[end_col], those two
/// columns dropped and the rest kept in order.
Relation TimesliceEncodedAt(const Relation& input, TimePoint t,
                            int begin_col, int end_col);

/// Thrown by SplitRelation when a SplitBudgetScope is active and the
/// number of materialized fragments exceeds the budget.  The alignment
/// baseline materializes per-tuple fragments for aggregation (its split
/// is not fused), which explodes on large groups -- the benchmarks
/// report such runs as timeouts, mirroring the paper's "TO (2h)"
/// entries for PG-Nat.
class SplitBudgetExceeded : public EngineError {
 public:
  SplitBudgetExceeded() : EngineError("split fragment budget exceeded") {}
};

/// RAII guard bounding the total number of fragments SplitRelation may
/// materialize on this thread while the scope is alive.
class SplitBudgetScope {
 public:
  explicit SplitBudgetScope(int64_t max_fragments);
  ~SplitBudgetScope();
  SplitBudgetScope(const SplitBudgetScope&) = delete;
  SplitBudgetScope& operator=(const SplitBudgetScope&) = delete;

 private:
  int64_t previous_;
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_TEMPORAL_OPS_H_
