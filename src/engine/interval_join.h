// The join kernels.  The sweep-based interval-overlap join is the
// temporal hot path of the paper's Sec. 10 evaluation: RewriteJoin
// emits `theta' AND overlaps` predicates; once MakeJoin has recognized
// the overlap conjunct structurally (ra/join_analysis.h), this operator
// answers it with a hash-partition on the equi-keys followed by an
// endpoint plane sweep per partition -- O(n log n + output) instead of
// the O(n * m) nested loop a pure temporal join (no equi-key) otherwise
// degenerates to.  The hash join serves plain equi-joins, the nested
// loop opaque predicates and the planner's tiny overlap joins.  All
// three read typed columns (Relation::ReadColumn) and group keys with
// KeyIndex, whatever the storage layout of their inputs, and emit one
// way: they collect the (left row, right row) pairs that pass and
// gather them (Relation::Gather) into columns.  The hash join and the
// overlap join key the smaller input and look the larger one up, and
// test their residual on the candidate pairs' gathered columns when
// the typed evaluator admits it, on a two-source ScratchRow per pair
// otherwise.
#ifndef PERIODK_ENGINE_INTERVAL_JOIN_H_
#define PERIODK_ENGINE_INTERVAL_JOIN_H_

#include "engine/executor.h"
#include "engine/relation.h"
#include "ra/plan.h"

namespace periodk {

/// Executes a kJoin plan whose analysis carries an overlap conjunct
/// (plan.join.overlap must be set).  Exactly equivalent to evaluating
/// plan.predicate over the cross product: rows whose endpoint columns
/// are not well-formed intervals (non-integer values, begin >= end) are
/// routed through a per-partition nested-loop slow lane so SQL
/// three-valued comparison semantics are preserved bit-for-bit.
/// Only the keys found on both inputs make partitions, in order of
/// their first appearance on the left; the pairs are collected in
/// partition order, filtered on the residual and gathered once.
Relation IntervalOverlapJoin(const Plan& plan, const Relation& left,
                             const Relation& right);

/// Reference implementation: O(n * m) nested loop evaluating the join
/// predicate on every pair.  Kept as the correctness baseline for the
/// property tests and benchmarks, and as the executor's fallback for
/// genuinely opaque predicates.
Relation NestedLoopJoin(const Plan& plan, const Relation& left,
                        const Relation& right);

/// Equi-join on plan.join.equi_keys, built on the smaller input and
/// probed with the other, with the residual checked on the candidate
/// pairs after they are put in left-major order (a counting sort when
/// the left input was the build side).  Row-identical to
/// NestedLoopJoin: left-major, each left row's matches in right order,
/// and the same first residual error.
Relation HashJoin(const Plan& plan, const Relation& left,
                  const Relation& right);

}  // namespace periodk

#endif  // PERIODK_ENGINE_INTERVAL_JOIN_H_
