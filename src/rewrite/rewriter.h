// REWR (paper Fig. 4): reduces a query with snapshot semantics over
// N^T-relations to an ordinary multiset query over PERIODENC-encoded
// period relations.  The input plan is expressed over *snapshot*
// schemas (no temporal columns); the output plan is expressed over
// encoded relations whose last two columns are the interval endpoints.
//
// The rewriter implements three semantics:
//
//  * kPeriodK -- the paper's provably correct semantics: coalescing for
//    a unique encoding, split-based difference with bag semantics
//    (fixes the BD bug), aggregation with gap rows via the
//    union-with-neutral-tuple rule or the fused split+aggregate
//    operator (fixes the AG bug).
//  * kAlignment -- models the PG-Nat comparator [16, 18]: align
//    (split) then apply standard operators; *set*-semantics difference
//    (BD bug), no gap rows (AG bug), no coalescing (non-unique
//    encoding), no pre-aggregation.
//  * kIntervalPreservation -- models ATSQL [9]: like alignment for
//    RA+, difference as bag-preserving NOT EXISTS (BD bug), no gap rows
//    (AG bug), non-unique encoding.
//  * kTeradata -- models Teradata's statement modifiers [45, 2]: gap
//    rows *with* grouping but not without (the inverse of
//    snapshot-reducibility; still the AG bug), no snapshot difference
//    (N/A in the paper's Table 1), optional coalescing not applied
//    (non-unique encoding).
//
// Options toggle the Section 9 optimizations for the ablation study:
// coalesce hoisting (one final C instead of one per operator, justified
// by Lemma 6.1) and pre-aggregation inside split.
#ifndef PERIODK_REWRITE_REWRITER_H_
#define PERIODK_REWRITE_REWRITER_H_

#include <map>
#include <string>

#include "ra/plan.h"
#include "temporal/interval.h"

namespace periodk {

enum class SnapshotSemantics {
  kPeriodK,
  kAlignment,
  kIntervalPreservation,
  kTeradata,
};

const char* SnapshotSemanticsName(SnapshotSemantics semantics);

struct RewriteOptions {
  SnapshotSemantics semantics = SnapshotSemantics::kPeriodK;
  /// Apply coalescing once at the top instead of after every operator.
  bool hoist_coalesce = true;
  /// Use the fused split+aggregate operator instead of split followed by
  /// a standard aggregation.
  bool fuse_aggregation = true;
  /// Pre-aggregate per (group, begin, end) inside the fused operator.
  bool pre_aggregate = true;
  CoalesceImpl coalesce_impl = CoalesceImpl::kNative;
  /// Ignored: nothing in the library reads it; e2ebench still sets it.
  int num_threads = 1;
  /// Serve timeslices from lazily built per-table timeline indexes
  /// (engine/timeline_index.h).  An execution knob, not a rewrite one:
  /// it never changes the produced plan (and is excluded from the
  /// plan-cache key); false keeps the O(table) scan path bit for bit.
  bool use_timeline_index = true;
  /// Let the cost model (ra/cost_model.h) shape the plan: commutative
  /// join clusters are reordered by estimated cardinality before REWR
  /// and tiny overlap joins are marked for the nested loop.  Plan
  /// *shaping* — reordering changes row order — so this is part of the
  /// middleware's plan-cache key; false reproduces today's structural
  /// plans bit-identically.
  bool use_cost_model = true;
};

class CostModel;

/// The PERIODENC encoding of each table reference of a snapshot query:
/// the reference's Scan node -> a plan over the stored table yielding
/// (data columns..., a_begin, a_end).  Keyed by reference, not by table
/// name, because two references to one table may read it under
/// different PERIOD clauses.  Scans without an entry read the table
/// itself with (a_begin, a_end) trailing.
using EncodedTables = std::map<PlanPtr, PlanPtr>;

class SnapshotRewriter {
 public:
  /// `encoded_tables` gives the encoding of each table reference whose
  /// stored layout is not the default (the binder records every
  /// reference of a SQL statement).
  ///
  /// `cost_model`, when non-null and options.use_cost_model is set,
  /// drives a join-reorder pre-pass over the snapshot query (the
  /// caller keeps the model alive for the rewriter's lifetime; the
  /// middleware builds one per query over its pinned snapshot).
  SnapshotRewriter(TimeDomain domain, RewriteOptions options = {},
                   EncodedTables encoded_tables = {},
                   const CostModel* cost_model = nullptr);

  /// Rewrites a snapshot query.  Result plan evaluates to the
  /// PERIODENC encoding of the query's N^T result (for kPeriodK; the
  /// baseline semantics yield their respective buggy encodings).
  PlanPtr Rewrite(const PlanPtr& query) const;

  /// Plans SEQ VT AS OF t: the query's snapshot at t, as a relation
  /// over the query's snapshot schema.  Period-K is snapshot-reducible
  /// (Thm 6.3: tau_t(REWR(Q)(D)) = Q(tau_t(D))), so its plan is Q
  /// itself, join-reordered like Rewrite's input, with every table
  /// reference replaced by tau_t over its stored scan at the
  /// reference's own period columns: no REWR, split, split-aggregate
  /// or coalesce, and each slice is a timeline-index lookup.  Each
  /// slice carries the reference's alias-qualified snapshot schema.
  /// The baselines are not snapshot-reducible (their Table 1 bugs), so
  /// they slice their rewrite: PushDownTimeslice(tau_t(Rewrite(Q))).
  /// The caller checks that t lies in the domain.
  PlanPtr RewriteAsOf(const PlanPtr& query, TimePoint t) const;

  const TimeDomain& domain() const { return domain_; }
  const RewriteOptions& options() const { return options_; }

 private:
  PlanPtr Reordered(const PlanPtr& query) const;
  PlanPtr RewriteNode(const PlanPtr& q) const;
  PlanPtr MaybeCoalesce(PlanPtr p) const;
  PlanPtr RewriteScan(const PlanPtr& q) const;
  PlanPtr RewriteConstant(const PlanPtr& q) const;
  PlanPtr RewriteJoin(const PlanPtr& q) const;
  PlanPtr RewriteDifference(const PlanPtr& q) const;
  PlanPtr RewriteAggregate(const PlanPtr& q) const;
  PlanPtr RewriteDistinct(const PlanPtr& q) const;
  PlanPtr SliceScan(const PlanPtr& scan, TimePoint t) const;

  TimeDomain domain_;
  RewriteOptions options_;
  EncodedTables encoded_tables_;
  const CostModel* cost_model_ = nullptr;
};

/// Pushes a top-level kTimeslice toward the leaves, one legal step at a
/// time.  It plans the baselines' SEQ VT AS OF t (RewriteAsOf), whose
/// rewrites are not snapshot-reducible and so must be sliced as a
/// whole:
///
///   * tau_t(C(X))       = tau_t(X)            -- coalescing preserves
///     every snapshot (Def 8.2: C re-encodes the same N^T-relation, and
///     equivalent encodings have equal timeslices), so the coalesce is
///     dead work under a timeslice;
///   * tau_t(sigma_p(X)) = sigma_p(tau_t(X))   when p ignores the
///     endpoint columns (TimesliceCommutesWithSelect);
///   * tau_t(pi_E(X))    = pi_E'(tau_t(X))     when E passes the
///     endpoints through untouched (TimesliceCommutesWithProject); E'
///     is E without its two endpoint expressions.
///
/// Stops at the first non-commuting node.  The result is bag-equal to
/// the input plan (row order may differ when a coalesce is elided) and
/// has the same output schema.  Plans whose root is not kTimeslice are
/// returned unchanged.
PlanPtr PushDownTimeslice(const PlanPtr& plan);

}  // namespace periodk

#endif  // PERIODK_REWRITE_REWRITER_H_
