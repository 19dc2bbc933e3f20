// The memo-free reference for DAG-aware execution.  REWR shares
// subplans, and the executor runs each shared node once per run; the
// reference instead runs a plan as its tree expansion, where a node
// reached through k parents is cloned k times, so every request of a
// node is a fresh evaluation.  The expansion goes through the normal
// executor — with no node shared, the memo never fires — so reference
// and memoized runs differ only in sharing.  Exponential in the depth of
// nested sharing: for tests and benches over small plans only.
#ifndef PERIODK_TESTS_TREE_EXPANSION_H_
#define PERIODK_TESTS_TREE_EXPANSION_H_

#include <memory>

#include "engine/executor.h"
#include "ra/plan.h"

namespace periodk {

/// The tree expansion of `plan`: a fresh copy of every node per parent.
inline PlanPtr ExpandTree(const PlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  auto copy = std::make_shared<Plan>(*plan);
  copy->left = ExpandTree(plan->left);
  copy->right = ExpandTree(plan->right);
  return copy;
}

/// Executes `plan` without subplan reuse: its tree expansion, run by
/// the ordinary executor.  `stats` counts one evaluation per tree node.
inline Relation ExecuteTreeExpanded(const PlanPtr& plan,
                                    const Catalog& catalog,
                                    ExecStats* stats = nullptr) {
  return Execute(ExpandTree(plan), catalog, ExecOptions{}, stats);
}

}  // namespace periodk

#endif  // PERIODK_TESTS_TREE_EXPANSION_H_
