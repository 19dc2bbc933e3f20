#include "annotated/k_relation_ops.h"

#include <map>

#include "common/status.h"

namespace periodk {

namespace {

struct GroupState {
  int64_t star_count = 0;
  std::vector<AggState> states;
};

std::vector<AggState> FreshStates(const std::vector<BagAggSpec>& aggs) {
  std::vector<AggState> states;
  states.reserve(aggs.size());
  for (const BagAggSpec& a : aggs) states.emplace_back(a.func);
  return states;
}

}  // namespace

KRelation<NatSemiring> BagAggregate(const KRelation<NatSemiring>& r,
                                    const std::vector<int>& group_cols,
                                    const std::vector<BagAggSpec>& aggs) {
  std::map<Row, GroupState, RowLess> groups;
  for (const auto& [t, mult] : r.tuples()) {
    Row key;
    key.reserve(group_cols.size());
    for (int c : group_cols) key.push_back(t[static_cast<size_t>(c)]);
    GroupState& g = groups[key];
    if (g.states.empty()) g.states = FreshStates(aggs);
    g.star_count += mult;
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (aggs[i].func == AggFunc::kCountStar) continue;
      g.states[i].Accumulate(t[static_cast<size_t>(aggs[i].column)], mult);
    }
  }
  // Aggregation without grouping returns a row even for empty input.
  if (group_cols.empty() && groups.empty()) {
    GroupState& g = groups[Row{}];
    g.states = FreshStates(aggs);
  }
  KRelation<NatSemiring> out(r.semiring());
  for (const auto& [key, g] : groups) {
    Row t = key;
    for (size_t i = 0; i < aggs.size(); ++i) {
      t.push_back(g.states[i].Finalize(g.star_count));
    }
    out.Add(t, 1);
  }
  return out;
}

KRelation<NatSemiring> BagDistinct(const KRelation<NatSemiring>& r) {
  KRelation<NatSemiring> out(r.semiring());
  for (const auto& [t, mult] : r.tuples()) {
    (void)mult;
    out.Set(t, 1);
  }
  return out;
}

}  // namespace periodk
