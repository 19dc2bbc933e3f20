#include "ra/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "stats/table_stats.h"

namespace periodk {

namespace {

constexpr double kDefaultSelectivity = 1.0 / 3.0;
constexpr double kMinSelectivity = 1e-4;
/// Scan estimate when neither the catalog nor stats know the table.
constexpr double kDefaultScanRows = 1000.0;
/// Distinct estimate when nothing better is known: one value per ten
/// rows.
constexpr double kDefaultDistinctShare = 0.1;

double ClampSel(double s) { return std::clamp(s, kMinSelectivity, 1.0); }

bool IsLiteralTrue(const ExprPtr& e) {
  if (e == nullptr) return true;
  const bool* b =
      e->kind == ExprKind::kLiteral ? e->literal.TryBool() : nullptr;
  return b != nullptr && *b;
}

/// A comparison between one column of `input` and a literal, normalized
/// so the column is on the left.
struct ColumnLiteral {
  int column = -1;
  Value literal;
  CompareOp op = CompareOp::kEq;
};

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

std::optional<ColumnLiteral> MatchColumnLiteral(const Expr& e) {
  if (e.kind != ExprKind::kCompare || e.children.size() != 2) {
    return std::nullopt;
  }
  const ExprPtr& l = e.children[0];
  const ExprPtr& r = e.children[1];
  if (l->kind == ExprKind::kColumn && r->kind == ExprKind::kLiteral) {
    return ColumnLiteral{l->column, r->literal, e.cmp};
  }
  if (r->kind == ExprKind::kColumn && l->kind == ExprKind::kLiteral) {
    return ColumnLiteral{r->column, l->literal, FlipCompare(e.cmp)};
  }
  return std::nullopt;
}

/// Observed integer range of output column `col`, traced through the
/// column-preserving operators down to scans with stats.
std::optional<std::pair<int64_t, int64_t>> RangeOf(
    const CostModel& model, const Catalog* catalog, const Plan& plan,
    int col);

}  // namespace

CostModel::CostModel(const Catalog* catalog, TimeDomain domain)
    : catalog_(catalog), domain_(domain) {}

const TableStats* CostModel::StatsFor(const Plan& scan) const {
  if (catalog_ == nullptr || !catalog_->Has(scan.table)) return nullptr;
  auto it = stats_cache_.find(scan.table);
  if (it != stats_cache_.end()) return it->second.get();
  std::shared_ptr<const TableStats> stats = catalog_->GetStats(scan.table);
  if (stats != nullptr &&
      !stats->BuiltFor(catalog_->GetShared(scan.table).get())) {
    stats = nullptr;  // stale slot: trust nothing it says
  }
  const TableStats* raw = stats.get();
  stats_cache_.emplace(scan.table, std::move(stats));
  return raw;
}

double CostModel::EstimateRows(const Plan& plan) const {
  // The memo is scoped to the outermost call: entries are keyed by node
  // address, and the reorder search frees candidate nodes between
  // calls, so a longer-lived cache would serve stale values whenever
  // the allocator recycles one of those addresses.  Within one call
  // every visited node is reachable from `plan` and therefore alive.
  if (memo_depth_ == 0) memo_.clear();
  ++memo_depth_;
  auto it = memo_.find(&plan);
  if (it != memo_.end()) {
    --memo_depth_;
    return it->second;
  }
  double rows = EstimateRowsImpl(plan);
  if (!std::isfinite(rows)) rows = 1e18;  // overflowed products stay huge
  if (rows < 0.0) rows = 0.0;
  memo_.emplace(&plan, rows);
  --memo_depth_;
  return rows;
}

double CostModel::EstimateRowsImpl(const Plan& plan) const {
  switch (plan.kind) {
    case PlanKind::kScan: {
      if (catalog_ != nullptr && catalog_->Has(plan.table)) {
        return static_cast<double>(catalog_->Get(plan.table).size());
      }
      return kDefaultScanRows;
    }
    case PlanKind::kConstant:
      return plan.constant == nullptr
                 ? 0.0
                 : static_cast<double>(plan.constant->size());
    case PlanKind::kSelect:
      return EstimateRows(*plan.left) * Selectivity(plan.predicate, *plan.left);
    case PlanKind::kProject:
    case PlanKind::kSort:
      return EstimateRows(*plan.left);
    case PlanKind::kJoin: {
      const double l = EstimateRows(*plan.left);
      const double r = EstimateRows(*plan.right);
      double sel = 1.0;
      for (const auto& [lc, rc] : plan.join.equi_keys) {
        sel /= std::max({1.0, EstimateDistinct(*plan.left, lc),
                         EstimateDistinct(*plan.right, rc)});
      }
      if (plan.join.overlap.has_value()) {
        sel *= OverlapSelectivity(*plan.left, *plan.right);
      }
      if (plan.join.residual != nullptr) {
        sel *= Selectivity(plan.join.residual, plan);
      }
      if (plan.join.equi_keys.empty() && !plan.join.overlap.has_value() &&
          plan.join.residual == nullptr && !IsLiteralTrue(plan.predicate)) {
        sel *= kDefaultSelectivity;
      }
      return l * r * sel;
    }
    case PlanKind::kUnionAll:
      return EstimateRows(*plan.left) + EstimateRows(*plan.right);
    case PlanKind::kExceptAll: {
      const double l = EstimateRows(*plan.left);
      return std::max(l - EstimateRows(*plan.right), l * 0.1);
    }
    case PlanKind::kAntiJoin:
      return EstimateRows(*plan.left) * 0.5;
    case PlanKind::kAggregate: {
      if (plan.exprs.empty()) return 1.0;  // global aggregate
      const double input = EstimateRows(*plan.left);
      double groups = 1.0;
      for (const ExprPtr& g : plan.exprs) {
        groups *= g->kind == ExprKind::kColumn
                      ? EstimateDistinct(*plan.left, g->column)
                      : std::max(1.0, input * kDefaultDistinctShare);
        if (groups > input) break;
      }
      const double lo = input > 0.0 ? std::min(1.0, input) : 0.0;
      return std::clamp(groups, lo, std::max(lo, input));
    }
    case PlanKind::kDistinct: {
      const double input = EstimateRows(*plan.left);
      double combos = 1.0;
      for (size_t c = 0; c < plan.left->schema.size(); ++c) {
        combos *= EstimateDistinct(*plan.left, static_cast<int>(c));
        if (combos > input) break;
      }
      const double lo = input > 0.0 ? std::min(1.0, input) : 0.0;
      return std::clamp(combos, lo, std::max(lo, input));
    }
    case PlanKind::kCoalesce:
      // Merging adjacent/overlapping group-mates shrinks the output.
      return EstimateRows(*plan.left) * 0.6;
    case PlanKind::kSplit:
      // Each interval is cut at the endpoints of overlapping
      // group-mates: about one extra segment per row on average.
      return EstimateRows(*plan.left) * 2.0;
    case PlanKind::kSplitAggregate: {
      const double input = EstimateRows(*plan.left);
      return std::max(input * 1.5, plan.gap_rows ? 1.0 : 0.0);
    }
    case PlanKind::kTimeslice: {
      const double input = EstimateRows(*plan.left);
      const IntervalProfile prof = Profile(*plan.left);
      const double span = prof.max_end - prof.min_begin;
      if (prof.valid && span > 0.0) {
        return input * std::clamp(prof.avg_length / span, kMinSelectivity, 1.0);
      }
      return input * 0.1;
    }
  }
  return kDefaultScanRows;
}

double CostModel::EstimateDistinct(const Plan& plan, int col) const {
  if (col < 0 || static_cast<size_t>(col) >= plan.schema.size()) return 1.0;
  switch (plan.kind) {
    case PlanKind::kScan: {
      const TableStats* stats = StatsFor(plan);
      if (stats != nullptr) {
        const int idx = stats->FindColumn(plan.schema.at(
            static_cast<size_t>(col)).name);
        if (idx >= 0) {
          return std::max(
              1.0, static_cast<double>(
                       stats->column(static_cast<size_t>(idx)).distinct));
        }
      }
      break;
    }
    case PlanKind::kProject: {
      const ExprPtr& e = plan.exprs[static_cast<size_t>(col)];
      if (e->kind == ExprKind::kColumn) {
        return EstimateDistinct(*plan.left, e->column);
      }
      break;
    }
    case PlanKind::kSelect:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kCoalesce:
      return EstimateDistinct(*plan.left, col);
    case PlanKind::kSplit:
      // Splitting changes endpoints, not payload columns.
      if (static_cast<size_t>(col) + 2 < plan.schema.size()) {
        return EstimateDistinct(*plan.left, col);
      }
      break;
    case PlanKind::kTimeslice: {
      // Output keeps the child's columns minus the two slice columns.
      const auto [b, e] = ResolveSliceColumns(plan);
      int child_col = 0;
      int remaining = col;
      for (;; ++child_col) {
        if (child_col == b || child_col == e) continue;
        if (remaining == 0) break;
        --remaining;
      }
      return EstimateDistinct(*plan.left, child_col);
    }
    case PlanKind::kJoin: {
      const int nl = static_cast<int>(plan.left->schema.size());
      return col < nl ? EstimateDistinct(*plan.left, col)
                      : EstimateDistinct(*plan.right, col - nl);
    }
    case PlanKind::kUnionAll:
      return EstimateDistinct(*plan.left, col) +
             EstimateDistinct(*plan.right, col);
    case PlanKind::kAggregate: {
      if (static_cast<size_t>(col) < plan.exprs.size()) {
        const ExprPtr& g = plan.exprs[static_cast<size_t>(col)];
        if (g->kind == ExprKind::kColumn) {
          return EstimateDistinct(*plan.left, g->column);
        }
      }
      break;
    }
    case PlanKind::kExceptAll:
    case PlanKind::kAntiJoin:
      return EstimateDistinct(*plan.left, col);
    default:
      break;
  }
  return std::max(1.0, EstimateRows(plan) * kDefaultDistinctShare);
}

double CostModel::Selectivity(const ExprPtr& predicate,
                              const Plan& input) const {
  if (predicate == nullptr) return 1.0;
  const Expr& e = *predicate;
  switch (e.kind) {
    case ExprKind::kLiteral: {
      const bool* b = e.literal.TryBool();
      return b != nullptr && *b ? 1.0 : 0.0;
    }
    case ExprKind::kAnd:
      return Selectivity(e.children[0], input) *
             Selectivity(e.children[1], input);
    case ExprKind::kOr: {
      const double a = Selectivity(e.children[0], input);
      const double b = Selectivity(e.children[1], input);
      return std::clamp(a + b - a * b, 0.0, 1.0);
    }
    case ExprKind::kNot:
      return std::clamp(1.0 - Selectivity(e.children[0], input), 0.0, 1.0);
    case ExprKind::kCompare: {
      const ExprPtr& l = e.children[0];
      const ExprPtr& r = e.children[1];
      if ((e.cmp == CompareOp::kEq || e.cmp == CompareOp::kNe) &&
          l->kind == ExprKind::kColumn && r->kind == ExprKind::kColumn) {
        const double d = std::max({1.0, EstimateDistinct(input, l->column),
                                   EstimateDistinct(input, r->column)});
        return e.cmp == CompareOp::kEq ? ClampSel(1.0 / d)
                                       : std::clamp(1.0 - 1.0 / d, 0.0, 1.0);
      }
      const std::optional<ColumnLiteral> cl = MatchColumnLiteral(e);
      if (cl.has_value()) {
        if (cl->op == CompareOp::kEq || cl->op == CompareOp::kNe) {
          const double d =
              std::max(1.0, EstimateDistinct(input, cl->column));
          return cl->op == CompareOp::kEq
                     ? ClampSel(1.0 / d)
                     : std::clamp(1.0 - 1.0 / d, 0.0, 1.0);
        }
        const int64_t* lit = cl->literal.TryInt();
        const auto range = RangeOf(*this, catalog_, input, cl->column);
        if (lit != nullptr && range.has_value() &&
            range->second > range->first) {
          // In double: the int64 differences can overflow (a literal or
          // a column range near the ends of int64).
          const double lo = static_cast<double>(range->first);
          const double hi = static_cast<double>(range->second);
          const double v = static_cast<double>(*lit);
          const double width = hi - lo + 1.0;
          double frac = kDefaultSelectivity;
          switch (cl->op) {
            case CompareOp::kLt:
              frac = (v - lo) / width;
              break;
            case CompareOp::kLe:
              frac = (v - lo + 1.0) / width;
              break;
            case CompareOp::kGt:
              frac = (hi - v) / width;
              break;
            case CompareOp::kGe:
              frac = (hi - v + 1.0) / width;
              break;
            default:
              break;
          }
          return ClampSel(frac);
        }
      }
      return kDefaultSelectivity;
    }
    case ExprKind::kBetween: {
      const ExprPtr& x = e.children[0];
      const int64_t* lo = e.children[1]->kind == ExprKind::kLiteral
                              ? e.children[1]->literal.TryInt()
                              : nullptr;
      const int64_t* hi = e.children[2]->kind == ExprKind::kLiteral
                              ? e.children[2]->literal.TryInt()
                              : nullptr;
      if (x->kind == ExprKind::kColumn && lo != nullptr && hi != nullptr) {
        const auto range = RangeOf(*this, catalog_, input, x->column);
        if (range.has_value() && range->second > range->first) {
          // In double, like the comparison case above.
          const double width = static_cast<double>(range->second) -
                               static_cast<double>(range->first) + 1.0;
          const double covered = std::max(
              0.0, static_cast<double>(std::min(*hi, range->second)) -
                       static_cast<double>(std::max(*lo, range->first)) + 1.0);
          const double frac = ClampSel(covered / width);
          return e.negated ? std::clamp(1.0 - frac, 0.0, 1.0) : frac;
        }
      }
      return e.negated ? 1.0 - kDefaultSelectivity / 2.0
                       : kDefaultSelectivity / 2.0;
    }
    case ExprKind::kIn: {
      const double d =
          e.children[0]->kind == ExprKind::kColumn
              ? std::max(1.0, EstimateDistinct(input, e.children[0]->column))
              : 1.0 / kDefaultSelectivity;
      const double hits = static_cast<double>(e.children.size() - 1) / d;
      const double frac = std::clamp(hits, kMinSelectivity, 1.0);
      return e.negated ? std::clamp(1.0 - frac, 0.0, 1.0) : frac;
    }
    case ExprKind::kIsNull:
      return e.negated ? 0.9 : 0.1;
    default:
      return kDefaultSelectivity;
  }
}

CostModel::IntervalProfile CostModel::Profile(const Plan& plan) const {
  IntervalProfile out;
  switch (plan.kind) {
    case PlanKind::kScan: {
      const TableStats* stats = StatsFor(plan);
      if (stats != nullptr && stats->has_period() &&
          stats->interval_count() > 0) {
        out.valid = true;
        out.avg_length = stats->avg_interval_length();
        out.min_begin = static_cast<double>(stats->min_begin());
        out.max_end = static_cast<double>(stats->max_end());
      }
      return out;
    }
    case PlanKind::kSelect:
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kCoalesce:
      return Profile(*plan.left);
    case PlanKind::kSplit:
    case PlanKind::kSplitAggregate: {
      out = Profile(*plan.left);
      out.avg_length /= 2.0;  // splitting halves segments on average
      return out;
    }
    case PlanKind::kJoin: {
      const IntervalProfile l = Profile(*plan.left);
      const IntervalProfile r = Profile(*plan.right);
      if (l.valid && r.valid) {
        out.valid = true;
        // Join output intervals are intersections.
        out.avg_length = std::min(l.avg_length, r.avg_length);
        out.min_begin = std::max(l.min_begin, r.min_begin);
        out.max_end = std::min(l.max_end, r.max_end);
        if (out.max_end <= out.min_begin) {
          out.min_begin = std::min(l.min_begin, r.min_begin);
          out.max_end = std::max(l.max_end, r.max_end);
        }
        return out;
      }
      return l.valid ? l : r;
    }
    case PlanKind::kUnionAll: {
      const IntervalProfile l = Profile(*plan.left);
      const IntervalProfile r = Profile(*plan.right);
      if (l.valid && r.valid) {
        out.valid = true;
        out.avg_length = (l.avg_length + r.avg_length) / 2.0;
        out.min_begin = std::min(l.min_begin, r.min_begin);
        out.max_end = std::max(l.max_end, r.max_end);
        return out;
      }
      return l.valid ? l : r;
    }
    default:
      return out;
  }
}

double CostModel::OverlapSelectivity(const Plan& left,
                                     const Plan& right) const {
  const IntervalProfile l = Profile(left);
  const IntervalProfile r = Profile(right);
  if (l.valid && r.valid) {
    const double span =
        std::max(l.max_end, r.max_end) - std::min(l.min_begin, r.min_begin);
    return ClampSel((l.avg_length + r.avg_length) / std::max(1.0, span));
  }
  if (l.valid || r.valid) {
    const IntervalProfile& p = l.valid ? l : r;
    const double span = std::max<double>(1.0, static_cast<double>(
                                                  domain_.size()));
    return ClampSel(2.0 * p.avg_length / span);
  }
  return 0.3;
}

int64_t CostModel::PickCheckpointInterval(const TableStats& stats) {
  const double target = 2.0 * stats.AvgAliveRows();
  int64_t k = 16;
  while (k < 4096 && static_cast<double>(k) < target) k <<= 1;
  return k;
}

namespace {

std::optional<std::pair<int64_t, int64_t>> RangeOf(const CostModel& model,
                                                   const Catalog* catalog,
                                                   const Plan& plan, int col) {
  (void)model;
  if (col < 0 || static_cast<size_t>(col) >= plan.schema.size()) {
    return std::nullopt;
  }
  switch (plan.kind) {
    case PlanKind::kScan: {
      if (catalog == nullptr || !catalog->Has(plan.table)) return std::nullopt;
      std::shared_ptr<const TableStats> stats = catalog->GetStats(plan.table);
      if (stats == nullptr ||
          !stats->BuiltFor(catalog->GetShared(plan.table).get())) {
        return std::nullopt;
      }
      const int idx =
          stats->FindColumn(plan.schema.at(static_cast<size_t>(col)).name);
      if (idx < 0) return std::nullopt;
      const ColumnStats& cs = stats->column(static_cast<size_t>(idx));
      if (!cs.has_int_range) return std::nullopt;
      return std::make_pair(cs.min_int, cs.max_int);
    }
    case PlanKind::kSelect:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kCoalesce:
      return RangeOf(model, catalog, *plan.left, col);
    case PlanKind::kProject: {
      const ExprPtr& e = plan.exprs[static_cast<size_t>(col)];
      if (e->kind == ExprKind::kColumn) {
        return RangeOf(model, catalog, *plan.left, e->column);
      }
      return std::nullopt;
    }
    case PlanKind::kJoin: {
      const int nl = static_cast<int>(plan.left->schema.size());
      return col < nl ? RangeOf(model, catalog, *plan.left, col)
                      : RangeOf(model, catalog, *plan.right, col - nl);
    }
    default:
      return std::nullopt;
  }
}

// --- Join-cluster reordering. ----------------------------------------------

void CountPlanRefs(const Plan* plan,
                   std::unordered_map<const Plan*, int>& refs) {
  if (plan == nullptr) return;
  if (++refs[plan] > 1) return;
  CountPlanRefs(plan->left.get(), refs);
  CountPlanRefs(plan->right.get(), refs);
}

void SplitConjunction(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kAnd) {
    SplitConjunction(e->children[0], out);
    SplitConjunction(e->children[1], out);
    return;
  }
  out->push_back(e);
}

/// A maximal cluster of adjacent single-parent kJoin nodes, flattened:
/// `leaves` in left-to-right order with their column offsets in the
/// concatenated (global) schema, and every join conjunct remapped into
/// that global space.  Multi-parent join nodes stay leaves so the DAG
/// sharing the rest of the plan relies on survives the rebuild.
struct JoinCluster {
  std::vector<PlanPtr> leaves;
  std::vector<int> offsets;
  std::vector<ExprPtr> conjuncts;
};

int FlattenCluster(const PlanPtr& n, int offset, bool is_root,
                   const std::unordered_map<const Plan*, int>& refs,
                   JoinCluster* out) {
  if (n->kind == PlanKind::kJoin && (is_root || refs.at(n.get()) <= 1)) {
    const int nl = FlattenCluster(n->left, offset, false, refs, out);
    const int nr = FlattenCluster(n->right, offset + nl, false, refs, out);
    std::vector<ExprPtr> parts;
    SplitConjunction(n->predicate, &parts);
    for (ExprPtr& part : parts) {
      if (IsLiteralTrue(part)) continue;  // cross-join filler
      out->conjuncts.push_back(offset == 0 ? std::move(part)
                                           : ShiftColumns(part, offset));
    }
    return nl + nr;
  }
  out->offsets.push_back(offset);
  out->leaves.push_back(n);
  return static_cast<int>(n->schema.size());
}

/// Rebuilds the cluster in the original shape over (possibly rewritten)
/// leaves, mirroring FlattenCluster's traversal.  Returns `n` itself
/// when no leaf changed.
PlanPtr RebuildSameShape(const PlanPtr& n, bool is_root,
                         const std::unordered_map<const Plan*, int>& refs,
                         const std::vector<PlanPtr>& leaves, size_t* next) {
  if (n->kind == PlanKind::kJoin && (is_root || refs.at(n.get()) <= 1)) {
    PlanPtr l = RebuildSameShape(n->left, false, refs, leaves, next);
    PlanPtr r = RebuildSameShape(n->right, false, refs, leaves, next);
    if (l == n->left && r == n->right) return n;
    return MakeJoin(std::move(l), std::move(r), n->predicate);
  }
  return leaves[(*next)++];
}

/// Sum of estimated cardinalities over the cluster's internal join
/// nodes — the "intermediate result volume" both orders are compared
/// on.
double ClusterCost(const PlanPtr& n, bool is_root,
                   const std::unordered_map<const Plan*, int>& refs,
                   const CostModel& cost) {
  if (n->kind != PlanKind::kJoin || (!is_root && refs.at(n.get()) > 1)) {
    return 0.0;
  }
  return cost.EstimateRows(n) + ClusterCost(n->left, false, refs, cost) +
         ClusterCost(n->right, false, refs, cost);
}

/// Greedily reorders one flattened cluster.  Returns nullptr when the
/// greedy order does not beat the structural one by the margin (the
/// caller then keeps the original nodes).
PlanPtr ReorderCluster(const PlanPtr& root, const JoinCluster& c,
                       const std::unordered_map<const Plan*, int>& refs,
                       const CostModel& cost) {
  const int n = static_cast<int>(c.leaves.size());
  const int total =
      c.offsets.back() + static_cast<int>(c.leaves.back()->schema.size());

  // Leaves each conjunct needs (by flattened leaf index).
  auto leaf_of = [&](int g) {
    int l = n - 1;
    while (l > 0 && c.offsets[static_cast<size_t>(l)] > g) --l;
    return l;
  };
  std::vector<std::vector<int>> needs(c.conjuncts.size());
  for (size_t ci = 0; ci < c.conjuncts.size(); ++ci) {
    std::vector<int> cols;
    CollectColumns(c.conjuncts[ci], &cols);
    std::vector<char> seen(static_cast<size_t>(n), 0);
    for (int g : cols) seen[static_cast<size_t>(leaf_of(g))] = 1;
    for (int l = 0; l < n; ++l) {
      if (seen[static_cast<size_t>(l)] != 0) needs[ci].push_back(l);
    }
  }

  std::vector<char> in(static_cast<size_t>(n), 0);
  std::vector<char> used(c.conjuncts.size(), 0);
  std::vector<int> pos(static_cast<size_t>(total), -1);

  // Conjuncts applicable once `extra` joins the covered set.
  auto applicable = [&](int extra) {
    std::vector<size_t> out;
    for (size_t ci = 0; ci < c.conjuncts.size(); ++ci) {
      if (used[ci] != 0) continue;
      bool ok = true;
      for (int l : needs[ci]) {
        if (in[static_cast<size_t>(l)] == 0 && l != extra) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(ci);
    }
    return out;
  };
  auto connects = [&](const std::vector<size_t>& cs, int extra) {
    for (size_t ci : cs) {
      bool touches_extra = false;
      bool touches_in = false;
      for (int l : needs[ci]) {
        if (l == extra) touches_extra = true;
        if (l != extra && in[static_cast<size_t>(l)] != 0) touches_in = true;
      }
      if (touches_extra && touches_in) return true;
    }
    return false;
  };
  const auto arity_of = [&](int l) {
    return static_cast<int>(c.leaves[static_cast<size_t>(l)]->schema.size());
  };

  PlanPtr cur;
  double new_cost = 0.0;
  int cur_arity = 0;

  // Seed: the cheapest ordered pair, strongly preferring connected
  // pairs; ties resolve to the smallest (i, j), so equal estimates
  // keep the structural order.
  {
    double best = std::numeric_limits<double>::infinity();
    int bi = -1;
    int bj = -1;
    PlanPtr best_plan;
    for (int i = 0; i < n; ++i) {
      in.assign(static_cast<size_t>(n), 0);
      in[static_cast<size_t>(i)] = 1;
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        const std::vector<size_t> cs = applicable(j);
        std::vector<ExprPtr> preds;
        preds.reserve(cs.size());
        for (size_t ci : cs) {
          preds.push_back(RemapColumns(c.conjuncts[ci], [&](int g) {
            const int l = leaf_of(g);
            const int local = g - c.offsets[static_cast<size_t>(l)];
            return l == i ? local : arity_of(i) + local;
          }));
        }
        PlanPtr cand = MakeJoin(c.leaves[static_cast<size_t>(i)],
                                c.leaves[static_cast<size_t>(j)],
                                AndAll(std::move(preds)));
        double score = cost.EstimateRows(cand);
        if (!connects(cs, j)) score *= 1e6;  // avoid cross products
        if (score < best) {
          best = score;
          bi = i;
          bj = j;
          best_plan = std::move(cand);
        }
      }
    }
    in.assign(static_cast<size_t>(n), 0);
    in[static_cast<size_t>(bi)] = 1;
    for (size_t ci : applicable(bj)) used[ci] = 1;
    in[static_cast<size_t>(bj)] = 1;
    for (int g = c.offsets[static_cast<size_t>(bi)];
         g < c.offsets[static_cast<size_t>(bi)] + arity_of(bi); ++g) {
      pos[static_cast<size_t>(g)] = g - c.offsets[static_cast<size_t>(bi)];
    }
    for (int g = c.offsets[static_cast<size_t>(bj)];
         g < c.offsets[static_cast<size_t>(bj)] + arity_of(bj); ++g) {
      pos[static_cast<size_t>(g)] =
          arity_of(bi) + g - c.offsets[static_cast<size_t>(bj)];
    }
    cur = std::move(best_plan);
    cur_arity = arity_of(bi) + arity_of(bj);
    new_cost += cost.EstimateRows(cur);
  }

  // Extend one leaf at a time.
  for (int step = 2; step < n; ++step) {
    double best = std::numeric_limits<double>::infinity();
    int bk = -1;
    PlanPtr best_plan;
    std::vector<size_t> best_cs;
    for (int k = 0; k < n; ++k) {
      if (in[static_cast<size_t>(k)] != 0) continue;
      const std::vector<size_t> cs = applicable(k);
      std::vector<ExprPtr> preds;
      preds.reserve(cs.size());
      for (size_t ci : cs) {
        preds.push_back(RemapColumns(c.conjuncts[ci], [&](int g) {
          const int l = leaf_of(g);
          if (l == k) {
            return cur_arity + g - c.offsets[static_cast<size_t>(l)];
          }
          return pos[static_cast<size_t>(g)];
        }));
      }
      PlanPtr cand =
          MakeJoin(cur, c.leaves[static_cast<size_t>(k)], AndAll(std::move(preds)));
      double score = cost.EstimateRows(cand);
      if (!connects(cs, k)) score *= 1e6;
      if (score < best) {
        best = score;
        bk = k;
        best_plan = std::move(cand);
        best_cs = cs;
      }
    }
    for (size_t ci : best_cs) used[ci] = 1;
    in[static_cast<size_t>(bk)] = 1;
    for (int g = c.offsets[static_cast<size_t>(bk)];
         g < c.offsets[static_cast<size_t>(bk)] + arity_of(bk); ++g) {
      pos[static_cast<size_t>(g)] =
          cur_arity + g - c.offsets[static_cast<size_t>(bk)];
    }
    cur = std::move(best_plan);
    cur_arity += arity_of(bk);
    new_cost += cost.EstimateRows(cur);
  }

  for (char u : used) {
    if (u == 0) return nullptr;  // conjunct left behind: keep original
  }

  // Keep the original structure unless the reorder clearly wins —
  // flat estimates then leave the plan bit-identical.
  const double old_cost = ClusterCost(root, true, refs, cost);
  if (!(new_cost < 0.8 * old_cost)) return nullptr;

  std::vector<int> restore(static_cast<size_t>(total));
  for (int g = 0; g < total; ++g) {
    restore[static_cast<size_t>(g)] = pos[static_cast<size_t>(g)];
  }
  return MakeProjectColumns(std::move(cur), restore);
}

PlanPtr ReorderWalk(const PlanPtr& n, const CostModel& cost,
                    const std::unordered_map<const Plan*, int>& refs,
                    std::unordered_map<const Plan*, PlanPtr>& memo) {
  if (n == nullptr) return n;
  auto it = memo.find(n.get());
  if (it != memo.end()) return it->second;
  PlanPtr out;
  if (n->kind == PlanKind::kJoin) {
    JoinCluster c;
    FlattenCluster(n, 0, true, refs, &c);
    bool leaf_changed = false;
    std::vector<PlanPtr> new_leaves;
    new_leaves.reserve(c.leaves.size());
    for (const PlanPtr& leaf : c.leaves) {
      PlanPtr r = ReorderWalk(leaf, cost, refs, memo);
      leaf_changed |= (r != leaf);
      new_leaves.push_back(std::move(r));
    }
    PlanPtr reordered;
    if (c.leaves.size() >= 2 && c.leaves.size() <= 8) {
      JoinCluster rebased = c;
      rebased.leaves = new_leaves;
      reordered = ReorderCluster(n, rebased, refs, cost);
    }
    if (reordered != nullptr) {
      out = std::move(reordered);
    } else if (!leaf_changed) {
      out = n;
    } else {
      size_t next = 0;
      out = RebuildSameShape(n, true, refs, new_leaves, &next);
    }
  } else {
    PlanPtr l = ReorderWalk(n->left, cost, refs, memo);
    PlanPtr r = ReorderWalk(n->right, cost, refs, memo);
    if (l == n->left && r == n->right) {
      out = n;
    } else {
      auto copy = std::make_shared<Plan>(*n);
      copy->left = std::move(l);
      copy->right = std::move(r);
      out = std::move(copy);
    }
  }
  memo.emplace(n.get(), out);
  return out;
}

PlanPtr HintWalk(const PlanPtr& n, const CostModel& cost,
                 std::unordered_map<const Plan*, PlanPtr>& memo) {
  if (n == nullptr) return n;
  auto it = memo.find(n.get());
  if (it != memo.end()) return it->second;
  PlanPtr l = HintWalk(n->left, cost, memo);
  PlanPtr r = HintWalk(n->right, cost, memo);
  JoinStrategy strategy = n->join_strategy;
  if (n->kind == PlanKind::kJoin && n->join.overlap.has_value()) {
    const double product =
        cost.EstimateRows(*n->left) * cost.EstimateRows(*n->right);
    strategy = product <= static_cast<double>(kTinyJoinProduct)
                   ? JoinStrategy::kNestedLoop
                   : JoinStrategy::kAuto;
  }
  PlanPtr out;
  if (l == n->left && r == n->right && strategy == n->join_strategy) {
    out = n;
  } else {
    auto copy = std::make_shared<Plan>(*n);
    copy->left = std::move(l);
    copy->right = std::move(r);
    copy->join_strategy = strategy;
    out = std::move(copy);
  }
  memo.emplace(n.get(), out);
  return out;
}

}  // namespace

PlanPtr ReorderJoins(const PlanPtr& plan, const CostModel& cost) {
  if (plan == nullptr) return plan;
  std::unordered_map<const Plan*, int> refs;
  CountPlanRefs(plan.get(), refs);
  std::unordered_map<const Plan*, PlanPtr> memo;
  return ReorderWalk(plan, cost, refs, memo);
}

PlanPtr ApplyJoinStrategyHints(const PlanPtr& plan, const CostModel& cost) {
  if (plan == nullptr) return plan;
  std::unordered_map<const Plan*, PlanPtr> memo;
  return HintWalk(plan, cost, memo);
}

}  // namespace periodk
