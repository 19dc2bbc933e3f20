#include "rewrite/rewriter.h"

#include <functional>
#include <unordered_map>

#include "common/status.h"
#include "common/str_util.h"
#include "ra/cost_model.h"
#include "rewrite/period_enc.h"

namespace periodk {

const char* SnapshotSemanticsName(SnapshotSemantics semantics) {
  switch (semantics) {
    case SnapshotSemantics::kPeriodK:
      return "period-K (ours)";
    case SnapshotSemantics::kAlignment:
      return "alignment (PG-Nat-like)";
    case SnapshotSemantics::kIntervalPreservation:
      return "interval preservation (ATSQL-like)";
    case SnapshotSemantics::kTeradata:
      return "statement modifiers (Teradata-like)";
  }
  return "?";
}

namespace {

std::vector<int> Iota(size_t n, int start = 0) {
  std::vector<int> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = start + static_cast<int>(i);
  return out;
}

/// Projection that keeps columns `keep` (by index) with their names.
PlanPtr Reorder(PlanPtr child, const std::vector<int>& keep) {
  return MakeProjectColumns(std::move(child), keep);
}

}  // namespace

SnapshotRewriter::SnapshotRewriter(TimeDomain domain, RewriteOptions options,
                                   EncodedTables encoded_tables,
                                   const CostModel* cost_model)
    : domain_(domain),
      options_(options),
      encoded_tables_(std::move(encoded_tables)),
      cost_model_(cost_model) {}

PlanPtr SnapshotRewriter::Reordered(const PlanPtr& query) const {
  // Join reorder runs on the *snapshot* query, before REWR or slicing:
  // the snapshot plan is where commutative join clusters are still
  // plain (REWR interleaves coalescing and endpoint projections), and
  // the cost model maps snapshot scans to stored-table statistics by
  // column name.  Scan nodes survive the reorder, so encoded_tables_
  // still finds them.
  if (cost_model_ == nullptr || !options_.use_cost_model) return query;
  return ReorderJoins(query, *cost_model_);
}

PlanPtr SnapshotRewriter::Rewrite(const PlanPtr& query) const {
  PlanPtr rewritten = RewriteNode(Reordered(query));
  // Period-K always ends in a coalesce: it makes the output encoding
  // unique (Def 8.2); the baselines' encodings are not.
  if (options_.semantics != SnapshotSemantics::kPeriodK) return rewritten;
  if (rewritten->kind == PlanKind::kCoalesce) return rewritten;
  return MakeCoalesce(std::move(rewritten), options_.coalesce_impl);
}

PlanPtr SnapshotRewriter::MaybeCoalesce(PlanPtr p) const {
  // Baselines never coalesce (their encodings are not unique); with
  // hoisting, Lemma 6.1 lets us drop all intermediate coalescing steps.
  if (options_.semantics != SnapshotSemantics::kPeriodK) return p;
  if (options_.hoist_coalesce) return p;
  return MakeCoalesce(std::move(p), options_.coalesce_impl);
}

PlanPtr SnapshotRewriter::RewriteNode(const PlanPtr& q) const {
  switch (q->kind) {
    case PlanKind::kScan:
      return RewriteScan(q);
    case PlanKind::kConstant:
      return RewriteConstant(q);
    case PlanKind::kSelect:
      // REWR(sigma_theta(Q)) = C(sigma_theta(REWR(Q))); theta references
      // only the unchanged non-temporal prefix.
      return MaybeCoalesce(MakeSelect(RewriteNode(q->left), q->predicate));
    case PlanKind::kProject: {
      // REWR(Pi_A(Q)) = C(Pi_{A, a_begin, a_end}(REWR(Q))).
      PlanPtr child = RewriteNode(q->left);
      int b = static_cast<int>(child->schema.size()) - 2;
      std::vector<ExprPtr> exprs = q->exprs;
      exprs.push_back(Col(b, kBeginColumn));
      exprs.push_back(Col(b + 1, kEndColumn));
      std::vector<Column> names = q->schema.columns();
      names.emplace_back(kBeginColumn);
      names.emplace_back(kEndColumn);
      return MaybeCoalesce(
          MakeProject(std::move(child), std::move(exprs), std::move(names)));
    }
    case PlanKind::kJoin:
      return RewriteJoin(q);
    case PlanKind::kUnionAll:
      // REWR(Q1 union Q2) = C(REWR(Q1) union REWR(Q2)).
      return MaybeCoalesce(
          MakeUnionAll(RewriteNode(q->left), RewriteNode(q->right)));
    case PlanKind::kExceptAll:
      return RewriteDifference(q);
    case PlanKind::kAggregate:
      return RewriteAggregate(q);
    case PlanKind::kDistinct:
      return RewriteDistinct(q);
    default:
      throw EngineError(
          StrCat("operator not supported under snapshot semantics: ",
                 PlanKindName(q->kind)));
  }
}

PlanPtr SnapshotRewriter::RewriteScan(const PlanPtr& q) const {
  auto it = encoded_tables_.find(q);
  if (it != encoded_tables_.end()) {
    if (it->second->schema.size() != q->schema.size() + 2) {
      throw EngineError(StrCat("encoded table ", q->table,
                               " has unexpected arity"));
    }
    return it->second;
  }
  return MakeScan(q->table, EncodedSchema(q->schema));
}

PlanPtr SnapshotRewriter::RewriteConstant(const PlanPtr& q) const {
  // A constant snapshot relation holds at every point of the domain.
  Relation encoded(EncodedSchema(q->constant->schema()));
  for (const Row& row : q->constant->rows()) {
    Row r = row;
    r.push_back(Value::Int(domain_.tmin));
    r.push_back(Value::Int(domain_.tmax));
    encoded.AddRow(std::move(r));
  }
  return MakeConstant(std::move(encoded));
}

PlanPtr SnapshotRewriter::RewriteJoin(const PlanPtr& q) const {
  // REWR(Q1 join_theta Q2) =
  //   C(Pi_{sch, greatest(b1,b2), least(e1,e2)}(
  //       REWR(Q1) join_{theta' and overlaps} REWR(Q2))).
  PlanPtr left = RewriteNode(q->left);
  PlanPtr right = RewriteNode(q->right);
  int nl = static_cast<int>(q->left->schema.size());
  int nr = static_cast<int>(q->right->schema.size());
  int lb = nl, le = nl + 1;                    // left endpoints
  int rb = nl + 2 + nr, re = nl + 2 + nr + 1;  // right endpoints
  // Shift the original predicate's right-side references past the left
  // temporal columns.
  ExprPtr shifted = RemapColumns(
      q->predicate, [nl](int c) { return c < nl ? c : c + 2; });
  ExprPtr overlaps =
      And(Lt(Col(lb, "l.a_begin"), Col(re, "r.a_end")),
          Lt(Col(rb, "r.a_begin"), Col(le, "l.a_end")));
  PlanPtr join = MakeJoin(std::move(left), std::move(right),
                          And(shifted, overlaps));
  std::vector<ExprPtr> exprs;
  std::vector<Column> names;
  for (int i = 0; i < nl; ++i) {
    exprs.push_back(Col(i, q->schema.at(static_cast<size_t>(i)).name));
    names.push_back(q->schema.at(static_cast<size_t>(i)));
  }
  for (int i = 0; i < nr; ++i) {
    exprs.push_back(
        Col(nl + 2 + i, q->schema.at(static_cast<size_t>(nl + i)).name));
    names.push_back(q->schema.at(static_cast<size_t>(nl + i)));
  }
  exprs.push_back(Func(ScalarFunc::kGreatest, {Col(lb), Col(rb)}));
  names.emplace_back(kBeginColumn);
  exprs.push_back(Func(ScalarFunc::kLeast, {Col(le), Col(re)}));
  names.emplace_back(kEndColumn);
  return MaybeCoalesce(
      MakeProject(std::move(join), std::move(exprs), std::move(names)));
}

PlanPtr SnapshotRewriter::RewriteDifference(const PlanPtr& q) const {
  PlanPtr left = RewriteNode(q->left);
  PlanPtr right = RewriteNode(q->right);
  std::vector<int> group = Iota(q->schema.size());
  PlanPtr left_frags = MakeSplit(left, right, group);
  PlanPtr right_frags = MakeSplit(right, left, group);
  switch (options_.semantics) {
    case SnapshotSemantics::kPeriodK:
      // REWR(Q1 - Q2) = C(N_sch(R1, R2) -bag- N_sch(R2, R1)): aligned
      // fragments cancel one-for-one => snapshot bag difference (monus).
      return MaybeCoalesce(
          MakeExceptAll(std::move(left_frags), std::move(right_frags)));
    case SnapshotSemantics::kAlignment:
      // PG-Nat difference has *set* semantics: duplicates collapse and a
      // single right tuple erases the left tuple entirely (BD bug).
      return MakeAntiJoin(MakeDistinct(std::move(left_frags)),
                          std::move(right_frags));
    case SnapshotSemantics::kIntervalPreservation:
      // NOT EXISTS flavour: keeps left duplicates but ignores right
      // multiplicities (BD bug).
      return MakeAntiJoin(std::move(left_frags), std::move(right_frags));
    case SnapshotSemantics::kTeradata:
      // Teradata's rewriting-based implementation does not support
      // snapshot difference (paper Table 1: N/A).
      throw EngineError(
          "Teradata semantics does not support snapshot difference");
  }
  throw EngineError("unknown snapshot semantics");
}

PlanPtr SnapshotRewriter::RewriteAggregate(const PlanPtr& q) const {
  PlanPtr child = RewriteNode(q->left);
  int child_arity = static_cast<int>(child->schema.size());
  int cb = child_arity - 2;
  size_t n_groups = q->exprs.size();
  bool global = n_groups == 0;
  bool ours = options_.semantics == SnapshotSemantics::kPeriodK;
  bool teradata = options_.semantics == SnapshotSemantics::kTeradata;
  // The union-with-neutral-tuple trick is only needed on the unfused
  // path; the fused operator emits gap rows natively.  Teradata's
  // native operators map to the fused operator with its inverted gap
  // behaviour (gaps for groups, none for global aggregation).
  bool unfused = !(ours && options_.fuse_aggregation) && !teradata;
  bool add_gap_tuple = ours && global && unfused;

  // Normalize: materialize group expressions and aggregate arguments as
  // columns (group1..groupG, arg1..argK, a_begin, a_end), one column per
  // structurally distinct argument, so sum(x) and avg(x) read one x.
  // count(*) is rewritten to count(lit 1) on the unfused path so that
  // the neutral tuple (all NULLs) is not counted -- Fig. 4's count(*)
  // rule.
  std::vector<ExprPtr> proj;
  std::vector<Column> proj_names;
  for (size_t g = 0; g < n_groups; ++g) {
    proj.push_back(q->exprs[g]);
    proj_names.push_back(q->schema.at(g));
  }
  std::vector<AggExpr> aggs;  // over the normalized projection
  for (size_t a = 0; a < q->aggs.size(); ++a) {
    AggExpr agg = q->aggs[a];
    if (agg.func == AggFunc::kCountStar) {
      if (add_gap_tuple) {
        agg.func = AggFunc::kCount;
        agg.arg = LitInt(1);
      } else {
        aggs.push_back(agg);
        continue;
      }
    }
    size_t arg_col = n_groups;
    while (arg_col < proj.size() &&
           !ExprStructurallyEqual(proj[arg_col], agg.arg)) {
      ++arg_col;
    }
    if (arg_col == proj.size()) {
      proj.push_back(agg.arg);
      proj_names.emplace_back(StrCat("agg_arg_", a));
    }
    agg.arg = Col(static_cast<int>(arg_col), proj_names[arg_col].name);
    aggs.push_back(std::move(agg));
  }
  size_t n_args = proj.size() - n_groups;
  proj.push_back(Col(cb, kBeginColumn));
  proj_names.emplace_back(kBeginColumn);
  proj.push_back(Col(cb + 1, kEndColumn));
  proj_names.emplace_back(kEndColumn);
  PlanPtr normalized =
      MakeProject(std::move(child), std::move(proj), std::move(proj_names));
  std::vector<int> group_cols = Iota(n_groups);

  if (!unfused) {
    // Fused split+aggregate with optional pre-aggregation (Sec. 9).
    std::vector<AggExpr> named = aggs;
    for (size_t a = 0; a < named.size(); ++a) {
      named[a].name = q->schema.at(n_groups + a).name;
    }
    bool gap_rows = teradata ? !global : (global && ours);
    return MaybeCoalesce(MakeSplitAggregate(
        std::move(normalized), group_cols, std::move(named), gap_rows,
        domain_, options_.pre_aggregate));
  }

  PlanPtr split_input = normalized;
  if (add_gap_tuple) {
    // REWR(gamma_f(A)(Q)) unions {(null, ..., Tmin, Tmax)} below the
    // split so gaps produce fragments; count counts 0 over them and the
    // other aggregates yield NULL.
    Row neutral(n_groups + n_args, Value::Null());
    neutral.push_back(Value::Int(domain_.tmin));
    neutral.push_back(Value::Int(domain_.tmax));
    Relation constant(normalized->schema);
    constant.AddRow(std::move(neutral));
    split_input = MakeUnionAll(normalized, MakeConstant(std::move(constant)));
  }
  PlanPtr split = MakeSplit(split_input, normalized, group_cols);

  // Standard aggregation grouping on (groups..., a_begin, a_end).
  int sb = static_cast<int>(n_groups + n_args);
  std::vector<ExprPtr> group_exprs;
  std::vector<Column> group_names;
  for (size_t g = 0; g < n_groups; ++g) {
    group_exprs.push_back(Col(static_cast<int>(g)));
    group_names.push_back(q->schema.at(g));
  }
  group_exprs.push_back(Col(sb, kBeginColumn));
  group_names.emplace_back(kBeginColumn);
  group_exprs.push_back(Col(sb + 1, kEndColumn));
  group_names.emplace_back(kEndColumn);
  std::vector<AggExpr> named = aggs;
  for (size_t a = 0; a < named.size(); ++a) {
    named[a].name = q->schema.at(n_groups + a).name;
  }
  PlanPtr agg = MakeAggregate(std::move(split), std::move(group_exprs),
                              std::move(group_names), std::move(named));
  // Reorder (groups..., b, e, aggs...) -> (groups..., aggs..., b, e).
  std::vector<int> order;
  for (size_t g = 0; g < n_groups; ++g) order.push_back(static_cast<int>(g));
  for (size_t a = 0; a < aggs.size(); ++a) {
    order.push_back(static_cast<int>(n_groups + 2 + a));
  }
  order.push_back(static_cast<int>(n_groups));
  order.push_back(static_cast<int>(n_groups) + 1);
  return MaybeCoalesce(Reorder(std::move(agg), order));
}

namespace {

/// Column remap for expressions that move below a slice dropping
/// (begin_col, end_col): every surviving column shifts down past the
/// dropped ones.  Only called on expressions already known to avoid
/// both endpoint columns.
int DropShift(int c, int begin_col, int end_col) {
  return c - (c > begin_col ? 1 : 0) - (c > end_col ? 1 : 0);
}

/// Pushes tau_{t, (begin_col, end_col)} into `node` — the endpoint
/// columns are positions in node's *output* schema, trailing or not
/// (non-trailing positions arise below the encoded-table projection of
/// a period table that stores its interval columns elsewhere).
PlanPtr PushTimesliceInto(TimePoint t, const PlanPtr& node, int begin_col,
                          int end_col) {
  int arity = static_cast<int>(node->schema.size());
  switch (node->kind) {
    case PlanKind::kCoalesce:
      // tau_t(C(X)) = tau_t(X): skip the coalesce entirely.  C always
      // merges on the trailing two columns, so the identity only
      // applies when the slice reads exactly those.
      if (begin_col == arity - 2 && end_col == arity - 1) {
        return PushTimesliceInto(t, node->left, begin_col, end_col);
      }
      break;
    case PlanKind::kSelect:
      if (TimesliceCommutesWithSelect(*node, begin_col, end_col)) {
        // The slice below removes the endpoint columns, so the
        // predicate's surviving references shift down past them.
        ExprPtr pred = RemapColumns(node->predicate, [&](int c) {
          return DropShift(c, begin_col, end_col);
        });
        return MakeSelect(
            PushTimesliceInto(t, node->left, begin_col, end_col),
            std::move(pred));
      }
      break;
    case PlanKind::kProject: {
      int child_begin = -1;
      int child_end = -1;
      if (TimesliceCommutesWithProject(*node, begin_col, end_col,
                                       &child_begin, &child_end)) {
        // Drop the two endpoint expressions and remap the rest onto
        // the sliced child (which lost columns child_begin/child_end).
        std::vector<ExprPtr> exprs;
        std::vector<Column> names;
        for (int i = 0; i < arity; ++i) {
          if (i == begin_col || i == end_col) continue;
          exprs.push_back(
              RemapColumns(node->exprs[static_cast<size_t>(i)], [&](int c) {
                return DropShift(c, child_begin, child_end);
              }));
          names.push_back(node->schema.at(static_cast<size_t>(i)));
        }
        return MakeProject(
            PushTimesliceInto(t, node->left, child_begin, child_end),
            std::move(exprs), std::move(names));
      }
      break;
    }
    default:
      break;
  }
  return MakeTimesliceAt(node, t, begin_col, end_col);
}

}  // namespace

PlanPtr PushDownTimeslice(const PlanPtr& plan) {
  if (plan == nullptr || plan->kind != PlanKind::kTimeslice) return plan;
  auto [begin_col, end_col] = ResolveSliceColumns(*plan);
  return PushTimesliceInto(plan->slice_time, plan->left, begin_col, end_col);
}

PlanPtr SnapshotRewriter::RewriteDistinct(const PlanPtr& q) const {
  // Snapshot DISTINCT: align value-equivalent tuples, collapse
  // duplicates per fragment.
  PlanPtr child = RewriteNode(q->left);
  std::vector<int> group = Iota(q->schema.size());
  PlanPtr split = MakeSplit(child, child, group);
  return MaybeCoalesce(MakeDistinct(std::move(split)));
}

PlanPtr SnapshotRewriter::SliceScan(const PlanPtr& scan, TimePoint t) const {
  // tau_t of the reference's encoding, pushed onto the stored scan.  A
  // period table storing its interval elsewhere is encoded as a
  // projection moving those columns last; below the slice it keeps the
  // other columns in stored order, an identity the slice does not need.
  PlanPtr sliced = PushDownTimeslice(MakeTimeslice(RewriteScan(scan), t));
  if (sliced->kind == PlanKind::kProject &&
      sliced->exprs.size() == sliced->left->schema.size()) {
    bool identity = true;
    for (size_t i = 0; i < sliced->exprs.size() && identity; ++i) {
      const Expr& e = *sliced->exprs[i];
      identity = e.kind == ExprKind::kColumn &&
                 e.column == static_cast<int>(i);
    }
    if (identity) sliced = sliced->left;
  }
  // The slice stands in for the scan, so it keeps the scan's
  // alias-qualified schema: the query's column names resolve as before.
  auto named = std::make_shared<Plan>(*sliced);
  named->schema = scan->schema;
  return named;
}

PlanPtr SnapshotRewriter::RewriteAsOf(const PlanPtr& query,
                                      TimePoint t) const {
  if (options_.semantics != SnapshotSemantics::kPeriodK) {
    return PushDownTimeslice(MakeTimeslice(Rewrite(query), t));
  }
  // Q over tau_t(D): every node but the leaves stays as it is.  The
  // memo keeps shared subplans shared, so each slice runs once.
  std::unordered_map<const Plan*, PlanPtr> memo;
  std::function<PlanPtr(const PlanPtr&)> slice =
      [&](const PlanPtr& q) -> PlanPtr {
    auto it = memo.find(q.get());
    if (it != memo.end()) return it->second;
    PlanPtr out;
    switch (q->kind) {
      case PlanKind::kScan:
        out = SliceScan(q, t);
        break;
      case PlanKind::kConstant:
        out = q;  // a constant snapshot relation holds at every t
        break;
      case PlanKind::kSelect:
      case PlanKind::kProject:
      case PlanKind::kJoin:
      case PlanKind::kUnionAll:
      case PlanKind::kExceptAll:
      case PlanKind::kAggregate:
      case PlanKind::kDistinct: {
        // The children keep their schemas, so the node (a join's
        // analysis included) stays valid over the sliced inputs.
        auto copy = std::make_shared<Plan>(*q);
        copy->left = slice(q->left);
        if (q->right != nullptr) copy->right = slice(q->right);
        out = std::move(copy);
        break;
      }
      default:
        throw EngineError(
            StrCat("operator not supported under snapshot semantics: ",
                   PlanKindName(q->kind)));
    }
    memo.emplace(q.get(), out);
    return out;
  };
  return slice(Reordered(query));
}

}  // namespace periodk
