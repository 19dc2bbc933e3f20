#include "sql/binder.h"

#include <functional>
#include <set>

#include "common/str_util.h"

namespace periodk {
namespace sql {

namespace {

struct BindFailure {
  explicit BindFailure(std::string m) : message(std::move(m)) {}
  std::string message;
};

[[noreturn]] void Fail(const std::string& message) {
  throw BindFailure(message);
}

AggFunc AggFuncFromName(const std::string& name, bool star_arg) {
  if (name == "count") return star_arg ? AggFunc::kCountStar : AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "avg") return AggFunc::kAvg;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  Fail(StrCat("unknown aggregate function: ", name));
}

void SplitConjuncts(const SqlExprPtr& e, std::vector<SqlExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == SqlExprKind::kBinary && e->op == "and") {
    SplitConjuncts(e->args[0], out);
    SplitConjuncts(e->args[1], out);
    return;
  }
  out->push_back(e);
}

void CollectColumnRefs(const SqlExprPtr& e,
                       std::vector<const SqlExpr*>* out) {
  if (e == nullptr) return;
  if (e->kind == SqlExprKind::kColumnRef) out->push_back(e.get());
  for (const SqlExprPtr& a : e->args) CollectColumnRefs(a, out);
}

bool ResolvableIn(const SqlExprPtr& e, const Schema& scope) {
  std::vector<const SqlExpr*> refs;
  CollectColumnRefs(e, &refs);
  for (const SqlExpr* ref : refs) {
    if (scope.Find(ref->qualifier, ref->name) < 0) return false;
  }
  return true;
}

void CollectAggregateCalls(const SqlExprPtr& e,
                           std::vector<SqlExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == SqlExprKind::kFuncCall && IsAggregateName(e->name)) {
    out->push_back(e);
    return;  // no nested aggregates
  }
  for (const SqlExprPtr& a : e->args) CollectAggregateCalls(a, out);
}

// Binds a scalar SQL expression against a scope schema.  Aggregate
// calls are rejected (they are handled by the aggregation path).
ExprPtr BindScalar(const SqlExprPtr& e, const Schema& scope) {
  switch (e->kind) {
    case SqlExprKind::kColumnRef: {
      int idx = scope.Find(e->qualifier, e->name);
      if (idx == -1) Fail(StrCat("unknown column: ", e->ToString()));
      if (idx == -2) Fail(StrCat("ambiguous column: ", e->ToString()));
      return Col(idx, e->ToString());
    }
    case SqlExprKind::kLiteral:
      return Lit(e->literal);
    case SqlExprKind::kBinary: {
      ExprPtr l = BindScalar(e->args[0], scope);
      ExprPtr r = BindScalar(e->args[1], scope);
      if (e->op == "and") return And(std::move(l), std::move(r));
      if (e->op == "or") return Or(std::move(l), std::move(r));
      if (e->op == "=") return Eq(std::move(l), std::move(r));
      if (e->op == "<>") return Ne(std::move(l), std::move(r));
      if (e->op == "<") return Lt(std::move(l), std::move(r));
      if (e->op == "<=") return Le(std::move(l), std::move(r));
      if (e->op == ">") return Gt(std::move(l), std::move(r));
      if (e->op == ">=") return Ge(std::move(l), std::move(r));
      if (e->op == "+") return Add(std::move(l), std::move(r));
      if (e->op == "-") return Sub(std::move(l), std::move(r));
      if (e->op == "*") return Mul(std::move(l), std::move(r));
      if (e->op == "/") return Div(std::move(l), std::move(r));
      if (e->op == "%") return Arith(ArithOp::kMod, std::move(l), std::move(r));
      Fail(StrCat("unknown binary operator: ", e->op));
    }
    case SqlExprKind::kUnary: {
      ExprPtr c = BindScalar(e->args[0], scope);
      if (e->op == "not") return Not(std::move(c));
      if (e->op == "-") return Neg(std::move(c));
      Fail(StrCat("unknown unary operator: ", e->op));
    }
    case SqlExprKind::kFuncCall: {
      if (IsAggregateName(e->name)) {
        Fail(StrCat("aggregate not allowed here: ", e->ToString()));
      }
      std::vector<ExprPtr> args;
      for (const SqlExprPtr& a : e->args) {
        args.push_back(BindScalar(a, scope));
      }
      if (e->name == "least") return Func(ScalarFunc::kLeast, std::move(args));
      if (e->name == "greatest") {
        return Func(ScalarFunc::kGreatest, std::move(args));
      }
      if (e->name == "abs") return Func(ScalarFunc::kAbs, std::move(args));
      if (e->name == "year") return Func(ScalarFunc::kYear, std::move(args));
      if (e->name == "ifnull" || e->name == "coalesce") {
        return Func(ScalarFunc::kIfNull, std::move(args));
      }
      Fail(StrCat("unknown function: ", e->name));
    }
    case SqlExprKind::kStar:
      Fail("'*' is only valid inside count(*)");
    case SqlExprKind::kCase: {
      size_t pairs = (e->args.size() - (e->has_else ? 1 : 0)) / 2;
      std::vector<std::pair<ExprPtr, ExprPtr>> branches;
      for (size_t i = 0; i < pairs; ++i) {
        branches.emplace_back(BindScalar(e->args[2 * i], scope),
                              BindScalar(e->args[2 * i + 1], scope));
      }
      ExprPtr else_expr =
          e->has_else ? BindScalar(e->args.back(), scope) : nullptr;
      return CaseWhen(std::move(branches), std::move(else_expr));
    }
    case SqlExprKind::kIn: {
      ExprPtr needle = BindScalar(e->args[0], scope);
      std::vector<ExprPtr> candidates;
      for (size_t i = 1; i < e->args.size(); ++i) {
        candidates.push_back(BindScalar(e->args[i], scope));
      }
      return InList(std::move(needle), std::move(candidates), e->negated);
    }
    case SqlExprKind::kBetween:
      return Between(BindScalar(e->args[0], scope),
                     BindScalar(e->args[1], scope),
                     BindScalar(e->args[2], scope), e->negated);
    case SqlExprKind::kIsNull:
      return IsNull(BindScalar(e->args[0], scope), e->negated);
    case SqlExprKind::kLike:
      return Like(BindScalar(e->args[0], scope),
                  BindScalar(e->args[1], scope), e->negated);
  }
  Fail("unknown expression kind");
}

std::string DeriveName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == SqlExprKind::kColumnRef) return item.expr->name;
  if (item.expr->kind == SqlExprKind::kFuncCall) return item.expr->name;
  return StrCat("col_", index);
}

// Recursive binder for the full statement tree.
class BinderImpl {
 public:
  BinderImpl(const Catalog* catalog,
             const std::map<std::string, PeriodTableInfo>* period_tables,
             bool snapshot)
      : catalog_(catalog),
        period_tables_(period_tables),
        snapshot_(snapshot) {}

  PlanPtr BindQuery(const SqlQuery& query) {
    switch (query.kind) {
      case SqlQuery::Kind::kSelect:
        return BindSelect(*query.select);
      case SqlQuery::Kind::kUnionAll: {
        PlanPtr l = BindQuery(*query.left);
        PlanPtr r = BindQuery(*query.right);
        if (l->schema.size() != r->schema.size()) {
          Fail("UNION ALL inputs must have the same number of columns");
        }
        return MakeUnionAll(std::move(l), std::move(r));
      }
      case SqlQuery::Kind::kExceptAll: {
        PlanPtr l = BindQuery(*query.left);
        PlanPtr r = BindQuery(*query.right);
        if (l->schema.size() != r->schema.size()) {
          Fail("EXCEPT ALL inputs must have the same number of columns");
        }
        return MakeExceptAll(std::move(l), std::move(r));
      }
    }
    Fail("unknown query kind");
  }

  EncodedTables TakeEncodedTables() {
    return std::move(encoded_tables_);
  }

 private:
  PlanPtr BindTableRef(const TableRef& ref) {
    if (ref.kind == TableRef::Kind::kSubquery) {
      PlanPtr sub = BindQuery(*ref.subquery);
      // Re-qualify the subquery's output columns with its alias.
      auto aliased = std::make_shared<Plan>(*sub);
      aliased->schema = sub->schema.WithQualifier(ref.alias);
      return aliased;
    }
    if (!catalog_->Has(ref.table)) {
      Fail(StrCat("unknown table: ", ref.table));
    }
    const Schema& stored = catalog_->Get(ref.table).schema();
    if (!snapshot_) {
      return MakeScan(ref.table, stored.WithQualifier(ref.alias));
    }
    // Snapshot mode: identify the period columns.
    std::string begin_name = ref.period_begin;
    std::string end_name = ref.period_end;
    if (begin_name.empty()) {
      auto it = period_tables_->find(ref.table);
      if (it == period_tables_->end()) {
        Fail(StrCat("table ", ref.table,
                    " is not a period table; declare PERIOD(begin, end) or "
                    "register it as a period table"));
      }
      begin_name = it->second.begin_column;
      end_name = it->second.end_column;
    }
    int begin_idx = stored.Find("", begin_name);
    int end_idx = stored.Find("", end_name);
    if (begin_idx < 0 || end_idx < 0) {
      Fail(StrCat("period columns (", begin_name, ", ", end_name,
                  ") not found in table ", ref.table));
    }
    // Snapshot schema: every non-period column, qualified by the alias.
    std::vector<Column> snapshot_columns;
    std::vector<int> keep;
    for (size_t i = 0; i < stored.size(); ++i) {
      if (static_cast<int>(i) == begin_idx || static_cast<int>(i) == end_idx) {
        continue;
      }
      snapshot_columns.emplace_back(ref.alias, stored.at(i).name);
      keep.push_back(static_cast<int>(i));
    }
    // Encoded plan: the stored table with period columns moved last.
    PlanPtr encoded;
    if (begin_idx == static_cast<int>(stored.size()) - 2 &&
        end_idx == static_cast<int>(stored.size()) - 1) {
      encoded = MakeScan(ref.table, stored);
    } else {
      std::vector<int> order = keep;
      order.push_back(begin_idx);
      order.push_back(end_idx);
      encoded = MakeProjectColumns(MakeScan(ref.table, stored), order);
    }
    // Keyed by this reference's scan: another reference to the same
    // table may name other PERIOD columns.
    PlanPtr scan = MakeScan(ref.table, Schema(std::move(snapshot_columns)));
    encoded_tables_.emplace(scan, std::move(encoded));
    return scan;
  }

  PlanPtr BindFrom(const SelectQuery& select) {
    std::vector<PlanPtr> plans;
    for (const TableRef& ref : select.from) {
      plans.push_back(BindTableRef(ref));
    }
    std::vector<SqlExprPtr> conjuncts;
    for (const SqlExprPtr& on : select.join_conditions) {
      SplitConjuncts(on, &conjuncts);
    }
    SplitConjuncts(select.where, &conjuncts);
    // Reject aggregates in WHERE/ON.
    for (const SqlExprPtr& c : conjuncts) {
      if (ContainsAggregate(c)) {
        Fail("aggregates are not allowed in WHERE or ON clauses");
      }
    }
    std::vector<bool> used(conjuncts.size(), false);
    // Push single-table conjuncts below the joins.
    for (PlanPtr& plan : plans) {
      std::vector<ExprPtr> local;
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (used[c] || !ResolvableIn(conjuncts[c], plan->schema)) continue;
        local.push_back(BindScalar(conjuncts[c], plan->schema));
        used[c] = true;
      }
      if (!local.empty()) {
        plan = MakeSelect(std::move(plan), AndAll(std::move(local)));
      }
    }
    // Left-deep join tree; attach each conjunct at the lowest join where
    // it becomes resolvable (equi-keys then drive hash joins).
    PlanPtr acc = plans[0];
    for (size_t i = 1; i < plans.size(); ++i) {
      Schema combined = Schema::Concat(acc->schema, plans[i]->schema);
      std::vector<ExprPtr> join_preds;
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (used[c] || !ResolvableIn(conjuncts[c], combined)) continue;
        join_preds.push_back(BindScalar(conjuncts[c], combined));
        used[c] = true;
      }
      acc = MakeJoin(std::move(acc), plans[i], AndAll(std::move(join_preds)));
    }
    // Anything left (should not happen) goes into a final selection.
    std::vector<ExprPtr> rest;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (used[c]) continue;
      rest.push_back(BindScalar(conjuncts[c], acc->schema));
    }
    if (!rest.empty()) acc = MakeSelect(std::move(acc), AndAll(std::move(rest)));
    return acc;
  }

  PlanPtr BindSelect(const SelectQuery& select) {
    PlanPtr from = BindFrom(select);
    bool has_aggregate = !select.group_by.empty() ||
                         ContainsAggregate(select.having);
    for (const SelectItem& item : select.items) {
      if (!item.star && ContainsAggregate(item.expr)) has_aggregate = true;
    }

    PlanPtr result =
        has_aggregate ? BindAggregateSelect(select, std::move(from))
                      : BindPlainSelect(select, std::move(from));
    if (select.distinct) result = MakeDistinct(std::move(result));
    return result;
  }

  PlanPtr BindPlainSelect(const SelectQuery& select, PlanPtr from) {
    const Schema& scope = from->schema;
    std::vector<ExprPtr> exprs;
    std::vector<Column> names;
    for (size_t i = 0; i < select.items.size(); ++i) {
      const SelectItem& item = select.items[i];
      if (item.star) {
        for (size_t c = 0; c < scope.size(); ++c) {
          if (!item.star_qualifier.empty() &&
              !EqualsIgnoreCase(scope.at(c).table, item.star_qualifier)) {
            continue;
          }
          exprs.push_back(Col(static_cast<int>(c), scope.at(c).ToString()));
          names.emplace_back(scope.at(c).name);
        }
        continue;
      }
      exprs.push_back(BindScalar(item.expr, scope));
      names.emplace_back(DeriveName(item, i));
    }
    if (exprs.empty()) Fail("empty select list");
    return MakeProject(std::move(from), std::move(exprs), std::move(names));
  }

  PlanPtr BindAggregateSelect(const SelectQuery& select, PlanPtr from) {
    const Schema scope = from->schema;
    // Bind GROUP BY expressions.
    std::vector<ExprPtr> group_exprs;
    std::vector<Column> group_names;
    for (size_t g = 0; g < select.group_by.size(); ++g) {
      group_exprs.push_back(BindScalar(select.group_by[g], scope));
      if (select.group_by[g]->kind == SqlExprKind::kColumnRef) {
        group_names.emplace_back(select.group_by[g]->qualifier,
                                 select.group_by[g]->name);
      } else {
        group_names.emplace_back(StrCat("group_", g));
      }
    }
    // Collect distinct aggregate calls from SELECT and HAVING.
    std::vector<SqlExprPtr> calls;
    for (const SelectItem& item : select.items) {
      if (item.star) Fail("'*' cannot be mixed with aggregation");
      CollectAggregateCalls(item.expr, &calls);
    }
    CollectAggregateCalls(select.having, &calls);
    std::vector<std::string> call_keys;
    std::vector<AggExpr> aggs;
    auto agg_index = [&](const SqlExprPtr& call) -> int {
      std::string key = call->ToString();
      for (size_t i = 0; i < call_keys.size(); ++i) {
        if (call_keys[i] == key) return static_cast<int>(i);
      }
      return -1;
    };
    for (const SqlExprPtr& call : calls) {
      if (agg_index(call) >= 0) continue;
      if (call->args.size() != 1) {
        Fail(StrCat("aggregate takes exactly one argument: ",
                    call->ToString()));
      }
      bool star = call->args[0]->kind == SqlExprKind::kStar;
      AggExpr agg;
      agg.func = AggFuncFromName(call->name, star);
      if (star && call->name != "count") {
        Fail(StrCat("'*' is only valid for count: ", call->ToString()));
      }
      agg.arg = star ? nullptr : BindScalar(call->args[0], scope);
      agg.name = StrCat("agg_", call_keys.size());
      call_keys.push_back(call->ToString());
      aggs.push_back(std::move(agg));
    }
    PlanPtr agg_plan =
        MakeAggregate(std::move(from), group_exprs, group_names, aggs);
    size_t n_groups = group_exprs.size();

    // Translate post-aggregation expressions: aggregate calls resolve to
    // aggregate output columns; any other subexpression must match a
    // GROUP BY expression (checked structurally) or be built from such.
    std::function<ExprPtr(const SqlExprPtr&)> translate =
        [&](const SqlExprPtr& e) -> ExprPtr {
      if (e->kind == SqlExprKind::kFuncCall && IsAggregateName(e->name)) {
        int idx = agg_index(e);
        if (idx < 0) Fail("internal: aggregate call not collected");
        return Col(static_cast<int>(n_groups) + idx, e->ToString());
      }
      if (!ContainsAggregate(e) && ResolvableIn(e, scope)) {
        ExprPtr bound = BindScalar(e, scope);
        for (size_t g = 0; g < group_exprs.size(); ++g) {
          if (ExprStructurallyEqual(bound, group_exprs[g])) {
            return Col(static_cast<int>(g), e->ToString());
          }
        }
        if (e->kind == SqlExprKind::kColumnRef) {
          Fail(StrCat("column ", e->ToString(),
                      " must appear in GROUP BY or inside an aggregate"));
        }
      }
      // Rebuild from translated children.
      if (e->args.empty()) {
        if (e->kind == SqlExprKind::kLiteral) return Lit(e->literal);
        Fail(StrCat("expression ", e->ToString(),
                    " must appear in GROUP BY or inside an aggregate"));
      }
      auto copy = std::make_shared<SqlExpr>(*e);
      // Translate by binding against a pseudo-scope: replace children
      // first, which requires rebuilding via BindScalar-like dispatch.
      // Reuse BindScalar by constructing a wrapper scope is not possible
      // for mixed expressions, so rebuild manually per kind.
      std::vector<ExprPtr> kids;
      for (const SqlExprPtr& a : e->args) kids.push_back(translate(a));
      switch (e->kind) {
        case SqlExprKind::kBinary: {
          const std::string& op = e->op;
          if (op == "and") return And(kids[0], kids[1]);
          if (op == "or") return Or(kids[0], kids[1]);
          if (op == "=") return Eq(kids[0], kids[1]);
          if (op == "<>") return Ne(kids[0], kids[1]);
          if (op == "<") return Lt(kids[0], kids[1]);
          if (op == "<=") return Le(kids[0], kids[1]);
          if (op == ">") return Gt(kids[0], kids[1]);
          if (op == ">=") return Ge(kids[0], kids[1]);
          if (op == "+") return Add(kids[0], kids[1]);
          if (op == "-") return Sub(kids[0], kids[1]);
          if (op == "*") return Mul(kids[0], kids[1]);
          if (op == "/") return Div(kids[0], kids[1]);
          if (op == "%") return Arith(ArithOp::kMod, kids[0], kids[1]);
          Fail(StrCat("unknown operator: ", op));
        }
        case SqlExprKind::kUnary:
          return e->op == "not" ? Not(kids[0]) : Neg(kids[0]);
        case SqlExprKind::kFuncCall: {
          if (e->name == "least") return Func(ScalarFunc::kLeast, kids);
          if (e->name == "greatest") return Func(ScalarFunc::kGreatest, kids);
          if (e->name == "abs") return Func(ScalarFunc::kAbs, kids);
          if (e->name == "year") return Func(ScalarFunc::kYear, kids);
          if (e->name == "ifnull" || e->name == "coalesce") {
            return Func(ScalarFunc::kIfNull, kids);
          }
          Fail(StrCat("unknown function: ", e->name));
        }
        case SqlExprKind::kCase: {
          size_t pairs = (e->args.size() - (e->has_else ? 1 : 0)) / 2;
          std::vector<std::pair<ExprPtr, ExprPtr>> branches;
          for (size_t i = 0; i < pairs; ++i) {
            branches.emplace_back(kids[2 * i], kids[2 * i + 1]);
          }
          return CaseWhen(std::move(branches),
                          e->has_else ? kids.back() : nullptr);
        }
        case SqlExprKind::kIn: {
          std::vector<ExprPtr> candidates(kids.begin() + 1, kids.end());
          return InList(kids[0], std::move(candidates), e->negated);
        }
        case SqlExprKind::kBetween:
          return Between(kids[0], kids[1], kids[2], e->negated);
        case SqlExprKind::kIsNull:
          return IsNull(kids[0], e->negated);
        case SqlExprKind::kLike:
          return Like(kids[0], kids[1], e->negated);
        default:
          Fail(StrCat("unsupported expression after aggregation: ",
                      e->ToString()));
      }
    };

    PlanPtr result = agg_plan;
    if (select.having != nullptr) {
      result = MakeSelect(std::move(result), translate(select.having));
    }
    std::vector<ExprPtr> exprs;
    std::vector<Column> names;
    for (size_t i = 0; i < select.items.size(); ++i) {
      exprs.push_back(translate(select.items[i].expr));
      names.emplace_back(DeriveName(select.items[i], i));
    }
    return MakeProject(std::move(result), std::move(exprs), std::move(names));
  }

  const Catalog* catalog_;
  const std::map<std::string, PeriodTableInfo>* period_tables_;
  bool snapshot_;
  EncodedTables encoded_tables_;
};

}  // namespace

Result<BoundStatement> Binder::Bind(const Statement& statement) const {
  try {
    BinderImpl impl(catalog_, period_tables_, statement.snapshot);
    BoundStatement bound;
    bound.snapshot = statement.snapshot;
    bound.as_of = statement.as_of;
    bound.plan = impl.BindQuery(*statement.query);
    bound.encoded_tables = impl.TakeEncodedTables();
    bound.order_by = statement.order_by;
    return bound;
  } catch (const BindFailure& failure) {
    return Status::BindError(failure.message);
  } catch (const EngineError& error) {
    return Status::BindError(error.what());
  }
}

Result<std::vector<SortKey>> BindOrderBy(const std::vector<OrderItem>& items,
                                         const Schema& schema) {
  std::vector<SortKey> keys;
  for (const OrderItem& item : items) {
    SortKey key;
    key.ascending = item.ascending;
    if (item.expr->kind == SqlExprKind::kLiteral &&
        item.expr->literal.type() == ValueType::kInt) {
      int64_t ordinal = item.expr->literal.AsInt();
      if (ordinal < 1 || ordinal > static_cast<int64_t>(schema.size())) {
        return Status::BindError(
            StrCat("ORDER BY ordinal out of range: ", ordinal));
      }
      key.column = static_cast<int>(ordinal - 1);
    } else if (item.expr->kind == SqlExprKind::kColumnRef) {
      int idx = schema.Find(item.expr->qualifier, item.expr->name);
      if (idx == -1) {
        return Status::BindError(
            StrCat("unknown ORDER BY column: ", item.expr->ToString()));
      }
      if (idx == -2) {
        return Status::BindError(
            StrCat("ambiguous ORDER BY column: ", item.expr->ToString()));
      }
      key.column = idx;
    } else {
      return Status::BindError(
          "ORDER BY supports column references and ordinals only");
    }
    keys.push_back(key);
  }
  return keys;
}

}  // namespace sql
}  // namespace periodk
