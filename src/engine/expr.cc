#include "engine/expr.h"

#include <bit>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "common/str_util.h"

namespace periodk {

namespace {

Value EvalCompare(CompareOp op, const Value& a, const Value& b) {
  std::optional<int> c = SqlCompare(a, b);
  if (!c.has_value()) return Value::Null();
  switch (op) {
    case CompareOp::kEq:
      return Value::Bool(*c == 0);
    case CompareOp::kNe:
      return Value::Bool(*c != 0);
    case CompareOp::kLt:
      return Value::Bool(*c < 0);
    case CompareOp::kLe:
      return Value::Bool(*c <= 0);
    case CompareOp::kGt:
      return Value::Bool(*c > 0);
    case CompareOp::kGe:
      return Value::Bool(*c >= 0);
  }
  throw EngineError("unknown comparison operator");
}

Value EvalArith(ArithOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    throw EngineError(StrCat("arithmetic on non-numeric values: ",
                             a.ToString(), " vs ", b.ToString()));
  }
  bool both_int =
      a.type() == ValueType::kInt && b.type() == ValueType::kInt;
  // Integer + - * that overflows int64 widens to double, like / and the
  // aggregate sums (and SQLite, so the differential oracle agrees).
  int64_t exact = 0;
  switch (op) {
    case ArithOp::kAdd:
      if (both_int && !__builtin_add_overflow(a.AsInt(), b.AsInt(), &exact)) {
        return Value::Int(exact);
      }
      return Value::Double(a.NumericAsDouble() + b.NumericAsDouble());
    case ArithOp::kSub:
      if (both_int && !__builtin_sub_overflow(a.AsInt(), b.AsInt(), &exact)) {
        return Value::Int(exact);
      }
      return Value::Double(a.NumericAsDouble() - b.NumericAsDouble());
    case ArithOp::kMul:
      if (both_int && !__builtin_mul_overflow(a.AsInt(), b.AsInt(), &exact)) {
        return Value::Int(exact);
      }
      return Value::Double(a.NumericAsDouble() * b.NumericAsDouble());
    case ArithOp::kDiv: {
      // Division always yields double (decimal semantics); x / 0 -> NULL.
      double d = b.NumericAsDouble();
      if (d == 0.0) return Value::Null();
      return Value::Double(a.NumericAsDouble() / d);
    }
    case ArithOp::kMod: {
      if (!both_int) throw EngineError("%% requires integer operands");
      if (b.AsInt() == 0) return Value::Null();
      // x % -1 is 0; computing INT64_MIN % -1 would trap.
      if (b.AsInt() == -1) return Value::Int(0);
      return Value::Int(a.AsInt() % b.AsInt());
    }
  }
  throw EngineError("unknown arithmetic operator");
}

Value EvalFunc(ScalarFunc f, const std::vector<Value>& args) {
  switch (f) {
    case ScalarFunc::kLeast:
    case ScalarFunc::kGreatest: {
      // Postgres semantics: NULL arguments are ignored.
      Value best;
      bool any = false;
      for (const Value& v : args) {
        if (v.is_null()) continue;
        if (!any ||
            (f == ScalarFunc::kLeast ? v.Compare(best) < 0
                                     : v.Compare(best) > 0)) {
          best = v;
        }
        any = true;
      }
      return any ? best : Value::Null();
    }
    case ScalarFunc::kAbs: {
      const Value& v = args.at(0);
      if (v.is_null()) return Value::Null();
      if (!v.is_numeric()) {
        throw EngineError(
            StrCat("abs() on a non-numeric value: ", v.ToString()));
      }
      if (v.type() == ValueType::kInt &&
          v.AsInt() != std::numeric_limits<int64_t>::min()) {
        return Value::Int(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
      }
      return Value::Double(std::fabs(v.NumericAsDouble()));
    }
    case ScalarFunc::kYear: {
      const Value& v = args.at(0);
      if (v.is_null()) return Value::Null();
      const int64_t* day = v.TryInt();
      if (day == nullptr) {
        throw EngineError(
            StrCat("year() on a non-integer value: ", v.ToString()));
      }
      return Value::Int(YearOfDay(*day));
    }
    case ScalarFunc::kIfNull:
      return args.at(0).is_null() ? args.at(1) : args.at(0);
  }
  throw EngineError("unknown scalar function");
}

// A truth value (nullopt for NULL): an AND / OR operand, a predicate.
// Any other value is an error naming the operator and the value, as
// NOT's is.
std::optional<bool> TruthValue(const Value& v, const char* op) {
  if (v.is_null()) return std::nullopt;
  if (const bool* b = v.TryBool()) return *b;
  throw EngineError(StrCat(op, " on a non-boolean value: ", v.ToString()));
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

const char* ScalarFuncName(ScalarFunc f) {
  switch (f) {
    case ScalarFunc::kLeast:
      return "least";
    case ScalarFunc::kGreatest:
      return "greatest";
    case ScalarFunc::kAbs:
      return "abs";
    case ScalarFunc::kYear:
      return "year";
    case ScalarFunc::kIfNull:
      return "ifnull";
  }
  return "?";
}

}  // namespace

Value Expr::Eval(const Row& row) const {
  switch (kind) {
    case ExprKind::kColumn:
      if (column < 0 || static_cast<size_t>(column) >= row.size()) {
        throw EngineError(StrCat("column index ", column,
                                 " out of range for row of arity ",
                                 row.size()));
      }
      return row[static_cast<size_t>(column)];
    case ExprKind::kLiteral:
      return literal;
    case ExprKind::kCompare:
      return EvalCompare(cmp, children[0]->Eval(row), children[1]->Eval(row));
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      // Kleene three-valued logic: an operand equal to `decides` (false
      // for AND, true for OR) decides the result.  Each operand is
      // checked as it is evaluated, so a deciding first operand
      // short-circuits past the second.
      const bool decides = kind == ExprKind::kOr;
      const char* op = decides ? "OR" : "AND";
      const std::optional<bool> a = TruthValue(children[0]->Eval(row), op);
      if (a == decides) return Value::Bool(decides);
      const std::optional<bool> b = TruthValue(children[1]->Eval(row), op);
      if (b == decides) return Value::Bool(decides);
      if (!a.has_value() || !b.has_value()) return Value::Null();
      return Value::Bool(!decides);
    }
    case ExprKind::kNot: {
      Value a = children[0]->Eval(row);
      if (a.is_null()) return Value::Null();
      const bool* b = a.TryBool();
      if (b == nullptr) {
        throw EngineError(StrCat("NOT on a non-boolean value: ", a.ToString()));
      }
      return Value::Bool(!*b);
    }
    case ExprKind::kArith:
      return EvalArith(arith, children[0]->Eval(row), children[1]->Eval(row));
    case ExprKind::kNeg: {
      Value a = children[0]->Eval(row);
      if (a.is_null()) return Value::Null();
      if (!a.is_numeric()) {
        throw EngineError(
            StrCat("unary minus on a non-numeric value: ", a.ToString()));
      }
      // -INT64_MIN is not an int64: it widens, like binary arithmetic.
      if (a.type() == ValueType::kInt &&
          a.AsInt() != std::numeric_limits<int64_t>::min()) {
        return Value::Int(-a.AsInt());
      }
      return Value::Double(-a.NumericAsDouble());
    }
    case ExprKind::kFunc: {
      std::vector<Value> args;
      args.reserve(children.size());
      for (const ExprPtr& c : children) args.push_back(c->Eval(row));
      return EvalFunc(func, args);
    }
    case ExprKind::kCase: {
      size_t n_branches = children.size() / 2;
      for (size_t i = 0; i < n_branches; ++i) {
        if (children[2 * i]->EvalBool(row)) {
          return children[2 * i + 1]->Eval(row);
        }
      }
      if (children.size() % 2 == 1) return children.back()->Eval(row);
      return Value::Null();
    }
    case ExprKind::kIn: {
      Value needle = children[0]->Eval(row);
      if (needle.is_null()) return Value::Null();
      bool saw_null = false;
      for (size_t i = 1; i < children.size(); ++i) {
        std::optional<int> c = SqlCompare(needle, children[i]->Eval(row));
        if (!c.has_value()) {
          saw_null = true;
        } else if (*c == 0) {
          return Value::Bool(!negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(negated);
    }
    case ExprKind::kBetween: {
      Value v = children[0]->Eval(row);
      Value lo = children[1]->Eval(row);
      Value hi = children[2]->Eval(row);
      Value ge = EvalCompare(CompareOp::kGe, v, lo);
      Value le = EvalCompare(CompareOp::kLe, v, hi);
      if (ge.is_null() || le.is_null()) return Value::Null();
      bool in = ge.AsBool() && le.AsBool();
      return Value::Bool(negated ? !in : in);
    }
    case ExprKind::kIsNull: {
      bool is_null = children[0]->Eval(row).is_null();
      return Value::Bool(negated ? !is_null : is_null);
    }
    case ExprKind::kLike: {
      Value text = children[0]->Eval(row);
      Value pattern = children[1]->Eval(row);
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (text.TryString() == nullptr || pattern.TryString() == nullptr) {
        throw EngineError(StrCat("LIKE on non-string values: ",
                                 text.ToString(), " vs ", pattern.ToString()));
      }
      bool m = SqlLikeMatch(text.AsString(), pattern.AsString());
      return Value::Bool(negated ? !m : m);
    }
  }
  throw EngineError("unknown expression kind");
}

bool Expr::EvalBool(const Row& row) const {
  return TruthValue(Eval(row), "condition") == true;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumn:
      return display.empty() ? StrCat("#", column) : display;
    case ExprKind::kLiteral:
      return literal.type() == ValueType::kString
                 ? StrCat("'", literal.ToString(), "'")
                 : literal.ToString();
    case ExprKind::kCompare:
      return StrCat("(", children[0]->ToString(), " ", CompareOpName(cmp),
                    " ", children[1]->ToString(), ")");
    case ExprKind::kAnd:
      return StrCat("(", children[0]->ToString(), " AND ",
                    children[1]->ToString(), ")");
    case ExprKind::kOr:
      return StrCat("(", children[0]->ToString(), " OR ",
                    children[1]->ToString(), ")");
    case ExprKind::kNot:
      return StrCat("(NOT ", children[0]->ToString(), ")");
    case ExprKind::kArith:
      return StrCat("(", children[0]->ToString(), " ", ArithOpName(arith),
                    " ", children[1]->ToString(), ")");
    case ExprKind::kNeg:
      return StrCat("(-", children[0]->ToString(), ")");
    case ExprKind::kFunc:
      return StrCat(ScalarFuncName(func), "(",
                    JoinMapped(children, ", ",
                               [](const ExprPtr& c) { return c->ToString(); }),
                    ")");
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t n_branches = children.size() / 2;
      for (size_t i = 0; i < n_branches; ++i) {
        out += StrCat(" WHEN ", children[2 * i]->ToString(), " THEN ",
                      children[2 * i + 1]->ToString());
      }
      if (children.size() % 2 == 1) {
        out += StrCat(" ELSE ", children.back()->ToString());
      }
      return out + " END";
    }
    case ExprKind::kIn: {
      std::vector<ExprPtr> rest(children.begin() + 1, children.end());
      return StrCat(children[0]->ToString(), negated ? " NOT IN (" : " IN (",
                    JoinMapped(rest, ", ",
                               [](const ExprPtr& c) { return c->ToString(); }),
                    ")");
    }
    case ExprKind::kBetween:
      return StrCat(children[0]->ToString(),
                    negated ? " NOT BETWEEN " : " BETWEEN ",
                    children[1]->ToString(), " AND ",
                    children[2]->ToString());
    case ExprKind::kIsNull:
      return StrCat(children[0]->ToString(),
                    negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kLike:
      return StrCat(children[0]->ToString(), negated ? " NOT LIKE " : " LIKE ",
                    children[1]->ToString());
  }
  return "?";
}

namespace {

std::shared_ptr<Expr> MakeNode(ExprKind kind, std::vector<ExprPtr> children) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->children = std::move(children);
  return e;
}

}  // namespace

ExprPtr Col(int index, std::string display) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kColumn;
  e->column = index;
  e->display = std::move(display);
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitStr(std::string v) { return Lit(Value::String(std::move(v))); }

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = MakeNode(ExprKind::kCompare, {std::move(l), std::move(r)});
  e->cmp = op;
  return e;
}

ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kEq, std::move(l), std::move(r));
}
ExprPtr Ne(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kNe, std::move(l), std::move(r));
}
ExprPtr Lt(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kLt, std::move(l), std::move(r));
}
ExprPtr Le(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kLe, std::move(l), std::move(r));
}
ExprPtr Gt(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kGt, std::move(l), std::move(r));
}
ExprPtr Ge(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kGe, std::move(l), std::move(r));
}

ExprPtr And(ExprPtr l, ExprPtr r) {
  return MakeNode(ExprKind::kAnd, {std::move(l), std::move(r)});
}

ExprPtr AndAll(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return Lit(Value::Bool(true));
  ExprPtr out = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = And(out, conjuncts[i]);
  }
  return out;
}

ExprPtr Or(ExprPtr l, ExprPtr r) {
  return MakeNode(ExprKind::kOr, {std::move(l), std::move(r)});
}

ExprPtr Not(ExprPtr e) { return MakeNode(ExprKind::kNot, {std::move(e)}); }

ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = MakeNode(ExprKind::kArith, {std::move(l), std::move(r)});
  e->arith = op;
  return e;
}

ExprPtr Add(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kAdd, std::move(l), std::move(r));
}
ExprPtr Sub(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kSub, std::move(l), std::move(r));
}
ExprPtr Mul(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kMul, std::move(l), std::move(r));
}
ExprPtr Div(ExprPtr l, ExprPtr r) {
  return Arith(ArithOp::kDiv, std::move(l), std::move(r));
}

ExprPtr Neg(ExprPtr e) { return MakeNode(ExprKind::kNeg, {std::move(e)}); }

ExprPtr Func(ScalarFunc f, std::vector<ExprPtr> args) {
  auto e = MakeNode(ExprKind::kFunc, std::move(args));
  e->func = f;
  return e;
}

ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr) {
  std::vector<ExprPtr> children;
  for (auto& [cond, then] : branches) {
    children.push_back(std::move(cond));
    children.push_back(std::move(then));
  }
  if (else_expr != nullptr) children.push_back(std::move(else_expr));
  return MakeNode(ExprKind::kCase, std::move(children));
}

ExprPtr InList(ExprPtr needle, std::vector<ExprPtr> candidates, bool negated) {
  std::vector<ExprPtr> children = {std::move(needle)};
  for (ExprPtr& c : candidates) children.push_back(std::move(c));
  auto e = MakeNode(ExprKind::kIn, std::move(children));
  e->negated = negated;
  return e;
}

ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi, bool negated) {
  auto n = MakeNode(ExprKind::kBetween,
                    {std::move(e), std::move(lo), std::move(hi)});
  n->negated = negated;
  return n;
}

ExprPtr IsNull(ExprPtr e, bool negated) {
  auto n = MakeNode(ExprKind::kIsNull, {std::move(e)});
  n->negated = negated;
  return n;
}

ExprPtr Like(ExprPtr e, ExprPtr pattern, bool negated) {
  auto n = MakeNode(ExprKind::kLike, {std::move(e), std::move(pattern)});
  n->negated = negated;
  return n;
}

ExprPtr RemapColumns(const ExprPtr& e, const std::function<int(int)>& fn) {
  auto copy = std::make_shared<Expr>(*e);
  if (copy->kind == ExprKind::kColumn) {
    copy->column = fn(copy->column);
  }
  for (ExprPtr& child : copy->children) {
    child = RemapColumns(child, fn);
  }
  return copy;
}

ExprPtr ShiftColumns(const ExprPtr& e, int offset) {
  return RemapColumns(e, [offset](int c) { return c + offset; });
}

void CollectColumns(const ExprPtr& e, std::vector<int>* out) {
  if (e->kind == ExprKind::kColumn) out->push_back(e->column);
  for (const ExprPtr& child : e->children) CollectColumns(child, out);
}

bool ExprStructurallyEqual(const ExprPtr& a, const ExprPtr& b) {
  if (a->kind != b->kind) return false;
  if (a->column != b->column) return false;
  // Literals by type and, for doubles, by bits: Value::Compare ranks NaN
  // equal to every number and -0.0 equal to 0.0.
  if (a->literal.type() != b->literal.type()) return false;
  if (const double* x = a->literal.TryDouble()) {
    if (std::bit_cast<uint64_t>(*x) !=
        std::bit_cast<uint64_t>(*b->literal.TryDouble())) {
      return false;
    }
  } else if (a->literal.Compare(b->literal) != 0) {
    return false;
  }
  if (a->cmp != b->cmp || a->arith != b->arith || a->func != b->func ||
      a->negated != b->negated) {
    return false;
  }
  if (a->children.size() != b->children.size()) return false;
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!ExprStructurallyEqual(a->children[i], b->children[i])) return false;
  }
  return true;
}

}  // namespace periodk
