// Scalar expression trees evaluated over rows.  Column references are
// *resolved indices* (the SQL binder translates names to indices), so
// evaluation needs no catalog.  Comparison and boolean operators follow
// SQL three-valued logic; a predicate holds iff it evaluates to
// Bool(true).
#ifndef PERIODK_ENGINE_EXPR_H_
#define PERIODK_ENGINE_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace periodk {

enum class ExprKind {
  kColumn,
  kLiteral,
  kCompare,
  kAnd,
  kOr,
  kNot,
  kArith,
  kNeg,
  kFunc,
  kCase,     // children: [when1, then1, ..., whenN, thenN, else]
  kIn,       // children: [needle, candidate1, ..., candidateN]
  kBetween,  // children: [expr, lo, hi]
  kIsNull,   // children: [expr]; `negated` for IS NOT NULL
  kLike,     // children: [expr, pattern]; `negated` for NOT LIKE
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };

/// Scalar functions.  kYear interprets an integer day number in the
/// synthetic 365-day calendar used by the data generators
/// (day 0 = year base, year(d) = base_year + d / 365).
enum class ScalarFunc { kLeast, kGreatest, kAbs, kYear, kIfNull };

/// year() of day `day`: 365-day years anchored at 1992 (TPC-H's epoch).
constexpr int64_t YearOfDay(int64_t day) { return 1992 + day / 365; }

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  ExprKind kind = ExprKind::kLiteral;
  int column = -1;           // kColumn
  std::string display;       // kColumn: name for printing
  Value literal;             // kLiteral
  CompareOp cmp = CompareOp::kEq;
  ArithOp arith = ArithOp::kAdd;
  ScalarFunc func = ScalarFunc::kAbs;
  bool negated = false;      // kIsNull / kIn / kBetween / kLike
  std::vector<ExprPtr> children;

  /// Evaluates against a row; throws EngineError on structural errors.
  Value Eval(const Row& row) const;

  /// True iff Eval returns Bool(true) (SQL predicate semantics: NULL and
  /// false both reject).  Any other value is an EngineError naming it,
  /// as AND, OR and NOT raise: WHERE, ON, join residuals and CASE
  /// conditions all judge a value this way.
  bool EvalBool(const Row& row) const;

  std::string ToString() const;
};

// --- Factory helpers (the only way to build expressions). ------------------

ExprPtr Col(int index, std::string display = "");
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitStr(std::string v);
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);
ExprPtr And(ExprPtr l, ExprPtr r);
/// Conjunction of a list; empty list yields literal TRUE.
ExprPtr AndAll(std::vector<ExprPtr> conjuncts);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);
ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);
ExprPtr Div(ExprPtr l, ExprPtr r);
ExprPtr Neg(ExprPtr e);
ExprPtr Func(ScalarFunc f, std::vector<ExprPtr> args);
/// CASE WHEN c1 THEN v1 ... ELSE e END; pass nullptr else for NULL.
ExprPtr CaseWhen(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
                 ExprPtr else_expr);
ExprPtr InList(ExprPtr needle, std::vector<ExprPtr> candidates,
               bool negated = false);
ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi, bool negated = false);
ExprPtr IsNull(ExprPtr e, bool negated = false);
ExprPtr Like(ExprPtr e, ExprPtr pattern, bool negated = false);

// --- Structural helpers used by the binder and the rewriter. ---------------

/// Clones `e` applying `fn` to every column index.
ExprPtr RemapColumns(const ExprPtr& e, const std::function<int(int)>& fn);

/// Clones `e` adding `offset` to every column index.
ExprPtr ShiftColumns(const ExprPtr& e, int offset);

/// Appends all referenced column indices to `out`.
void CollectColumns(const ExprPtr& e, std::vector<int>* out);

/// Structural equality ignoring display names, literals equal only in
/// type and, for doubles, in bits (used by the SQL binder to match
/// SELECT expressions against GROUP BY expressions, and to project each
/// distinct aggregate argument once).
bool ExprStructurallyEqual(const ExprPtr& a, const ExprPtr& b);

// Join-predicate decomposition (equi-keys, overlap conjunct, residual)
// lives in ra/join_analysis.h; MakeJoin runs it at plan build time.

}  // namespace periodk

#endif  // PERIODK_ENGINE_EXPR_H_
