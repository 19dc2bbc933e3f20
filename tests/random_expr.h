// The random expression corpus of the typed-evaluation suites: a table
// with one column per kind of cell (int, double, bool, string, mostly
// NULL, mixed) and random expression trees over it that reach every
// ExprKind and ScalarFunc, type errors and out-of-range columns
// included.
#ifndef PERIODK_TESTS_RANDOM_EXPR_H_
#define PERIODK_TESTS_RANDOM_EXPR_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "engine/expr.h"

namespace periodk {

// Columns of the random layout table, one per kind of cell.
enum LayoutColumn { kIntCol, kDoubleCol, kBoolCol, kStringCol, kNullCol,
                    kMixedCol, kLayoutArity };

inline Value RandomInt(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0:
      return Value::Int(std::numeric_limits<int64_t>::max());
    case 1:
      return Value::Int(std::numeric_limits<int64_t>::min());
    case 2:
      return Value::Int(0);
    default:
      return Value::Int(rng->Range(-800, 800));
  }
}

inline Value RandomDouble(Rng* rng) {
  switch (rng->Uniform(7)) {
    case 0:
      return Value::Double(-0.0);
    case 1:
      return Value::Double(std::numeric_limits<double>::quiet_NaN());
    case 2:
      return Value::Double(0.0);
    case 3:
      return Value::Double(std::numeric_limits<double>::infinity());
    default:
      return Value::Double(static_cast<double>(rng->Range(-64, 64)) / 8.0);
  }
}

inline Value RandomString(Rng* rng) {
  const char* strings[] = {"", "a", "abc", "green", "xgreeny", "a%b", "A_c"};
  return Value::String(strings[rng->Uniform(7)]);
}

inline Value RandomCell(Rng* rng, LayoutColumn col) {
  if (rng->Chance(col == kNullCol ? 0.85 : 0.15)) return Value::Null();
  switch (col) {
    case kIntCol:
    case kNullCol:
      return RandomInt(rng);
    case kDoubleCol:
      return RandomDouble(rng);
    case kBoolCol:
      return Value::Bool(rng->Chance(0.5));
    case kStringCol:
      return RandomString(rng);
    default:
      break;
  }
  switch (rng->Uniform(4)) {  // kMixedCol
    case 0:
      return RandomInt(rng);
    case 1:
      return RandomDouble(rng);
    case 2:
      return Value::Bool(rng->Chance(0.5));
    default:
      return RandomString(rng);
  }
}

/// Random expression trees over every ExprKind and ScalarFunc.  Each
/// subtree is drawn for a wanted type (numeric, bool, string); with a
/// small chance it is drawn for any type, so type errors occur too, and
/// column references now and then fall outside the table.
class RandomLayoutExpr {
 public:
  enum Want { kNumeric, kBool, kString, kAny };

  explicit RandomLayoutExpr(Rng* rng) : rng_(rng) {}

  ExprPtr Gen(Want want, int depth) {
    if (rng_->Chance(0.06)) want = kAny;
    if (want == kAny) want = static_cast<Want>(rng_->Uniform(3));
    if (depth <= 0 || rng_->Chance(0.3)) return Leaf(want);
    switch (want) {
      case kNumeric:
        return Numeric(depth - 1);
      case kBool:
        return Bool(depth - 1);
      default:
        return String(depth - 1);
    }
  }

  ExprPtr Column(Want want) {
    if (rng_->Chance(0.03)) {
      return Col(kLayoutArity + static_cast<int>(rng_->Uniform(3)));
    }
    const LayoutColumn numeric[] = {kIntCol, kDoubleCol, kNullCol, kMixedCol};
    switch (want) {
      case kNumeric:
        return Col(numeric[rng_->Uniform(4)]);
      case kBool:
        return Col(rng_->Chance(0.8) ? kBoolCol : kMixedCol);
      case kString:
        return Col(rng_->Chance(0.8) ? kStringCol : kMixedCol);
      default:
        return Col(static_cast<int>(rng_->Uniform(kLayoutArity)));
    }
  }

 private:
  ExprPtr Leaf(Want want) {
    if (rng_->Chance(0.6)) return Column(want);
    if (rng_->Chance(0.1)) return Lit(Value::Null());
    switch (want) {
      case kNumeric:
        return Lit(rng_->Chance(0.5) ? RandomInt(rng_) : RandomDouble(rng_));
      case kBool:
        return Lit(Value::Bool(rng_->Chance(0.5)));
      default:
        return Lit(RandomString(rng_));
    }
  }

  ExprPtr Numeric(int depth) {
    switch (rng_->Uniform(6)) {
      case 0:
      case 1: {
        // + - * / %, with zero divisors and overflowing operands.
        auto op = static_cast<ArithOp>(rng_->Uniform(5));
        ExprPtr rhs = rng_->Chance(0.2) ? LitInt(0) : Gen(kNumeric, depth);
        if (op == ArithOp::kMod && rng_->Chance(0.5)) {
          rhs = LitInt(rng_->Range(-3, 3));
        }
        return Arith(op, Gen(kNumeric, depth), std::move(rhs));
      }
      case 2:
        return Neg(Gen(kNumeric, depth));
      case 3: {
        auto f = static_cast<ScalarFunc>(rng_->Uniform(5));
        std::vector<ExprPtr> args;
        size_t n = f == ScalarFunc::kLeast || f == ScalarFunc::kGreatest
                       ? 1 + rng_->Uniform(3)
                       : f == ScalarFunc::kIfNull ? 2 : 1;
        for (size_t i = 0; i < n; ++i) args.push_back(Gen(kNumeric, depth));
        return Func(f, std::move(args));
      }
      default:
        return Case(kNumeric, depth);
    }
  }

  ExprPtr Bool(int depth) {
    switch (rng_->Uniform(9)) {
      case 0: {
        Want side = rng_->Chance(0.7) ? kNumeric : kString;
        return Cmp(static_cast<CompareOp>(rng_->Uniform(6)), Gen(side, depth),
                   Gen(side, depth));
      }
      case 1:
        return And(Gen(kBool, depth), Gen(kBool, depth));
      case 2:
        return Or(Gen(kBool, depth), Gen(kBool, depth));
      case 3:
        return Not(Gen(kBool, depth));
      case 4: {
        std::vector<ExprPtr> candidates;
        for (uint64_t i = 0, n = 1 + rng_->Uniform(3); i < n; ++i) {
          candidates.push_back(Gen(kNumeric, depth));
        }
        return InList(Gen(kNumeric, depth), std::move(candidates),
                      rng_->Chance(0.5));
      }
      case 5:
        return Between(Gen(kNumeric, depth), Gen(kNumeric, depth),
                       Gen(kNumeric, depth), rng_->Chance(0.5));
      case 6:
        return IsNull(Gen(kAny, depth), rng_->Chance(0.5));
      case 7: {
        const char* patterns[] = {"%green%", "a%", "_", "%", "A\\_c", "abc"};
        ExprPtr pattern = rng_->Chance(0.7)
                              ? LitStr(patterns[rng_->Uniform(6)])
                              : Gen(kString, depth);
        return Like(Gen(kString, depth), std::move(pattern), rng_->Chance(0.5));
      }
      default:
        return Case(kBool, depth);
    }
  }

  ExprPtr String(int depth) {
    if (rng_->Chance(0.5)) {
      return Func(ScalarFunc::kIfNull,
                  {Gen(kString, depth), Gen(kString, depth)});
    }
    return Case(kString, depth);
  }

  // CASE over one or two branches, sometimes with an untaken branch
  // whose value would throw, and sometimes without ELSE.
  ExprPtr Case(Want want, int depth) {
    std::vector<std::pair<ExprPtr, ExprPtr>> branches;
    if (rng_->Chance(0.3)) {
      Value untaken = rng_->Chance(0.5) ? Value::Bool(false) : Value::Null();
      branches.emplace_back(Lit(untaken), Add(LitStr("abc"), LitInt(1)));
    }
    for (uint64_t i = 0, n = 1 + rng_->Uniform(2); i < n; ++i) {
      branches.emplace_back(Gen(kBool, depth), Gen(want, depth));
    }
    return CaseWhen(std::move(branches),
                    rng_->Chance(0.7) ? Gen(want, depth) : nullptr);
  }

  Rng* rng_;
};

}  // namespace periodk

#endif  // PERIODK_TESTS_RANDOM_EXPR_H_
