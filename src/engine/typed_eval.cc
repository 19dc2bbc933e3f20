#include "engine/typed_eval.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "common/str_util.h"

namespace periodk {

namespace {

using VT = ValueType;

// periodk-lint: typed-lane-begin(typed-eval)

// One node's cells over every row or, for a constant, one cell standing
// for every row: cell i sits at i & mask.  `null` holds a byte per
// cell, 1 for NULL, and is empty when no cell is NULL.  The payload of
// `type` is borrowed from an input column or owned by the node: int64s,
// doubles, bools as 0/1 bytes, strings as codes into a sorted
// dictionary.  A kNull node (every cell NULL) reads as zeros of any
// type.  Moving a Vec keeps its pointers valid; copying would not.
struct Vec {
  VT type = VT::kNull;
  size_t mask = ~size_t{0};
  std::vector<uint8_t> null;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* bools = nullptr;
  const uint32_t* codes = nullptr;
  const StringDict* dict = nullptr;
  std::vector<int64_t> own_ints;
  std::vector<double> own_doubles;
  std::vector<uint8_t> own_bools;
  std::vector<uint32_t> own_codes;
  std::shared_ptr<const StringDict> own_dict;

  Vec() = default;
  Vec(Vec&&) = default;
  Vec& operator=(Vec&&) = default;
  Vec(const Vec&) = delete;
  Vec& operator=(const Vec&) = delete;

  bool constant() const { return mask == 0; }
  bool IsNull(size_t i) const { return !null.empty() && null[i & mask] != 0; }
  /// Bool(true): what a predicate or a CASE condition accepts.
  bool True(size_t i) const { return !IsNull(i) && bools[i & mask] != 0; }
};

// The cells of a non-string type as C: int64_t, double, or uint8_t for
// bools.
template <typename C>
const C* Cells(const Vec& v) {
  if constexpr (std::is_same_v<C, int64_t>) {
    return v.ints;
  } else if constexpr (std::is_same_v<C, double>) {
    return v.doubles;
  } else {
    return v.bools;
  }
}

template <typename C>
std::vector<C>& Own(Vec& v) {
  if constexpr (std::is_same_v<C, int64_t>) {
    return v.own_ints;
  } else if constexpr (std::is_same_v<C, double>) {
    return v.own_doubles;
  } else {
    return v.own_bools;
  }
}

// f(C{}) for the cell type C of `type` (kInt, kDouble or kBool).
template <typename F>
void WithCells(VT type, const F& f) {
  switch (type) {
    case VT::kInt:
      f(int64_t{});
      return;
    case VT::kDouble:
      f(double{});
      return;
    default:
      f(uint8_t{});
      return;
  }
}

// f(cell) with cell(i) reading v's ints or doubles.
template <typename F>
void VisitNumeric(const Vec& v, const F& f) {
  const size_t mask = v.mask;
  if (v.type == VT::kInt) {
    f([p = v.ints, mask](size_t i) { return p[i & mask]; });
  } else {
    f([p = v.doubles, mask](size_t i) { return p[i & mask]; });
  }
}

// Value::Compare of two cells of one class: exact across int and
// double, NaN equal to every number.
int Order(int64_t a, int64_t b) { return a == b ? 0 : (a < b ? -1 : 1); }
int Order(uint8_t a, uint8_t b) { return a == b ? 0 : (a < b ? -1 : 1); }
int Order(double a, double b) {
  const double d = a - b;
  return d < 0 ? -1 : (d > 0 ? 1 : 0);
}
int Order(int64_t a, double b) { return CompareIntDouble(a, b); }
int Order(double a, int64_t b) { return -CompareIntDouble(b, a); }

// holds[c + 1]: whether `op` holds for an order c of -1, 0 or 1.
std::array<uint8_t, 3> Holds(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return {0, 1, 0};
    case CompareOp::kNe:
      return {1, 0, 1};
    case CompareOp::kLt:
      return {1, 0, 0};
    case CompareOp::kLe:
      return {1, 1, 0};
    case CompareOp::kGt:
      return {0, 0, 1};
    case CompareOp::kGe:
      return {0, 1, 1};
  }
  return {0, 0, 0};
}

// Every cell NULL: a constant whose payload reads as zeros of any type.
Vec NullVec(VT type) {
  static const int64_t kZeroInt = 0;
  static const double kZeroDouble = 0.0;
  static const uint8_t kZeroByte = 0;
  static const uint32_t kZeroCode = 0;
  Vec v;
  v.type = type;
  v.mask = 0;
  v.null = {1};
  v.ints = &kZeroInt;
  v.doubles = &kZeroDouble;
  v.bools = &kZeroByte;
  v.codes = &kZeroCode;
  return v;
}

Vec Coerce(Vec v, VT type) {
  return v.type == VT::kNull ? NullVec(type) : std::move(v);
}

// A node's own output of `type`: one cell when constant, else n.
Vec Output(VT type, bool constant, size_t n) {
  Vec out;
  out.type = type;
  out.mask = constant ? 0 : ~size_t{0};
  const size_t m = constant ? 1 : n;
  WithCells(type, [&](auto zero) {
    using C = decltype(zero);
    Own<C>(out).resize(m);
  });
  out.ints = out.own_ints.data();
  out.doubles = out.own_doubles.data();
  out.bools = out.own_bools.data();
  return out;
}

Vec ColumnVec(const ColumnData& col) {
  Vec v;
  v.type = CellType(col.tag());
  if (col.has_nulls()) {
    v.null.resize(col.size());
    for (size_t i = 0; i < col.size(); ++i) v.null[i] = col.IsNull(i);
  }
  v.ints = col.ints();
  v.doubles = col.doubles();
  v.bools = col.bools();
  v.codes = col.codes();
  v.dict = col.dict().get();
  return v;
}

Vec LiteralVec(const Value& lit) {
  if (lit.is_null()) return NullVec(VT::kNull);
  Vec v;
  v.type = lit.type();
  v.mask = 0;
  if (const int64_t* i = lit.TryInt()) v.own_ints = {*i};
  if (const double* d = lit.TryDouble()) v.own_doubles = {*d};
  if (const bool* b = lit.TryBool()) v.own_bools = {static_cast<uint8_t>(*b)};
  if (const std::string* s = lit.TryString()) {
    v.own_dict =
        std::make_shared<const StringDict>(std::vector<std::string>{*s});
    v.own_codes = {0};
  }
  v.ints = v.own_ints.data();
  v.doubles = v.own_doubles.data();
  v.bools = v.own_bools.data();
  v.codes = v.own_codes.data();
  v.dict = v.own_dict.get();
  return v;
}

// NULL wherever an operand is: the flags of m cells, empty for none.
std::vector<uint8_t> NullUnion(size_t m,
                               std::initializer_list<const Vec*> operands) {
  std::vector<uint8_t> out;
  for (const Vec* v : operands) {
    if (v->null.empty()) continue;
    if (out.empty()) out.assign(m, 0);
    for (size_t i = 0; i < m; ++i) out[i] |= v->null[i & v->mask];
  }
  return out;
}

// fn(x, y) over the strings of a's and b's cells into out[0, m): decided
// once per dictionary entry when one side is a constant, then looked up
// by code.  NULL cells get an arbitrary result.
template <typename Fn>
void StringPairs(const Vec& a, const Vec& b, size_t m, const Fn& fn,
                 uint8_t* out) {
  const auto by_entry = [&](const Vec& v, const std::string& fixed,
                            bool fixed_left) {
    const StringDict& dict = *v.dict;
    // One entry past the dictionary for a NULL cell's placeholder code.
    std::vector<uint8_t> table(dict.size() + 1, 0);
    for (uint32_t c = 0; c < dict.size(); ++c) {
      table[c] = fixed_left ? fn(fixed, dict.At(c)) : fn(dict.At(c), fixed);
    }
    for (size_t i = 0; i < m; ++i) {
      out[i] = table[std::min<size_t>(v.codes[i & v.mask], dict.size())];
    }
  };
  if (b.constant()) {
    by_entry(a, b.dict->At(b.codes[0]), false);
  } else if (a.constant()) {
    by_entry(b, a.dict->At(a.codes[0]), true);
  } else {
    for (size_t i = 0; i < m; ++i) {
      out[i] = a.IsNull(i) || b.IsNull(i)
                   ? 0
                   : fn(a.dict->At(a.codes[i]), b.dict->At(b.codes[i]));
    }
  }
}

// A node's static type: the type of every non-NULL cell (kNull: every
// cell is NULL), and whether an int64 overflow can widen a cell to a
// double on the row path -- the typed path then abandons the result,
// and an operator that raises on doubles (%, year()) must not read it.
struct Typing {
  VT type = VT::kNull;
  bool widens = false;
};

// The one type of the cells `values` can yield; strings never.
std::optional<Typing> Join(const std::vector<VT>& values, bool widens) {
  VT out = VT::kNull;
  for (VT t : values) {
    if (t == VT::kNull) continue;
    if (t == VT::kString || (out != VT::kNull && out != t)) {
      return std::nullopt;
    }
    out = t;
  }
  return Typing{out, widens};
}

// The type pass and the node-by-node evaluation over one input.
class Evaluator {
 public:
  explicit Evaluator(const Relation& input)
      : input_(input), n_(input.size()) {}

  /// The type pass: `e`'s Typing, or nullopt when `e` is not
  /// admitted.  Strings are values only as leaves under a comparison,
  /// IN, BETWEEN, LIKE or IS NULL.
  std::optional<Typing> Type(const Expr& e);

  /// `e`'s cells; `e` must have passed Type.
  Vec Compute(const Expr& e);

  bool overflowed() const { return overflow_; }

 private:
  const ColumnData* Column(int c);
  size_t CellsOf(const Vec& v) const { return v.constant() ? 1 : n_; }
  Vec Compare(CompareOp op, const Vec& a, const Vec& b) const;
  Vec Logic(bool is_or, const Vec& a, const Vec& b) const;
  Vec Not(const Vec& a) const;
  Vec Arith(ArithOp op, const Vec& a, const Vec& b);
  Vec Negate(const Vec& a, bool abs);
  Vec Func(const Expr& e);
  Vec Case(const Expr& e);
  Vec IfNull(Vec a, Vec b) const;
  Vec Extreme(const std::vector<Vec>& args, bool greatest) const;

  const Relation& input_;
  size_t n_;
  std::map<int, TypedColumn> columns_;
  bool overflow_ = false;  // an int64 cell overflowed: abandon
};

const ColumnData* Evaluator::Column(int c) {
  if (c < 0 || static_cast<size_t>(c) >= input_.schema().size()) {
    return nullptr;
  }
  auto it = columns_.find(c);
  if (it == columns_.end()) {
    it = columns_.emplace(c, input_.ReadColumn(static_cast<size_t>(c))).first;
  }
  return &*it->second;
}

std::optional<Typing> Evaluator::Type(const Expr& e) {
  std::vector<VT> kid;
  bool widens = false;  // some value child widens
  for (size_t k = 0; k < e.children.size(); ++k) {
    const std::optional<Typing> t = Type(*e.children[k]);
    if (!t.has_value()) return std::nullopt;
    kid.push_back(t->type);
    widens = widens || t->widens;
  }
  const auto all = [&kid](size_t from, auto pred) {
    return std::all_of(kid.begin() + static_cast<ptrdiff_t>(from), kid.end(),
                       pred);
  };
  // Whether a child's type is one of `types` (kNull joins any).
  const auto is = [](std::initializer_list<VT> types) {
    return [ok = std::vector<VT>(types)](VT t) {
      return t == VT::kNull || std::find(ok.begin(), ok.end(), t) != ok.end();
    };
  };
  const auto numeric = is({VT::kInt, VT::kDouble});
  const auto wider = [&kid] {
    return std::find(kid.begin(), kid.end(), VT::kDouble) != kid.end()
               ? VT::kDouble
               : VT::kInt;
  };
  // An int result of + - *, unary minus or abs() can overflow.
  const auto may_overflow = [&wider]() -> std::optional<Typing> {
    const VT type = wider();
    return Typing{type, type == VT::kInt};
  };
  const Typing boolean{VT::kBool, false};
  switch (e.kind) {
    case ExprKind::kColumn: {
      const ColumnData* col = Column(e.column);
      if (col == nullptr || col->tag() == ColumnTag::kMixed) {
        return std::nullopt;
      }
      return Typing{CellType(col->tag()), false};
    }
    case ExprKind::kLiteral:
      return Typing{e.literal.type(), false};
    case ExprKind::kCompare:
    case ExprKind::kIn:
    case ExprKind::kBetween: {
      // Every later child is compared with the first.
      const auto comparable = [&kid](VT t) {
        const VT first = kid[0];
        if (first == VT::kNull || t == VT::kNull) return true;
        const bool num = first == VT::kInt || first == VT::kDouble;
        return num ? t == VT::kInt || t == VT::kDouble : t == first;
      };
      if (kid.size() < 2 || !all(1, comparable)) return std::nullopt;
      return boolean;
    }
    case ExprKind::kLike:
      if (!all(0, is({VT::kString}))) return std::nullopt;
      return boolean;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      if (!all(0, is({VT::kBool}))) return std::nullopt;
      return boolean;
    case ExprKind::kIsNull:
      return boolean;
    case ExprKind::kArith:
      if (e.arith == ArithOp::kMod) {
        // % raises on a double, so no operand may widen to one.
        if (widens || !all(0, is({VT::kInt}))) return std::nullopt;
        return Typing{VT::kInt, false};
      }
      if (!all(0, numeric)) return std::nullopt;
      if (e.arith == ArithOp::kDiv) return Typing{VT::kDouble, false};
      return may_overflow();
    case ExprKind::kNeg:
      if (!all(0, numeric)) return std::nullopt;
      return may_overflow();
    case ExprKind::kFunc:
      switch (e.func) {
        case ScalarFunc::kAbs:
          if (kid.size() != 1 || !numeric(kid[0])) return std::nullopt;
          return may_overflow();
        case ScalarFunc::kYear:
          // year() raises on a double, so its day may not widen to one.
          if (kid.size() != 1 || widens || !is({VT::kInt})(kid[0])) {
            return std::nullopt;
          }
          return Typing{VT::kInt, false};
        case ScalarFunc::kIfNull:
          if (kid.size() != 2) return std::nullopt;
          return Join(kid, widens);
        case ScalarFunc::kLeast:
        case ScalarFunc::kGreatest:
          if (kid.empty()) return std::nullopt;
          return Join(kid, widens);
      }
      return std::nullopt;
    case ExprKind::kCase: {
      // Children: condition, value, ..., then an optional ELSE value.
      std::vector<VT> values;
      for (size_t i = 0; i < kid.size(); ++i) {
        if (i % 2 == 1 || i + 1 == kid.size()) {
          values.push_back(kid[i]);
        } else if (!is({VT::kBool})(kid[i])) {
          return std::nullopt;
        }
      }
      // Conditions are boolean, so only values can widen.
      return Join(values, widens);
    }
  }
  return std::nullopt;
}

Vec Evaluator::Compute(const Expr& e) {
  const auto kid = [&](size_t k) { return Compute(*e.children[k]); };
  switch (e.kind) {
    case ExprKind::kColumn:
      return ColumnVec(*Column(e.column));
    case ExprKind::kLiteral:
      return LiteralVec(e.literal);
    case ExprKind::kCompare:
      return Compare(e.cmp, kid(0), kid(1));
    case ExprKind::kIn: {
      // x IN (c1, ..., cn) is x = c1 OR ... OR x = cn in Kleene logic.
      const Vec needle = kid(0);
      Vec in = Compare(CompareOp::kEq, needle, kid(1));
      for (size_t k = 2; k < e.children.size(); ++k) {
        in = Logic(true, in, Compare(CompareOp::kEq, needle, kid(k)));
      }
      return e.negated ? Not(in) : std::move(in);
    }
    case ExprKind::kBetween: {
      // NULL when either comparison is, unlike AND.
      const Vec v = kid(0);
      const Vec ge = Compare(CompareOp::kGe, v, kid(1));
      const Vec le = Compare(CompareOp::kLe, v, kid(2));
      Vec in = Output(VT::kBool, ge.constant() && le.constant(), n_);
      const size_t m = CellsOf(in);
      in.null = NullUnion(m, {&ge, &le});
      for (size_t i = 0; i < m; ++i) {
        in.own_bools[i] = ge.bools[i & ge.mask] & le.bools[i & le.mask];
      }
      return e.negated ? Not(in) : std::move(in);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      return Logic(e.kind == ExprKind::kOr, kid(0), kid(1));
    case ExprKind::kNot:
      return Not(kid(0));
    case ExprKind::kIsNull: {
      const Vec v = kid(0);
      Vec out = Output(VT::kBool, v.constant(), n_);
      for (size_t i = 0; i < CellsOf(out); ++i) {
        out.own_bools[i] = v.IsNull(i) != e.negated;
      }
      return out;
    }
    case ExprKind::kLike: {
      const Vec text = kid(0);
      const Vec pattern = kid(1);
      if (text.type == VT::kNull || pattern.type == VT::kNull) {
        return NullVec(VT::kBool);
      }
      Vec out = Output(VT::kBool, text.constant() && pattern.constant(), n_);
      const size_t m = CellsOf(out);
      out.null = NullUnion(m, {&text, &pattern});
      StringPairs(
          text, pattern, m,
          [&e](const std::string& x, const std::string& p) -> uint8_t {
            return SqlLikeMatch(x, p) != e.negated;
          },
          out.own_bools.data());
      return out;
    }
    case ExprKind::kArith:
      return Arith(e.arith, kid(0), kid(1));
    case ExprKind::kNeg:
      return Negate(kid(0), /*abs=*/false);
    case ExprKind::kFunc:
      return Func(e);
    case ExprKind::kCase:
      return Case(e);
  }
  return NullVec(VT::kNull);
}

Vec Evaluator::Compare(CompareOp op, const Vec& a, const Vec& b) const {
  if (a.type == VT::kNull || b.type == VT::kNull) return NullVec(VT::kBool);
  Vec out = Output(VT::kBool, a.constant() && b.constant(), n_);
  const size_t m = CellsOf(out);
  out.null = NullUnion(m, {&a, &b});
  const std::array<uint8_t, 3> holds = Holds(op);
  uint8_t* res = out.own_bools.data();
  if (a.type == VT::kString) {
    StringPairs(
        a, b, m,
        [&holds](const std::string& x, const std::string& y) {
          const int c = x.compare(y);
          return holds[static_cast<size_t>((c > 0) - (c < 0) + 1)];
        },
        res);
  } else if (a.type == VT::kBool) {
    for (size_t i = 0; i < m; ++i) {
      res[i] = holds[static_cast<size_t>(
          Order(a.bools[i & a.mask], b.bools[i & b.mask]) + 1)];
    }
  } else {
    VisitNumeric(a, [&](auto x) {
      VisitNumeric(b, [&](auto y) {
        for (size_t i = 0; i < m; ++i) {
          res[i] = holds[static_cast<size_t>(Order(x(i), y(i)) + 1)];
        }
      });
    });
  }
  return out;
}

Vec Evaluator::Logic(bool is_or, const Vec& a, const Vec& b) const {
  // Kleene logic: an operand equal to `decides` (true for OR, false for
  // AND) decides; otherwise a NULL operand makes the result NULL.
  Vec out = Output(VT::kBool, a.constant() && b.constant(), n_);
  const size_t m = CellsOf(out);
  const uint8_t decides = is_or ? 1 : 0;
  if (!a.null.empty() || !b.null.empty()) out.null.assign(m, 0);
  for (size_t i = 0; i < m; ++i) {
    const bool an = a.IsNull(i);
    const bool bn = b.IsNull(i);
    if ((!an && a.bools[i & a.mask] == decides) ||
        (!bn && b.bools[i & b.mask] == decides)) {
      out.own_bools[i] = decides;
    } else if (an || bn) {
      out.null[i] = 1;
    } else {
      out.own_bools[i] = decides ^ 1;
    }
  }
  return out;
}

Vec Evaluator::Not(const Vec& a) const {
  Vec out = Output(VT::kBool, a.constant(), n_);
  out.null = a.null;
  for (size_t i = 0; i < CellsOf(out); ++i) {
    out.own_bools[i] = a.bools[i & a.mask] ^ 1;
  }
  return out;
}

Vec Evaluator::Arith(ArithOp op, const Vec& a, const Vec& b) {
  const bool both_int = a.type != VT::kDouble && b.type != VT::kDouble;
  const VT type = op == ArithOp::kDiv || !both_int ? VT::kDouble : VT::kInt;
  if (a.type == VT::kNull || b.type == VT::kNull) return NullVec(type);
  Vec out = Output(type, a.constant() && b.constant(), n_);
  const size_t m = CellsOf(out);
  out.null = NullUnion(m, {&a, &b});
  // Integer + - *: an overflow in a non-NULL cell abandons the result
  // (the row path widens that cell to a double).
  const auto ints = [&](auto f) {
    bool overflow = false;
    for (size_t i = 0; i < m; ++i) {
      if (f(a.ints[i & a.mask], b.ints[i & b.mask], &out.own_ints[i]) &&
          !out.IsNull(i)) {
        overflow = true;
      }
    }
    overflow_ = overflow_ || overflow;
  };
  // One IEEE operation on the operands as doubles.
  const auto doubles = [&](auto f) {
    VisitNumeric(a, [&](auto x) {
      VisitNumeric(b, [&](auto y) {
        for (size_t i = 0; i < m; ++i) {
          out.own_doubles[i] =
              f(static_cast<double>(x(i)), static_cast<double>(y(i)));
        }
      });
    });
  };
  switch (op) {
    case ArithOp::kAdd:
      if (type == VT::kInt) {
        ints([](int64_t x, int64_t y, int64_t* r) {
          return __builtin_add_overflow(x, y, r);
        });
      } else {
        doubles([](double x, double y) { return x + y; });
      }
      break;
    case ArithOp::kSub:
      if (type == VT::kInt) {
        ints([](int64_t x, int64_t y, int64_t* r) {
          return __builtin_sub_overflow(x, y, r);
        });
      } else {
        doubles([](double x, double y) { return x - y; });
      }
      break;
    case ArithOp::kMul:
      if (type == VT::kInt) {
        ints([](int64_t x, int64_t y, int64_t* r) {
          return __builtin_mul_overflow(x, y, r);
        });
      } else {
        doubles([](double x, double y) { return x * y; });
      }
      break;
    case ArithOp::kDiv:
      // x / 0 is NULL.
      if (out.null.empty()) out.null.assign(m, 0);
      VisitNumeric(a, [&](auto x) {
        VisitNumeric(b, [&](auto y) {
          for (size_t i = 0; i < m; ++i) {
            const auto d = static_cast<double>(y(i));
            if (d == 0.0) {
              out.null[i] = 1;
            } else {
              out.own_doubles[i] = static_cast<double>(x(i)) / d;
            }
          }
        });
      });
      break;
    case ArithOp::kMod:
      // x % 0 is NULL; x % -1 is 0 (INT64_MIN % -1 would trap).
      if (out.null.empty()) out.null.assign(m, 0);
      for (size_t i = 0; i < m; ++i) {
        const int64_t y = b.ints[i & b.mask];
        if (y == 0) {
          out.null[i] = 1;
        } else {
          out.own_ints[i] = y == -1 ? 0 : a.ints[i & a.mask] % y;
        }
      }
      break;
  }
  return out;
}

Vec Evaluator::Negate(const Vec& a, bool abs) {
  if (a.type == VT::kNull) return NullVec(VT::kInt);
  Vec out = Output(a.type, a.constant(), n_);
  const size_t m = CellsOf(out);
  out.null = a.null;
  if (a.type == VT::kDouble) {
    for (size_t i = 0; i < m; ++i) {
      const double d = a.doubles[i & a.mask];
      out.own_doubles[i] = abs ? std::fabs(d) : -d;
    }
    return out;
  }
  for (size_t i = 0; i < m; ++i) {
    const int64_t v = a.ints[i & a.mask];
    if (v == std::numeric_limits<int64_t>::min()) {
      // -INT64_MIN widens to a double on the row path.
      if (!a.IsNull(i)) overflow_ = true;
      continue;
    }
    out.own_ints[i] = abs && v >= 0 ? v : -v;
  }
  return out;
}

Vec Evaluator::Func(const Expr& e) {
  std::vector<Vec> args;
  for (const ExprPtr& c : e.children) args.push_back(Compute(*c));
  switch (e.func) {
    case ScalarFunc::kAbs:
      return Negate(args[0], /*abs=*/true);
    case ScalarFunc::kYear: {
      const Vec& day = args[0];
      if (day.type == VT::kNull) return NullVec(VT::kInt);
      Vec out = Output(VT::kInt, day.constant(), n_);
      out.null = day.null;
      for (size_t i = 0; i < CellsOf(out); ++i) {
        out.own_ints[i] = YearOfDay(day.ints[i & day.mask]);
      }
      return out;
    }
    case ScalarFunc::kIfNull:
      return IfNull(std::move(args[0]), std::move(args[1]));
    case ScalarFunc::kLeast:
    case ScalarFunc::kGreatest:
      return Extreme(args, e.func == ScalarFunc::kGreatest);
  }
  return NullVec(VT::kNull);
}

Vec Evaluator::IfNull(Vec a, Vec b) const {
  const VT type = a.type != VT::kNull ? a.type : b.type;
  if (type == VT::kNull) return NullVec(VT::kNull);
  a = Coerce(std::move(a), type);
  b = Coerce(std::move(b), type);
  Vec out = Output(type, a.constant() && b.constant(), n_);
  const size_t m = CellsOf(out);
  out.null.assign(m, 0);
  WithCells(type, [&](auto zero) {
    using C = decltype(zero);
    const C* x = Cells<C>(a);
    const C* y = Cells<C>(b);
    C* dst = Own<C>(out).data();
    for (size_t i = 0; i < m; ++i) {
      if (a.IsNull(i)) {
        dst[i] = y[i & b.mask];
        out.null[i] = b.IsNull(i);
      } else {
        dst[i] = x[i & a.mask];
      }
    }
  });
  return out;
}

Vec Evaluator::Extreme(const std::vector<Vec>& args, bool greatest) const {
  // NULL arguments are ignored; a later argument replaces the best so
  // far only when it orders strictly after (before) it.
  VT type = VT::kNull;
  bool constant = true;
  for (const Vec& a : args) {
    if (a.type != VT::kNull) type = a.type;
    constant = constant && a.constant();
  }
  if (type == VT::kNull) return NullVec(VT::kNull);
  Vec out = Output(type, constant, n_);
  const size_t m = CellsOf(out);
  out.null.assign(m, 1);
  WithCells(type, [&](auto zero) {
    using C = decltype(zero);
    C* best = Own<C>(out).data();
    for (const Vec& a : args) {
      if (a.type == VT::kNull) continue;
      const C* x = Cells<C>(a);
      for (size_t i = 0; i < m; ++i) {
        if (a.IsNull(i)) continue;
        const C v = x[i & a.mask];
        const int c = out.null[i] != 0 ? 0 : Order(v, best[i]);
        if (out.null[i] != 0 || (greatest ? c > 0 : c < 0)) {
          best[i] = v;
          out.null[i] = 0;
        }
      }
    }
  });
  return out;
}

Vec Evaluator::Case(const Expr& e) {
  // Children: condition, value, ..., then an optional ELSE value.
  std::vector<Vec> kids;
  bool constant = true;
  for (const ExprPtr& c : e.children) {
    kids.push_back(Compute(*c));
    constant = constant && kids.back().constant();
  }
  const size_t branches = kids.size() / 2;
  VT type = VT::kNull;
  for (size_t i = 0; i < kids.size(); ++i) {
    if ((i % 2 == 1 || i + 1 == kids.size()) && kids[i].type != VT::kNull) {
      type = kids[i].type;
    }
  }
  if (type == VT::kNull) return NullVec(VT::kNull);
  Vec out = Output(type, constant, n_);
  const size_t m = CellsOf(out);
  out.null.assign(m, 1);
  std::vector<uint8_t> open(m, 1);  // no condition has held yet
  WithCells(type, [&](auto zero) {
    using C = decltype(zero);
    C* dst = Own<C>(out).data();
    const auto take = [&](const Vec& value, const Vec* cond) {
      const C* src = Cells<C>(value);
      for (size_t i = 0; i < m; ++i) {
        if (open[i] == 0 || (cond != nullptr && !cond->True(i))) continue;
        open[i] = 0;
        if (value.IsNull(i)) continue;
        dst[i] = src[i & value.mask];
        out.null[i] = 0;
      }
    };
    for (size_t k = 0; k < branches; ++k) take(kids[2 * k + 1], &kids[2 * k]);
    if (kids.size() % 2 == 1) take(kids.back(), nullptr);
  });
  return out;
}

// `v` as a column of n rows, NULL where `rows` flags 0: FromValues of
// the same cells.
ColumnData ToColumn(Vec v, size_t n, const std::vector<uint8_t>* rows) {
  std::vector<uint8_t> null;
  if (!v.null.empty() || rows != nullptr) {
    null.resize(n);
    for (size_t i = 0; i < n; ++i) {
      null[i] = v.IsNull(i) || (rows != nullptr && (*rows)[i] == 0);
    }
  }
  ColumnData out;
  WithCells(v.type == VT::kNull ? VT::kInt : v.type, [&](auto zero) {
    using C = decltype(zero);
    std::vector<C>& own = Own<C>(v);
    std::vector<C> cells;
    if (!v.constant() && own.size() == n) {
      cells = std::move(own);
    } else {
      const C* src = Cells<C>(v);
      cells.resize(n);
      for (size_t i = 0; i < n; ++i) cells[i] = src[i & v.mask];
    }
    if constexpr (std::is_same_v<C, int64_t>) {
      out = ColumnData::FromInts(std::move(cells), null);
    } else if constexpr (std::is_same_v<C, double>) {
      out = ColumnData::FromDoubles(std::move(cells), null);
    } else {
      out = ColumnData::FromBools(std::move(cells), null);
    }
  });
  return out;
}

// periodk-lint: typed-lane-end(typed-eval)

// The type of `e` as a computed column: not a string.
std::optional<VT> ColumnType(Evaluator& evaluator, const Expr& e) {
  const std::optional<Typing> typing = evaluator.Type(e);
  if (!typing.has_value() || typing->type == VT::kString) return std::nullopt;
  return typing->type;
}

}  // namespace

bool TypedAdmits(const Expr& e, const Relation& input) {
  Evaluator evaluator(input);
  return ColumnType(evaluator, e).has_value();
}

std::optional<ColumnData> EvalTyped(const Expr& e, const Relation& input,
                                    const std::vector<uint8_t>* rows) {
  Evaluator evaluator(input);
  if (!ColumnType(evaluator, e).has_value()) return std::nullopt;
  Vec v = evaluator.Compute(e);
  if (evaluator.overflowed()) return std::nullopt;
  return ToColumn(std::move(v), input.size(), rows);
}

std::optional<std::vector<uint32_t>> SelectTyped(const Expr& predicate,
                                                 const Relation& input) {
  Evaluator evaluator(input);
  const std::optional<VT> type = ColumnType(evaluator, predicate);
  if (type != VT::kBool && type != VT::kNull) return std::nullopt;
  const Vec v = evaluator.Compute(predicate);
  if (evaluator.overflowed()) return std::nullopt;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < input.size(); ++i) {
    if (v.True(i)) ids.push_back(static_cast<uint32_t>(i));
  }
  return ids;
}

}  // namespace periodk
