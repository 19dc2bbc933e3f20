// Dynamically typed SQL value used throughout the engine and the
// annotated-relation layers.  The engine is dynamically typed (SQLite
// style): a column may in principle hold any value type, and binding
// performs only light checking.  Numeric comparisons treat int64 and
// double uniformly.
#ifndef PERIODK_COMMON_VALUE_H_
#define PERIODK_COMMON_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace periodk {

enum class ValueType { kNull, kBool, kInt, kDouble, kString };

/// Returns "null", "bool", "int", "double" or "string".
const char* ValueTypeName(ValueType type);

/// A single SQL value.  Nulls compare equal to each other under the total
/// order used for sorting/grouping (Compare); SQL three-valued comparison
/// semantics (null-propagating) live in SqlCompare and in the expression
/// evaluator.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Repr(b)); }
  static Value Int(int64_t i) { return Value(Repr(i)); }
  static Value Double(double d) { return Value(Repr(d)); }
  static Value String(std::string s) { return Value(Repr(std::move(s))); }

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_numeric() const {
    return type() == ValueType::kInt || type() == ValueType::kDouble;
  }

  bool AsBool() const { return std::get<bool>(v_); }
  int64_t AsInt() const { return std::get<int64_t>(v_); }
  double AsDouble() const { return std::get<double>(v_); }
  const std::string& AsString() const { return std::get<std::string>(v_); }

  /// Cheap typed accessors: a pointer to the payload when the value has
  /// exactly that type, nullptr otherwise.  Unlike As*(), these never
  /// throw, so hot loops can branch on one pointer test instead of
  /// paying a type() switch plus a checked std::get.
  const bool* TryBool() const noexcept { return std::get_if<bool>(&v_); }
  const int64_t* TryInt() const noexcept { return std::get_if<int64_t>(&v_); }
  const double* TryDouble() const noexcept { return std::get_if<double>(&v_); }
  const std::string* TryString() const noexcept {
    return std::get_if<std::string>(&v_);
  }

  /// Numeric value as double; requires is_numeric().
  double NumericAsDouble() const;

  /// Total order used for sorting and grouping: null < bool < numeric <
  /// string; nulls are equal; int/double are compared numerically and
  /// exactly (the int is never rounded to double, so equality stays
  /// transitive).  NaN is not ordered: it compares equal to every
  /// number.  Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Display form: null -> "NULL", strings unquoted, doubles shortest
  /// round-trippable form.
  std::string ToString() const;

  /// 64-bit hash consistent with Compare-equality (int 3 and double 3.0
  /// hash identically).
  uint64_t Hash() const;

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Repr v) : v_(std::move(v)) {}
  Repr v_;
};

/// Value::Compare of Int(i) against Double(d): exact (SQLite's order),
/// the int is never rounded to double; NaN compares equal to every int.
int CompareIntDouble(int64_t i, double d);

/// SQL comparison: returns nullopt when either side is NULL or the types
/// are incomparable (e.g. int vs string); otherwise <0/0/>0.
std::optional<int> SqlCompare(const Value& a, const Value& b);

/// A tuple of values; used both as an engine row and as an abstract-model
/// tuple.
using Row = std::vector<Value>;

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct RowHash {
  size_t operator()(const Row& row) const;
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// Lexicographic total order over rows (element-wise Value::Compare).
int CompareRows(const Row& a, const Row& b);

struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};

/// "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace periodk

#endif  // PERIODK_COMMON_VALUE_H_
