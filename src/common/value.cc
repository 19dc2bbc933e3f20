#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace periodk {

namespace {

// Order of type classes in the sorting total order.
int TypeClass(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return 1;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 2;  // numeric types compare with each other
    case ValueType::kString:
      return 3;
  }
  return 4;
}

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

// 2^63 exactly: the first double above every int64.
constexpr double kTwo63 = 9223372036854775808.0;

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

// No rounding of `i` to double, so equality stays transitive across
// Int and Double.  NaN compares equal to everything, as the old numeric
// subtraction made it.
int CompareIntDouble(int64_t i, double d) {
  if (std::isnan(d)) return 0;
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  // d is within int64 range here, so its truncation is an exact int64.
  auto whole = static_cast<int64_t>(d);
  if (i != whole) return i < whole ? -1 : 1;
  return Sign(static_cast<double>(whole) - d);
}

double Value::NumericAsDouble() const {
  return type() == ValueType::kInt ? static_cast<double>(AsInt()) : AsDouble();
}

int Value::Compare(const Value& other) const {
  int ca = TypeClass(type());
  int cb = TypeClass(other.type());
  if (ca != cb) return ca < cb ? -1 : 1;
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      bool a = AsBool(), b = other.AsBool();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kInt:
      if (other.type() == ValueType::kInt) {
        int64_t a = AsInt(), b = other.AsInt();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      return CompareIntDouble(AsInt(), other.AsDouble());
    case ValueType::kDouble:
      if (other.type() == ValueType::kInt) {
        return -CompareIntDouble(other.AsInt(), AsDouble());
      }
      return Sign(AsDouble() - other.AsDouble());
    case ValueType::kString:
      return AsString().compare(other.AsString()) < 0
                 ? -1
                 : (AsString() == other.AsString() ? 0 : 1);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return AsBool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      char buf[32];
      double d = AsDouble();
      if (d == std::floor(d) && std::abs(d) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.1f", d);
      } else {
        std::snprintf(buf, sizeof(buf), "%.6g", d);
      }
      return buf;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return Mix64(0x6e756c6cULL);
    case ValueType::kBool:
      return Mix64(AsBool() ? 2 : 1);
    case ValueType::kInt:
      // Integral doubles hash through their int64 value below, so that
      // Int(3) and Double(3.0) collide, matching Compare-equality.
      return Mix64(static_cast<uint64_t>(AsInt()) ^ 0x496e74ULL);
    case ValueType::kDouble: {
      double d = AsDouble();
      if (d == std::floor(d) && d >= -kTwo63 && d < kTwo63) {
        return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)) ^
                     0x496e74ULL);
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString: {
      uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
      for (char c : AsString()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
      }
      return Mix64(h);
    }
  }
  return 0;
}

std::optional<int> SqlCompare(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  if (a.is_numeric() != b.is_numeric() &&
      (a.type() == ValueType::kString || b.type() == ValueType::kString ||
       a.type() == ValueType::kBool || b.type() == ValueType::kBool)) {
    return std::nullopt;
  }
  return a.Compare(b);
}

size_t RowHash::operator()(const Row& row) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ row.size();
  for (const Value& v : row) {
    h = h * 0x100000001b3ULL + v.Hash();
  }
  return Mix64(h);
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  return CompareRows(a, b) == 0;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace periodk
