// Unit tests for the dynamically typed Value and row helpers.
#include "common/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace periodk {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // null < bool < numeric < string.
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::String(""));
}

TEST(ValueTest, NumericComparesAcrossIntAndDouble) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_LT(Value::Int(3), Value::Double(3.5));
  EXPECT_LT(Value::Double(2.5), Value::Int(3));
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, IntDoubleComparisonIsExact) {
  // 2^53 + 1 has no double; rounding it to double would make it equal
  // to 2^53.0, which equals Int(2^53): a non-transitive equality.
  constexpr int64_t k53 = int64_t{1} << 53;
  const Value big = Value::Int(k53 + 1);
  const Value as_double = Value::Double(9007199254740992.0);  // 2^53
  const Value exact = Value::Int(k53);
  EXPECT_GT(big.Compare(as_double), 0);
  EXPECT_EQ(as_double, exact);
  EXPECT_NE(big, exact);
  EXPECT_LT(as_double.Compare(big), 0);
  EXPECT_GT(SqlCompare(big, as_double).value(), 0);
  // Around 2^63: INT64_MAX is below 2^63.0; INT64_MIN equals -2^63.0.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_LT(Value::Int(kMax).Compare(Value::Double(9223372036854775808.0)),
            0);
  EXPECT_EQ(Value::Int(kMin), Value::Double(-9223372036854775808.0));
  EXPECT_GT(
      Value::Int(kMin + 1).Compare(Value::Double(-9223372036854775808.0)), 0);
  EXPECT_LT(Value::Int(kMax).Compare(Value::Double(1e300)), 0);
  EXPECT_GT(Value::Int(kMin).Compare(Value::Double(-1e300)), 0);
  // Fractions and signed zero.
  EXPECT_LT(Value::Int(-2).Compare(Value::Double(-1.5)), 0);
  EXPECT_GT(Value::Int(-1).Compare(Value::Double(-1.5)), 0);
  EXPECT_EQ(Value::Int(0), Value::Double(-0.0));
  EXPECT_LT(Value::Int(0).Compare(Value::Double(0.25)), 0);
}

TEST(ValueTest, HashAgreesWithCompareAroundTwoTo53And63) {
  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> ints = {kMin, kMin + 1, kMax, kMax - 1, 0};
  for (int64_t d = -2; d <= 2; ++d) {
    ints.push_back(k53 + d);
    ints.push_back(-k53 + d);
  }
  std::vector<double> doubles = {-9223372036854775808.0,
                                 9223372036854775808.0, -0.0, 0.0};
  for (int64_t i : ints) {
    double d = static_cast<double>(i);
    doubles.push_back(d);
    doubles.push_back(std::nextafter(d, 1e300));
    doubles.push_back(std::nextafter(d, -1e300));
  }
  int equal_pairs = 0;
  for (int64_t i : ints) {
    for (double d : doubles) {
      Value vi = Value::Int(i);
      Value vd = Value::Double(d);
      if (vi.Compare(vd) != 0) continue;
      ++equal_pairs;
      EXPECT_EQ(vi.Hash(), vd.Hash()) << i << " vs " << d;
      EXPECT_EQ(vd.Compare(vi), 0) << i << " vs " << d;
    }
  }
  EXPECT_GE(equal_pairs, 10);
}

TEST(ValueTest, NullsEqualUnderTotalOrder) {
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, SqlCompareNullPropagates) {
  EXPECT_FALSE(SqlCompare(Value::Null(), Value::Int(1)).has_value());
  EXPECT_FALSE(SqlCompare(Value::Int(1), Value::Null()).has_value());
  EXPECT_EQ(SqlCompare(Value::Int(1), Value::Int(1)).value(), 0);
  EXPECT_LT(SqlCompare(Value::Int(1), Value::Int(2)).value(), 0);
  EXPECT_GT(SqlCompare(Value::String("b"), Value::String("a")).value(), 0);
}

TEST(ValueTest, SqlCompareIncomparableTypes) {
  EXPECT_FALSE(SqlCompare(Value::Int(1), Value::String("1")).has_value());
  EXPECT_FALSE(SqlCompare(Value::Bool(true), Value::Int(1)).has_value());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::String("abc").ToString(), "abc");
}

TEST(RowTest, CompareRowsLexicographic) {
  Row a = {Value::Int(1), Value::String("x")};
  Row b = {Value::Int(1), Value::String("y")};
  Row c = {Value::Int(1)};
  EXPECT_LT(CompareRows(a, b), 0);
  EXPECT_EQ(CompareRows(a, a), 0);
  EXPECT_LT(CompareRows(c, a), 0);  // prefix sorts first
}

TEST(RowTest, HashConsistentWithEquality) {
  Row a = {Value::Int(3), Value::Null()};
  Row b = {Value::Double(3.0), Value::Null()};
  EXPECT_TRUE(RowEq()(a, b));
  EXPECT_EQ(RowHash()(a), RowHash()(b));
}

TEST(RowTest, ToString) {
  Row r = {Value::Int(1), Value::String("a"), Value::Null()};
  EXPECT_EQ(RowToString(r), "(1, a, NULL)");
}

}  // namespace
}  // namespace periodk
