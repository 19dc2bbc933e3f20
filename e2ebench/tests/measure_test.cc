// Unit tests of the benchmark's own statistics and result fingerprints.
#include "measure.h"

#include <gtest/gtest.h>

#include <cmath>

namespace e2e {
namespace {

using periodk::Relation;
using periodk::Row;
using periodk::Schema;
using periodk::Value;

TEST(NearestRankTest, PicksTheCeilRankedSample) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted input
  EXPECT_EQ(NearestRank(xs, 95), 95.0);
  EXPECT_EQ(NearestRank(xs, 99), 99.0);
  EXPECT_EQ(NearestRank(xs, 50), 50.0);
  EXPECT_EQ(NearestRank(xs, 100), 100.0);
  EXPECT_EQ(NearestRank(xs, 0.5), 1.0);  // rank rounds up to 1
}

TEST(NearestRankTest, SmallAndEmptySamples) {
  EXPECT_EQ(NearestRank({}, 50), 0.0);
  EXPECT_EQ(NearestRank({7.0}, 99), 7.0);
  // n = 4: p50 is the 2nd smallest, p51 the 3rd.
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 50), 2.0);
  EXPECT_EQ(NearestRank({4, 1, 3, 2}, 51), 3.0);
  // 200 samples: p95 leaves exactly ten above it.
  std::vector<double> xs;
  for (int i = 1; i <= 200; ++i) xs.push_back(i);
  EXPECT_EQ(NearestRank(xs, 95), 190.0);
}

TEST(GeometricMeanTest, EveryQueryWeighsTheSame) {
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(GeometricMean({5.0, 5.0, 5.0}), 5.0, 1e-12);
  // Halving a 5 ms query moves the mean as much as halving a 300 ms one.
  const double base = GeometricMean({5.0, 300.0});
  EXPECT_NEAR(GeometricMean({2.5, 300.0}), GeometricMean({5.0, 150.0}), 1e-9);
  EXPECT_NEAR(GeometricMean({2.5, 300.0}) / base, std::sqrt(0.5), 1e-12);
}

TEST(TrimmedMeanTest, DropsEqualSharesFromBothEnds) {
  EXPECT_DOUBLE_EQ(TrimmedMean({}, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(TrimmedMean({4.0, 1.0, 7.0}, 0.0), 4.0);
  // floor(0.2 * 5) = 1 sample dropped from each end, whatever the order.
  EXPECT_DOUBLE_EQ(TrimmedMean({100.0, 3.0, 1.0, 4.0, 2.0}, 0.2), 3.0);
  // Too few samples to drop any: the plain mean.
  EXPECT_DOUBLE_EQ(TrimmedMean({1.0, 2.0, 6.0}, 0.1), 3.0);
}

TEST(TrimmedMeanTest, MovesInProportionWhereTheMedianJumps) {
  // A run whose samples are partly fast (1 ms) and partly slow (2 ms):
  // going from 48 to 52 slow samples out of 100 moves the median from
  // one level to the other, and the trimmed mean by a twentieth of that.
  auto mixture = [](int slow) {
    std::vector<double> samples(100, 1.0);
    for (int i = 0; i < slow; ++i) samples[static_cast<size_t>(i)] = 2.0;
    return samples;
  };
  EXPECT_DOUBLE_EQ(NearestRank(mixture(48), 50), 1.0);
  EXPECT_DOUBLE_EQ(NearestRank(mixture(52), 50), 2.0);
  EXPECT_NEAR(TrimmedMean(mixture(52), 0.1) - TrimmedMean(mixture(48), 0.1),
              0.05, 1e-12);
  // Nor does a stall in place of one slow sample.
  std::vector<double> stalled = mixture(50);
  stalled[0] = 1000.0;
  EXPECT_DOUBLE_EQ(TrimmedMean(stalled, 0.1), TrimmedMean(mixture(50), 0.1));
}

Relation Make(const std::vector<std::string>& names, std::vector<Row> rows) {
  return Relation(Schema::FromNames(names), std::move(rows));
}

TEST(CanonicalCellTest, RoundsDoublesToFixedSignificantBits) {
  EXPECT_EQ(CanonicalCell(Value::Double(26514.400000000001)),
            CanonicalCell(Value::Double(26514.399999999998)));
  // A decimal rounding tie at six digits, reached from both sides by two
  // summation orders, still canonicalises to one text.
  EXPECT_EQ(CanonicalCell(Value::Double(22445.549999999999)),
            CanonicalCell(Value::Double(22445.550000000003)));
  EXPECT_EQ(CanonicalCell(Value::Double(-84036.749999999985)),
            CanonicalCell(Value::Double(-84036.750000000015)));
  EXPECT_NE(CanonicalCell(Value::Double(26514.4)),
            CanonicalCell(Value::Double(26514.5)));
  EXPECT_EQ(CanonicalCell(Value::Double(1e-12)), CanonicalCell(Value::Double(0)));
  EXPECT_EQ(CanonicalCell(Value::Double(-1e-12)), "0");
  EXPECT_EQ(CanonicalCell(Value::Int(123456789)), "123456789");
  EXPECT_EQ(CanonicalCell(Value::String("a")), "'a'");
  EXPECT_EQ(CanonicalCell(Value::Null()), "NULL");
}

TEST(FingerprintTest, BagResultsIgnoreOrderButKeepDuplicates) {
  Relation a = Make({"x", "y"}, {{Value::Int(1), Value::String("a")},
                                 {Value::Int(2), Value::String("b")},
                                 {Value::Int(1), Value::String("a")}});
  Relation b = Make({"x", "y"}, {{Value::Int(2), Value::String("b")},
                                 {Value::Int(1), Value::String("a")},
                                 {Value::Int(1), Value::String("a")}});
  Relation c = Make({"x", "y"}, {{Value::Int(2), Value::String("b")},
                                 {Value::Int(1), Value::String("a")}});
  EXPECT_EQ(Fingerprint(a, false), Fingerprint(b, false));
  EXPECT_NE(Fingerprint(a, false), Fingerprint(c, false));
  EXPECT_EQ(CanonicalRows(a, false).size(), 3u);
}

TEST(FingerprintTest, TemporalResultsCompareAsCoalescedMultiplicities) {
  const std::vector<std::string> cols = {"n", "v", "b", "e"};
  // Two adjacent fragments whose doubles differ in the last bits, as
  // two plans summing in different orders produce them ...
  Relation split = Make(cols, {{Value::String("INDIA"), Value::Double(26514.400000000001),
                                Value::Int(1059), Value::Int(1102)},
                               {Value::String("INDIA"), Value::Double(26514.399999999998),
                                Value::Int(1102), Value::Int(1140)}});
  // ... equal the one coalesced row.
  Relation merged = Make(cols, {{Value::String("INDIA"), Value::Double(26514.4),
                                 Value::Int(1059), Value::Int(1140)}});
  EXPECT_EQ(Fingerprint(split, true), Fingerprint(merged, true));
  EXPECT_EQ(CanonicalRows(merged, true),
            std::vector<std::string>{"'INDIA'\x1f" +
                                     CanonicalCell(Value::Double(26514.4)) +
                                     "|1059|1140|x1"});
  // Overlapping duplicates keep their multiplicity; empty intervals vanish.
  Relation overlap = Make(cols, {{Value::String("a"), Value::Int(1), Value::Int(0), Value::Int(10)},
                                 {Value::String("a"), Value::Int(1), Value::Int(5), Value::Int(15)},
                                 {Value::String("a"), Value::Int(1), Value::Int(7), Value::Int(7)}});
  EXPECT_EQ(CanonicalRows(overlap, true),
            (std::vector<std::string>{"'a'\x1f" "1|0|5|x1", "'a'\x1f" "1|10|15|x1",
                                      "'a'\x1f" "1|5|10|x2"}));
  // A different multiplicity over time is a different result.
  Relation once = Make(cols, {{Value::String("a"), Value::Int(1), Value::Int(0), Value::Int(15)}});
  EXPECT_NE(Fingerprint(overlap, true), Fingerprint(once, true));
  // A gap splits the canonical interval.
  Relation gap = Make(cols, {{Value::String("a"), Value::Int(1), Value::Int(0), Value::Int(5)},
                             {Value::String("a"), Value::Int(1), Value::Int(6), Value::Int(9)}});
  EXPECT_EQ(CanonicalRows(gap, true).size(), 2u);
}

TEST(EquivalentResultsTest, AbsorbsRoundingTiesThatSplitFingerprints) {
  const std::vector<std::string> cols = {"n", "v", "b", "e"};
  // TPC-BiH Q5 (seed 808): 299420.25 is a 20-bit tie between 299420 and
  // 299420.5, and the cost-based plan's sum lands just above it.
  Relation oracle = Make(cols, {{Value::String("INDONESIA"), Value::Double(299420.25),
                                 Value::Int(819), Value::Int(827)}});
  Relation bench = Make(cols, {{Value::String("INDONESIA"),
                                Value::Double(299420.25000000006), Value::Int(819),
                                Value::Int(827)}});
  EXPECT_NE(Fingerprint(oracle, true), Fingerprint(bench, true));
  EXPECT_TRUE(EquivalentResults(oracle, bench, true));
  EXPECT_TRUE(EquivalentResults(bench, oracle, true));
  // A value off by more than the rounding step is a different result.
  Relation off = Make(cols, {{Value::String("INDONESIA"), Value::Double(299421.25),
                              Value::Int(819), Value::Int(827)}});
  EXPECT_FALSE(EquivalentResults(oracle, off, true));
}

TEST(EquivalentResultsTest, TemporalResultsCompareSnapshotBySnapshot) {
  const std::vector<std::string> cols = {"n", "v", "b", "e"};
  // Fragmentation is ignored even where rounding would split the tuple:
  // both fragments sit on either side of the 299420.25 tie.
  Relation merged = Make(cols, {{Value::String("x"), Value::Double(299420.25),
                                 Value::Int(0), Value::Int(10)}});
  Relation split = Make(cols, {{Value::String("x"), Value::Double(299420.24999999994),
                                Value::Int(0), Value::Int(4)},
                               {Value::String("x"), Value::Double(299420.25000000006),
                                Value::Int(4), Value::Int(10)}});
  EXPECT_TRUE(EquivalentResults(merged, split, true));
  // Different lifetimes, multiplicities or exact cells differ.
  Relation shorter = Make(cols, {{Value::String("x"), Value::Double(299420.25),
                                  Value::Int(0), Value::Int(9)}});
  Relation twice = Make(cols, {{Value::String("x"), Value::Double(299420.25),
                                Value::Int(0), Value::Int(10)},
                               {Value::String("x"), Value::Double(299420.25),
                                Value::Int(5), Value::Int(6)}});
  Relation renamed = Make(cols, {{Value::String("y"), Value::Double(299420.25),
                                  Value::Int(0), Value::Int(10)}});
  EXPECT_FALSE(EquivalentResults(merged, shorter, true));
  EXPECT_FALSE(EquivalentResults(merged, twice, true));
  EXPECT_FALSE(EquivalentResults(merged, renamed, true));
  // Empty intervals are alive at no time point.
  Relation empty = Make(cols, {{Value::String("z"), Value::Double(1.0), Value::Int(3),
                                Value::Int(3)}});
  EXPECT_TRUE(EquivalentResults(empty, Make(cols, {}), true));
}

TEST(EquivalentResultsTest, BagResultsIgnoreOrderButKeepDuplicates) {
  Relation a = Make({"x", "y"}, {{Value::Int(1), Value::Double(0.5)},
                                 {Value::Int(2), Value::Double(7.0)},
                                 {Value::Int(1), Value::Double(0.5)}});
  Relation b = Make({"x", "y"}, {{Value::Int(2), Value::Double(7.000000000000001)},
                                 {Value::Int(1), Value::Double(0.5)},
                                 {Value::Int(1), Value::Double(0.49999999999999994)}});
  Relation once = Make({"x", "y"}, {{Value::Int(1), Value::Double(0.5)},
                                    {Value::Int(2), Value::Double(7.0)}});
  EXPECT_TRUE(EquivalentResults(a, b, false));
  EXPECT_FALSE(EquivalentResults(a, once, false));
}

TEST(BagHashTest, OrderInsensitiveExactAndLayoutIndependent) {
  Relation a = Make({"x", "y"}, {{Value::Int(1), Value::Double(0.5)},
                                 {Value::Int(2), Value::String("b")},
                                 {Value::Int(1), Value::Double(0.5)}});
  Relation b = Make({"x", "y"}, {{Value::Int(1), Value::Double(0.5)},
                                 {Value::Int(1), Value::Double(0.5)},
                                 {Value::Int(2), Value::String("b")}});
  Relation once = Make({"x", "y"}, {{Value::Int(1), Value::Double(0.5)},
                                    {Value::Int(2), Value::String("b")}});
  Relation last_bit = Make({"x", "y"}, {{Value::Int(1), Value::Double(0.5000000000000001)},
                                        {Value::Int(2), Value::String("b")},
                                        {Value::Int(1), Value::Double(0.5)}});
  EXPECT_EQ(BagHash(a), BagHash(b));
  EXPECT_NE(BagHash(a), BagHash(once));
  EXPECT_NE(BagHash(a), BagHash(last_bit));
  Relation columnar = b;
  columnar.ToColumnar();
  ASSERT_TRUE(columnar.is_columnar());
  EXPECT_EQ(BagHash(columnar), BagHash(a));
}

}  // namespace
}  // namespace e2e
