// Tests for the physical temporal operators: multiset coalescing (both
// implementations, Def 8.2), the split operator (Def 8.3), the fused
// split+aggregate (Sec. 9) and the timeslice, including randomized
// cross-checks between the native and window implementations.
#include "engine/temporal_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "rewrite/period_enc.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

Relation SalariesExample() {
  // Paper Figure 3: S(sal, period).
  return EncodedRelation(
      {"sal"}, {{{Value::Int(50)}, Interval(1, 13)},
                {{Value::Int(30)}, Interval(3, 13)},
                {{Value::Int(30)}, Interval(3, 10)},
                {{Value::Int(40)}, Interval(11, 13)}});
}

Relation CoalescedSalaries() {
  // N-coalesced: 30k twice in [3,10), once in [10,13); others unchanged.
  return EncodedRelation(
      {"sal"}, {{{Value::Int(50)}, Interval(1, 13)},
                {{Value::Int(30)}, Interval(3, 10)},
                {{Value::Int(30)}, Interval(3, 10)},
                {{Value::Int(30)}, Interval(10, 13)},
                {{Value::Int(40)}, Interval(11, 13)}});
}

TEST(CoalesceOpTest, PaperFigure3Native) {
  Relation out = CoalesceNative(SalariesExample());
  EXPECT_TRUE(out.BagEquals(CoalescedSalaries()));
}

TEST(CoalesceOpTest, PaperFigure3Window) {
  Relation out = CoalesceWindow(SalariesExample());
  EXPECT_TRUE(out.BagEquals(CoalescedSalaries()));
}

TEST(CoalesceOpTest, IdempotentAndCanonical) {
  Relation once = CoalesceNative(SalariesExample());
  Relation twice = CoalesceNative(once);
  EXPECT_TRUE(once.BagEquals(twice));
}

TEST(CoalesceOpTest, MergesAdjacentEqualMultiplicity) {
  Relation in = EncodedRelation({"v"}, {{{Value::Int(1)}, Interval(0, 5)},
                                        {{Value::Int(1)}, Interval(5, 9)}});
  Relation expect =
      EncodedRelation({"v"}, {{{Value::Int(1)}, Interval(0, 9)}});
  EXPECT_TRUE(CoalesceNative(in).BagEquals(expect));
  EXPECT_TRUE(CoalesceWindow(in).BagEquals(expect));
}

TEST(CoalesceOpTest, EmptyAndDegenerateIntervals) {
  Relation empty(Schema::FromNames({"v", "a_begin", "a_end"}));
  EXPECT_EQ(CoalesceNative(empty).size(), 0u);
  EXPECT_EQ(CoalesceWindow(empty).size(), 0u);
  // Degenerate (b >= e) rows encode nothing.
  Relation degenerate = EncodedRelation({"v"}, {});
  degenerate.AddRow({Value::Int(1), Value::Int(5), Value::Int(5)});
  EXPECT_EQ(CoalesceNative(degenerate).size(), 0u);
}

TEST(CoalesceOpTest, NullValuesFormTheirOwnGroup) {
  Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
  in.AddRow({Value::Null(), Value::Int(0), Value::Int(5)});
  in.AddRow({Value::Null(), Value::Int(3), Value::Int(8)});
  Relation out = CoalesceNative(in);
  // {[0,3)->1, [3,5)->2, [5,8)->1} for the NULL tuple.
  EXPECT_EQ(out.size(), 4u);
}

TEST(CoalesceOpTest, RandomizedNativeEqualsWindowEqualsLogicalModel) {
  Rng rng(0xc0a1e5ce);
  TimeDomain dom{0, 30};
  for (int iter = 0; iter < 60; ++iter) {
    Relation in(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
    int n = static_cast<int>(rng.Uniform(40));
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng.Range(0, 28);
      TimePoint e = rng.Range(b + 1, 29);
      in.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(rng.Range(0, 1)),
                 Value::Int(b), Value::Int(e)});
    }
    Relation native = CoalesceNative(in);
    Relation window = CoalesceWindow(in);
    ASSERT_TRUE(native.BagEquals(window))
        << "native:\n" << native.ToString() << "window:\n"
        << window.ToString();
    // Against the logical model: coalescing the engine encoding must
    // equal the PERIODENC image of the decoded (coalesced) N^T relation.
    Relation logical = PeriodEnc(PeriodDec(in, dom), in.schema().Prefix(2));
    ASSERT_TRUE(native.BagEquals(logical));
    // Snapshot equivalence with the input is preserved.
    ASSERT_TRUE(SnapshotEquivalentEncodings(in, native, dom));
  }
}

TEST(SplitOpTest, FragmentsAtGroupMateEndpoints) {
  Relation left = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(0, 10)}});
  Relation right = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(3, 6)},
                                           {{Value::Int(2)}, Interval(4, 5)}});
  Relation out = SplitRelation(left, right, {0});
  // Group 1 endpoints: 0,10 (left) + 3,6 (right) -> [0,3),[3,6),[6,10).
  // Group-2 endpoints (4,5) must NOT split group 1.
  Relation expect = EncodedRelation({"g"},
                                    {{{Value::Int(1)}, Interval(0, 3)},
                                     {{Value::Int(1)}, Interval(3, 6)},
                                     {{Value::Int(1)}, Interval(6, 10)}});
  EXPECT_TRUE(out.BagEquals(expect));
}

TEST(SplitOpTest, EmptyGroupListAlignsEverything) {
  Relation left = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(0, 10)}});
  Relation right = EncodedRelation({"g"}, {{{Value::Int(2)}, Interval(4, 5)}});
  Relation out = SplitRelation(left, right, {});
  EXPECT_EQ(out.size(), 3u);  // [0,4), [4,5), [5,10)
}

TEST(SplitOpTest, PreservesSnapshots) {
  Rng rng(0x5011701);
  TimeDomain dom{0, 20};
  for (int iter = 0; iter < 40; ++iter) {
    Relation in(Schema::FromNames({"g", "a_begin", "a_end"}));
    int n = static_cast<int>(rng.Uniform(20)) + 1;
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng.Range(0, 18);
      TimePoint e = rng.Range(b + 1, 19);
      in.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(b), Value::Int(e)});
    }
    Relation split = SplitRelation(in, in, {0});
    ASSERT_TRUE(SnapshotEquivalentEncodings(in, split, dom));
    // Fragments of the same group are equal or disjoint.
    for (const Row& a : split.rows()) {
      for (const Row& b : split.rows()) {
        if (a[0] != b[0]) continue;
        Interval ia(a[1].AsInt(), a[2].AsInt());
        Interval ib(b[1].AsInt(), b[2].AsInt());
        ASSERT_TRUE(ia == ib || !ia.Overlaps(ib))
            << ia.ToString() << " vs " << ib.ToString();
      }
    }
  }
}

TEST(SplitAggregateTest, GlobalCountWithGaps) {
  // The Q_onduty aggregation from the running example, fused.
  Catalog cat = ExampleCatalog();
  Relation sp(Schema::FromNames({"one", "a_begin", "a_end"}));
  for (const Row& row : cat.Get("works").rows()) {
    if (row[1] == Value::String("SP")) {
      sp.AddRow({Value::Int(1), row[2], row[3]});
    }
  }
  Relation out = SplitAggregateRelation(
      sp, {}, {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}},
      /*gap_rows=*/true, kExampleDomain);
  Relation expect = EncodedRelation({"cnt"},
                                    {{{Value::Int(0)}, Interval(0, 3)},
                                     {{Value::Int(1)}, Interval(3, 8)},
                                     {{Value::Int(2)}, Interval(8, 10)},
                                     {{Value::Int(1)}, Interval(10, 16)},
                                     {{Value::Int(0)}, Interval(16, 18)},
                                     {{Value::Int(1)}, Interval(18, 20)},
                                     {{Value::Int(0)}, Interval(20, 24)}});
  EXPECT_TRUE(CoalesceNative(out).BagEquals(expect))
      << CoalesceNative(out).ToString();
}

TEST(SplitAggregateTest, EmptyInputStillCoversDomainWithGaps) {
  Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
  Relation out = SplitAggregateRelation(
      in, {}, {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
               AggExpr{AggFunc::kSum, Col(0), "s"}},
      /*gap_rows=*/true, TimeDomain{0, 10});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows()[0][0], Value::Int(0));
  EXPECT_TRUE(out.rows()[0][1].is_null());
  EXPECT_EQ(out.rows()[0][2], Value::Int(0));
  EXPECT_EQ(out.rows()[0][3], Value::Int(10));
}

TEST(SplitAggregateTest, GapRowsClampedToDomain) {
  // Input intervals exceeding [tmin, tmax) must not produce fragments
  // outside the declared domain (regression: the gap sweep used to emit
  // them verbatim).
  TimeDomain domain{0, 24};
  std::vector<AggExpr> aggs = {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}};
  auto run = [&](std::vector<std::pair<TimePoint, TimePoint>> intervals) {
    Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
    for (auto [b, e] : intervals) {
      in.AddRow({Value::Int(1), Value::Int(b), Value::Int(e)});
    }
    return SplitAggregateRelation(in, {}, aggs, /*gap_rows=*/true, domain);
  };
  // Straddles the lower bound.
  Relation below = run({{-5, 10}});
  Relation expect_below =
      EncodedRelation({"cnt"}, {{{Value::Int(1)}, Interval(0, 10)},
                                {{Value::Int(0)}, Interval(10, 24)}});
  EXPECT_TRUE(below.BagEquals(expect_below)) << below.ToString();
  // Straddles the upper bound.
  Relation above = run({{20, 30}});
  Relation expect_above =
      EncodedRelation({"cnt"}, {{{Value::Int(0)}, Interval(0, 20)},
                                {{Value::Int(1)}, Interval(20, 24)}});
  EXPECT_TRUE(above.BagEquals(expect_above)) << above.ToString();
  // Straddles both bounds at once.
  Relation both = run({{-5, 30}});
  Relation expect_both =
      EncodedRelation({"cnt"}, {{{Value::Int(1)}, Interval(0, 24)}});
  EXPECT_TRUE(both.BagEquals(expect_both)) << both.ToString();
  // Entirely outside the domain: only the full-domain gap row remains.
  Relation outside = run({{30, 40}, {-9, -2}});
  Relation expect_outside =
      EncodedRelation({"cnt"}, {{{Value::Int(0)}, Interval(0, 24)}});
  EXPECT_TRUE(outside.BagEquals(expect_outside)) << outside.ToString();
}

TEST(SplitAggregateTest, GroupedGapRowsClampedToDomain) {
  TimeDomain domain{0, 24};
  Relation in(Schema::FromNames({"g", "a_begin", "a_end"}));
  in.AddRow({Value::Int(1), Value::Int(-5), Value::Int(30)});
  in.AddRow({Value::Int(2), Value::Int(5), Value::Int(30)});
  Relation out = SplitAggregateRelation(
      in, {0}, {AggExpr{AggFunc::kCountStar, nullptr, "cnt"}},
      /*gap_rows=*/true, domain);
  Relation expect(out.schema());
  expect.AddRow({Value::Int(1), Value::Int(1), Value::Int(0), Value::Int(24)});
  expect.AddRow({Value::Int(2), Value::Int(0), Value::Int(0), Value::Int(5)});
  expect.AddRow({Value::Int(2), Value::Int(1), Value::Int(5), Value::Int(24)});
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
}

TEST(SplitAggregateTest, GroupedMinMaxSweep) {
  Relation in(Schema::FromNames({"g", "v", "a_begin", "a_end"}));
  auto add = [&](int64_t g, int64_t v, int64_t b, int64_t e) {
    in.AddRow({Value::Int(g), Value::Int(v), Value::Int(b), Value::Int(e)});
  };
  add(1, 10, 0, 10);
  add(1, 30, 2, 6);
  add(1, 20, 4, 8);
  Relation out = SplitAggregateRelation(
      in, {0},
      {AggExpr{AggFunc::kMin, Col(1), "lo"},
       AggExpr{AggFunc::kMax, Col(1), "hi"},
       AggExpr{AggFunc::kAvg, Col(1), "av"}},
      /*gap_rows=*/false, TimeDomain{0, 12});
  // Segments: [0,2): {10}; [2,4): {10,30}; [4,6): {10,30,20};
  //           [6,8): {10,20}; [8,10): {10}.
  Relation expect(out.schema());
  auto row = [&](int64_t b, int64_t e, int64_t lo, int64_t hi, double av) {
    expect.AddRow({Value::Int(1), Value::Int(lo), Value::Int(hi),
                   Value::Double(av), Value::Int(b), Value::Int(e)});
  };
  row(0, 2, 10, 10, 10.0);
  row(2, 4, 10, 30, 20.0);
  row(4, 6, 10, 30, 20.0);
  row(6, 8, 10, 20, 15.0);
  row(8, 10, 10, 10, 10.0);
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
}

TEST(SplitAggregateTest, PreAggregationOnOffAgree) {
  Rng rng(0xa66a66);
  for (int iter = 0; iter < 40; ++iter) {
    Relation in(Schema::FromNames({"g", "v", "a_begin", "a_end"}));
    int n = static_cast<int>(rng.Uniform(30));
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng.Range(0, 14);
      TimePoint e = rng.Range(b + 1, 15);
      in.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(rng.Range(0, 50)),
                 Value::Int(b), Value::Int(e)});
    }
    std::vector<AggExpr> aggs = {
        AggExpr{AggFunc::kCountStar, nullptr, "c"},
        AggExpr{AggFunc::kSum, Col(1), "s"},
        AggExpr{AggFunc::kMin, Col(1), "lo"},
        AggExpr{AggFunc::kMax, Col(1), "hi"}};
    Relation with = SplitAggregateRelation(in, {0}, aggs, false,
                                           TimeDomain{0, 16}, true);
    Relation without = SplitAggregateRelation(in, {0}, aggs, false,
                                              TimeDomain{0, 16}, false);
    ASSERT_TRUE(with.BagEquals(without))
        << "with:\n" << with.ToString() << "without:\n" << without.ToString();
  }
}

TEST(TimesliceTest, ExtractsSnapshot) {
  Relation works = WorksRelation();
  Relation at8 = TimesliceEncoded(works, 8);
  Relation expect(Schema::FromNames({"name", "skill"}));
  expect.AddRow({Value::String("Ann"), Value::String("SP")});
  expect.AddRow({Value::String("Joe"), Value::String("NS")});
  expect.AddRow({Value::String("Sam"), Value::String("SP")});
  EXPECT_TRUE(at8.BagEquals(expect));
  EXPECT_EQ(TimesliceEncoded(works, 0).size(), 0u);
  EXPECT_EQ(TimesliceEncoded(works, 23).size(), 0u);
  // Half-open semantics: end point excluded, begin included.
  EXPECT_EQ(TimesliceEncoded(works, 3).size(), 1u);
  EXPECT_EQ(TimesliceEncoded(works, 10).size(), 2u);
}

// --- Endpoint arithmetic at the int64 extremes.  A TimeDomain touching
// INT64_MIN / INT64_MAX must flow through timeslice, split and the
// gap-row synthesis without overflow (the sanitizer CI jobs turn any
// regression here into a hard failure). ------------------------------------

constexpr TimePoint kTimeMin = std::numeric_limits<int64_t>::min();
constexpr TimePoint kTimeMax = std::numeric_limits<int64_t>::max();

TEST(ExtremeDomainTest, TimesliceAtBothExtremes) {
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(kTimeMax)});
  rel.AddRow({Value::Int(2), Value::Int(kTimeMin), Value::Int(kTimeMin + 1)});
  rel.AddRow({Value::Int(3), Value::Int(kTimeMax - 1), Value::Int(kTimeMax)});
  EXPECT_EQ(TimesliceEncoded(rel, kTimeMin).size(), 2u);
  EXPECT_EQ(TimesliceEncoded(rel, kTimeMax - 1).size(), 2u);
  EXPECT_EQ(TimesliceEncoded(rel, 0).size(), 1u);
  // tmax itself is exclusive in every interval, so nothing is valid.
  EXPECT_EQ(TimesliceEncoded(rel, kTimeMax).size(), 0u);
}

TEST(ExtremeDomainTest, SplitAtBothExtremes) {
  Relation left(Schema::FromNames({"k", "b", "e"}));
  left.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(kTimeMax)});
  Relation right(Schema::FromNames({"k", "b", "e"}));
  right.AddRow({Value::Int(1), Value::Int(-5), Value::Int(7)});
  Relation out = SplitRelation(left, right, {0});
  // The full-domain interval splits at -5 and 7 into three fragments.
  Relation expect(left.schema());
  expect.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(-5)});
  expect.AddRow({Value::Int(1), Value::Int(-5), Value::Int(7)});
  expect.AddRow({Value::Int(1), Value::Int(7), Value::Int(kTimeMax)});
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
}

TEST(ExtremeDomainTest, GapRowSynthesisOverFullInt64Domain) {
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(5), Value::Int(-3), Value::Int(4)});
  std::vector<AggExpr> aggs{AggExpr{AggFunc::kCountStar, nullptr, "cnt"}};
  TimeDomain full{kTimeMin, kTimeMax};
  Relation out = SplitAggregateRelation(rel, {}, aggs, /*gap_rows=*/true,
                                        full);
  Relation expect(Schema::FromNames({"cnt", "a_begin", "a_end"}));
  expect.AddRow({Value::Int(0), Value::Int(kTimeMin), Value::Int(-3)});
  expect.AddRow({Value::Int(1), Value::Int(-3), Value::Int(4)});
  expect.AddRow({Value::Int(0), Value::Int(4), Value::Int(kTimeMax)});
  EXPECT_TRUE(out.BagEquals(expect)) << out.ToString();
  // Empty input over the full domain: one all-gap row.
  Relation empty(Schema::FromNames({"v", "b", "e"}));
  Relation gap = SplitAggregateRelation(empty, {}, aggs, true, full);
  ASSERT_EQ(gap.size(), 1u);
  EXPECT_EQ(gap.rows()[0][1].AsInt(), kTimeMin);
  EXPECT_EQ(gap.rows()[0][2].AsInt(), kTimeMax);
}

TEST(ExtremeDomainTest, RunningSumWidensInsteadOfOverflowing) {
  // Two overlapping rows whose summed attribute is INT64_MAX-scale: the
  // running sum in the overlap fragment cannot fit int64 and must widen
  // to a double instead of wrapping (previously UB).
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(kTimeMax - 1), Value::Int(0), Value::Int(10)});
  rel.AddRow({Value::Int(kTimeMax - 2), Value::Int(5), Value::Int(15)});
  std::vector<AggExpr> aggs{AggExpr{AggFunc::kSum, Col(0), "s"}};
  TimeDomain domain{0, 20};
  Relation out = SplitAggregateRelation(rel, {}, aggs, /*gap_rows=*/false,
                                        domain);
  ASSERT_EQ(out.size(), 3u);
  bool saw_overlap = false;
  for (const Row& row : out.rows()) {
    TimePoint b = row[1].AsInt();
    if (b == 5) {
      // Overlap fragment [5, 10): the sum of both values, as a double.
      ASSERT_EQ(row[0].type(), ValueType::kDouble);
      EXPECT_NEAR(row[0].AsDouble(), 2.0 * 9.223372036854775e18, 1e7);
      saw_overlap = true;
    } else {
      // Single-value fragments stay exact integers.
      ASSERT_EQ(row[0].type(), ValueType::kInt);
    }
  }
  EXPECT_TRUE(saw_overlap) << out.ToString();
}

TEST(ExtremeDomainTest, RunningSumStaysExactAfterTransientOverflow) {
  // Three rows: the middle fragment transiently overflows int64, but
  // once the huge values close again the remaining fragment must come
  // back as the exact integer (the 128-bit running sum never loses it).
  Relation rel(Schema::FromNames({"v", "b", "e"}));
  rel.AddRow({Value::Int(kTimeMax - 1), Value::Int(0), Value::Int(10)});
  rel.AddRow({Value::Int(kTimeMax - 2), Value::Int(0), Value::Int(10)});
  rel.AddRow({Value::Int(42), Value::Int(10), Value::Int(20)});
  std::vector<AggExpr> aggs{AggExpr{AggFunc::kSum, Col(0), "s"}};
  TimeDomain domain{0, 30};
  Relation out = SplitAggregateRelation(rel, {}, aggs, /*gap_rows=*/false,
                                        domain);
  ASSERT_EQ(out.size(), 2u);
  for (const Row& row : out.rows()) {
    if (row[1].AsInt() == 10) {
      ASSERT_EQ(row[0].type(), ValueType::kInt) << out.ToString();
      EXPECT_EQ(row[0].AsInt(), 42);
    }
  }
}

TEST(ExtremeDomainTest, PlainAggregateSumWidensOnOverflow) {
  AggState state(AggFunc::kSum);
  state.Accumulate(Value::Int(kTimeMax - 1));
  state.Accumulate(Value::Int(kTimeMax - 2));
  Value sum = state.Finalize(2);
  ASSERT_EQ(sum.type(), ValueType::kDouble);
  EXPECT_NEAR(sum.AsDouble(), 2.0 * 9.223372036854775e18, 1e7);
}

TEST(ExtremeDomainTest, CoalesceBothImplsAtBothExtremes) {
  Relation rel(Schema::FromNames({"k", "b", "e"}));
  rel.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(0)});
  rel.AddRow({Value::Int(1), Value::Int(0), Value::Int(kTimeMax)});
  rel.AddRow({Value::Int(1), Value::Int(kTimeMax), Value::Int(kTimeMax)});
  Relation native = CoalesceNative(rel);
  Relation window = CoalesceWindow(rel);
  Relation expect(rel.schema());
  expect.AddRow({Value::Int(1), Value::Int(kTimeMin), Value::Int(kTimeMax)});
  EXPECT_TRUE(native.BagEquals(expect)) << native.ToString();
  EXPECT_TRUE(window.BagEquals(expect)) << window.ToString();
}

// --- Native vs window coalescing on degenerate inputs: both must drop
// empty intervals (begin >= end) identically.  Randomized equivalence
// over inputs dense in empty, touching and duplicate intervals. ------------

TEST(CoalesceEquivalenceTest, DegenerateRowsWithBeginEqualEnd) {
  Relation rel(Schema::FromNames({"k", "b", "e"}));
  rel.AddRow({Value::Int(1), Value::Int(2), Value::Int(2)});  // empty
  rel.AddRow({Value::Int(1), Value::Int(1), Value::Int(2)});
  rel.AddRow({Value::Int(1), Value::Int(2), Value::Int(3)});  // touching
  rel.AddRow({Value::Int(1), Value::Int(5), Value::Int(4)});  // reversed
  rel.AddRow({Value::Int(2), Value::Int(7), Value::Int(7)});  // group of empties
  Relation native = CoalesceNative(rel);
  Relation window = CoalesceWindow(rel);
  Relation expect(rel.schema());
  expect.AddRow({Value::Int(1), Value::Int(1), Value::Int(3)});
  EXPECT_TRUE(native.BagEquals(expect)) << native.ToString();
  EXPECT_TRUE(window.BagEquals(expect)) << window.ToString();
}

TEST(CoalesceEquivalenceTest, RandomizedWithEmptyAndTouchingIntervals) {
  Rng rng(20260731);
  for (int iter = 0; iter < 400; ++iter) {
    Relation rel(Schema::FromNames({"k", "b", "e"}));
    int n = static_cast<int>(rng.Uniform(8)) + 1;
    for (int i = 0; i < n; ++i) {
      // Endpoints from a tiny pool so empty (b == e), reversed, touching
      // and duplicate intervals are all frequent.
      TimePoint b = rng.Range(0, 6);
      TimePoint e = rng.Chance(0.3) ? b : rng.Range(0, 6);
      rel.AddRow({Value::Int(rng.Range(0, 2)), Value::Int(b), Value::Int(e)});
    }
    Relation native = CoalesceNative(rel);
    Relation window = CoalesceWindow(rel);
    ASSERT_TRUE(native.BagEquals(window))
        << "iter " << iter << "\ninput:\n" << rel.ToString()
        << "native:\n" << native.ToString()
        << "window:\n" << window.ToString();
  }
}

// --- Exact double sums in the split-aggregate sweep ------------------------

TEST(ExactSumTest, RoundsTheExactTotalOnce) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double max = std::numeric_limits<double>::max();
  ExactSum sum;
  EXPECT_EQ(std::bit_cast<uint64_t>(sum.Round()), 0u);  // +0.0
  sum.Add(1e16);
  sum.Add(1.0);
  sum.Subtract(1e16);
  EXPECT_EQ(sum.Round(), 1.0);  // a plain running sum gives 0.0
  sum.Subtract(1.0);
  sum.Add(-0.0);
  EXPECT_EQ(std::bit_cast<uint64_t>(sum.Round()), 0u);
  // Ties round to even; anything past the tie rounds up.
  ExactSum tie;
  tie.Add(1.0);
  tie.Add(std::ldexp(1.0, -53));
  EXPECT_EQ(tie.Round(), 1.0);
  tie.Add(tiny);
  EXPECT_EQ(tie.Round(), 1.0 + std::ldexp(1.0, -52));
  // Subnormals are exact; the range ends at infinity.
  ExactSum small;
  small.Add(tiny);
  small.Add(tiny);
  small.Subtract(3 * tiny);
  EXPECT_EQ(small.Round(), -tiny);
  ExactSum big;
  big.Add(max);
  big.Add(max);
  EXPECT_EQ(big.Round(), std::numeric_limits<double>::infinity());
  big.Subtract(max);
  EXPECT_EQ(big.Round(), max);
  big.Subtract(2 * (max / 2));
  big.Subtract(max);
  EXPECT_EQ(big.Round(), -max);
}

// One dyadic double m * 2^(e + offset) (|m| < 2^20, -35 <= e <= 35)
// as the integer m * 2^(e + 35), and the reference rounding of such
// sums.
constexpr int kDyadicScale = 35;

double RandomDyadic(Rng* rng, int offset, __int128* scaled) {
  const int64_t m = rng->Range(-(int64_t{1} << 20) + 1, (int64_t{1} << 20) - 1);
  const int e = static_cast<int>(rng->Range(-kDyadicScale, kDyadicScale));
  *scaled = static_cast<__int128>(m) << (e + kDyadicScale);
  return std::ldexp(static_cast<double>(m), e + offset);
}

double RoundScaled(__int128 sum, int offset) {
  // The int-to-double conversion rounds to nearest-even once; the
  // power-of-two scaling is exact while the result stays normal, which
  // offsets in [-980, 950] guarantee for sums of up to 2^20 terms.
  return std::ldexp(static_cast<double>(sum), offset - kDyadicScale);
}

bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Identical cells: same type, doubles bit for bit.
bool IdenticalCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (const double* x = a.TryDouble()) {
    return std::bit_cast<uint64_t>(*x) ==
           std::bit_cast<uint64_t>(*b.TryDouble());
  }
  return a.Compare(b) == 0;
}

// The windowed digits against an integer reference: terms whose
// magnitudes span 90 bits arrive in random order (so the stored window
// grows at both ends), some with multiplicities, some subtracted again,
// and each total is rounded with an integer added on.  Every result
// must be the correctly rounded exact total.
TEST(ExactSumTest, WindowedDigitsMatchAnIntegerReference) {
  Rng rng(0x5e7d1);
  for (int iter = 0; iter < 400; ++iter) {
    const int offset =
        iter % 2 == 0 ? 0 : static_cast<int>(rng.Range(-980, 900));
    ExactSum sum;
    __int128 exact = 0;
    std::vector<std::pair<double, __int128>> added;
    for (int i = 0, n = 1 + static_cast<int>(rng.Uniform(80)); i < n; ++i) {
      __int128 scaled = 0;
      const double x = RandomDyadic(&rng, offset, &scaled);
      const int64_t times = rng.Chance(0.2) ? rng.Range(-40, 40) : 1;
      if (times == 1) {
        sum.Add(x);
        added.emplace_back(x, scaled);
      } else {
        sum.AddTimes(x, times);
      }
      exact += scaled * times;
      if (!added.empty() && rng.Chance(0.1)) {
        sum.Subtract(added.back().first);
        exact -= added.back().second;
        added.pop_back();
      }
    }
    const std::string context = StrCat("iter ", iter, " offset ", offset);
    ASSERT_TRUE(SameDouble(sum.Round(), RoundScaled(exact, offset)))
        << context << ": " << sum.Round() << " vs "
        << RoundScaled(exact, offset);
    if (offset == 0) {
      // Round(plus) adds plus * 2^0, which the reference scales by 2^35.
      const __int128 plus = rng.Range(-(int64_t{1} << 60), int64_t{1} << 60);
      EXPECT_TRUE(SameDouble(sum.Round(plus),
                             RoundScaled(exact + (plus << kDyadicScale), 0)))
          << context << " plus " << static_cast<int64_t>(plus);
    }
  }
}

// SUM and AVG are exactly rounded totals, so neither the row order nor
// pre-aggregation moves a bit of them: the split-aggregate and hash
// aggregation over three permutations of each input.  Values include
// cancellation (1e16 + 1.0 - 1e16), NaN, ±inf and -0.0, integer sums
// past int64, and a column mixing Ints and Doubles.
TEST(ExactSumTest, SumsAreBitIdenticalAcrossPlans) {
  const double inf = std::numeric_limits<double>::infinity();
  const double doubles[] = {1e16, -1e16, 1.0, 0.1, 0.3, -0.7, 1e-3, 2.5e15};
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), inf,
                             -inf, -0.0};
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const Schema schema = Schema::FromNames({"g", "x", "i", "m", "b", "e"});
  std::vector<AggExpr> aggs;
  for (int c : {1, 2, 3}) {
    aggs.push_back({AggFunc::kSum, Col(c), StrCat("sum", c)});
    aggs.push_back({AggFunc::kAvg, Col(c), StrCat("avg", c)});
  }
  Rng rng(0xb17b17);
  int specials_seen = 0;
  int overflows_seen = 0;
  for (int iter = 0; iter < 30; ++iter) {
    // Some inputs are large; those draw no NaN or infinity, which would
    // hide their digits.
    const size_t n = iter % 10 == 0 ? 9000 : 20 + rng.Uniform(300);
    const double special_chance = n > 1000 ? 0.0 : 0.02;
    std::vector<Row> rows;
    for (size_t r = 0; r < n; ++r) {
      auto dbl = [&] {
        if (rng.Chance(0.1)) return Value::Null();
        if (rng.Chance(special_chance)) {
          ++specials_seen;
          return Value::Double(specials[rng.Uniform(4)]);
        }
        return Value::Double(doubles[rng.Uniform(8)]);
      };
      auto integer = [&] {
        if (rng.Chance(0.1)) return Value::Null();
        if (rng.Chance(0.05)) {
          ++overflows_seen;
          return Value::Int(kMax - rng.Range(0, 3));
        }
        return Value::Int(rng.Range(-1000, 1000));
      };
      const TimePoint b = rng.Range(0, 30);
      rows.push_back({Value::Int(rng.Range(0, 3)), dbl(), integer(),
                      rng.Chance(0.5) ? integer() : dbl(), Value::Int(b),
                      Value::Int(b + rng.Range(1, 8))});
    }
    // Rows ordered by their key columns: fragments by group and begin,
    // aggregation groups by group.
    auto sorted = [](const Relation& rel, const std::vector<size_t>& key) {
      std::vector<Row> out = rel.rows();
      std::sort(out.begin(), out.end(), [&](const Row& x, const Row& y) {
        for (size_t c : key) {
          if (int cmp = x[c].Compare(y[c]); cmp != 0) return cmp < 0;
        }
        return false;
      });
      return out;
    };
    const std::vector<size_t> fragment_key = {0, 1 + aggs.size()};
    std::optional<std::vector<Row>> want_split;
    std::optional<std::vector<Row>> want_hash;
    auto check = [&](std::optional<std::vector<Row>>& want,
                     std::vector<Row> got, const std::string& context) {
      if (!want.has_value()) {
        want = std::move(got);
        return;
      }
      ASSERT_EQ(got.size(), want->size()) << context;
      for (size_t r = 0; r < got.size(); ++r) {
        for (size_t c = 0; c < got[r].size(); ++c) {
          ASSERT_TRUE(IdenticalCell(got[r][c], (*want)[r][c]))
              << context << " row " << r << ": " << RowToString(got[r])
              << " vs " << RowToString((*want)[r]);
        }
      }
    };
    for (int perm = 0; perm < 3; ++perm) {
      std::vector<Row> permuted = rows;
      if (perm == 1) std::reverse(permuted.begin(), permuted.end());
      if (perm == 2) {
        for (size_t r = permuted.size(); r > 1; --r) {
          std::swap(permuted[r - 1], permuted[rng.Uniform(r)]);
        }
      }
      Catalog catalog;
      catalog.Put("t", Relation(schema, std::move(permuted)));
      const Relation& input = catalog.Get("t");
      for (bool pre : {true, false}) {
        check(want_split,
              sorted(SplitAggregateRelation(input, {0}, aggs, false,
                                            TimeDomain{0, 40}, pre),
                     fragment_key),
              StrCat("iter ", iter, " split-aggregate, permutation ", perm,
                     ", pre ", pre));
      }
      check(want_hash,
            sorted(Execute(MakeAggregate(MakeScan("t", schema), {Col(0)},
                                         {Column("g")}, aggs),
                           catalog),
                   {0}),
            StrCat("iter ", iter, " hash aggregation, permutation ", perm));
    }
  }
  EXPECT_GT(specials_seen, 50);
  EXPECT_GT(overflows_seen, 100);
}

// Every fragment's SUM is the correctly rounded exact sum of the rows
// alive over it, and AVG that sum over their count, whatever opened and
// closed before: no partial that has closed leaves a trace.  Each row
// has its own interval, so every partial holds one row with or without
// pre-aggregation.  Half the iterations shift their values by a random
// binary offset, so the sums land anywhere in the double range.
TEST(SplitAggregateTest, DoubleSumsAreExactPerFragment) {
  Rng rng(0xe4ac7);
  const double inf = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < 60; ++iter) {
    const int offset =
        iter % 2 == 0 ? 0 : static_cast<int>(rng.Range(-980, 950));
    struct Input {
      int64_t g;
      TimePoint b;
      TimePoint e;
      double x;
      __int128 scaled;
    };
    std::vector<Input> inputs;
    Relation rel(Schema::FromNames({"g", "x", "b", "e"}));
    std::set<std::pair<TimePoint, TimePoint>> used;
    for (int i = 0, n = 2 + static_cast<int>(rng.Uniform(60)); i < n; ++i) {
      TimePoint b = rng.Range(0, 40);
      TimePoint e = b + 1 + rng.Range(0, 25);
      if (!used.insert({b, e}).second) continue;
      Input in{rng.Range(0, 3), b, e, 0.0, 0};
      if (rng.Chance(0.03)) {
        const double special[] = {inf, -inf,
                                  std::numeric_limits<double>::quiet_NaN()};
        in.x = special[rng.Uniform(3)];
      } else {
        in.x = RandomDyadic(&rng, offset, &in.scaled);
      }
      inputs.push_back(in);
      rel.AddRow({Value::Int(in.g), Value::Double(in.x), Value::Int(b),
                  Value::Int(e)});
    }
    std::vector<AggExpr> aggs = {{AggFunc::kSum, Col(1), "s"},
                                 {AggFunc::kAvg, Col(1), "a"}};
    for (bool pre : {true, false}) {
      Relation out = SplitAggregateRelation(rel, {0}, aggs, false,
                                            TimeDomain{0, 80}, pre);
      ASSERT_GT(out.size(), 0u);
      for (const Row& row : out.rows()) {
        const TimePoint from = row[3].AsInt();
        const TimePoint to = row[4].AsInt();
        __int128 exact = 0;
        int64_t count = 0;
        int nan = 0;
        int pos = 0;
        int neg = 0;
        for (const Input& in : inputs) {
          if (in.g != row[0].AsInt() || in.b > from || in.e < to) continue;
          ++count;
          if (std::isnan(in.x)) {
            ++nan;
          } else if (std::isinf(in.x)) {
            ++(in.x > 0 ? pos : neg);
          } else {
            exact += in.scaled;
          }
        }
        ASSERT_GT(count, 0);
        const double want = nan > 0 || (pos > 0 && neg > 0)
                                ? std::numeric_limits<double>::quiet_NaN()
                            : pos > 0 ? inf
                            : neg > 0 ? -inf
                                      : RoundScaled(exact, offset);
        const std::string context =
            StrCat("iter ", iter, " offset ", offset, " pre ", pre,
                   " fragment ", RowToString(row));
        ASSERT_EQ(row[1].type(), ValueType::kDouble) << context;
        EXPECT_TRUE(SameDouble(row[1].AsDouble(), want))
            << context << ": want " << want;
        EXPECT_TRUE(SameDouble(row[2].AsDouble(),
                               want / static_cast<double>(count)))
            << context;
      }
    }
  }
}

// SUM and AVG of +inf and -inf: a plain `+=` of the two yields the
// platform's default NaN (negative on x86); ExactSum counts infinities
// and returns quiet_NaN().  Every plan must return that NaN, bit for
// bit.
TEST(SplitAggregateTest, NaNSumsAndAveragesHaveOneBitPattern) {
  const double inf = std::numeric_limits<double>::infinity();
  auto row = [](int64_t g, double x, TimePoint b, TimePoint e) {
    return Row{Value::Int(g), Value::Double(x), Value::Int(b), Value::Int(e)};
  };
  // Group 1's rows share one (group, begin, end) cell, so one phase-1
  // partial sums them; group 2's overlap in [2, 4) only in the sweep.
  Relation rel(Schema::FromNames({"g", "x", "b", "e"}),
               {row(1, inf, 0, 4), row(1, -inf, 0, 4), row(2, inf, 0, 4),
                row(2, -inf, 2, 6)});
  Catalog catalog;
  catalog.Put("r", rel);
  const std::vector<AggExpr> aggs = {{AggFunc::kSum, Col(1), "s"},
                                     {AggFunc::kAvg, Col(1), "a"}};
  const auto quiet =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::quiet_NaN());
  int nans = 0;
  auto check = [&](const Relation& out, const std::string& plan) {
    for (const Row& r : out.rows()) {
      for (size_t c : {1, 2}) {
        const double* d = r[c].TryDouble();
        if (d == nullptr || !std::isnan(*d)) continue;
        ++nans;
        EXPECT_EQ(std::bit_cast<uint64_t>(*d), quiet)
            << plan << ": " << RowToString(r);
      }
    }
  };
  check(Execute(MakeAggregate(MakeScan("r", rel.schema()), {Col(0)},
                              {Column("g")}, aggs),
                catalog),
        "hash aggregation");
  for (bool pre : {true, false}) {
    check(SplitAggregateRelation(rel, {0}, aggs, false, TimeDomain{0, 8}, pre),
          StrCat("split-aggregate, pre-aggregation ", pre));
  }
  // SUM and AVG of both groups, and of the fragments [0, 4) of group 1
  // and [2, 4) of group 2 with and without pre-aggregation.
  EXPECT_EQ(nans, 12);
}

// Aggregate arguments that are expressions are evaluated row by row,
// each row's endpoints decoded first and rows with empty intervals
// skipped, so the first error is the one a row-at-a-time loop meets.
TEST(SplitAggregateTest, ExpressionArgumentsFailAtTheFirstFailingRow) {
  auto run = [](std::vector<Row> rows) -> std::string {
    Relation rel(Schema::FromNames({"x", "b", "e"}), std::move(rows));
    std::vector<AggExpr> aggs = {{AggFunc::kSum, Add(Col(0), LitInt(1)), "s"}};
    try {
      Relation out = SplitAggregateRelation(rel, {}, aggs, false,
                                            TimeDomain{0, 10});
      return RowToString(out.rows().at(0));
    } catch (const EngineError& e) {
      return e.what();
    }
  };
  const Value abc = Value::String("abc");
  const Value bad = Value::String("bad");
  // The empty interval's argument is never evaluated.
  EXPECT_EQ(run({{abc, Value::Int(5), Value::Int(5)},
                 {Value::Int(1), Value::Int(0), Value::Int(3)}}),
            "(2, 0, 3)");
  // A row's endpoints before its argument, rows in order.
  EXPECT_EQ(run({{Value::Int(1), bad, Value::Int(3)},
                 {abc, Value::Int(0), Value::Int(3)}}),
            "temporal column must hold integer time points, got bad");
  EXPECT_EQ(run({{abc, Value::Int(0), Value::Int(3)},
                 {Value::Int(1), bad, Value::Int(3)}}),
            "arithmetic on non-numeric values: abc vs 1");
}

// --- Per-function aggregate state vs full tracking -------------------------

// The exact total of Int values and of Doubles that are multiples of
// 1/4 (the only finite Doubles RandomAggCell draws), in quarters, with
// counts of the NaN, +inf and -inf terms; and its IEEE-style rounding.
// An independent reference for ExactSum: 128-bit integers and one
// int-to-double conversion, which rounds to nearest-even.
struct QuarterSum {
  __int128 isum = 0;      // the Int terms
  __int128 quarters = 0;  // 4 times the finite Double terms
  int64_t nan = 0;
  int64_t pos_inf = 0;
  int64_t neg_inf = 0;

  void AddDouble(double d) {
    if (std::isnan(d)) {
      ++nan;
    } else if (std::isinf(d)) {
      ++(d > 0 ? pos_inf : neg_inf);
    } else {
      quarters += static_cast<__int128>(d * 4);
    }
  }
  void Apply(const QuarterSum& other, int dir) {
    isum += dir * other.isum;
    quarters += dir * other.quarters;
    nan += dir * other.nan;
    pos_inf += dir * other.pos_inf;
    neg_inf += dir * other.neg_inf;
  }
  double Round() const {
    if (nan > 0 || (pos_inf > 0 && neg_inf > 0)) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (pos_inf > 0) return std::numeric_limits<double>::infinity();
    if (neg_inf > 0) return -std::numeric_limits<double>::infinity();
    return static_cast<double>(isum * 4 + quarters) / 4;
  }
};

// SUM and AVG over `count` non-null values by the documented rule:
// the Int total when every value was an Int and it fits int64, else
// the exact total rounded once; AVG that rounded total over the count.
Value FinalSum(AggFunc f, int64_t count, bool all_int, const QuarterSum& sum) {
  if (count == 0) return Value::Null();
  if (f == AggFunc::kAvg) {
    return Value::Double(sum.Round() / static_cast<double>(count));
  }
  if (all_int && sum.isum >= std::numeric_limits<int64_t>::min() &&
      sum.isum <= std::numeric_limits<int64_t>::max()) {
    return Value::Int(static_cast<int64_t>(sum.isum));
  }
  return Value::Double(sum.Round());
}

// The aggregate state as it was before each function kept only its own
// fields: every field, for every function.
struct FullAggState {
  int64_t count = 0;
  bool any = false;
  bool all_int = true;
  QuarterSum sum;
  Value min_v;
  Value max_v;

  void Accumulate(const Value& v) {
    if (v.is_null()) return;
    count += 1;
    if (const int64_t* i = v.TryInt()) sum.isum += *i;
    if (const double* d = v.TryDouble()) {
      all_int = false;
      sum.AddDouble(*d);
    }
    if (!any || CompareExtremes(v, min_v) < 0) min_v = v;
    if (!any || CompareExtremes(v, max_v) > 0) max_v = v;
    any = true;
  }

  Value Finalize(AggFunc f, int64_t star) const {
    switch (f) {
      case AggFunc::kCountStar:
        return Value::Int(star);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
      case AggFunc::kAvg:
        return FinalSum(f, count, all_int, sum);
      case AggFunc::kMin:
        return any ? min_v : Value::Null();
      case AggFunc::kMax:
        return any ? max_v : Value::Null();
    }
    return Value::Null();
  }
};

// The sweep state over full partials: ordered multisets of every
// partial's extrema and the exact sums, for every function.
struct FullRunningAgg {
  int64_t count = 0;
  int64_t n_nonint = 0;
  QuarterSum sum;
  std::map<Value, int64_t, ExtremeLess> mins;
  std::map<Value, int64_t, ExtremeLess> maxs;

  void Apply(const FullAggState& s, int dir) {
    count += dir * s.count;
    sum.Apply(s.sum, dir);
    if (!s.all_int) n_nonint += dir;
    if (!s.any) return;
    if (dir > 0) {
      ++mins[s.min_v];
      ++maxs[s.max_v];
    } else {
      if (--mins[s.min_v] == 0) mins.erase(s.min_v);
      if (--maxs[s.max_v] == 0) maxs.erase(s.max_v);
    }
  }

  Value Finalize(AggFunc f, int64_t star) const {
    switch (f) {
      case AggFunc::kCountStar:
        return Value::Int(star);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
      case AggFunc::kAvg:
        return FinalSum(f, count, n_nonint == 0, sum);
      case AggFunc::kMin:
        return mins.empty() ? Value::Null() : mins.begin()->first;
      case AggFunc::kMax:
        return maxs.empty() ? Value::Null() : maxs.rbegin()->first;
    }
    return Value::Null();
  }
};

// Columns of the aggregation test table: a group key, one argument
// column per kind of cell, and the interval.
enum AggColumn { kGroup, kInts, kDoubles, kStrings, kBools, kNulls, kMixed,
                 kBegin, kEnd, kAggArity };

Value RandomAggCell(Rng* rng, int col) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {-0.0, 0.0,
                             std::numeric_limits<double>::quiet_NaN(), inf,
                             -inf};
  const char* strings[] = {"", "a", "b", "ab", "z"};
  auto int_cell = [&] {
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    return Value::Int(rng->Chance(0.05) ? kMax - rng->Range(0, 2)
                                        : rng->Range(-50, 50));
  };
  auto double_cell = [&] {
    return rng->Chance(0.15) ? Value::Double(specials[rng->Uniform(5)])
                             : Value::Double(rng->Range(-40, 40) / 4.0);
  };
  if (col == kNulls || (col != kGroup && rng->Chance(0.15))) {
    return Value::Null();
  }
  switch (col) {
    case kGroup:
      return rng->Chance(0.5) ? Value::Int(rng->Range(0, 3))
                              : Value::String(strings[rng->Uniform(3)]);
    case kInts:
      return int_cell();
    case kDoubles:
      return double_cell();
    case kStrings:
      return Value::String(strings[rng->Uniform(5)]);
    case kBools:
      return Value::Bool(rng->Chance(0.5));
    default:
      break;
  }
  switch (rng->Uniform(4)) {  // kMixed
    case 0:
      return int_cell();
    case 1:
      return double_cell();
    case 2:
      return Value::String(strings[rng->Uniform(5)]);
    default:
      return Value::Bool(rng->Chance(0.5));
  }
}

// Every function over every argument column, and count(*).
std::vector<AggExpr> EveryAggregate() {
  std::vector<AggExpr> aggs = {{AggFunc::kCountStar, nullptr, "star"}};
  for (int c = kInts; c <= kMixed; ++c) {
    for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg,
                      AggFunc::kMin, AggFunc::kMax}) {
      aggs.push_back({f, Col(c), StrCat(AggFuncName(f), c)});
    }
  }
  return aggs;
}

// Hash aggregation over full states, groups in first-appearance order.
std::vector<Row> FullHashAggregate(const std::vector<Row>& rows,
                                   const std::vector<AggExpr>& aggs) {
  struct Group {
    Row key;
    int64_t star = 0;
    std::vector<FullAggState> states;
  };
  std::vector<Group> groups;
  std::unordered_map<Row, size_t, RowHash, RowEq> index;
  for (const Row& row : rows) {
    auto [it, inserted] = index.try_emplace({row[kGroup]}, groups.size());
    if (inserted) {
      groups.push_back(
          {{row[kGroup]}, 0, std::vector<FullAggState>(aggs.size())});
    }
    Group& g = groups[it->second];
    g.star += 1;
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].arg != nullptr) {
        g.states[a].Accumulate(row[static_cast<size_t>(aggs[a].arg->column)]);
      }
    }
  }
  std::vector<Row> out;
  for (const Group& g : groups) {
    Row row = g.key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      row.push_back(g.states[a].Finalize(aggs[a].func, g.star));
    }
    out.push_back(std::move(row));
  }
  return out;
}

// The split-aggregate over full partials and full sweep state, in the
// operator's own order: groups and partials in first-appearance order,
// each group's events by time, at equal times the opens before the
// closes, each in partial order.  (Extrema no longer depend on that
// order: CompareExtremes orders NaN above every number.)
std::vector<Row> FullSplitAggregate(const std::vector<Row>& rows,
                                    const std::vector<AggExpr>& aggs,
                                    bool pre_aggregate) {
  struct Partial {
    TimePoint begin;
    TimePoint end;
    int64_t star = 0;
    std::vector<FullAggState> states;
  };
  std::vector<Row> keys;
  std::unordered_map<Row, size_t, RowHash, RowEq> key_index;
  std::vector<std::vector<Partial>> partials;
  std::map<std::tuple<size_t, TimePoint, TimePoint>, size_t> cells;
  for (const Row& row : rows) {
    TimePoint b = row[kBegin].AsInt();
    TimePoint e = row[kEnd].AsInt();
    if (b >= e) continue;
    auto [it, inserted] = key_index.try_emplace({row[kGroup]}, keys.size());
    if (inserted) {
      keys.push_back({row[kGroup]});
      partials.emplace_back();
    }
    const size_t g = it->second;
    size_t slot = partials[g].size();
    if (pre_aggregate) {
      slot = cells.try_emplace({g, b, e}, slot).first->second;
    }
    if (slot == partials[g].size()) {
      partials[g].push_back({b, e, 0, std::vector<FullAggState>(aggs.size())});
    }
    Partial& p = partials[g][slot];
    p.star += 1;
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].arg != nullptr) {
        p.states[a].Accumulate(row[static_cast<size_t>(aggs[a].arg->column)]);
      }
    }
  }
  std::vector<Row> out;
  for (size_t g = 0; g < keys.size(); ++g) {
    std::vector<std::tuple<TimePoint, int, size_t>> events;
    for (size_t i = 0; i < partials[g].size(); ++i) {
      events.emplace_back(partials[g][i].begin, 0, i);
      events.emplace_back(partials[g][i].end, 1, i);
    }
    std::sort(events.begin(), events.end());
    std::vector<FullRunningAgg> running(aggs.size());
    int64_t star = 0;
    TimePoint prev = 0;
    for (size_t i = 0; i < events.size();) {
      const TimePoint t = std::get<0>(events[i]);
      if (star > 0 && prev < t) {
        Row row = keys[g];
        for (size_t a = 0; a < aggs.size(); ++a) {
          row.push_back(running[a].Finalize(aggs[a].func, star));
        }
        row.push_back(Value::Int(prev));
        row.push_back(Value::Int(t));
        out.push_back(std::move(row));
      }
      for (; i < events.size() && std::get<0>(events[i]) == t; ++i) {
        const Partial& p = partials[g][std::get<2>(events[i])];
        const int dir = std::get<1>(events[i]) == 0 ? 1 : -1;
        star += dir * p.star;
        for (size_t a = 0; a < aggs.size(); ++a) {
          running[a].Apply(p.states[a], dir);
        }
      }
      prev = t;
    }
  }
  return out;
}

// Each function's own state gives the output that tracking every field
// for every function gives: hash aggregation and the split-aggregate
// with pre-aggregation on and off, bit for bit, SUM and AVG at the
// exactly rounded totals.
TEST(AggStateTest, PerFunctionStateMatchesFullTracking) {
  Rng rng(0xa995);
  const std::vector<AggExpr> aggs = EveryAggregate();
  Schema schema = Schema::FromNames(
      {"g", "i", "d", "s", "b", "n", "m", "a_begin", "a_end"});
  for (int iter = 0; iter < 16; ++iter) {
    // Some inputs are large.
    const size_t n = iter % 8 == 0 ? 9000 : rng.Uniform(200);
    std::vector<Row> rows;
    for (size_t r = 0; r < n; ++r) {
      Row row;
      for (int c = kGroup; c <= kMixed; ++c) {
        row.push_back(RandomAggCell(&rng, c));
      }
      TimePoint b = rng.Range(0, 12);
      row.push_back(Value::Int(b));
      row.push_back(Value::Int(b + rng.Range(-1, 5)));
      rows.push_back(std::move(row));
    }
    Catalog catalog;
    catalog.Put("t", Relation(schema, rows));
    auto check = [&](const std::vector<Row>& got, const std::vector<Row>& want,
                     const std::string& context) {
      ASSERT_EQ(got.size(), want.size()) << context;
      for (size_t r = 0; r < got.size(); ++r) {
        for (size_t c = 0; c < want[r].size(); ++c) {
          ASSERT_TRUE(IdenticalCell(got[r][c], want[r][c]))
              << context << " row " << r << " column " << c << ": "
              << RowToString(got[r]) << " vs " << RowToString(want[r]);
        }
      }
    };
    PlanPtr plan = MakeAggregate(MakeScan("t", schema), {Col(kGroup)},
                                 {Column("g")}, aggs);
    check(Execute(plan, catalog).rows(), FullHashAggregate(rows, aggs),
          StrCat("iter ", iter, " hash aggregation"));
    for (bool pre : {true, false}) {
      Relation got = SplitAggregateRelation(catalog.Get("t"), {kGroup}, aggs,
                                            false, TimeDomain{0, 20}, pre);
      check(got.rows(), FullSplitAggregate(rows, aggs, pre),
            StrCat("iter ", iter, " split-aggregate, pre ", pre));
    }
  }
}

}  // namespace
}  // namespace periodk
