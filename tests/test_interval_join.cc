// The sweep-based interval-overlap join (engine/interval_join.h) and
// the join-predicate analysis feeding it (ra/join_analysis.h): unit
// tests for the structural recognition, plus randomized property tests
// asserting bag equality against the nested-loop reference across
// equi+overlap and overlap-only predicates -- including NULL keys,
// NULL/ill-typed endpoints and empty-validity rows, which must take the
// slow lane rather than silently diverge from SQL comparison semantics
// -- and row identity (rows, order, first error) against the bucket
// staging the flat staging replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "engine/interval_join.h"
#include "engine/typed_eval.h"
#include "ra/join_analysis.h"
#include "rewrite/rewriter.h"
#include "tests/random_expr.h"
#include "tests/random_query.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

// Predicate helpers over two concatenated {a, b, a_begin, a_end}
// schemas: left columns 0..3, right columns 4..7.
ExprPtr OverlapPred() {
  return And(Lt(Col(2), Col(7)), Lt(Col(6), Col(3)));
}

Schema EncodedAbSchema() {
  return Schema::FromNames({"a", "b", "a_begin", "a_end"});
}

const Plan* FindJoin(const PlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  if (plan->kind == PlanKind::kJoin) return plan.get();
  const Plan* found = FindJoin(plan->left);
  return found != nullptr ? found : FindJoin(plan->right);
}

TEST(JoinAnalysisTest, RecognizesRewriteJoinShape) {
  // theta' AND b1 < e2 AND b2 < e1, the exact shape RewriteJoin emits.
  ExprPtr pred = And(Eq(Col(0), Col(4)), OverlapPred());
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  ASSERT_EQ(ja.equi_keys.size(), 1u);
  EXPECT_EQ(ja.equi_keys[0], (std::pair<int, int>{0, 0}));
  ASSERT_TRUE(ja.overlap.has_value());
  EXPECT_EQ(ja.overlap->left_begin, 2);
  EXPECT_EQ(ja.overlap->left_end, 3);
  EXPECT_EQ(ja.overlap->right_begin, 2);
  EXPECT_EQ(ja.overlap->right_end, 3);
  EXPECT_EQ(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, RecognizesFlippedComparisons) {
  // b1 < e2 written as e2 > b1, b2 < e1 as e1 > b2.
  ExprPtr pred = And(Gt(Col(7), Col(2)), Gt(Col(3), Col(6)));
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  ASSERT_TRUE(ja.overlap.has_value());
  EXPECT_EQ(ja.overlap->left_begin, 2);
  EXPECT_EQ(ja.overlap->left_end, 3);
  EXPECT_EQ(ja.overlap->right_begin, 2);
  EXPECT_EQ(ja.overlap->right_end, 3);
  EXPECT_TRUE(ja.equi_keys.empty());
  EXPECT_EQ(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, SameSideComparisonStaysResidual) {
  ExprPtr pred = And(Lt(Col(0), Col(1)), Lt(Col(4), Col(5)));
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  EXPECT_FALSE(ja.overlap.has_value());
  ASSERT_NE(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, UnmatchedHalfStaysResidual) {
  // Only one direction present: no overlap conjunct, the inequality
  // must survive in the residual.
  ExprPtr pred = And(Eq(Col(0), Col(4)), Lt(Col(2), Col(7)));
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  EXPECT_FALSE(ja.overlap.has_value());
  ASSERT_EQ(ja.equi_keys.size(), 1u);
  ASSERT_NE(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, ExtraConjunctsLandInResidual) {
  ExprPtr pred = AndAll({Eq(Col(0), Col(4)), OverlapPred(),
                         Ne(Col(1), Col(5)), Lt(Col(0), LitInt(10))});
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  EXPECT_TRUE(ja.overlap.has_value());
  EXPECT_EQ(ja.equi_keys.size(), 1u);
  ASSERT_NE(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, RewriterJoinPlansCarryOverlapStructurally) {
  // The plan REWR produces for a snapshot join must route through the
  // sweep: its kJoin node carries the recognized overlap.
  SnapshotRewriter rewriter(kExampleDomain, RewriteOptions{});
  PlanPtr query =
      MakeJoin(MakeScan("works", WorksSnapshotSchema()),
               MakeScan("assign", AssignSnapshotSchema()),
               Eq(Col(1), Col(3)));
  PlanPtr rewritten = rewriter.Rewrite(query);
  const Plan* node = FindJoin(rewritten);
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(node->join.overlap.has_value());
  ASSERT_EQ(node->join.equi_keys.size(), 1u);
  EXPECT_EQ(node->join.residual, nullptr);
}

TEST(IntervalJoinTest, MatchesNestedLoopOnHandPickedEdgeCases) {
  Relation r(EncodedAbSchema());
  // Normal rows, duplicates, an empty-validity row, NULL and string
  // endpoints: everything the slow lane exists for.
  r.AddRow({Value::Int(1), Value::Int(10), Value::Int(0), Value::Int(5)});
  r.AddRow({Value::Int(1), Value::Int(10), Value::Int(0), Value::Int(5)});
  r.AddRow({Value::Int(2), Value::Int(20), Value::Int(7), Value::Int(7)});
  r.AddRow({Value::Int(3), Value::Int(30), Value::Null(), Value::Int(9)});
  r.AddRow({Value::Int(4), Value::Int(40), Value::String("b"),
            Value::String("d")});
  Relation s(EncodedAbSchema());
  s.AddRow({Value::Int(1), Value::Int(11), Value::Int(3), Value::Int(8)});
  s.AddRow({Value::Int(2), Value::Int(21), Value::Int(6), Value::Int(9)});
  s.AddRow({Value::Int(5), Value::Int(51), Value::String("a"),
            Value::String("c")});
  s.AddRow({Value::Null(), Value::Int(0), Value::Int(0), Value::Int(10)});

  Catalog catalog;
  catalog.Put("r", std::move(r));
  catalog.Put("s", std::move(s));
  for (const ExprPtr& pred :
       {OverlapPred(), And(Eq(Col(0), Col(4)), OverlapPred())}) {
    PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                            MakeScan("s", EncodedAbSchema()), pred);
    ASSERT_TRUE(join->join.overlap.has_value());
    Relation sweep = Execute(join, catalog);
    Relation reference = NestedLoopJoin(*join, catalog.Get("r"),
                                        catalog.Get("s"));
    EXPECT_TRUE(sweep.BagEquals(reference))
        << "sweep:\n" << sweep.ToString() << "reference:\n"
        << reference.ToString();
  }
}

TEST(IntervalJoinTest, EmptyIntervalCanStillMatchViaSlowLane) {
  // An empty interval [7, 7) satisfies b1 < e2 AND b2 < e1 against any
  // interval strictly containing the point: the raw predicate does not
  // know about validity, so the sweep must reproduce the match.
  Relation r(EncodedAbSchema());
  r.AddRow({Value::Int(1), Value::Int(0), Value::Int(7), Value::Int(7)});
  Relation s(EncodedAbSchema());
  s.AddRow({Value::Int(1), Value::Int(0), Value::Int(5), Value::Int(9)});
  Catalog catalog;
  catalog.Put("r", std::move(r));
  catalog.Put("s", std::move(s));
  PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                          MakeScan("s", EncodedAbSchema()), OverlapPred());
  Relation out = Execute(join, catalog);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.BagEquals(
      NestedLoopJoin(*join, catalog.Get("r"), catalog.Get("s"))));
}

TEST(IntervalJoinPropertyTest, SweepEqualsNestedLoopReference) {
  TimeDomain domain{0, 40};
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 7919 + 17);
    Catalog catalog = RandomEncodedCatalog(&rng, domain, /*max_rows=*/25,
                                           /*null_chance=*/0.2,
                                           /*empty_validity_chance=*/0.15);
    std::vector<ExprPtr> preds = {
        // Pure temporal join (the nested-loop killer).
        OverlapPred(),
        // REWR's equi + overlap shape.
        And(Eq(Col(0), Col(4)), OverlapPred()),
        // With an extra opaque residual.
        AndAll({Eq(Col(0), Col(4)), OverlapPred(), Ne(Col(1), Col(5))}),
        // Flipped comparison spelling.
        And(Gt(Col(7), Col(2)), Gt(Col(3), Col(6))),
        // Data columns participating in the inequality pair: still a
        // valid "overlap" of derived intervals, still must agree.
        And(Lt(Col(1), Col(5)), Lt(Col(6), Col(3))),
    };
    for (size_t p = 0; p < preds.size(); ++p) {
      PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                              MakeScan("s", EncodedAbSchema()), preds[p]);
      ASSERT_TRUE(join->join.overlap.has_value());
      Relation sweep = Execute(join, catalog);
      Relation reference = NestedLoopJoin(*join, catalog.Get("r"),
                                          catalog.Get("s"));
      ASSERT_TRUE(sweep.BagEquals(reference))
          << "seed " << seed << " predicate #" << p << "\nsweep:\n"
          << sweep.ToString() << "reference:\n" << reference.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// The bucket-staged overlap join the flat staging replaced, kept as its
// reference: same rows, same order, same first error.

/// SQL `a < b` (false when either side is NULL or incomparable).
bool SqlLess(const Value& a, const Value& b) {
  const std::optional<int> c = SqlCompare(a, b);
  return c.has_value() && *c < 0;
}

// Every non-NULL key opens a bucket, in first-appearance order over the
// left rows and then the right rows; a bucket holds, per side, its
// well-formed rows (integer endpoints, begin < end) and its slow rows,
// each by row.  Per bucket the slow lane runs first -- each slow left
// row against the right's well-formed rows, then against its slow rows;
// then each well-formed left row against the right's slow rows, pairs
// kept when the overlap conjunct holds under SQL comparison -- and then
// the plane sweep over both sides stable_sorted by begin.  Each pair is
// tested on the residual over a scratch row as it is emitted.
Relation BucketOverlapJoin(const Plan& plan, const Relation& left,
                           const Relation& right) {
  const JoinAnalysis& ja = plan.join;
  const OverlapSpec& ov = *ja.overlap;
  struct Staged {
    TimePoint begin;
    TimePoint end;
    uint32_t row;
  };
  struct Bucket {
    std::vector<Staged> fast[2];
    std::vector<uint32_t> slow[2];
  };
  std::vector<TypedColumn> keys[2];
  for (const auto& [l, r] : ja.equi_keys) {
    keys[0].push_back(left.ReadColumn(static_cast<size_t>(l)));
    keys[1].push_back(right.ReadColumn(static_cast<size_t>(r)));
  }
  KeyIndex bucket_of(keys[0], keys[1]);
  const Relation* inputs[2] = {&left, &right};
  const auto column = [](const Relation& rel, int c) {
    return rel.ReadColumn(static_cast<size_t>(c));
  };
  TypedColumn begins[2] = {column(left, ov.left_begin),
                           column(right, ov.right_begin)};
  TypedColumn ends[2] = {column(left, ov.left_end),
                         column(right, ov.right_end)};
  std::vector<Bucket> buckets;
  for (int side = 0; side < 2; ++side) {
    for (uint32_t i = 0; i < inputs[side]->size(); ++i) {
      if (bucket_of.HasNull(i, side)) continue;
      const uint32_t id = bucket_of.FindOrInsert(i, side);
      if (id == buckets.size()) buckets.emplace_back();
      const int64_t* b = begins[side]->TryInt(i);
      const int64_t* e = ends[side]->TryInt(i);
      if (b != nullptr && e != nullptr && *b < *e) {
        buckets[id].fast[side].push_back({*b, *e, i});
      } else {
        buckets[id].slow[side].push_back(i);
      }
    }
  }
  auto overlaps = [&](uint32_t l, uint32_t r) {
    return SqlLess(begins[0]->Get(l), ends[1]->Get(r)) &&
           SqlLess(begins[1]->Get(r), ends[0]->Get(l));
  };
  ScratchRow scratch({ja.residual}, left, &right);
  std::vector<uint32_t> out[2];
  auto emit = [&](uint32_t l, uint32_t r) {
    if (ja.residual == nullptr || ja.residual->EvalBool(scratch.Load(l, r))) {
      out[0].push_back(l);
      out[1].push_back(r);
    }
  };
  for (Bucket& bucket : buckets) {
    for (uint32_t l : bucket.slow[0]) {
      for (const Staged& r : bucket.fast[1]) {
        if (overlaps(l, r.row)) emit(l, r.row);
      }
      for (uint32_t r : bucket.slow[1]) {
        if (overlaps(l, r)) emit(l, r);
      }
    }
    for (const Staged& l : bucket.fast[0]) {
      for (uint32_t r : bucket.slow[1]) {
        if (overlaps(l.row, r)) emit(l.row, r);
      }
    }
    std::vector<Staged>& ls = bucket.fast[0];
    std::vector<Staged>& rs = bucket.fast[1];
    if (ls.empty() || rs.empty()) continue;
    auto by_begin = [](const Staged& a, const Staged& b) {
      return a.begin < b.begin;
    };
    std::stable_sort(ls.begin(), ls.end(), by_begin);
    std::stable_sort(rs.begin(), rs.end(), by_begin);
    std::vector<std::pair<TimePoint, uint32_t>> active[2];  // (end, row)
    size_t i = 0;
    size_t j = 0;
    while (i < ls.size() || j < rs.size()) {
      const bool take_left =
          j >= rs.size() || (i < ls.size() && ls[i].begin <= rs[j].begin);
      const Staged cur = take_left ? ls[i++] : rs[j++];
      auto& opposite = active[take_left ? 1 : 0];
      size_t kept = 0;
      for (size_t a = 0; a < opposite.size(); ++a) {
        if (opposite[a].first <= cur.begin) continue;
        if (take_left) {
          emit(cur.row, opposite[a].second);
        } else {
          emit(opposite[a].second, cur.row);
        }
        opposite[kept++] = opposite[a];
      }
      opposite.resize(kept);
      active[take_left ? 0 : 1].emplace_back(cur.end, cur.row);
    }
  }
  return Relation::Gather(
      plan.schema, {{left, FirstColumns(left.schema().size()), out[0]},
                    {right, FirstColumns(right.schema().size()), out[1]}});
}

// Join inputs: the layout columns of random_expr.h, which residuals
// read, then an int key (a double key when `double_key`: int-vs-double
// keys compare as Values) with NULLs and duplicates, a string key, a key
// mixing ints and doubles (kMixed: Value keys) and the interval,
// sometimes malformed (the slow lane) or spanning most of int64.
enum JoinInputColumn {
  kKey = kLayoutArity, kStringKey, kMixedKey, kBegin, kEnd, kInputArity
};

Schema JoinInputSchema() {
  return Schema::FromNames(
      {"i", "d", "b", "s", "n", "m", "k", "ks", "km", "a_begin", "a_end"});
}

Relation RandomJoinInput(Rng* rng, size_t rows, bool double_key) {
  Relation rel(JoinInputSchema());
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    for (int c = 0; c < kLayoutArity; ++c) {
      row.push_back(RandomCell(rng, static_cast<LayoutColumn>(c)));
    }
    const int64_t k = rng->Range(0, 5);
    row.push_back(rng->Chance(0.1) ? Value::Null()
                  : double_key     ? Value::Double(static_cast<double>(k))
                                   : Value::Int(k));
    row.push_back(rng->Chance(0.1)
                      ? Value::Null()
                      : Value::String(rng->Chance(0.5) ? "x" : "y"));
    switch (rng->Uniform(3)) {
      case 0:
        row.push_back(Value::Int(k));
        break;
      case 1:
        row.push_back(Value::Double(static_cast<double>(k)));
        break;
      default:
        row.push_back(Value::Double(static_cast<double>(k) + 0.5));
    }
    const TimePoint b = rng->Range(0, 24);
    Value begin = Value::Int(b);
    Value end = Value::Int(b + rng->Range(1, 8));
    if (rng->Chance(0.03)) {
      constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
      constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
      begin = Value::Int(kMin + rng->Range(0, 2));
      end = Value::Int(kMax - rng->Range(0, 2));
    } else if (rng->Chance(0.15)) {
      switch (rng->Uniform(5)) {
        case 0:
          begin = Value::Null();
          break;
        case 1:
          begin = Value::Double(static_cast<double>(b) + 0.5);
          break;
        case 2:
          end = Value::String("m");
          break;
        case 3:
          end = Value::Int(b);  // empty
          break;
        default:
          end = Value::Int(b - rng->Range(1, 3));  // reversed
      }
    }
    row.push_back(std::move(begin));
    row.push_back(std::move(end));
    rel.AddRow(std::move(row));
  }
  return rel;
}

// A random residual over the layout columns of both inputs: each column
// reference goes to the left or the right input, now and then outside
// both (an error on the row path).  Type errors and overflows come from
// the corpus itself.
ExprPtr RandomResidual(Rng* rng) {
  RandomLayoutExpr gen(rng);
  return RemapColumns(gen.Gen(RandomLayoutExpr::kBool, 3), [rng](int c) {
    if (rng->Chance(0.02)) return 2 * kInputArity + c;
    return rng->Chance(0.5) ? c : kInputArity + c;
  });
}

bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (const double* x = a.TryDouble()) {
    return std::bit_cast<uint64_t>(*x) ==
           std::bit_cast<uint64_t>(*b.TryDouble());
  }
  return a.Compare(b) == 0;
}

struct Outcome {
  std::optional<Relation> rows;
  std::string error;
};

template <typename Fn>
Outcome Capture(const Fn& fn) {
  try {
    return {fn(), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, StrCat(typeid(e).name(), ": ", e.what())};
  }
}

/// nullopt when both threw the same error or returned identical rows
/// (cell types and double bits included) in identical order.
std::optional<std::string> OutcomeDiff(const Outcome& got,
                                       const Outcome& want) {
  if (got.error != want.error) {
    return StrCat("error '", got.error, "' vs '", want.error, "'");
  }
  if (!want.rows.has_value()) return std::nullopt;
  if (got.rows->size() != want.rows->size()) {
    return StrCat("row count ", got.rows->size(), " vs ", want.rows->size());
  }
  for (size_t i = 0; i < want.rows->size(); ++i) {
    const Row& x = got.rows->rows()[i];
    const Row& y = want.rows->rows()[i];
    bool same = x.size() == y.size();
    for (size_t c = 0; same && c < x.size(); ++c) same = SameCell(x[c], y[c]);
    if (!same) {
      return StrCat("row ", i, ": ", RowToString(x), " vs ", RowToString(y));
    }
  }
  return std::nullopt;
}

TEST(FlatOverlapJoinTest, MatchesBucketStagingRowForRow) {
  // The flat staging (keys of the smaller input, buckets only for keys
  // on both sides, one offsets + rows array per side, radix-sorted
  // sweeps, residuals filtered once) against the bucket staging: both
  // size orders, NULL keys, duplicate, two-column, string, int-vs-double
  // and kMixed keys, a pure temporal join, malformed and int64-wide
  // intervals, residuals the type pass admits and residuals that raise,
  // row-stored and columnar inputs.
  constexpr int kA = kInputArity;
  const ExprPtr overlap =
      And(Lt(Col(kBegin), Col(kA + kEnd)), Lt(Col(kA + kBegin), Col(kEnd)));
  const std::vector<std::pair<std::string, ExprPtr>> shapes = {
      {"pure temporal", overlap},
      {"int key", And(Eq(Col(kKey), Col(kA + kKey)), overlap)},
      {"two keys", AndAll({Eq(Col(kKey), Col(kA + kKey)),
                           Eq(Col(kStringKey), Col(kA + kStringKey)),
                           overlap})},
      {"mixed key", And(Eq(Col(kMixedKey), Col(kA + kMixedKey)), overlap)},
  };
  int left_smaller = 0;
  int right_smaller = 0;
  int slow = 0;
  int admitted = 0;
  int raised = 0;
  for (uint64_t seed = 0; seed < 160; ++seed) {
    Rng rng(seed * 2654435761u + 29);
    const size_t nl = rng.Uniform(36);
    const size_t nr = rng.Chance(0.2) ? nl : rng.Uniform(36);
    (nl < nr ? left_smaller : right_smaller) += 1;
    Relation left = RandomJoinInput(&rng, nl, /*double_key=*/false);
    Relation right = RandomJoinInput(&rng, nr, rng.Chance(0.25));
    if (rng.Chance(0.5)) {
      left.ToColumnar();
      right.ToColumnar();
    }
    for (const auto& [name, predicate] : shapes) {
      Plan plan = *MakeJoin(MakeScan("l", JoinInputSchema()),
                            MakeScan("r", JoinInputSchema()), predicate);
      ASSERT_TRUE(plan.join.overlap.has_value()) << name;
      if (rng.Chance(0.7)) plan.join.residual = RandomResidual(&rng);
      const Outcome want =
          Capture([&] { return BucketOverlapJoin(plan, left, right); });
      const Outcome got =
          Capture([&] { return IntervalOverlapJoin(plan, left, right); });
      const std::optional<std::string> diff = OutcomeDiff(got, want);
      ASSERT_FALSE(diff.has_value())
          << "seed " << seed << " " << name << " residual "
          << (plan.join.residual ? plan.join.residual->ToString() : "none")
          << ": " << *diff;
      raised += want.rows.has_value() ? 0 : 1;
      if (plan.join.residual != nullptr && want.rows.has_value() &&
          !want.rows->empty()) {
        // Admitted over the whole cross product, so over any candidates.
        std::vector<uint32_t> ls;
        std::vector<uint32_t> rs;
        for (uint32_t l = 0; l < nl; ++l) {
          for (uint32_t r = 0; r < nr; ++r) {
            ls.push_back(l);
            rs.push_back(r);
          }
        }
        const Relation cross = Relation::Gather(
            plan.schema, {{left, FirstColumns(kA), ls},
                          {right, FirstColumns(kA), rs}});
        admitted += SelectTyped(*plan.join.residual, cross).has_value();
      }
    }
    for (const Relation* rel : {&left, &right}) {
      for (size_t i = 0; i < rel->size(); ++i) {
        const Row& row = rel->rows()[i];
        const int64_t* b = row[kBegin].TryInt();
        const int64_t* e = row[kEnd].TryInt();
        slow += b == nullptr || e == nullptr || *b >= *e;
      }
    }
  }
  EXPECT_GT(left_smaller, 20);
  EXPECT_GT(right_smaller, 20);
  EXPECT_GT(slow, 100);
  EXPECT_GT(admitted, 20);
  EXPECT_GT(raised, 20);
}

TEST(IntervalJoinPropertyTest, SelfJoinOverlapOnly) {
  // Self-joins over time have no equi-key at all; the partition
  // degenerates to a single bucket and the sweep must still agree.
  TimeDomain domain{0, 60};
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 104729 + 3);
    Catalog catalog = RandomEncodedCatalog(&rng, domain, /*max_rows=*/30,
                                           /*null_chance=*/0.1,
                                           /*empty_validity_chance=*/0.1);
    PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                            MakeScan("r", EncodedAbSchema()),
                            AndAll({OverlapPred(), Lt(Col(0), Col(4))}));
    ASSERT_TRUE(join->join.overlap.has_value());
    Relation sweep = Execute(join, catalog);
    Relation reference =
        NestedLoopJoin(*join, catalog.Get("r"), catalog.Get("r"));
    ASSERT_TRUE(sweep.BagEquals(reference)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace periodk
