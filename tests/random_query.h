// Shared randomized-query and randomized-database generators for the
// property tests.  All generated plans have arity 2 over small integer
// domains so every operator is applicable at any nesting point.
#ifndef PERIODK_TESTS_RANDOM_QUERY_H_
#define PERIODK_TESTS_RANDOM_QUERY_H_

#include "annotated/snapshot_k_relation.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "ra/plan.h"
#include "rewrite/rewriter.h"

namespace periodk {

struct RandomQueryConfig {
  bool allow_aggregate = true;
  bool allow_difference = true;
  bool allow_distinct = true;
  // Fuzzing knobs (all off by default; a zero chance draws no random
  // numbers, so enabling none of them leaves the plan stream of
  // existing seeds bit-identical).
  double null_literal_chance = 0.0;  // NULL literals in scalars/predicates
  double union_dup_chance = 0.0;     // UNION ALL of one shared subplan
  double period_scan_chance = 0.0;   // scan leaves over period table "p"
  // Mid-sequence writes for the differential fuzzer: with this chance a
  // fuzz case carries per-table insert batches to apply *between* query
  // evaluations, so the oracle also validates post-write indexed reads
  // (the rows ride RandomAppendRows below).  Consulted only by drivers
  // that opt in; like every knob, zero draws no random numbers.
  double mid_insert_chance = 0.0;
  // Inexact aggregate arguments: with this chance an aggregate reads
  // c * s1 + d * s2 over both columns instead of one column, s1 and s2
  // drawn from multiples of 0.1 and magnitudes from 1e-3 to 1e16 of
  // either sign.  Such doubles are not dyadic and their sums cancel, so
  // a plan that sums them in a different order or with a plain running
  // sum rounds differently; exact sums make every plan agree bit for
  // bit.
  double inexact_arg_chance = 0.0;
};

class RandomQueryGenerator {
 public:
  RandomQueryGenerator(Rng* rng, RandomQueryConfig config = {})
      : rng_(rng), config_(config) {}

  PlanPtr Generate(int depth) {
    if (depth <= 0) return Scan();
    switch (rng_->Uniform(8)) {
      case 0:
        return Scan();
      case 1:
        return MakeSelect(Generate(depth - 1), RandomPredicate());
      case 2: {
        PlanPtr child = Generate(depth - 1);
        return MakeProject(child, {RandomScalar(), Col(RandomCol())},
                           {Column("p0"), Column("p1")});
      }
      case 3: {
        PlanPtr join = MakeJoin(Generate(depth - 1), Generate(depth - 1),
                                Eq(Col(0), Col(2)));
        return MakeProjectColumns(join, {1, 3});
      }
      case 4:
        if (config_.union_dup_chance > 0 &&
            rng_->Chance(config_.union_dup_chance)) {
          // Duplicate amplifier: both branches are the *same* subplan,
          // doubling every multiplicity (and exercising DAG sharing).
          PlanPtr sub = Generate(depth - 1);
          return MakeUnionAll(sub, sub);
        }
        return MakeUnionAll(Generate(depth - 1), Generate(depth - 1));
      case 5:
        if (config_.allow_difference) {
          return MakeExceptAll(Generate(depth - 1), Generate(depth - 1));
        }
        return MakeSelect(Generate(depth - 1), RandomPredicate());
      case 6:
        if (config_.allow_distinct) return MakeDistinct(Generate(depth - 1));
        return Generate(depth - 1);
      default:
        if (config_.allow_aggregate) return Aggregate(Generate(depth - 1));
        return MakeUnionAll(Generate(depth - 1), Scan());
    }
  }

 private:
  PlanPtr Scan() {
    if (config_.period_scan_chance > 0 &&
        rng_->Chance(config_.period_scan_chance)) {
      // Period table (AddRandomPeriodTable): stored with non-trailing
      // interval columns; the snapshot-level scan sees only the data.
      return MakeScan("p", Schema::FromNames({"a", "b"}));
    }
    return MakeScan(rng_->Chance(0.5) ? "r" : "s",
                    Schema::FromNames({"a", "b"}));
  }

  int RandomCol() { return static_cast<int>(rng_->Uniform(2)); }

  ExprPtr RandomScalar() {
    if (config_.null_literal_chance > 0 &&
        rng_->Chance(config_.null_literal_chance)) {
      return Lit(Value::Null());
    }
    switch (rng_->Uniform(3)) {
      case 0:
        return Col(RandomCol());
      case 1:
        return LitInt(rng_->Range(0, 3));
      default:
        return Add(Col(RandomCol()), LitInt(rng_->Range(0, 2)));
    }
  }

  ExprPtr RandomPredicate() {
    CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kGe};
    ExprPtr rhs = config_.null_literal_chance > 0 &&
                          rng_->Chance(config_.null_literal_chance)
                      ? Lit(Value::Null())  // 3VL: never satisfied
                      : LitInt(rng_->Range(0, 3));
    return Cmp(ops[rng_->Uniform(4)], Col(RandomCol()), std::move(rhs));
  }

  PlanPtr Aggregate(PlanPtr child) {
    AggFunc funcs[] = {AggFunc::kCountStar, AggFunc::kCount, AggFunc::kSum,
                       AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax};
    AggFunc f = funcs[rng_->Uniform(6)];
    AggExpr agg{f, f == AggFunc::kCountStar ? nullptr : AggArgument(), "agg"};
    if (rng_->Chance(0.5)) {
      return MakeAggregate(std::move(child), {Col(RandomCol(), "g")},
                           {Column("g")}, {std::move(agg)});
    }
    AggExpr agg2{AggFunc::kCountStar, nullptr, "cnt"};
    return MakeAggregate(std::move(child), {}, {},
                         {std::move(agg), std::move(agg2)});
  }

  // A column, or with inexact_arg_chance a double-valued blend of both.
  ExprPtr AggArgument() {
    const int c = RandomCol();
    if (config_.inexact_arg_chance == 0 ||
        !rng_->Chance(config_.inexact_arg_chance)) {
      return Col(c);
    }
    static constexpr double kScales[] = {0.1,  -0.1, 0.3,  0.7,
                                         1e-3, 1e16, -1e16, 2.5e15};
    auto scaled = [&](int col) {
      return Mul(Col(col), Lit(Value::Double(kScales[rng_->Uniform(8)])));
    };
    return Add(scaled(c), scaled(1 - c));
  }

  Rng* rng_;
  RandomQueryConfig config_;
};

/// Non-integer data for the catalog generators.  Without it (nullptr)
/// they draw ints and NULLs only, and existing seeds keep their random
/// streams.  With it, each attribute column of each table draws one
/// kind -- ints, doubles (-0.0 and integral values included, so doubles
/// meet ints as equal keys), strings, or all three mixed in one column
/// -- and each endpoint turns, with `bad_endpoint_chance`, into a
/// double, a string or NULL.  NaN is never drawn: Value::Compare is
/// not an order on it.
struct NonIntegerData {
  double bad_endpoint_chance = 0.0;
};

namespace random_data {

enum class Kind { kInt, kDouble, kString, kMixed };

/// One attribute cell; ints and NULLs only when `mix` is null.
inline Value Cell(Rng* rng, const NonIntegerData* mix, Kind kind,
                  double null_chance) {
  if (rng->Chance(null_chance)) return Value::Null();
  if (mix == nullptr) return Value::Int(rng->Range(0, 3));
  static constexpr double kDoubles[] = {-0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0};
  static constexpr const char* kStrings[] = {"a", "b", "c", "x"};
  if (kind == Kind::kMixed) kind = static_cast<Kind>(rng->Uniform(3));
  switch (kind) {
    case Kind::kDouble:
      return Value::Double(kDoubles[rng->Uniform(7)]);
    case Kind::kString:
      return Value::String(kStrings[rng->Uniform(4)]);
    default:
      return Value::Int(rng->Range(0, 3));
  }
}

/// Per-column kinds of one table (no draws without `mix`).
inline std::vector<Kind> Kinds(Rng* rng, const NonIntegerData* mix,
                               size_t columns) {
  std::vector<Kind> kinds(columns, Kind::kInt);
  if (mix == nullptr) return kinds;
  for (Kind& k : kinds) k = static_cast<Kind>(rng->Uniform(4));
  return kinds;
}

/// Endpoint `t`, or with mix->bad_endpoint_chance a double, string or
/// NULL in its place.
inline Value Endpoint(Rng* rng, const NonIntegerData* mix, TimePoint t) {
  if (mix == nullptr || !rng->Chance(mix->bad_endpoint_chance)) {
    return Value::Int(t);
  }
  switch (rng->Uniform(3)) {
    case 0:
      return Value::Double(static_cast<double>(t) + 0.5 * rng->Uniform(2));
    case 1:
      return Value::String("t");
    default:
      return Value::Null();
  }
}

}  // namespace random_data

/// Random PERIODENC-encoded tables "r" and "s" for the engine path.
/// `null_chance` makes each data column independently NULL;
/// `empty_validity_chance` produces rows whose interval is empty
/// (begin >= end) -- annotation 0 everywhere, but still visible to raw
/// multiset operators, so join paths must agree on them.  `mix` adds
/// non-integer data (NonIntegerData).
inline Catalog RandomEncodedCatalog(Rng* rng, const TimeDomain& domain,
                                    int max_rows = 12,
                                    double null_chance = 0.0,
                                    double empty_validity_chance = 0.0,
                                    const NonIntegerData* mix = nullptr) {
  Catalog catalog;
  for (const char* name : {"r", "s"}) {
    Relation rel(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
    std::vector<random_data::Kind> kinds = random_data::Kinds(rng, mix, 2);
    int n = static_cast<int>(rng->Uniform(max_rows));
    for (int i = 0; i < n; ++i) {
      TimePoint b = rng->Range(domain.tmin, domain.tmax - 2);
      TimePoint e = rng->Chance(empty_validity_chance)
                        ? rng->Range(domain.tmin, b)
                        : rng->Range(b + 1, domain.tmax - 1);
      Value a = random_data::Cell(rng, mix, kinds[0], null_chance);
      Value v = random_data::Cell(rng, mix, kinds[1], null_chance);
      Value vb = random_data::Endpoint(rng, mix, b);
      rel.AddRow({std::move(a), std::move(v), std::move(vb),
                  random_data::Endpoint(rng, mix, e)});
    }
    catalog.Put(name, std::move(rel));
  }
  return catalog;
}

/// Adds a random *period table* "p" to the catalog: same row
/// distribution as RandomEncodedCatalog, but stored with its interval
/// columns in non-trailing positions ({a_begin, a, a_end, b}).  Returns
/// the PERIODENC view -- a projection reordering to {a, b, a_begin,
/// a_end} -- for SnapshotRewriter's encoded_tables map (see
/// PeriodScanEncodings), so rewrites of Scan("p") exercise the
/// pushdown-through-projection paths.
inline PlanPtr AddRandomPeriodTable(Rng* rng, Catalog* catalog,
                                    const TimeDomain& domain,
                                    int max_rows = 12,
                                    double null_chance = 0.0,
                                    double empty_validity_chance = 0.0,
                                    const NonIntegerData* mix = nullptr) {
  Schema stored = Schema::FromNames({"a_begin", "a", "a_end", "b"});
  Relation rel(stored);
  std::vector<random_data::Kind> kinds = random_data::Kinds(rng, mix, 2);
  int n = static_cast<int>(rng->Uniform(max_rows));
  for (int i = 0; i < n; ++i) {
    TimePoint b = rng->Range(domain.tmin, domain.tmax - 2);
    TimePoint e = rng->Chance(empty_validity_chance)
                      ? rng->Range(domain.tmin, b)
                      : rng->Range(b + 1, domain.tmax - 1);
    Value vb = random_data::Endpoint(rng, mix, b);
    Value a = random_data::Cell(rng, mix, kinds[0], null_chance);
    Value ve = random_data::Endpoint(rng, mix, e);
    rel.AddRow({std::move(vb), std::move(a), std::move(ve),
                random_data::Cell(rng, mix, kinds[1], null_chance)});
  }
  catalog->Put("p", std::move(rel));
  return MakeProjectColumns(MakeScan("p", stored), {1, 3, 0, 2});
}

/// SnapshotRewriter's per-reference encodings for a generated query:
/// every Scan("p") of `query` reads `encoded_p` (AddRandomPeriodTable).
inline EncodedTables PeriodScanEncodings(const PlanPtr& query,
                                         const PlanPtr& encoded_p) {
  EncodedTables out;
  std::vector<PlanPtr> stack = {query};
  while (!stack.empty()) {
    PlanPtr node = std::move(stack.back());
    stack.pop_back();
    if (node == nullptr) continue;
    if (node->kind == PlanKind::kScan && node->table == "p") {
      out.emplace(node, encoded_p);
    }
    stack.push_back(node->left);
    stack.push_back(node->right);
  }
  return out;
}

/// Random rows shaped for the fuzzer's tables: the trailing-endpoint
/// layout of RandomEncodedCatalog's "r"/"s" ({a, b, a_begin, a_end}),
/// or AddRandomPeriodTable's stored "p" layout ({a_begin, a, a_end, b})
/// when `period_layout` is set.  Same value distribution as the table
/// generators, so mid-sequence appends (RandomQueryConfig::
/// mid_insert_chance) extend a table without skewing it.  Callers
/// invoke this only after the knob fired, keeping zero-knob seed
/// streams bit-identical.
inline std::vector<Row> RandomAppendRows(Rng* rng, const TimeDomain& domain,
                                         bool period_layout, int count,
                                         double null_chance = 0.0,
                                         double empty_validity_chance = 0.0) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    TimePoint b = rng->Range(domain.tmin, domain.tmax - 2);
    TimePoint e = rng->Chance(empty_validity_chance)
                      ? rng->Range(domain.tmin, b)
                      : rng->Range(b + 1, domain.tmax - 1);
    auto data = [&] {
      return rng->Chance(null_chance) ? Value::Null()
                                      : Value::Int(rng->Range(0, 3));
    };
    if (period_layout) {
      rows.push_back({Value::Int(b), data(), Value::Int(e), data()});
    } else {
      rows.push_back({data(), data(), Value::Int(b), Value::Int(e)});
    }
  }
  return rows;
}

/// Random snapshot K-relation with `max_tuples` distinct tuples, each
/// holding a random annotation over a few random intervals.
template <Semiring K>
SnapshotKRelation<K> RandomSnapshotKRelation(const K& k,
                                             const TimeDomain& domain,
                                             Rng* rng, int max_tuples = 5) {
  SnapshotKRelation<K> out(k, domain);
  int n = static_cast<int>(rng->Uniform(max_tuples + 1));
  for (int i = 0; i < n; ++i) {
    Row tuple = {Value::Int(rng->Range(0, 3)), Value::Int(rng->Range(0, 3))};
    int runs = static_cast<int>(rng->Uniform(3)) + 1;
    for (int r = 0; r < runs; ++r) {
      TimePoint b = rng->Range(domain.tmin, domain.tmax - 2);
      TimePoint e = rng->Range(b + 1, domain.tmax - 1);
      typename K::Value v = k.RandomValue(*rng);
      for (TimePoint t = b; t < e; ++t) {
        out.MutableAt(t).Add(tuple, v);
      }
    }
  }
  return out;
}

}  // namespace periodk

#endif  // PERIODK_TESTS_RANDOM_QUERY_H_
