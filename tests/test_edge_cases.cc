// Edge-case and failure-injection tests across layers: empty inputs,
// degenerate schemas, arity violations, unsupported operations inside
// snapshot blocks, and boundary time points.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "engine/interval_join.h"
#include "engine/temporal_ops.h"
#include "engine/window.h"
#include "middleware/temporal_db.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

TEST(EdgeCaseTest, WindowOnEmptyRelation) {
  Relation empty(Schema::FromNames({"g", "t", "d"}));
  WindowSpec spec{{0}, {{1, true}}, WindowFunc::kRunningSumRange, 2};
  EXPECT_EQ(ApplyWindow(empty, spec, "s").size(), 0u);
}

TEST(EdgeCaseTest, WindowSinglePartitionSingleRow) {
  Relation one(Schema::FromNames({"g", "t"}));
  one.AddRow({Value::Int(1), Value::Int(5)});
  Relation lag = ApplyWindow(
      one, WindowSpec{{0}, {{1, true}}, WindowFunc::kLag, 1}, "prev");
  EXPECT_TRUE(lag.rows()[0][2].is_null());
  Relation lead = ApplyWindow(
      one, WindowSpec{{0}, {{1, true}}, WindowFunc::kLead, 1}, "next");
  EXPECT_TRUE(lead.rows()[0][2].is_null());
  Relation rn = ApplyWindow(
      one, WindowSpec{{}, {{1, true}}, WindowFunc::kRowNumber, -1}, "rn");
  EXPECT_EQ(rn.rows()[0][2], Value::Int(1));
}

TEST(EdgeCaseTest, SplitAggregateWholeDomainInterval) {
  // A tuple valid over the entire domain with gap rows enabled: exactly
  // one output fragment covering the domain.
  Relation in = EncodedRelation({"v"}, {{{Value::Int(1)}, Interval(0, 24)}});
  Relation out = SplitAggregateRelation(
      in, {}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
      /*gap_rows=*/true, TimeDomain{0, 24});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.rows()[0][0], Value::Int(1));
  EXPECT_EQ(out.rows()[0][1], Value::Int(0));
  EXPECT_EQ(out.rows()[0][2], Value::Int(24));
}

TEST(EdgeCaseTest, GroupedGapRowsOverEmptyInputEmitNothing) {
  // Regression: grouped SplitAggregate with gap_rows over an empty
  // input used to synthesize a groups[Row{}] entry and emit a gap row
  // *missing the group columns* -- a malformed row narrower than the
  // schema.  Grouped gaps cover observed groups only; an empty input
  // observes none.
  Relation empty(Schema::FromNames({"g", "a_begin", "a_end"}));
  Relation out = SplitAggregateRelation(
      empty, {0}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
      /*gap_rows=*/true, TimeDomain{0, 24});
  EXPECT_EQ(out.size(), 0u);
  // Rows with empty validity count as unobserved too.
  Relation degenerate(Schema::FromNames({"g", "a_begin", "a_end"}));
  degenerate.AddRow({Value::Int(1), Value::Int(5), Value::Int(5)});
  EXPECT_EQ(SplitAggregateRelation(
                degenerate, {0}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
                /*gap_rows=*/true, TimeDomain{0, 24})
                .size(),
            0u);
  // The global (ungrouped) gap row over an empty input is still emitted.
  Relation out_global = SplitAggregateRelation(
      empty, {}, {AggExpr{AggFunc::kCountStar, nullptr, "c"}},
      /*gap_rows=*/true, TimeDomain{0, 24});
  ASSERT_EQ(out_global.size(), 1u);
  EXPECT_EQ(out_global.rows()[0][0], Value::Int(0));
  EXPECT_EQ(out_global.rows()[0][1], Value::Int(0));
  EXPECT_EQ(out_global.rows()[0][2], Value::Int(24));
}

TEST(EdgeCaseTest, AddRowRejectsArityMismatch) {
  Relation rel(Schema::FromNames({"a", "b"}));
  EXPECT_THROW(rel.AddRow({Value::Int(1)}), EngineError);
  EXPECT_THROW(rel.AddRow({Value::Int(1), Value::Int(2), Value::Int(3)}),
               EngineError);
  rel.AddRow({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(rel.size(), 1u);
  // The bulk constructor applies the same check.
  EXPECT_THROW(Relation(Schema::FromNames({"a", "b"}),
                        {{Value::Int(1)}, {Value::Int(1), Value::Int(2)}}),
               EngineError);
}

TEST(EdgeCaseTest, SplitBudgetScopeEnforcesLimit) {
  Relation left = EncodedRelation({"g"}, {{{Value::Int(1)}, Interval(0, 20)}});
  Relation right(left.schema());
  for (int i = 1; i < 20; ++i) {
    right.AddRow({Value::Int(1), Value::Int(i), Value::Int(i + 1)});
  }
  {
    SplitBudgetScope budget(5);
    EXPECT_THROW(SplitRelation(left, right, {0}), SplitBudgetExceeded);
  }
  // Outside the scope the same split succeeds.
  EXPECT_EQ(SplitRelation(left, right, {0}).size(), 20u);
}

TEST(EdgeCaseTest, PlanBuilderArityValidation) {
  PlanPtr narrow = MakeScan("t", Schema::FromNames({"a"}));
  PlanPtr wide = MakeScan("u", Schema::FromNames({"a", "b"}));
  EXPECT_THROW(MakeUnionAll(narrow, wide), EngineError);
  EXPECT_THROW(MakeExceptAll(narrow, wide), EngineError);
  EXPECT_THROW(MakeAntiJoin(narrow, wide), EngineError);
  EXPECT_THROW(MakeCoalesce(MakeScan("t", Schema::FromNames({"a"}))),
               EngineError);
  EXPECT_THROW(MakeTimeslice(MakeScan("t", Schema::FromNames({"a"})), 0),
               EngineError);
  EXPECT_THROW(MakeProject(narrow, {Col(0)}, {}), EngineError);
}

TEST(EdgeCaseTest, RewriterRejectsUnsupportedOperators) {
  SnapshotRewriter rewriter(kExampleDomain, RewriteOptions{});
  PlanPtr sorted = MakeSort(MakeScan("works", WorksSnapshotSchema()),
                            {SortKey{0, true}});
  EXPECT_THROW(rewriter.Rewrite(sorted), EngineError);
}

TEST(EdgeCaseTest, TemporalColumnsMustBeIntegers) {
  Relation bad(Schema::FromNames({"v", "a_begin", "a_end"}));
  bad.AddRow({Value::Int(1), Value::String("x"), Value::Int(5)});
  EXPECT_THROW(CoalesceNative(bad), EngineError);
  EXPECT_THROW(TimesliceEncoded(bad, 1), EngineError);
}

TEST(EdgeCaseTest, SnapshotQueryOverEmptyTables) {
  TemporalDB db(TimeDomain{0, 50});
  ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "b", "e"}, "b", "e").ok());
  // Global aggregation over an empty period table: one gap row covering
  // the whole domain with count 0.
  auto result = db.Query("SEQ VT (SELECT count(*) AS c FROM t)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->rows()[0][0], Value::Int(0));
  EXPECT_EQ(result->rows()[0][1], Value::Int(0));
  EXPECT_EQ(result->rows()[0][2], Value::Int(50));
  // Non-aggregate snapshot query: empty result.
  auto plain = db.Query("SEQ VT (SELECT v FROM t)");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->size(), 0u);
}

TEST(EdgeCaseTest, IntervalsTouchingDomainBounds) {
  TemporalDB db(TimeDomain{0, 10});
  ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "b", "e"}, "b", "e").ok());
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(1), Value::Int(0), Value::Int(10)}).ok());
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(2), Value::Int(9), Value::Int(10)}).ok());
  auto result = db.Query("SEQ VT (SELECT count(*) AS c FROM t)");
  ASSERT_TRUE(result.ok());
  Relation expected = EncodedRelation({"c"},
                                      {{{Value::Int(1)}, Interval(0, 9)},
                                       {{Value::Int(2)}, Interval(9, 10)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(EdgeCaseTest, InnerOrderByIsRejected) {
  TemporalDB db(TimeDomain{0, 10});
  ASSERT_TRUE(db.CreatePeriodTable("t", {"v", "b", "e"}, "b", "e").ok());
  // ORDER BY belongs outside the SEQ VT block (paper Sec. 10.1).
  auto result = db.Query("SEQ VT (SELECT v FROM t ORDER BY v)");
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(EdgeCaseTest, JoinOfTableWithItselfUnderSnapshots) {
  TemporalDB db(TimeDomain{0, 24});
  ASSERT_TRUE(
      db.PutPeriodTable("works", WorksRelation(), "a_begin", "a_end").ok());
  // Pairs of distinct workers sharing a skill at the same time.
  auto result = db.Query(
      "SEQ VT (SELECT a.name, b.name FROM works a, works b "
      "WHERE a.skill = b.skill AND a.name < b.name)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation expected = EncodedRelation(
      {"name", "name_b"},
      {{{Value::String("Ann"), Value::String("Sam")}, Interval(8, 10)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(EdgeCaseTest, LargeMultiplicityCoalescing) {
  // 500 duplicates of one tuple over one interval: coalesce keeps the
  // multiplicity (500 identical rows), no quadratic surprises.
  Relation in(Schema::FromNames({"v", "a_begin", "a_end"}));
  for (int i = 0; i < 500; ++i) {
    in.AddRow({Value::Int(7), Value::Int(10), Value::Int(20)});
  }
  Relation out = CoalesceNative(in);
  EXPECT_EQ(out.size(), 500u);
  EXPECT_TRUE(CoalesceWindow(in).BagEquals(out));
}

std::string Repeat(const std::string& text, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += text;
  return out;
}

/// `n` nested parentheses around a column reference.
std::string NestedParens(int n) {
  return StrCat("SELECT ", Repeat("(", n), "a", Repeat(")", n), " FROM t");
}

/// `n` subqueries nested in FROM, each a SELECT over the one below.
std::string NestedSubqueries(int n) {
  std::string query = StrCat(Repeat("SELECT a FROM (", n), "SELECT a FROM t");
  for (int i = 0; i < n; ++i) query += StrCat(") AS x", i);
  return query;
}

/// An `n`-link chain over the same SELECT: a + a + ... or a set
/// operation sequence.
std::string AdditionChain(int n) {
  return StrCat("SELECT a", Repeat(" + a", n), " AS s FROM t");
}
std::string UnionChain(int n) {
  return StrCat("SELECT a FROM t", Repeat(" UNION ALL SELECT a FROM t", n));
}
std::string SeqExceptChain(int n) {
  return StrCat("SEQ VT (SELECT a FROM t",
                Repeat(" EXCEPT ALL SELECT a FROM t", n), ")");
}

/// `n` nested SEQ VT blocks that each DISTINCT-aggregate the one below:
/// per level, the most plan nodes a SELECT block rewrites into.
std::string SeqNestedAggregates(int n) {
  std::string query =
      StrCat("SEQ VT (", Repeat("SELECT DISTINCT a, count(*) AS c FROM (", n),
             "SELECT a, count(*) AS c FROM t GROUP BY a");
  for (int i = 0; i < n; ++i) {
    query += StrCat(") AS x", i,
                    " WHERE a > -100 GROUP BY a HAVING count(*) > 0");
  }
  return query + ")";
}

/// The largest `n` whose statement the parser accepts: the statement
/// exactly at the nesting limit.  Every link of these shapes adds a
/// level, so the search never needs to look past the limit itself.
int LargestAccepted(const std::function<std::string(int)>& shape) {
  int lo = 0;
  int hi = sql::kMaxNestingDepth;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (sql::Parse(shape(mid)).ok()) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

TemporalDB HostileInputDb() {
  TemporalDB db(TimeDomain{0, 24});
  EXPECT_TRUE(db.CreatePeriodTable("t", {"a", "ts", "te"}, "ts", "te").ok());
  EXPECT_TRUE(db.InsertRows("t", {{Value::Int(1), Value::Int(0),
                                   Value::Int(10)},
                                  {Value::Int(-5), Value::Int(5),
                                   Value::Int(20)}})
                  .ok());
  EXPECT_TRUE(db.CreateTable("one", {"a"}).ok());
  EXPECT_TRUE(db.Insert("one", {Value::Int(0)}).ok());
  // A column whose range spans nearly all of int64.
  EXPECT_TRUE(db.CreateTable("wide", {"a"}).ok());
  EXPECT_TRUE(db.InsertRows("wide", {{Value::Int(-9223372036854775807)},
                                     {Value::Int(9223372036854775807)}})
                  .ok());
  return db;
}

// Statements that used to crash the process: out-of-range literals
// (std::terminate), int64 overflow (UB, SIGFPE) in user arithmetic and
// in the cost model's range estimates, and nesting deep enough to
// exhaust the stack.  Every one must come back through Query, Prepare
// and ExplainAnalyze as a Status or as the widened value.  The sanitizer
// CI jobs run this suite, which makes any UB a failure.
TEST(EdgeCaseTest, HostileStatementsReturnStatusOrWidenedValue) {
  struct Case {
    std::string sql;
    // The single result cell, or nullopt when the statement must fail
    // with a ParseError.
    std::optional<Value> expected;
  };
  const double two63 = 9223372036854775808.0;
  std::vector<Case> cases = {
      {"SELECT 99999999999999999999 AS v FROM one", std::nullopt},
      {StrCat("SELECT 1", std::string(399, '0'), ".5 AS v FROM one"),
       std::nullopt},
      {"SELECT -9223372036854775808 AS v FROM one", std::nullopt},
      {"SELECT 9223372036854775807 + 1 AS v FROM one", Value::Double(two63)},
      {"SELECT -9223372036854775807 - 2 AS v FROM one",
       Value::Double(-two63)},
      {"SELECT 9223372036854775807 * 2 AS v FROM one",
       Value::Double(2 * two63)},
      {"SELECT -(-9223372036854775807 - 1) AS v FROM one",
       Value::Double(two63)},
      {"SELECT (-9223372036854775807 - 1) % -1 AS v FROM one", Value::Int(0)},
      {"SELECT count(*) AS c FROM t WHERE a < 9223372036854775807",
       Value::Int(2)},
      {"SELECT count(*) AS c FROM t, t AS u WHERE t.a < 9223372036854775807",
       Value::Int(4)},
      {"SELECT count(*) AS c FROM wide WHERE a < 0", Value::Int(1)},
      {"SELECT count(*) AS c FROM wide WHERE a BETWEEN 0 AND 5",
       Value::Int(0)},
      {NestedParens(20000), std::nullopt},
      {NestedSubqueries(20000), std::nullopt},
      {AdditionChain(20000), std::nullopt},
      {UnionChain(20000), std::nullopt},
      {SeqExceptChain(1000), std::nullopt},
  };
  TemporalDB db = HostileInputDb();
  for (const Case& c : cases) {
    const std::string context = c.sql.substr(0, 80);
    Result<Relation> query = db.Query(c.sql);
    Result<PlanPtr> prepared = db.Prepare(c.sql);
    Result<std::string> explained = db.ExplainAnalyze(c.sql);
    if (!c.expected.has_value()) {
      EXPECT_EQ(query.status().code(), StatusCode::kParseError) << context;
      EXPECT_EQ(prepared.status().code(), StatusCode::kParseError) << context;
      EXPECT_EQ(explained.status().code(), StatusCode::kParseError)
          << context;
      continue;
    }
    ASSERT_TRUE(query.ok()) << context << ": " << query.status().ToString();
    ASSERT_EQ(query->size(), 1u) << context;
    const Value& got = query->rows()[0][0];
    EXPECT_EQ(got.type(), c.expected->type()) << context;
    EXPECT_EQ(got, *c.expected) << context << ": " << got.ToString();
    EXPECT_TRUE(prepared.ok()) << context;
    EXPECT_TRUE(explained.ok()) << context;
  }
}

// Operators applied to a value of the wrong type fail with an error
// that names the operator and the value, as arithmetic does ("arithmetic
// on non-numeric values: abc vs 2"), not with an internal std::get
// failure ("std::get: wrong index for variant").
TEST(EdgeCaseTest, WronglyTypedOperandsNameTheOperatorAndValue) {
  TemporalDB db(TimeDomain{0, 24});
  ASSERT_TRUE(db.CreateTable("r", {"g", "s", "x"}).ok());
  ASSERT_TRUE(
      db.Insert("r", {Value::Int(1), Value::String("abc"), Value::Int(7)})
          .ok());
  struct Case {
    std::string sql;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"SELECT g FROM r WHERE NOT s", "NOT on a non-boolean value: abc"},
      {"SELECT year(s) AS y FROM r", "year() on a non-integer value: abc"},
      {"SELECT g FROM r WHERE x LIKE 'a%'",
       "LIKE on non-string values: 7 vs a%"},
      {"SELECT abs(s) AS v FROM r", "abs() on a non-numeric value: abc"},
      {"SELECT -s AS v FROM r", "unary minus on a non-numeric value: abc"},
      {"SELECT g FROM r WHERE x AND 0", "AND on a non-boolean value: 7"},
      {"SELECT (x AND 0) AS v FROM r", "AND on a non-boolean value: 7"},
      {"SELECT ('abc' OR 0) AS v FROM r", "OR on a non-boolean value: abc"},
  };
  for (const Case& c : cases) {
    Result<Relation> query = db.Query(c.sql);
    ASSERT_FALSE(query.ok()) << c.sql;
    EXPECT_EQ(query.status().code(), StatusCode::kInternal) << c.sql;
    EXPECT_EQ(query.status().message(), c.message) << c.sql;
  }
  // Each operand is checked as it is evaluated: a deciding first
  // operand short-circuits past a wrongly typed second one.
  for (const std::string sql : {"SELECT (FALSE AND 'abc') AS v FROM r",
                                "SELECT NOT (TRUE OR s) AS v FROM r"}) {
    Result<Relation> query = db.Query(sql);
    ASSERT_TRUE(query.ok()) << sql << ": " << query.status().message();
    ASSERT_EQ(query->size(), 1u) << sql;
    EXPECT_EQ(query->rows()[0][0], Value::Bool(false)) << sql;
  }
}

// A condition that yields a non-boolean value is an error wherever it
// is judged -- WHERE, a CASE condition, a join residual or the whole
// join predicate -- naming the value, as AND, OR and NOT do.  A join
// whose residual is such a value once returned no rows through the
// nested loop and the sweep's fast lane, but threw once a row took the
// sweep's slow lane (which judges the whole predicate).
TEST(EdgeCaseTest, NonBooleanConditionsAreErrorsOnEveryPath) {
  TemporalDB db(TimeDomain{0, 24});
  ASSERT_TRUE(db.CreateTable("r", {"g", "s", "x"}).ok());
  ASSERT_TRUE(
      db.Insert("r", {Value::Int(1), Value::String("abc"), Value::Int(7)})
          .ok());
  for (const std::string sql :
       {"SELECT g FROM r WHERE x",
        "SELECT CASE WHEN x THEN 1 ELSE 0 END AS v FROM r",
        "SELECT a.g FROM r a, r b WHERE a.g = b.g AND a.x"}) {
    Result<Relation> query = db.Query(sql);
    ASSERT_FALSE(query.ok()) << sql;
    EXPECT_EQ(query.status().message(), "condition on a non-boolean value: 7")
        << sql;
  }
  Result<Relation> text = db.Query("SELECT g FROM r WHERE s");
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().message(), "condition on a non-boolean value: abc");

  // k = k AND b1 < e2 AND b2 < e1 AND x: equi-key, overlap, residual x.
  const Schema ls = Schema::FromNames({"k", "b", "e"});
  const Schema rs = Schema::FromNames({"k", "x", "b", "e"});
  PlanPtr join = MakeJoin(
      MakeScan("l", ls), MakeScan("r", rs),
      AndAll({Eq(Col(0), Col(3)), Lt(Col(1), Col(6)), Lt(Col(5), Col(2)),
              Col(4)}));
  ASSERT_TRUE(join->join.overlap.has_value());
  ASSERT_NE(join->join.residual, nullptr);
  const Relation left(ls, {{Value::Int(1), Value::Int(0), Value::Int(10)}});
  for (bool slow_lane : {false, true}) {
    Relation right(rs, {{Value::Int(1), Value::Int(7), Value::Int(2),
                         Value::Int(5)}});
    if (slow_lane) {
      // An empty interval takes the sweep's slow lane, where its pair
      // still overlaps under SQL comparison (0 < 3 and 3 < 10), so the
      // residual is evaluated there first.
      right.AddRow(
          {Value::Int(1), Value::Int(7), Value::Int(3), Value::Int(3)});
    }
    Catalog catalog;
    catalog.Put("l", left);
    catalog.Put("r", right);
    const std::vector<std::function<Relation()>> paths = {
        [&] { return NestedLoopJoin(*join, left, right); },
        [&] { return IntervalOverlapJoin(*join, left, right); },
        [&] { return Execute(join, catalog); },
    };
    for (size_t p = 0; p < paths.size(); ++p) {
      try {
        paths[p]();
        ADD_FAILURE() << "path " << p << " slow lane " << slow_lane
                      << " returned rows";
      } catch (const EngineError& e) {
        EXPECT_EQ(std::string(e.what()), "condition on a non-boolean value: 7")
            << "path " << p << " slow lane " << slow_lane;
      }
    }
  }
}

// The deepest statement the parser accepts runs clean end to end, and
// one level more is a ParseError, for each shape that nests: plain
// parentheses, the set-operation chain that REWR turns into the
// deepest shared plans, and the SELECT block with the most plan nodes
// per level.
TEST(EdgeCaseTest, StatementsAtTheNestingLimitRun) {
  TemporalDB db = HostileInputDb();
  for (const auto& shape : std::vector<std::function<std::string(int)>>{
           NestedParens, SeqExceptChain, SeqNestedAggregates}) {
    const int n = LargestAccepted(shape);
    const std::string sql = shape(n);
    const std::string context = StrCat("n=", n, ": ", sql.substr(0, 60));
    EXPECT_GT(n, sql::kMaxNestingDepth / 2) << context;
    Result<Relation> query = db.Query(sql);
    EXPECT_TRUE(query.ok()) << context << ": " << query.status().ToString();
    EXPECT_TRUE(db.Prepare(sql).ok()) << context;
    EXPECT_TRUE(db.ExplainAnalyze(sql).ok()) << context;
    EXPECT_EQ(db.Query(shape(n + 1)).status().code(),
              StatusCode::kParseError)
        << context;
  }
}

}  // namespace
}  // namespace periodk
