// End-to-end middleware tests: SQL in, period relations out.  Covers the
// paper's running example expressed in the SEQ VT dialect, period-column
// normalization, plain (non-snapshot) SQL, ORDER BY handling, binder
// diagnostics, and parity with the naive oracle.
#include "middleware/temporal_db.h"

#include <gtest/gtest.h>

#include "baseline/naive.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

// The running example with period columns *not* in trailing position,
// exercising the encoded-table reordering path.
TemporalDB MakeExampleDB() {
  TemporalDB db(kExampleDomain);
  EXPECT_TRUE(db.CreatePeriodTable("works", {"ts", "name", "skill", "te"},
                                   "ts", "te")
                  .ok());
  EXPECT_TRUE(
      db.CreatePeriodTable("assign", {"mach", "skill", "ts", "te"}, "ts", "te")
          .ok());
  auto w = [&](const char* n, const char* s, int64_t b, int64_t e) {
    EXPECT_TRUE(db.Insert("works", {Value::Int(b), Value::String(n),
                                    Value::String(s), Value::Int(e)})
                    .ok());
  };
  w("Ann", "SP", 3, 10);
  w("Joe", "NS", 8, 16);
  w("Sam", "SP", 8, 16);
  w("Ann", "SP", 18, 20);
  auto a = [&](const char* m, const char* s, int64_t b, int64_t e) {
    EXPECT_TRUE(db.Insert("assign", {Value::String(m), Value::String(s),
                                     Value::Int(b), Value::Int(e)})
                    .ok());
  };
  a("M1", "SP", 3, 12);
  a("M2", "SP", 6, 14);
  a("M3", "NS", 3, 16);
  return db;
}

TEST(MiddlewareTest, QOnDutySql) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation expected = EncodedRelation({"cnt"},
                                      {{{Value::Int(0)}, Interval(0, 3)},
                                       {{Value::Int(1)}, Interval(3, 8)},
                                       {{Value::Int(2)}, Interval(8, 10)},
                                       {{Value::Int(1)}, Interval(10, 16)},
                                       {{Value::Int(0)}, Interval(16, 18)},
                                       {{Value::Int(1)}, Interval(18, 20)},
                                       {{Value::Int(0)}, Interval(20, 24)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(MiddlewareTest, QSkillReqSql) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT skill FROM assign EXCEPT ALL "
      "SELECT skill FROM works)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation expected =
      EncodedRelation({"skill"}, {{{Value::String("SP")}, Interval(6, 8)},
                                  {{Value::String("SP")}, Interval(10, 12)},
                                  {{Value::String("NS")}, Interval(3, 8)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(MiddlewareTest, PeriodClauseOverridesMetadata) {
  // Period columns can also be given inline; result must be identical.
  TemporalDB db = MakeExampleDB();
  auto with_clause = db.Query(
      "SEQ VT (SELECT count(*) AS cnt FROM works PERIOD (ts, te) "
      "WHERE skill = 'SP')");
  ASSERT_TRUE(with_clause.ok()) << with_clause.status().ToString();
  auto without = db.Query(
      "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')");
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(with_clause->BagEquals(*without));
}

TEST(MiddlewareTest, SnapshotJoinWithAliases) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT w.name, a.mach FROM works w, assign a "
      "WHERE w.skill = a.skill AND a.mach = 'M1')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // M1 requires SP: Ann [3,10), Sam [8,12) (M1 ends at 12).
  Relation expected = EncodedRelation(
      {"name", "mach"},
      {{{Value::String("Ann"), Value::String("M1")}, Interval(3, 10)},
       {{Value::String("Sam"), Value::String("M1")}, Interval(8, 12)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(MiddlewareTest, GroupByWithHaving) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT skill, count(*) AS c FROM works GROUP BY skill "
      "HAVING count(*) >= 2)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only (SP, 2) during [8, 10) survives the HAVING.
  Relation expected = EncodedRelation(
      {"skill", "c"},
      {{{Value::String("SP"), Value::Int(2)}, Interval(8, 10)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(MiddlewareTest, SubqueryInFrom) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT x.skill FROM (SELECT skill FROM works "
      "WHERE name <> 'Joe') AS x WHERE x.skill = 'SP')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Canonical (coalesced) encoding: Ann+Sam overlap during [8, 10).
  Relation expected =
      EncodedRelation({"skill"}, {{{Value::String("SP")}, Interval(3, 8)},
                                  {{Value::String("SP")}, Interval(8, 10)},
                                  {{Value::String("SP")}, Interval(8, 10)},
                                  {{Value::String("SP")}, Interval(10, 16)},
                                  {{Value::String("SP")}, Interval(18, 20)}});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(MiddlewareTest, StarExpansionUsesSnapshotSchema) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query("SEQ VT (SELECT * FROM works WHERE name = 'Joe')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Snapshot star excludes the period columns; the rewriting appends
  // a_begin/a_end.
  ASSERT_EQ(result->schema().size(), 4u);
  EXPECT_EQ(result->schema().at(0).name, "name");
  EXPECT_EQ(result->schema().at(1).name, "skill");
  EXPECT_EQ(result->schema().at(2).name, "a_begin");
  ASSERT_EQ(result->size(), 1u);
}

TEST(MiddlewareTest, OrderByAppliedAfterRewriting) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP') "
      "ORDER BY cnt DESC, a_begin");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 7u);
  EXPECT_EQ(result->rows()[0][0], Value::Int(2));
  EXPECT_EQ(result->rows()[6][0], Value::Int(0));
}

TEST(MiddlewareTest, PlainNonSnapshotSql) {
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SELECT name, te - ts AS hours FROM works WHERE skill = 'SP'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation expected(Schema::FromNames({"name", "hours"}));
  expected.AddRow({Value::String("Ann"), Value::Int(7)});
  expected.AddRow({Value::String("Sam"), Value::Int(8)});
  expected.AddRow({Value::String("Ann"), Value::Int(2)});
  EXPECT_TRUE(result->BagEquals(expected)) << result->ToString();
}

TEST(MiddlewareTest, TimesliceAccessor) {
  TemporalDB db = MakeExampleDB();
  auto at8 = db.Timeslice("works", 8);
  ASSERT_TRUE(at8.ok());
  EXPECT_EQ(at8->size(), 3u);
  auto at0 = db.Timeslice("works", 0);
  ASSERT_TRUE(at0.ok());
  EXPECT_EQ(at0->size(), 0u);
}

TEST(MiddlewareTest, MatchesNaiveOracleOnRandomSql) {
  TemporalDB db = MakeExampleDB();
  const char* queries[] = {
      "SEQ VT (SELECT skill FROM works)",
      "SEQ VT (SELECT DISTINCT skill FROM works)",
      "SEQ VT (SELECT w.skill, count(*) AS c FROM works w GROUP BY w.skill)",
      "SEQ VT (SELECT mach FROM assign WHERE skill = 'NS' UNION ALL "
      "SELECT name FROM works WHERE skill = 'SP')",
      "SEQ VT (SELECT min(name) AS lo, max(name) AS hi FROM works)",
  };
  for (const char* q : queries) {
    auto plan = db.Plan(q);
    ASSERT_TRUE(plan.ok()) << q;
    auto result = db.Query(q);
    ASSERT_TRUE(result.ok()) << q << ": " << result.status().ToString();
    // Reconstruct the snapshot plan for the oracle: re-bind without
    // rewriting by parsing and binding, then run the naive evaluator
    // over normalized encodings.
    // (The middleware normalizes period columns to trailing position for
    // the rewriter; replicate that here.)
    TemporalDB normalized(kExampleDomain);
    ASSERT_TRUE(normalized
                    .PutPeriodTable("works", WorksRelation(), "a_begin",
                                    "a_end")
                    .ok());
    ASSERT_TRUE(normalized
                    .PutPeriodTable("assign", AssignRelation(), "a_begin",
                                    "a_end")
                    .ok());
    auto normalized_result = normalized.Query(q);
    ASSERT_TRUE(normalized_result.ok()) << q;
    ASSERT_TRUE(result->BagEquals(*normalized_result)) << q;
  }
}

TEST(MiddlewareTest, ErrorDiagnostics) {
  TemporalDB db = MakeExampleDB();
  EXPECT_EQ(db.Query("SELEC a FROM works").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(db.Query("SELECT missing FROM works").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Query("SELECT name FROM nope").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(db.Query("SEQ VT (SELECT skill FROM works w, works w2)")
                .status()
                .code(),
            StatusCode::kBindError);  // ambiguous 'skill'
  // Aggregate of non-grouped column.
  EXPECT_EQ(db.Query("SELECT name, count(*) FROM works GROUP BY skill")
                .status()
                .code(),
            StatusCode::kBindError);
  // Non-period table inside SEQ VT.
  ASSERT_TRUE(db.CreateTable("plain", {"x"}).ok());
  EXPECT_EQ(db.Query("SEQ VT (SELECT x FROM plain)").status().code(),
            StatusCode::kBindError);
  // Insert arity mismatch.
  EXPECT_EQ(db.Insert("plain", {Value::Int(1), Value::Int(2)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.CreateTable("plain", {"x"}).code(),
            StatusCode::kAlreadyExists);
}

TEST(MiddlewareTest, InsertRowsIsAtomicOnArityMismatch) {
  TemporalDB db(kExampleDomain);
  ASSERT_TRUE(db.CreateTable("t", {"a", "b"}).ok());
  // Row 1 is too narrow: nothing may land, not even row 0.
  std::vector<Row> rows = {{Value::Int(1), Value::Int(2)},
                           {Value::Int(3)},
                           {Value::Int(4), Value::Int(5)}};
  Status status = db.InsertRows("t", std::move(rows));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.catalog().Get("t").size(), 0u);
  // A clean batch still lands in full.
  ASSERT_TRUE(db.InsertRows("t", {{Value::Int(1), Value::Int(2)},
                                  {Value::Int(3), Value::Int(4)}})
                  .ok());
  EXPECT_EQ(db.catalog().Get("t").size(), 2u);
  EXPECT_EQ(db.InsertRows("nope", {{Value::Int(1)}}).code(),
            StatusCode::kNotFound);
}

TEST(MiddlewareTest, PeriodTableRejectsIdenticalBeginAndEnd) {
  TemporalDB db(kExampleDomain);
  EXPECT_EQ(db.CreatePeriodTable("t", {"x", "ts"}, "ts", "ts").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.catalog().Has("t"));
  Relation rel(Schema::FromNames({"x", "ts"}));
  EXPECT_EQ(db.PutPeriodTable("u", std::move(rel), "ts", "ts").code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(db.catalog().Has("u"));
}

TEST(MiddlewareTest, PlanCacheServesRepeatedQueries) {
  TemporalDB db = MakeExampleDB();
  const char* sql =
      "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')";
  PlanCacheStats before = db.plan_cache_stats();
  auto prepared = db.Prepare(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto first = db.Query(sql);
  ASSERT_TRUE(first.ok());
  auto second = db.Query(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(first->BagEquals(*second));
  PlanCacheStats after = db.plan_cache_stats();
  // Prepare planned once; both queries were served from the cache.
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_EQ(after.hits - before.hits, 2);
  EXPECT_EQ(after.entries, 1);
}

TEST(MiddlewareTest, PlanCacheInvalidatedByMutations) {
  TemporalDB db = MakeExampleDB();
  const char* sql = "SEQ VT (SELECT skill FROM works)";
  ASSERT_TRUE(db.Prepare(sql).ok());
  ASSERT_EQ(db.plan_cache_stats().entries, 1);
  int64_t flushes = db.plan_cache_stats().invalidations;
  // Insert flushes the cache, and the next query sees the new row.
  ASSERT_TRUE(db.Insert("works", {Value::Int(20), Value::String("Zoe"),
                                  Value::String("SP"), Value::Int(22)})
                  .ok());
  PlanCacheStats after = db.plan_cache_stats();
  EXPECT_EQ(after.entries, 0);
  EXPECT_EQ(after.invalidations, flushes + 1);
  auto result = db.Query(sql);
  ASSERT_TRUE(result.ok());
  // Coalescing may merge the new [20, 22) interval with an adjacent
  // one; it must be covered by some SP row.
  bool found = false;
  for (const Row& row : result->rows()) {
    if (row[0] == Value::String("SP") && row[1].AsInt() <= 20 &&
        row[2].AsInt() >= 22) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << result->ToString();
  // CreateTable also invalidates.
  ASSERT_TRUE(db.Prepare(sql).ok());
  ASSERT_TRUE(db.CreateTable("other", {"x"}).ok());
  EXPECT_EQ(db.plan_cache_stats().entries, 0);
}

TEST(MiddlewareTest, PlanCacheSurvivesUnrelatedMutations) {
  TemporalDB db = MakeExampleDB();
  const char* sql = "SEQ VT (SELECT skill FROM works)";
  ASSERT_TRUE(db.Prepare(sql).ok());
  ASSERT_EQ(db.plan_cache_stats().entries, 1);
  // Mutating a table the cached plan never reads must keep it hot:
  // cache entries record their base-table set at bind time and only
  // mutations of those tables evict them.
  ASSERT_TRUE(db.CreateTable("unrelated", {"x"}).ok());  // full flush
  ASSERT_TRUE(db.Prepare(sql).ok());
  PlanCacheStats warm = db.plan_cache_stats();
  ASSERT_EQ(warm.entries, 1);
  ASSERT_TRUE(db.Insert("unrelated", {Value::Int(1)}).ok());
  PlanCacheStats after = db.plan_cache_stats();
  EXPECT_EQ(after.entries, 1);
  EXPECT_EQ(after.invalidations, warm.invalidations);
  auto result = db.Query(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(db.plan_cache_stats().hits, warm.hits + 1);
  // A mutation of the plan's own table still evicts exactly it.
  ASSERT_TRUE(db.Insert("works", {Value::Int(30), Value::String("Ada"),
                                  Value::String("SP"), Value::Int(32)})
                  .ok());
  EXPECT_EQ(db.plan_cache_stats().entries, 0);
  EXPECT_EQ(db.plan_cache_stats().invalidations, warm.invalidations + 1);
}

TEST(MiddlewareTest, PlanCacheKeyedByRewriteOptions) {
  TemporalDB db = MakeExampleDB();
  const char* sql = "SEQ VT (SELECT skill FROM assign EXCEPT ALL "
                    "SELECT skill FROM works)";
  auto ours = db.Query(sql);
  ASSERT_TRUE(ours.ok());
  RewriteOptions alignment;
  alignment.semantics = SnapshotSemantics::kAlignment;
  auto theirs = db.Query(sql, alignment);
  ASSERT_TRUE(theirs.ok());
  // Same SQL under different options is a different cache entry — the
  // alignment baseline's (buggy) set-semantics result must not be
  // served from the period-K plan or vice versa.
  EXPECT_EQ(db.plan_cache_stats().entries, 2);
  EXPECT_FALSE(ours->BagEquals(*theirs));
}

TEST(MiddlewareTest, AggregateExpressionOverAggregates) {
  // Arithmetic over aggregate results (needed by TPC-H Q8/Q14).
  TemporalDB db = MakeExampleDB();
  auto result = db.Query(
      "SEQ VT (SELECT count(*) + 10 AS c10, "
      "100 * count(*) / greatest(count(*), 1) AS pct FROM works "
      "WHERE skill = 'SP')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // At [8,10): count=2 -> c10=12, pct=100.
  bool found = false;
  for (const Row& row : result->rows()) {
    if (row[2] == Value::Int(8)) {
      EXPECT_EQ(row[0], Value::Int(12));
      EXPECT_EQ(row[1], Value::Double(100.0));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MiddlewareTest, PrepareOnUnknownTableReturnsStatus) {
  TemporalDB db = MakeExampleDB();
  // Both the plain and the snapshot path must report the unknown table
  // as a Status across the middleware boundary, never as an exception.
  auto plain = db.Prepare("SELECT * FROM no_such_table");
  EXPECT_FALSE(plain.ok());
  auto snapshot = db.Prepare("SEQ VT (SELECT count(*) AS c FROM nope)");
  EXPECT_FALSE(snapshot.ok());
  // Failed statements are not cached, and the cache still works after.
  EXPECT_EQ(db.plan_cache_stats().entries, 0);
  auto ok = db.Prepare("SEQ VT (SELECT skill FROM works)");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace periodk
