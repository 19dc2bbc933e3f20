// The typed expression evaluator (engine/typed_eval.h): exactness
// against the row path it replaces, and coverage of every select
// predicate and computed column in the plans of the paper's workloads.
#include "engine/typed_eval.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "datagen/employees.h"
#include "datagen/tpcbih.h"
#include "datagen/workloads.h"
#include "engine/executor.h"
#include "middleware/temporal_db.h"
#include "tests/random_expr.h"

namespace periodk {
namespace {

/// What the row path made of one expression: the column FromValues
/// builds over Expr::Eval per row (rows `keep` rejects hold NULL), or
/// the error it raised.
struct RowOutcome {
  std::optional<ColumnData> column;
  std::string error;
};

RowOutcome RowPath(const Expr& e, const Relation& table,
                   const std::vector<uint8_t>* keep = nullptr) {
  std::vector<Value> cells(table.size());
  try {
    for (size_t i = 0; i < table.size(); ++i) {
      if (keep == nullptr || (*keep)[i] != 0) {
        cells[i] = e.Eval(table.rows()[i]);
      }
    }
  } catch (const std::exception& err) {
    return {std::nullopt, err.what()};
  }
  return {ColumnData::FromValues(cells), ""};
}

/// nullopt when the columns agree in tag, size, NULLs, NaN flag and
/// every cell's type and value (doubles bit for bit).
std::optional<std::string> ColumnDiff(const ColumnData& got,
                                      const ColumnData& want) {
  if (got.tag() != want.tag()) {
    return StrCat("tag ", ColumnTagName(got.tag()), " vs ",
                  ColumnTagName(want.tag()));
  }
  if (got.size() != want.size() || got.null_count() != want.null_count() ||
      got.has_nan() != want.has_nan()) {
    return StrCat("size ", got.size(), "/", want.size(), " nulls ",
                  got.null_count(), "/", want.null_count(), " nan ",
                  got.has_nan(), "/", want.has_nan());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const Value a = got.Get(i);
    const Value b = want.Get(i);
    const bool same =
        a.type() == b.type() &&
        (a.type() == ValueType::kDouble
             ? std::bit_cast<uint64_t>(a.AsDouble()) ==
                   std::bit_cast<uint64_t>(b.AsDouble())
             : a.Compare(b) == 0);
    if (!same) {
      return StrCat("row ", i, ": ", a.ToString(), " (",
                    ValueTypeName(a.type()), ") vs ", b.ToString(), " (",
                    ValueTypeName(b.type()), ")");
    }
  }
  return std::nullopt;
}

void CollectKinds(const Expr& e, std::set<ExprKind>* kinds,
                  std::set<ScalarFunc>* funcs) {
  kinds->insert(e.kind);
  if (e.kind == ExprKind::kFunc) funcs->insert(e.func);
  for (const ExprPtr& c : e.children) CollectKinds(*c, kinds, funcs);
}

Relation LayoutTable(Rng* rng, size_t rows) {
  Relation table(Schema::FromNames({"i", "d", "b", "s", "n", "m"}));
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (int c = 0; c < kLayoutArity; ++c) {
      row.push_back(RandomCell(rng, static_cast<LayoutColumn>(c)));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

// Checks one expression over one table, stored both ways: a typed
// result equals the row path's column, and an expression the row path
// raises on is never admitted.  Returns whether the typed path ran.
bool CheckExpression(const ExprPtr& e, const Relation& rows,
                     const Relation& columns, Rng* rng, int* abandoned) {
  const RowOutcome want = RowPath(*e, rows);
  std::optional<ColumnData> typed;
  for (const Relation* input : {&rows, &columns}) {
    const bool admitted = TypedAdmits(*e, *input);
    EXPECT_EQ(admitted, TypedAdmits(*e, rows)) << e->ToString();
    if (!want.error.empty()) {
      EXPECT_FALSE(admitted)
          << e->ToString() << " raises on the row path: " << want.error;
      continue;
    }
    typed = EvalTyped(*e, *input);
    if (admitted && !typed.has_value()) ++*abandoned;  // int64 overflow
    if (!typed.has_value()) continue;
    const auto diff = ColumnDiff(*typed, *want.column);
    EXPECT_FALSE(diff.has_value()) << e->ToString() << ": " << *diff;
    // Rows the caller skips hold NULL, as the row path leaves them.
    std::vector<uint8_t> keep(rows.size());
    for (uint8_t& k : keep) k = rng->Chance(0.6) ? 1 : 0;
    const std::optional<ColumnData> masked = EvalTyped(*e, *input, &keep);
    if (!masked.has_value()) {
      ADD_FAILURE() << e->ToString() << " abandoned under a row mask";
      continue;
    }
    const auto masked_diff =
        ColumnDiff(*masked, *RowPath(*e, rows, &keep).column);
    EXPECT_FALSE(masked_diff.has_value())
        << e->ToString() << ": " << *masked_diff;
  }
  // As a predicate: the rows where EvalBool holds, or not admitted.
  std::vector<uint32_t> holds;
  std::string error;
  try {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (e->EvalBool(rows.rows()[i])) {
        holds.push_back(static_cast<uint32_t>(i));
      }
    }
  } catch (const std::exception& err) {
    error = err.what();
  }
  for (const Relation* input : {&rows, &columns}) {
    const std::optional<std::vector<uint32_t>> ids = SelectTyped(*e, *input);
    if (!ids.has_value()) continue;
    EXPECT_EQ(error, "") << e->ToString();
    EXPECT_EQ(*ids, holds) << e->ToString();
  }
  return typed.has_value();
}

// test_columnar's random expression corpus, every expression checked
// against the row path (SelectAndProjectChangeOnlyTheLayout checks the
// same corpus through the operators).
TEST(TypedEvalTest, MatchesTheRowPathOnRandomExpressions) {
  std::set<ExprKind> kinds;
  std::set<ScalarFunc> funcs;
  int typed = 0;
  int row_path = 0;
  int abandoned = 0;
  for (int seed = 0; seed < 600; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0x7e1d);
    const Relation rows = LayoutTable(&rng, rng.Uniform(40));
    Relation columns = rows;
    columns.ToColumnar();
    RandomLayoutExpr gen(&rng);
    for (int k = 0; k < 6; ++k) {
      const auto want = static_cast<RandomLayoutExpr::Want>(k % 4);
      ExprPtr e = gen.Gen(want, 1 + static_cast<int>(rng.Uniform(4)));
      if (CheckExpression(e, rows, columns, &rng, &abandoned)) {
        ++typed;
        CollectKinds(*e, &kinds, &funcs);
      } else {
        ++row_path;
      }
      if (HasFatalFailure()) return;
    }
  }
  // Every ExprKind and ScalarFunc ran typed, and both paths carry a
  // real share of the corpus.
  EXPECT_EQ(kinds.size(), 14u);
  EXPECT_EQ(funcs.size(), 5u);
  EXPECT_GT(typed, 1000);
  EXPECT_GT(row_path, 300);
  EXPECT_GT(abandoned, 0);
}

// Value::Compare's order between ints and doubles is exact, NaN equal
// to every number; least() and greatest() keep the first of equals.
TEST(TypedEvalTest, IntDoubleOrderIsValueCompares) {
  const double two53 = 9007199254740992.0;
  const double two63 = 9223372036854775808.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<int64_t> ints = {
      0, -1, 9007199254740993, std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  const std::vector<double> doubles = {0.0,   -0.0, two53, two53 + 2.0,
                                       two63, -two63, nan, inf,
                                       -inf,  -1.0, 0.5};
  Relation rows(Schema::FromNames({"i", "d"}));
  for (int64_t i : ints) {
    for (double d : doubles) rows.AddRow({Value::Int(i), Value::Double(d)});
  }
  Relation columns = rows;
  columns.ToColumnar();
  Rng rng(7);
  int abandoned = 0;
  int typed = 0;
  for (int op = 0; op < 6; ++op) {
    const auto cmp = static_cast<CompareOp>(op);
    for (const ExprPtr& e :
         {Cmp(cmp, Col(0), Col(1)), Cmp(cmp, Col(1), Col(0)),
          Cmp(cmp, Col(1), Lit(Value::Double(nan))),
          Cmp(cmp, Col(0), Lit(Value::Double(two63)))}) {
      typed += CheckExpression(e, rows, columns, &rng, &abandoned) ? 1 : 0;
    }
  }
  for (ScalarFunc f : {ScalarFunc::kLeast, ScalarFunc::kGreatest}) {
    for (const ExprPtr& e :
         {Func(f, {Col(1), Lit(Value::Double(nan)), Lit(Value::Double(-0.0))}),
          Func(f, {Lit(Value::Null()), Col(1), Mul(Col(1), Col(1))})}) {
      typed += CheckExpression(e, rows, columns, &rng, &abandoned) ? 1 : 0;
    }
  }
  EXPECT_EQ(typed, 28);
  EXPECT_EQ(abandoned, 0);
}

// String comparisons, IN, BETWEEN and LIKE decide a literal against
// each dictionary entry, whichever side the literal is on, and compare
// two columns under different dictionaries row by row.
TEST(TypedEvalTest, StringOperatorsReadLiteralsOnEitherSide) {
  const std::vector<const char*> left = {"", "a", "abc", "b", "a%", "_c"};
  const std::vector<const char*> right = {"abc", "a%", "%", "b", "zz"};
  Relation rows(Schema::FromNames({"s", "t"}));
  for (const char* l : left) {
    for (const char* r : right) {
      rows.AddRow({Value::String(l), Value::String(r)});
    }
    rows.AddRow({Value::String(l), Value::Null()});
  }
  rows.AddRow({Value::Null(), Value::String("abc")});
  Relation columns = rows;
  columns.ToColumnar();
  Rng rng(11);
  int abandoned = 0;
  int typed = 0;
  const ExprPtr abc = LitStr("abc");
  std::vector<ExprPtr> exprs;
  for (int op = 0; op < 6; ++op) {
    const auto cmp = static_cast<CompareOp>(op);
    exprs.push_back(Cmp(cmp, abc, Col(0)));
    exprs.push_back(Cmp(cmp, Col(0), abc));
    exprs.push_back(Cmp(cmp, Col(0), Col(1)));
  }
  for (bool negated : {false, true}) {
    exprs.push_back(Like(Col(0), LitStr("a%"), negated));
    exprs.push_back(Like(abc, Col(1), negated));
    exprs.push_back(Like(Col(0), Col(1), negated));
    exprs.push_back(InList(LitStr("b"), {Col(0), LitStr("a")}, negated));
    exprs.push_back(InList(Col(1), {abc, Lit(Value::Null())}, negated));
    exprs.push_back(Between(LitStr("ab"), Col(0), Col(1), negated));
  }
  for (const ExprPtr& e : exprs) {
    typed += CheckExpression(e, rows, columns, &rng, &abandoned) ? 1 : 0;
  }
  EXPECT_EQ(typed, static_cast<int>(exprs.size()));
}

// --- Coverage over the workloads' plans -------------------------------------

bool PassesThrough(const ExprPtr& e, const Relation& input) {
  return e->kind == ExprKind::kColumn && e->column >= 0 &&
         static_cast<size_t>(e->column) < input.schema().size();
}

// Why the typed path may leave `e` to the row path: it reads a kMixed
// column, or the row path's result is kMixed.  Empty when neither.
std::string MixedReason(const ExprPtr& e, const Relation& input) {
  std::vector<int> cols;
  CollectColumns(e, &cols);
  for (int c : cols) {
    if (input.ReadColumn(static_cast<size_t>(c))->tag() == ColumnTag::kMixed) {
      return "reads a mixed column";
    }
  }
  const RowOutcome row = RowPath(*e, input);
  if (row.column.has_value() && row.column->tag() == ColumnTag::kMixed) {
    return "yields a mixed column";
  }
  return "";
}

struct Coverage {
  int typed = 0;
  std::vector<std::string> mixed;  // expressions left for a mixed reason
};

// Every select predicate and computed projection, aggregation-key,
// aggregation-argument and split-aggregate-argument expression of
// `plan`, checked over its input as the plan computes it.
void CheckPlan(const PlanPtr& plan, const Catalog& catalog,
               const std::string& query, std::set<const Plan*>* seen,
               Coverage* coverage) {
  if (plan == nullptr || !seen->insert(plan.get()).second) return;
  CheckPlan(plan->left, catalog, query, seen, coverage);
  CheckPlan(plan->right, catalog, query, seen, coverage);
  switch (plan->kind) {
    case PlanKind::kSelect:
    case PlanKind::kProject:
    case PlanKind::kAggregate:
    case PlanKind::kSplitAggregate:
      break;
    default:
      return;
  }
  const Relation input = Execute(plan->left, catalog);
  if (plan->kind == PlanKind::kSelect) {
    if (SelectTyped(*plan->predicate, input).has_value()) {
      ++coverage->typed;
    } else {
      ADD_FAILURE() << query << ": predicate " << plan->predicate->ToString()
                    << " not typed";
    }
    return;
  }
  std::vector<ExprPtr> exprs = plan->exprs;
  for (const AggExpr& a : plan->aggs) {
    if (a.func != AggFunc::kCountStar) exprs.push_back(a.arg);
  }
  for (const ExprPtr& e : exprs) {
    if (PassesThrough(e, input)) continue;
    if (EvalTyped(*e, input).has_value()) {
      ++coverage->typed;
      continue;
    }
    const std::string reason = MixedReason(e, input);
    if (reason.empty()) {
      ADD_FAILURE() << query << ": " << e->ToString() << " not typed";
    } else {
      coverage->mixed.push_back(StrCat(query, ": ", e->ToString(), " ", reason));
    }
  }
}

Coverage CheckWorkload(const TemporalDB& db,
                       const std::vector<std::pair<std::string, std::string>>&
                           queries) {
  Coverage coverage;
  for (const auto& [name, sql] : queries) {
    Result<PlanPtr> plan = db.Plan(sql);
    EXPECT_TRUE(plan.ok()) << name << ": " << plan.status().message();
    if (!plan.ok()) continue;
    std::set<const Plan*> seen;
    CheckPlan(*plan, db.catalog(), name, &seen, &coverage);
  }
  return coverage;
}

std::vector<std::pair<std::string, std::string>> Texts(
    const std::vector<WorkloadQuery>& workload) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const WorkloadQuery& q : workload) out.emplace_back(q.name, q.sql);
  return out;
}

TEST(TypedEvalTest, AdmitsEveryTpcBihTable3Expression) {
  TpcBihConfig config;
  config.scale_factor = 0.002;
  TemporalDB db(config.domain);
  ASSERT_TRUE(LoadTpcBih(&db, config).ok());
  const Coverage coverage = CheckWorkload(db, Texts(TpcBihWorkload()));
  EXPECT_GT(coverage.typed, 50);
  // Q8's and Q14's CASE ... ELSE 0 mixes double and int cells, and the
  // projections over their sums read that mixed column.
  for (const std::string& m : coverage.mixed) {
    EXPECT_TRUE(m.rfind("Q8:", 0) == 0 || m.rfind("Q14:", 0) == 0) << m;
  }
  EXPECT_FALSE(coverage.mixed.empty());
}

TEST(TypedEvalTest, AdmitsEveryEmployeeTable3Expression) {
  EmployeesConfig config;
  config.num_employees = 60;
  TemporalDB db(config.domain);
  ASSERT_TRUE(LoadEmployees(&db, config).ok());
  const Coverage coverage = CheckWorkload(db, Texts(EmployeeWorkload()));
  EXPECT_GT(coverage.typed, 10);
  EXPECT_TRUE(coverage.mixed.empty()) << coverage.mixed.front();
}

TEST(TypedEvalTest, AdmitsEveryAsOfServingExpression) {
  EmployeesConfig config;
  config.num_employees = 60;
  TemporalDB db(config.domain);
  ASSERT_TRUE(LoadEmployees(&db, config).ok());
  const TimePoint t = config.domain.tmin + config.domain.tmax / 2;
  const std::string at = StrCat("SEQ VT AS OF ", t, " (");
  const Coverage coverage = CheckWorkload(
      db, {{"salary-lookup",
            at + "SELECT emp_no, salary FROM salaries WHERE emp_no = 10007)"},
           {"title-join",
            at + "SELECT e.emp_no, e.first_name, e.last_name, t.title "
                 "FROM employees e, titles t "
                 "WHERE e.emp_no = t.emp_no AND e.emp_no = 10007)"},
           {"dept-headcount",
            at + "SELECT dept_no, count(*) AS headcount FROM dept_emp "
                 "GROUP BY dept_no)"}});
  // The key selects: one per template that takes a key.
  EXPECT_GE(coverage.typed, 2);
  EXPECT_TRUE(coverage.mixed.empty()) << coverage.mixed.front();
}

}  // namespace
}  // namespace periodk
