// Abstract syntax trees for the middleware's SQL dialect (paper Sec. 9):
// SELECT/FROM/WHERE/GROUP BY/HAVING with joins, UNION ALL / EXCEPT ALL,
// subqueries in FROM, and the SEQ VT (...) statement modifier that
// requests snapshot semantics.  Inside a SEQ VT block each period-table
// access may carry a PERIOD (begin_col, end_col) annotation naming the
// attributes that store the validity interval (tables registered with
// period metadata may omit it).
#ifndef PERIODK_SQL_AST_H_
#define PERIODK_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"

namespace periodk {
namespace sql {

struct SqlExpr;
using SqlExprPtr = std::shared_ptr<SqlExpr>;

enum class SqlExprKind {
  kColumnRef,  // qualifier.name or name
  kLiteral,
  kBinary,   // op in {or, and, =, <>, <, <=, >, >=, +, -, *, /, %}
  kUnary,    // op in {not, -}
  kFuncCall,  // aggregate or scalar function
  kStar,      // only as count(*) argument
  kCase,      // args: [when1, then1, ..., else?]; odd size => has else
  kIn,        // args: [needle, v1, ..., vn]
  kBetween,   // args: [expr, lo, hi]
  kIsNull,    // args: [expr]
  kLike,      // args: [expr, pattern]
};

struct SqlExpr {
  SqlExprKind kind = SqlExprKind::kLiteral;
  std::string qualifier;  // kColumnRef
  std::string name;       // kColumnRef / kFuncCall (lower-cased)
  Value literal;          // kLiteral
  std::string op;         // kBinary / kUnary (lower-cased)
  bool negated = false;   // kIn / kBetween / kIsNull / kLike
  bool has_else = false;  // kCase
  std::vector<SqlExprPtr> args;
  /// Nodes on the longest downward path, this one included (1 for a
  /// leaf).  Set by the parser, which bounds statement depth with it.
  int height = 1;

  /// Round-trippable-ish rendering for diagnostics.
  std::string ToString() const;
};

SqlExprPtr MakeColumnRef(std::string qualifier, std::string name);
SqlExprPtr MakeSqlLiteral(Value v);
SqlExprPtr MakeBinary(std::string op, SqlExprPtr l, SqlExprPtr r);
SqlExprPtr MakeUnary(std::string op, SqlExprPtr e);
SqlExprPtr MakeFuncCall(std::string name, std::vector<SqlExprPtr> args);

struct SelectQuery;
struct SqlQuery;

/// One entry of the FROM clause.
struct TableRef {
  enum class Kind { kTable, kSubquery };
  Kind kind = Kind::kTable;
  std::string table;  // kTable
  std::shared_ptr<SqlQuery> subquery;
  std::string alias;  // defaults to table name
  // PERIOD (begin, end) annotation; empty = use catalog metadata.
  std::string period_begin;
  std::string period_end;
};

struct SelectItem {
  SqlExprPtr expr;     // null when star
  std::string alias;   // may be empty
  bool star = false;
  std::string star_qualifier;  // "t.*"; empty = plain "*"
};

struct OrderItem {
  SqlExprPtr expr;
  bool ascending = true;
};

struct SelectQuery {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  /// ON-clause conjuncts; merged with `where` during binding.
  std::vector<SqlExprPtr> join_conditions;
  SqlExprPtr where;  // may be null
  std::vector<SqlExprPtr> group_by;
  SqlExprPtr having;  // may be null
};

/// Set-operation tree over SELECT blocks.
struct SqlQuery {
  enum class Kind { kSelect, kUnionAll, kExceptAll };
  Kind kind = Kind::kSelect;
  std::shared_ptr<SelectQuery> select;  // kSelect
  std::shared_ptr<SqlQuery> left;
  std::shared_ptr<SqlQuery> right;
  /// Like SqlExpr::height; a SELECT block counts one level above its
  /// tallest expression or FROM subquery.
  int height = 1;
};

struct Statement {
  /// True when the query is wrapped in SEQ VT ( ... ).
  bool snapshot = false;
  /// SEQ VT AS OF t ( ... ): evaluate under snapshot semantics, then
  /// timeslice at t (the tau_T operator); the result is an ordinary
  /// non-temporal relation.  Only meaningful with snapshot = true.
  std::optional<int64_t> as_of;
  std::shared_ptr<SqlQuery> query;
  /// Statement-level ORDER BY; for snapshot queries it is applied to the
  /// final encoded result (the paper's workaround for ORDER BY).
  std::vector<OrderItem> order_by;
};

/// True iff the expression contains an aggregate function call.
bool ContainsAggregate(const SqlExprPtr& expr);

/// True for count/sum/avg/min/max.
bool IsAggregateName(const std::string& lower_name);

}  // namespace sql
}  // namespace periodk

#endif  // PERIODK_SQL_AST_H_
