// Recursive-descent parser for the middleware dialect (see sql/ast.h).
#ifndef PERIODK_SQL_PARSER_H_
#define PERIODK_SQL_PARSER_H_

#include <string>

#include "common/status.h"
#include "sql/ast.h"

namespace periodk {
namespace sql {

/// The deepest a statement may nest; deeper statements are a
/// ParseError.  Parenthesized and unary operands, subqueries and
/// function arguments each open a level, and every operator, set
/// operation or FROM entry adds one to the height of the tree it builds
/// — left-associative chains (a + b + c, UNION ALL / EXCEPT ALL
/// sequences, FROM lists, which bind to left-deep joins) included,
/// since each link pushes everything before it one level down.  The
/// binder, rewriter and executor recurse per level, so the bound keeps
/// every later stage within the stack, an ASan Debug build included.
inline constexpr int kMaxNestingDepth = 128;

/// Parses one statement:
///   [SEQ VT (] query [)] [ORDER BY ...]
/// where query is a UNION ALL / EXCEPT ALL tree of SELECT blocks.
[[nodiscard]] Result<Statement> Parse(const std::string& sql);

}  // namespace sql
}  // namespace periodk

#endif  // PERIODK_SQL_PARSER_H_
