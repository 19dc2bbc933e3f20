// Typed expression evaluation (docs/architecture.md §9): select
// predicates and the computed columns of project, aggregation and the
// split-aggregate run node by node over whole typed columns -- int64,
// double and bool arrays with a NULL flag per cell, strings as codes
// into their column's sorted dictionary -- instead of one scratch row
// of Values at a time.  A string comparison, IN or LIKE against a
// literal is decided once per dictionary entry and then looked up by
// code.
//
// A type pass over the expression and the input's column tags admits
// an expression only when it provably cannot raise an error: no kMixed
// column and no column outside the input; numeric operands for
// arithmetic (integer ones for %), unary minus, abs() and year();
// boolean operands for AND, OR and NOT and boolean CASE conditions;
// string operands for LIKE; comparison, IN and BETWEEN operands of one
// class (numbers, strings or booleans); one type for every value a
// CASE, ifnull(), least() or greatest() can yield, and that type not a
// string.  A NULL literal joins any type.  Every other expression stays
// on the row path (Expr::Eval over a ScratchRow), which remains the
// only path that raises errors, and so does any expression whose int64
// + - * or negation overflows: the row path widens that cell to a
// double, the typed path abandons its result.
//
// Typed output equals the row path cell for cell: the Value type, the
// double bits (one IEEE operation per node, as Expr::Eval performs),
// the NULLs, Value::Compare's exact int/double order (NaN compares
// equal to every number) and the column tag ColumnData::FromValues
// picks.
#ifndef PERIODK_ENGINE_TYPED_EVAL_H_
#define PERIODK_ENGINE_TYPED_EVAL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "engine/column.h"
#include "engine/expr.h"
#include "engine/relation.h"

namespace periodk {

/// The type pass: true when `e` is admitted as a computed column over
/// `input` (its cells are not strings).
bool TypedAdmits(const Expr& e, const Relation& input);

/// `e` over every row of `input`: ColumnData::FromValues of Expr::Eval
/// per row, computed over typed columns.  Rows whose `rows` flag is 0
/// hold NULL, as the row path leaves the rows it skips.  nullopt when
/// `e` is not admitted or an int64 overflow abandons the result.
std::optional<ColumnData> EvalTyped(const Expr& e, const Relation& input,
                                    const std::vector<uint8_t>* rows = nullptr);

/// The rows of `input` where `predicate` holds (Expr::EvalBool),
/// ascending.  nullopt when the predicate is not admitted, is not
/// boolean, or an int64 overflow abandons it.
std::optional<std::vector<uint32_t>> SelectTyped(const Expr& predicate,
                                                 const Relation& input);

}  // namespace periodk

#endif  // PERIODK_ENGINE_TYPED_EVAL_H_
