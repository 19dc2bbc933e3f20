// The binder translates parsed SQL into bound logical plans (ra/).
//
// In *snapshot mode* (SEQ VT blocks) every table access must be a period
// table: its interval columns (from the PERIOD clause or the registered
// metadata) are hidden from the query's scope, the plan is expressed
// over snapshot schemas, and each table reference's encoding is
// recorded for the rewriter (reordering the interval columns into the
// trailing position when they are stored elsewhere).
//
// Binding performs simple predicate pushdown: single-table conjuncts
// move below the joins and equi-join conjuncts attach to the lowest
// join, which lets the executor use hash joins.
#ifndef PERIODK_SQL_BINDER_H_
#define PERIODK_SQL_BINDER_H_

#include <map>
#include <string>

#include "common/status.h"
#include "engine/executor.h"
#include "ra/plan.h"
#include "rewrite/rewriter.h"
#include "sql/ast.h"

namespace periodk {
namespace sql {

/// Which columns of a registered table store its validity interval.
struct PeriodTableInfo {
  std::string begin_column;
  std::string end_column;
};

struct BoundStatement {
  bool snapshot = false;
  /// SEQ VT AS OF t: timeslice the snapshot result at t.
  std::optional<int64_t> as_of;
  /// Snapshot queries: plan over snapshot schemas (input to REWR).
  /// Plain queries: directly executable plan.
  PlanPtr plan;
  /// Snapshot queries: each table reference's scan -> its encoded
  /// plan (interval columns last), for the rewriter.
  EncodedTables encoded_tables;
  /// Unbound ORDER BY items; resolve against the final result schema
  /// with BindOrderBy once rewriting determined that schema.
  std::vector<OrderItem> order_by;
};

class Binder {
 public:
  Binder(const Catalog* catalog,
         const std::map<std::string, PeriodTableInfo>* period_tables)
      : catalog_(catalog), period_tables_(period_tables) {}

  [[nodiscard]] Result<BoundStatement> Bind(const Statement& statement) const;

 private:
  const Catalog* catalog_;
  const std::map<std::string, PeriodTableInfo>* period_tables_;
};

/// Resolves ORDER BY items against a result schema.  Integer literals
/// are 1-based ordinals; column references match by (qualifier,) name.
[[nodiscard]] Result<std::vector<SortKey>> BindOrderBy(
    const std::vector<OrderItem>& items, const Schema& schema);

}  // namespace sql
}  // namespace periodk

#endif  // PERIODK_SQL_BINDER_H_
