// Materialized multiset relations: the engine's runtime representation
// and, with two trailing time columns, the paper's *SQL period
// relations* (Section 8).  Multiplicity is represented by duplicate
// rows, exactly as in SQL.
//
// A relation owns its data in one of two physical layouts:
//   * columnar storage, one typed ColumnData per schema column
//     (engine/column.h): base tables and every operator output but
//     window coalescing's;
//   * row storage, vector<Row>: the construction form of constants, the
//     baselines, window coalescing, appended batches and tests.
// Kernels do not branch on the layout.  They read typed columns
// through ReadColumn and build their output with FromColumns, Gather
// or Concat, which emit columns whatever their sources' layout; only
// ReadColumn, the row view, ToColumnar and the decaying mutators look
// at how a relation is stored.  Appends are Concat of the stored
// relation and the batch.  The row API is preserved over both layouts:
// rows() on a columnar relation lazily materializes a cached row *view*
// (thread-safe -- base tables are shared across concurrent queries),
// and the mutating entry points (AddRow, Reserve) decay columnar
// storage back to rows first.
#ifndef PERIODK_ENGINE_RELATION_H_
#define PERIODK_ENGINE_RELATION_H_

#include <atomic>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/value.h"
#include "engine/column.h"
#include "engine/schema.h"

namespace periodk {

class Relation;

/// One input of Relation::Gather: rows `ids` of `rel`, columns `cols`.
struct GatherSource {
  const Relation& rel;
  const std::vector<int>& cols;
  const std::vector<uint32_t>& ids;
};

/// New [begin, end) endpoints a kernel appends to gathered rows.
struct NewIntervals {
  std::vector<int64_t> begin;
  std::vector<int64_t> end;
};

class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}
  Relation(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {
    CheckRowArities();
  }

  /// Adopts pre-built columns (vectorized kernel outputs).  Every
  /// column must have exactly `num_rows` entries; `num_rows` is
  /// explicit so zero-column relations (global aggregates) still carry
  /// a row count.
  [[nodiscard]] static Relation FromColumns(
      Schema schema, std::vector<ColumnData> columns, size_t num_rows);

  // Copyable and movable despite the view-cache synchronization
  // members.  Copying from a shared columnar relation is safe while
  // other threads materialize its row view: the copy takes the row
  // cache only when it is already published.
  Relation(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(const Relation& other);
  Relation& operator=(Relation&& other) noexcept;

  const Schema& schema() const { return schema_; }

  /// Row view.  For row storage this is the storage itself; for
  /// columnar storage it materializes (once, thread-safely) a cached
  /// vector<Row> copy of the columns.
  const std::vector<Row>& rows() const {
    if (!rows_ready_.load(std::memory_order_acquire)) MaterializeRows();
    return rows_;
  }

  size_t size() const { return columnar_ ? num_rows_ : rows_.size(); }
  bool empty() const { return size() == 0; }

  bool is_columnar() const { return columnar_; }
  /// Column i of the columnar payload; valid only while is_columnar().
  const ColumnData& col(size_t i) const { return columns_[i]; }

  /// Column `c` in typed form, whatever the layout: this relation's own
  /// column when it is columnar, a ColumnData::Encode of just that
  /// column (O(rows), per call, not cached) when it is row-stored.
  TypedColumn ReadColumn(size_t c) const;

  /// The kernels' output helper, columnar.  Output row k is, source by
  /// source, the `cols` of row `ids[k]`, then (when given) the int
  /// endpoints intervals->begin[k], intervals->end[k], moved out of
  /// *intervals.  Each column is ColumnData::Gather of the source's
  /// column as ReadColumn reads it (dictionaries shared).
  [[nodiscard]] static Relation Gather(
      Schema schema, const std::vector<GatherSource>& sources,
      NewIntervals* intervals = nullptr);

  /// `parts` back to back under `schema` (UNION ALL, every append),
  /// columnar: ColumnData::Concat of the non-empty parts' columns as
  /// ReadColumn reads them; a lone one is taken as it is, moved when
  /// encoded.  Rejects parts whose arity differs from the schema.
  [[nodiscard]] static Relation Concat(
      Schema schema, const std::vector<const Relation*>& parts);

  /// Re-encodes row storage as typed columns (no-op when already
  /// columnar).  The row vector is released; rows() rebuilds it on
  /// demand.
  void ToColumnar();

  /// Appends a row.  Rejects arity mismatches: a row narrower or wider
  /// than the schema would silently corrupt every downstream operator
  /// (the check is one integer compare, so it is always on).
  void AddRow(Row row) {
    if (row.size() != schema_.size()) ThrowArityMismatch("AddRow", row.size());
    if (columnar_) DecayToRows();
    rows_.push_back(std::move(row));
  }
  void Reserve(size_t n) {
    if (columnar_) DecayToRows();
    rows_.reserve(n);
  }

  /// Bag equality: same schema arity and same multiset of rows.
  [[nodiscard]] bool BagEquals(const Relation& other) const;

  /// Tabular rendering of up to `limit` rows (0 = all), sorted.
  std::string ToString(size_t limit = 0) const;

 private:
  [[noreturn]] void ThrowArityMismatch(const char* op, size_t got) const;
  /// Bulk-construction counterpart of the AddRow check: one integer
  /// compare per row, negligible next to whatever produced the rows.
  void CheckRowArities() const;
  void MaterializeRows() const;
  void DecayToRows();

  Schema schema_;
  mutable std::vector<Row> rows_;    // storage, or cached columnar view
  std::vector<ColumnData> columns_;  // authoritative when columnar_
  size_t num_rows_ = 0;              // row count while columnar_
  bool columnar_ = false;
  // False only for a columnar relation whose row view has not been
  // materialized yet.  acquire/release pairs with MaterializeRows so
  // concurrent readers of a shared base table never see a half-built
  // view.  rows_ is deliberately NOT GUARDED_BY(rows_mu_): readers
  // access the published view lock-free after the rows_ready_ acquire
  // load; the mutex only serializes the one-time materialization.
  mutable std::atomic<bool> rows_ready_{true};
  mutable Mutex rows_mu_;
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_RELATION_H_
