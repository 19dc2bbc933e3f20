// Per-table statistics for cost-based planning (docs/architecture.md
// §11).  A TableStats is collected in one columnar pass when a writer
// publishes a whole relation, extended over just the appended rows
// when a writer appends (Extend), stored in the Catalog as a
// shared_ptr<const TableStats> slot alongside the relation and its
// timeline index, and consumed by ra/cost_model.h at plan time.  The
// object is immutable once built and pinned to the exact Relation
// object it was built from (BuiltFor, mirroring TimelineIndex), so a
// stats handle can never describe a different table version than the
// relation published with it.
#ifndef PERIODK_STATS_TABLE_STATS_H_
#define PERIODK_STATS_TABLE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/relation.h"
#include "temporal/interval.h"

namespace periodk {

/// Statistics for one column: NULL count, exact distinct count over the
/// non-null values (packed-key counting reuses the dictionary/key
/// machinery of engine/column.h), and the observed integer range when
/// the column holds integers.
struct ColumnStats {
  int64_t null_count = 0;
  /// Distinct non-null values (exact; 0 for an all-null column).
  int64_t distinct = 0;
  /// True when at least one non-null integer was observed; min_int /
  /// max_int then bound the integer values (other types, if any, are
  /// not covered -- good enough for range-selectivity estimates).
  bool has_int_range = false;
  int64_t min_int = 0;
  int64_t max_int = 0;
};

/// Immutable statistics snapshot of one relation.
class TableStats {
 public:
  /// Collects statistics over `source` in one pass.  When `begin_col` /
  /// `end_col` name the stored interval columns of a period table, the
  /// interval profile (interval count, total length, observed span) is
  /// collected too; -1/-1 means no period columns.
  /// Ill-formed cells (non-int endpoints, begin >= end) are skipped.
  [[nodiscard]] static std::shared_ptr<const TableStats> Collect(
      std::shared_ptr<const Relation> source, int begin_col = -1,
      int end_col = -1);

  /// The statistics of `next`, a copy-on-write append to the relation
  /// `previous` describes (previous.BuiltFor that relation): its first
  /// previous.row_count() rows must be value-identical to it.  Equal,
  /// field for field, to Collect(next) with previous's period columns,
  /// at the cost of the appended rows plus, per column, one probe pass
  /// over the stored rows for the batch values: the distinct count
  /// grows by the batch values the stored rows lack, the pass stops once
  /// every batch value has been found, and integers outside the stored
  /// range are new without probing.  kMixed and NaN columns recount.
  /// Throws EngineError when `next` is narrower or shorter.
  [[nodiscard]] static std::shared_ptr<const TableStats> Extend(
      const TableStats& previous, std::shared_ptr<const Relation> next);

  /// True iff these stats were built from exactly this relation object
  /// (pointer identity, like TimelineIndex::BuiltFor).  The collected
  /// source handle is retained, so the pointer can never be reused by a
  /// different relation while the stats object is alive.
  [[nodiscard]] bool BuiltFor(const Relation* relation) const {
    return source_.get() == relation;
  }

  int64_t row_count() const { return row_count_; }
  size_t num_columns() const { return columns_.size(); }
  const ColumnStats& column(size_t i) const { return columns_[i]; }
  const std::string& column_name(size_t i) const { return names_[i]; }
  /// Index of the column with this (unqualified) name, or -1.
  int FindColumn(const std::string& name) const;

  bool has_period() const { return begin_col_ >= 0; }
  int begin_col() const { return begin_col_; }
  int end_col() const { return end_col_; }
  /// Well-formed [begin, end) intervals observed.
  int64_t interval_count() const { return interval_count_; }
  double avg_interval_length() const {
    return interval_count_ == 0
               ? 0.0
               : static_cast<double>(length_sum_) / interval_count_;
  }
  TimePoint min_begin() const { return min_begin_; }
  TimePoint max_end() const { return max_end_; }
  /// Observed endpoint span (0 when no well-formed interval).
  int64_t span() const {
    return interval_count_ == 0 ? 0 : max_end_ - min_begin_;
  }
  /// Average number of rows alive at a random point of the observed
  /// span: sum of interval lengths / span.  Sizes timeline-index
  /// checkpoints and overlap-join estimates.
  double AvgAliveRows() const;

  /// Deterministic rendering (integers only -- no pointers, no
  /// unordered containers), safe for golden files.
  std::string ToString() const;

 private:
  TableStats() = default;

  /// Folds rows [first_row, rel.size()) into statistics describing rows
  /// [0, first_row) of `rel` (none for Collect).
  void AddRows(const Relation& rel, size_t first_row);
  /// The interval profile's part of AddRows, over rows [first_row, n).
  void AddIntervals(const ColumnData& bc, const ColumnData& ec,
                    size_t first_row, size_t n);

  std::shared_ptr<const Relation> source_;
  int64_t row_count_ = 0;
  std::vector<std::string> names_;
  std::vector<ColumnStats> columns_;

  int begin_col_ = -1;
  int end_col_ = -1;
  int64_t interval_count_ = 0;
  int64_t length_sum_ = 0;
  TimePoint min_begin_ = 0;
  TimePoint max_end_ = 0;
};

}  // namespace periodk

#endif  // PERIODK_STATS_TABLE_STATS_H_
