#include "stats/table_stats.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "engine/column.h"

namespace periodk {

std::shared_ptr<const TableStats> TableStats::Collect(
    std::shared_ptr<const Relation> source, int begin_col, int end_col) {
  std::shared_ptr<TableStats> stats(new TableStats());
  const Relation& rel = *source;
  const size_t n = rel.size();
  const size_t arity = rel.schema().size();
  stats->row_count_ = static_cast<int64_t>(n);
  stats->names_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) stats->names_.push_back(rel.schema().at(c).name);
  stats->columns_.resize(arity);

  for (size_t c = 0; c < arity; ++c) {
    ColumnStats& cs = stats->columns_[c];
    std::vector<TypedColumn> col;
    col.push_back(rel.ReadColumn(c));
    // Exact distinct count through the kernels' key index (dictionary
    // codes keep string comparisons out of the loop).
    KeyIndex distinct(col);
    cs.null_count = static_cast<int64_t>(col[0]->null_count());
    for (size_t i = 0; i < n; ++i) {
      if (col[0]->IsNull(i)) continue;
      distinct.FindOrInsert(i);
      const int64_t* v = col[0]->TryInt(i);
      if (v == nullptr) continue;
      if (!cs.has_int_range) {
        cs.has_int_range = true;
        cs.min_int = cs.max_int = *v;
      } else {
        cs.min_int = std::min(cs.min_int, *v);
        cs.max_int = std::max(cs.max_int, *v);
      }
    }
    cs.distinct = static_cast<int64_t>(distinct.size());
  }

  if (begin_col >= 0 && end_col >= 0 &&
      static_cast<size_t>(begin_col) < arity &&
      static_cast<size_t>(end_col) < arity && begin_col != end_col) {
    stats->begin_col_ = begin_col;
    stats->end_col_ = end_col;
    TypedColumn bc = rel.ReadColumn(static_cast<size_t>(begin_col));
    TypedColumn ec = rel.ReadColumn(static_cast<size_t>(end_col));
    for (size_t i = 0; i < n; ++i) {
      const int64_t* bi = bc->TryInt(i);
      const int64_t* ei = ec->TryInt(i);
      if (bi == nullptr || ei == nullptr || *bi >= *ei) continue;
      const int64_t len = *ei - *bi;
      if (stats->interval_count_ == 0) {
        stats->min_begin_ = *bi;
        stats->max_end_ = *ei;
      } else {
        stats->min_begin_ = std::min(stats->min_begin_, *bi);
        stats->max_end_ = std::max(stats->max_end_, *ei);
      }
      ++stats->interval_count_;
      stats->length_sum_ += len;
      int bucket = 0;
      for (int64_t v = len; v > 1 && bucket < kLengthBuckets - 1; v >>= 1) {
        ++bucket;
      }
      ++stats->length_histogram_[bucket];
    }
  }

  stats->source_ = std::move(source);
  return stats;
}

int TableStats::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

double TableStats::AvgAliveRows() const {
  if (interval_count_ == 0) return 0.0;
  const int64_t s = std::max<int64_t>(span(), 1);
  return static_cast<double>(length_sum_) / static_cast<double>(s);
}

std::string TableStats::ToString() const {
  std::string out = StrCat("rows=", row_count_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnStats& cs = columns_[c];
    out += StrCat("\n  ", names_[c], ": nulls=", cs.null_count,
                  " distinct=", cs.distinct);
    if (cs.has_int_range) {
      out += StrCat(" range=[", cs.min_int, "..", cs.max_int, "]");
    }
  }
  if (has_period()) {
    out += StrCat("\n  period(", names_[static_cast<size_t>(begin_col_)], ", ",
                  names_[static_cast<size_t>(end_col_)],
                  "): intervals=", interval_count_, " length_sum=", length_sum_,
                  " span=[", min_begin_, "..", max_end_, ") hist=[");
    for (int b = 0; b < kLengthBuckets; ++b) {
      if (b > 0) out += ",";
      out += StrCat(length_histogram_[b]);
    }
    out += "]";
  }
  return out;
}

}  // namespace periodk
