#include "stats/table_stats.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/status.h"
#include "common/str_util.h"
#include "engine/column.h"

namespace periodk {

namespace {

/// Distinct non-null values of `col` once rows [first_row, size) join
/// rows [0, first_row), which `prefix` describes.  The batch's keys go
/// into a KeyIndex (the kernels' key equality); one pass over the
/// stored rows then finds which of them the prefix already holds.
int64_t ExtendDistinct(const ColumnData& col, size_t first_row,
                       const ColumnStats& prefix) {
  // Value keys may group NaN by insertion order: recount in row order,
  // exactly as a fresh collection does.
  if (!FastKeyable(col)) first_row = 0;
  std::vector<TypedColumn> key;
  key.emplace_back(col);
  const std::vector<const ColumnData*> cols = {&col};
  KeyIndex batch(key, first_row, col.size());
  if (first_row == 0) {
    for (size_t i = 0; i < col.size(); ++i) {
      if (!col.IsNull(i)) batch.FindOrInsert(i);
    }
    return static_cast<int64_t>(batch.size());
  }
  // Each batch key's packed word (BuildPackedKeys: equal words, equal
  // values), in id order.
  std::vector<uint64_t> packed((col.size() - first_row) * 2);
  BuildPackedKeys(cols, first_row, col.size(), packed.data());
  std::vector<uint64_t> word_of;
  for (size_t i = first_row; i < col.size(); ++i) {
    const uint64_t* word = &packed[(i - first_row) * 2];
    if (word[1] == 0 && batch.FindOrInsert(i) == word_of.size()) {
      word_of.push_back(word[0]);
    }
  }
  // pending[id]: batch key `id` may occur among the stored rows.
  // Integers outside the stored range cannot.  The rest make a word
  // range and a 4096-bit filter that most stored rows fail, so the
  // KeyIndex probe runs only for likely hits.
  std::vector<uint8_t> pending(word_of.size(), 1);
  size_t open = word_of.size();
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  uint64_t filter[64] = {};
  auto slot = [](uint64_t word) {
    return (word * 0x9e3779b97f4a7c15ULL) >> 52;  // 12 bits
  };
  for (size_t id = 0; id < word_of.size(); ++id) {
    const auto v = static_cast<int64_t>(word_of[id]);
    if (col.tag() == ColumnTag::kInt &&
        (!prefix.has_int_range || v < prefix.min_int || v > prefix.max_int)) {
      pending[id] = 0;
      --open;
      continue;
    }
    lo = std::min(lo, word_of[id]);
    hi = std::max(hi, word_of[id]);
    const uint64_t h = slot(word_of[id]);
    filter[h >> 6] |= uint64_t{1} << (h & 63);
  }
  size_t found = 0;
  constexpr size_t kBlock = 1024;
  packed.resize(2 * kBlock);
  for (size_t begin = 0; begin < first_row && open > 0; begin += kBlock) {
    const size_t end = std::min(first_row, begin + kBlock);
    BuildPackedKeys(cols, begin, end, packed.data());
    for (size_t i = begin; i < end && open > 0; ++i) {
      const uint64_t* word = &packed[(i - begin) * 2];
      if (word[1] != 0 || word[0] < lo || word[0] > hi) continue;
      const uint64_t h = slot(word[0]);
      if ((filter[h >> 6] >> (h & 63) & 1) == 0) continue;
      const uint32_t id = batch.Probe(i);
      if (id != KeyIndex::kAbsent && pending[id] != 0) {
        pending[id] = 0;
        --open;
        ++found;
      }
    }
  }
  return prefix.distinct + static_cast<int64_t>(word_of.size() - found);
}

}  // namespace

std::shared_ptr<const TableStats> TableStats::Collect(
    std::shared_ptr<const Relation> source, int begin_col, int end_col) {
  std::shared_ptr<TableStats> stats(new TableStats());
  const Relation& rel = *source;
  const size_t arity = rel.schema().size();
  stats->names_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) stats->names_.push_back(rel.schema().at(c).name);
  stats->columns_.resize(arity);
  if (begin_col >= 0 && end_col >= 0 &&
      static_cast<size_t>(begin_col) < arity &&
      static_cast<size_t>(end_col) < arity && begin_col != end_col) {
    stats->begin_col_ = begin_col;
    stats->end_col_ = end_col;
  }
  stats->AddRows(rel, 0);
  stats->source_ = std::move(source);
  return stats;
}

std::shared_ptr<const TableStats> TableStats::Extend(
    const TableStats& previous, std::shared_ptr<const Relation> next) {
  const size_t first_row = static_cast<size_t>(previous.row_count_);
  if (next->schema().size() != previous.columns_.size() ||
      next->size() < first_row) {
    throw EngineError(StrCat("TableStats::Extend: ", next->size(), " rows x ",
                             next->schema().size(),
                             " columns do not extend statistics of ",
                             first_row, " rows x ", previous.columns_.size()));
  }
  std::shared_ptr<TableStats> stats(new TableStats(previous));
  stats->AddRows(*next, first_row);
  stats->source_ = std::move(next);
  return stats;
}

void TableStats::AddRows(const Relation& rel, size_t first_row) {
  const size_t n = rel.size();
  row_count_ = static_cast<int64_t>(n);
  // periodk-lint: columnar-lane-begin(stats-add-rows)
  for (size_t c = 0; c < columns_.size(); ++c) {
    ColumnStats& cs = columns_[c];
    TypedColumn col = rel.ReadColumn(c);
    cs.null_count = static_cast<int64_t>(col->null_count());
    // Exact distinct count through the kernels' key index (dictionary
    // codes keep string comparisons out of the loop).
    cs.distinct = ExtendDistinct(*col, first_row, cs);
    for (size_t i = first_row; i < n; ++i) {
      const int64_t* v = col->TryInt(i);
      if (v == nullptr) continue;
      if (!cs.has_int_range) {
        cs.has_int_range = true;
        cs.min_int = cs.max_int = *v;
      } else {
        cs.min_int = std::min(cs.min_int, *v);
        cs.max_int = std::max(cs.max_int, *v);
      }
    }
  }

  if (has_period()) {
    AddIntervals(*rel.ReadColumn(static_cast<size_t>(begin_col_)),
                 *rel.ReadColumn(static_cast<size_t>(end_col_)), first_row, n);
  }
  // periodk-lint: columnar-lane-end(stats-add-rows)
}

void TableStats::AddIntervals(const ColumnData& bc, const ColumnData& ec,
                              size_t first_row, size_t n) {
  for (size_t i = first_row; i < n; ++i) {
    const int64_t* bi = bc.TryInt(i);
    const int64_t* ei = ec.TryInt(i);
    if (bi == nullptr || ei == nullptr || *bi >= *ei) continue;
    if (interval_count_ == 0) {
      min_begin_ = *bi;
      max_end_ = *ei;
    } else {
      min_begin_ = std::min(min_begin_, *bi);
      max_end_ = std::max(max_end_, *ei);
    }
    ++interval_count_;
    length_sum_ += *ei - *bi;
  }
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
                  " span=[", min_begin_, "..", max_end_, ")");
  }
  return out;
}

}  // namespace periodk
