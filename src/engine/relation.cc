#include "engine/relation.h"

#include <algorithm>
#include <utility>

#include "common/status.h"
#include "common/str_util.h"

namespace periodk {

Relation Relation::FromColumns(Schema schema, std::vector<ColumnData> columns,
                               size_t num_rows) {
  if (columns.size() != schema.size()) {
    throw EngineError(StrCat("FromColumns: ", columns.size(),
                             " columns but schema ", schema.ToString(),
                             " has ", schema.size()));
  }
  for (const ColumnData& c : columns) {
    if (c.size() != num_rows) {
      throw EngineError(StrCat("FromColumns: column has ", c.size(),
                               " rows, expected ", num_rows));
    }
  }
  Relation out(std::move(schema));
  out.columns_ = std::move(columns);
  out.num_rows_ = num_rows;
  out.columnar_ = true;
  out.rows_ready_.store(false, std::memory_order_relaxed);
  return out;
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      columns_(other.columns_),
      num_rows_(other.num_rows_),
      columnar_(other.columnar_) {
  // The source may be a shared base table whose row view another
  // thread is materializing right now; only touch other.rows_ once the
  // release store says it is complete.
  if (other.rows_ready_.load(std::memory_order_acquire)) {
    rows_ = other.rows_;
    rows_ready_.store(true, std::memory_order_relaxed);
  } else {
    rows_ready_.store(false, std::memory_order_relaxed);
  }
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      rows_(std::move(other.rows_)),
      columns_(std::move(other.columns_)),
      num_rows_(other.num_rows_),
      columnar_(other.columnar_) {
  rows_ready_.store(other.rows_ready_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  other.columns_.clear();
  other.num_rows_ = 0;
  other.columnar_ = false;
  other.rows_ready_.store(true, std::memory_order_relaxed);
}

Relation& Relation::operator=(const Relation& other) {
  if (this != &other) {
    Relation copy(other);
    *this = std::move(copy);
  }
  return *this;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this != &other) {
    schema_ = std::move(other.schema_);
    rows_ = std::move(other.rows_);
    columns_ = std::move(other.columns_);
    num_rows_ = other.num_rows_;
    columnar_ = other.columnar_;
    rows_ready_.store(other.rows_ready_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    other.columns_.clear();
    other.num_rows_ = 0;
    other.columnar_ = false;
    other.rows_ready_.store(true, std::memory_order_relaxed);
  }
  return *this;
}

void Relation::ToColumnar() {
  if (columnar_) return;
  std::vector<ColumnData> columns;
  columns.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    columns.push_back(ColumnData::Encode(rows_, c));
  }
  num_rows_ = rows_.size();
  columns_ = std::move(columns);
  columnar_ = true;
  rows_.clear();
  rows_.shrink_to_fit();
  rows_ready_.store(false, std::memory_order_relaxed);
}

void Relation::MaterializeRows() const {
  MutexLock lock(rows_mu_);
  if (rows_ready_.load(std::memory_order_relaxed)) return;
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    Row row;
    row.reserve(columns_.size());
    for (const ColumnData& c : columns_) row.push_back(c.Get(i));
    rows.push_back(std::move(row));
  }
  rows_ = std::move(rows);
  rows_ready_.store(true, std::memory_order_release);
}

void Relation::DecayToRows() {
  if (!columnar_) return;
  if (!rows_ready_.load(std::memory_order_acquire)) MaterializeRows();
  columns_.clear();
  num_rows_ = 0;
  columnar_ = false;
}

TypedColumn Relation::ReadColumn(size_t c) const {
  // periodk-lint: columnar-lane-begin(read-column)
  if (is_columnar()) return TypedColumn(columns_[c]);
  // periodk-lint: columnar-lane-end(read-column)
  return TypedColumn(ColumnData::Encode(rows_, c));
}

Relation Relation::Gather(Schema schema,
                          const std::vector<GatherSource>& sources,
                          NewIntervals* intervals) {
  const size_t n = sources.front().ids.size();
  // periodk-lint: columnar-lane-begin(gather)
  std::vector<ColumnData> cols;
  cols.reserve(schema.size());
  for (const GatherSource& s : sources) {
    for (int c : s.cols) {
      cols.push_back(ColumnData::Gather(
          *s.rel.ReadColumn(static_cast<size_t>(c)), s.ids));
    }
  }
  if (intervals != nullptr) {
    cols.push_back(ColumnData::FromInts(std::move(intervals->begin)));
    cols.push_back(ColumnData::FromInts(std::move(intervals->end)));
  }
  // periodk-lint: columnar-lane-end(gather)
  return FromColumns(std::move(schema), std::move(cols), n);
}

Relation Relation::Concat(Schema schema,
                          const std::vector<const Relation*>& parts) {
  size_t n = 0;
  for (const Relation* p : parts) {
    if (p->schema_.size() != schema.size()) {
      throw EngineError(StrCat("Concat: part ", p->schema_.ToString(),
                               " does not match schema ", schema.ToString()));
    }
    n += p->size();
  }
  // periodk-lint: columnar-lane-begin(concat)
  std::vector<ColumnData> cols;
  cols.reserve(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    std::vector<TypedColumn> typed;  // a column's address survives moves
    std::vector<const ColumnData*> pieces;
    for (const Relation* p : parts) {
      if (p->empty()) continue;
      typed.push_back(p->ReadColumn(c));
      pieces.push_back(&*typed.back());
    }
    // A lone non-empty part is its column, moved when freshly encoded:
    // a load into an empty table keeps the encoded batch, uncopied.
    cols.push_back(typed.size() == 1 ? std::move(typed.front()).Release()
                                     : ColumnData::Concat(pieces));
  }
  // periodk-lint: columnar-lane-end(concat)
  return FromColumns(std::move(schema), std::move(cols), n);
}

void Relation::ThrowArityMismatch(const char* op, size_t got) const {
  throw EngineError(StrCat(op, ": row has ", got, " values but schema ",
                           schema_.ToString(), " has ", schema_.size(),
                           " columns"));
}

void Relation::CheckRowArities() const {
  for (const Row& row : rows_) {
    if (row.size() != schema_.size()) {
      throw EngineError(StrCat("Relation: row has ", row.size(),
                               " values but schema ", schema_.ToString(),
                               " has ", schema_.size(), " columns"));
    }
  }
}

bool Relation::BagEquals(const Relation& other) const {
  if (schema_.size() != other.schema_.size()) return false;
  if (size() != other.size()) return false;
  std::vector<Row> a = rows(), b = other.rows();
  auto less = [](const Row& x, const Row& y) { return CompareRows(x, y) < 0; };
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareRows(a[i], b[i]) != 0) return false;
  }
  return true;
}

std::string Relation::ToString(size_t limit) const {
  std::vector<Row> sorted = rows();
  std::sort(sorted.begin(), sorted.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  std::string out = schema_.ToString();
  out += "\n";
  size_t n = limit == 0 ? sorted.size() : std::min(limit, sorted.size());
  for (size_t i = 0; i < n; ++i) {
    out += RowToString(sorted[i]);
    out += "\n";
  }
  if (n < sorted.size()) {
    out += StrCat("... (", sorted.size() - n, " more rows)\n");
  }
  return out;
}

}  // namespace periodk
