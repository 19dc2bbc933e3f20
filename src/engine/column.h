// Typed columns: the form every kernel reads (docs/architecture.md §9).
//
// A ColumnData holds one column of a relation in a contiguous typed
// vector plus a validity bitmap: int64/double/bool columns store raw
// values, string columns are dictionary-encoded as uint32_t codes into
// a per-column *sorted* dictionary (rdf3x-style: code order == string
// order), and columns whose non-null values mix types fall back to a
// vector<Value> ("mixed") representation so the dynamically typed
// engine loses nothing.
//
// Kernels never ask how a relation is stored.  They read columns
// through Relation::ReadColumn -- the relation's own column when it is
// columnar, a ColumnData::Encode of that one column when it is
// row-stored -- decode endpoints with TryInt, and group with KeyIndex:
// packed uint64 keys in a PackedKeyMap, or Value keys read off the
// columns where packing cannot reproduce Value::Compare.  Appends and
// UNION ALL put columns back to back with ColumnData::Concat, which
// copies the parts' payloads instead of re-encoding their cells.
#ifndef PERIODK_ENGINE_COLUMN_H_
#define PERIODK_ENGINE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"

namespace periodk {

/// Physical representation chosen for a column at encode time.
enum class ColumnTag { kInt, kDouble, kBool, kString, kMixed };

/// Returns "int", "double", "bool", "string" or "mixed".
const char* ColumnTagName(ColumnTag tag);

/// The value type of every non-null cell of a column tagged `tag`;
/// kNull for kMixed, whose cells hold several.
ValueType CellType(ColumnTag tag);

/// Immutable sorted, duplicate-free string dictionary.  Shared by
/// pointer between a column and anything gathered from it, so join and
/// coalesce outputs reuse the input dictionary for free.
class StringDict {
 public:
  explicit StringDict(std::vector<std::string> sorted_values)
      : values_(std::move(sorted_values)) {}

  const std::string& At(uint32_t code) const { return values_[code]; }
  size_t size() const { return values_.size(); }
  const std::vector<std::string>& values() const { return values_; }

 private:
  std::vector<std::string> values_;
};

/// One column of a columnar relation.  Immutable after construction;
/// new columns are built by Encode / FromInts / Gather.
class ColumnData {
 public:
  /// Encodes column `col` of `rows`.  Picks the narrowest tag that
  /// represents every non-null cell exactly (an all-null or empty
  /// column encodes as kInt with an all-invalid bitmap).  Strings cost
  /// one hash lookup per cell plus one sort of the distinct values.
  static ColumnData Encode(const std::vector<Row>& rows, size_t col);

  /// Encode over a column of cells: computed expression outputs.
  static ColumnData FromValues(const std::vector<Value>& cells);

  /// Columns of one cell type from raw payloads, `nulls[i]` != 0 marking
  /// cell i NULL (empty: no NULL): kernel interval outputs and the typed
  /// evaluator's.  Each equals FromValues of the same cells: NULL cells
  /// hold 0, and a column without a non-NULL cell is an all-NULL kInt.
  static ColumnData FromInts(std::vector<int64_t> values,
                             const std::vector<uint8_t>& nulls = {});
  static ColumnData FromDoubles(std::vector<double> values,
                                const std::vector<uint8_t>& nulls = {});
  static ColumnData FromBools(std::vector<uint8_t> values,
                              const std::vector<uint8_t>& nulls = {});

  /// out[k] = src[indices[k]] -- the gather emission of the kernels'
  /// output helper.  Dictionary columns share src's dictionary; the NaN
  /// flag is set only when a gathered cell is NaN.
  static ColumnData Gather(const ColumnData& src,
                           const std::vector<uint32_t>& indices);

  /// `parts` back to back (UNION ALL, every append): Encode of the
  /// concatenated cells, built from the parts' payloads.  A part with no
  /// non-NULL cell fits any tag; parts of one tag keep it, their payloads
  /// and validity words copied, strings under one sorted dictionary (the
  /// largest part's, shared, when it holds every other part's entries,
  /// else the union) with the other parts' codes recoded per entry.
  /// Parts whose tags differ are re-encoded cell by cell.
  static ColumnData Concat(const std::vector<const ColumnData*>& parts);

  ColumnTag tag() const { return tag_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }
  bool IsNull(size_t i) const {
    return has_nulls() &&
           (validity_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
  }

  /// Value at row i (strings are copied out of the dictionary).
  Value Get(size_t i) const;

  /// The endpoint decoding of every sweep kernel: cell i when it holds
  /// a non-null integer (a kInt cell, or an Int inside a kMixed
  /// column), nullptr otherwise.
  const int64_t* TryInt(size_t i) const {
    if (tag_ == ColumnTag::kInt) return IsNull(i) ? nullptr : &ints_[i];
    return tag_ == ColumnTag::kMixed ? mixed_[i].TryInt() : nullptr;
  }

  // Raw typed payloads; meaningful only for the matching tag().  Cells
  // whose validity bit is clear hold an unspecified placeholder.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  const std::shared_ptr<const StringDict>& dict() const { return dict_; }
  const std::vector<Value>& mixed() const { return mixed_; }

  /// kDouble only: true when any stored value is NaN.  Value::Compare
  /// is not a consistent order on NaN, so such columns group by Value
  /// keys instead of packed ones.
  bool has_nan() const { return has_nan_; }

 private:
  ColumnTag tag_ = ColumnTag::kInt;
  size_t size_ = 0;
  size_t null_count_ = 0;
  bool has_nan_ = false;
  std::vector<uint64_t> validity_;  // bit set = non-null; empty = no nulls
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> codes_;
  std::shared_ptr<const StringDict> dict_;
  std::vector<Value> mixed_;

  /// Encode over `n` cells, `cell(i)` being the i-th (a const Value&).
  template <typename CellAt>
  static ColumnData EncodeCells(size_t n, const CellAt& cell);
  /// The From{Ints,Doubles,Bools} of a `tag` column held in `payload`.
  template <typename T>
  static ColumnData FromArray(ColumnTag tag, std::vector<T> ColumnData::*payload,
                              std::vector<T> values,
                              const std::vector<uint8_t>& nulls);

  void InitValidity();               // all-invalid bitmap of size_ bits
  /// ORs `part`'s validity into the clear bits [base, base + size).
  void OrValidity(const ColumnData& part, size_t base);
  void SetValid(size_t i) { validity_[i >> 6] |= uint64_t{1} << (i & 63); }
};

/// A column as a kernel reads it (Relation::ReadColumn): a relation's
/// own column, borrowed, or a freshly encoded one, owned.  The column's
/// address survives moves, so pointers to it (KeyIndex) stay valid.
class TypedColumn {
 public:
  explicit TypedColumn(const ColumnData& borrowed) : column_(&borrowed) {}
  explicit TypedColumn(ColumnData&& owned)
      : owned_(std::make_unique<ColumnData>(std::move(owned))),
        column_(owned_.get()) {}

  const ColumnData& operator*() const { return *column_; }
  const ColumnData* operator->() const { return column_; }

  /// The column by value: moved out when owned, copied when borrowed.
  ColumnData Release() && {
    return owned_ != nullptr ? std::move(*owned_) : *column_;
  }

 private:
  std::unique_ptr<ColumnData> owned_;
  const ColumnData* column_;
};

/// True when a column can serve as a packed uint64 grouping key with
/// equality identical to Value::Compare within the column: ints, bools
/// and dictionary codes always; doubles unless they contain NaN; mixed
/// columns never.
bool FastKeyable(const ColumnData& column);

/// Packs the keys of rows [begin, end) over `keys`, row-major, into
/// width = keys.size() + 1 words per row at `out`: one word per key
/// column (int bits / bool / dictionary code / double bits with -0.0
/// normalized to +0.0, 0 for NULL) plus a trailing null-bitmap word.
/// Every column must be FastKeyable, and keys.size() < 64.  Word
/// equality then matches key equality under Value::Compare, and
/// dictionary codes keep string comparisons out of the grouping loops.
void BuildPackedKeys(const std::vector<const ColumnData*>& keys,
                     size_t begin, size_t end, uint64_t* out);

/// Open-addressing hash map from fixed-width uint64 keys to dense ids
/// (0, 1, 2, ... in first-appearance order).  Keys live in one arena
/// vector, so lookups are a hash over `width` contiguous words and a
/// linear probe -- no per-row allocation, unlike unordered_map<Row>.
class PackedKeyMap {
 public:
  explicit PackedKeyMap(size_t width, size_t expected = 0);

  static constexpr uint32_t kAbsent = 0xffffffffu;

  /// Returns the id of `key` (width_ words), inserting it if new.
  uint32_t FindOrInsert(const uint64_t* key);
  /// The id of `key`, or kAbsent.
  uint32_t Find(const uint64_t* key) const;

  size_t size() const { return count_; }

 private:
  void Grow();
  uint64_t HashKey(const uint64_t* key) const;

  size_t width_;
  size_t count_ = 0;
  size_t mask_ = 0;                 // slots_.size() - 1 (power of two)
  std::vector<uint32_t> slots_;     // kAbsent or group id
  std::vector<uint64_t> arena_;     // count_ * width_ key words
};

/// Dense ids 0, 1, 2, ... for the keys of rows, in first-appearance
/// order: the grouping step of every kernel (coalesce and split groups,
/// aggregation groups, join buckets, distinct counts).  A key is the
/// row's cells in the key columns; two keys are equal when
/// Value::Compare says so.  Keys are packed (BuildPackedKeys into a
/// PackedKeyMap) when every key column is FastKeyable and, for
/// two-sided keys, each pair of key columns shares a tag -- side 1's
/// string codes are translated into side 0's dictionary.  Otherwise
/// they are Value rows read off the columns: kMixed or NaN columns,
/// join keys whose tags differ across the sides.
class KeyIndex {
 public:
  static constexpr uint32_t kAbsent = PackedKeyMap::kAbsent;

  /// Keys of rows [begin, end) of one input (every row by default);
  /// only those rows may be looked up.  The columns must outlive the
  /// index.
  explicit KeyIndex(const std::vector<TypedColumn>& keys, size_t begin = 0,
                    size_t end = SIZE_MAX);
  /// Keys of two inputs that compare across each other (side 0 =
  /// `keys`, side 1 = `other`, same number of columns).
  KeyIndex(const std::vector<TypedColumn>& keys,
           const std::vector<TypedColumn>& other);

  /// The id of row `row` of `side`'s key, inserting it if new.
  uint32_t FindOrInsert(size_t row, int side = 0) {
    if (packed_) return packed_map_.FindOrInsert(Packed(row, side));
    return value_map_
        .try_emplace(ValueKey(row, side),
                     static_cast<uint32_t>(value_map_.size()))
        .first->second;
  }
  /// The id of row `row` of `side`'s key, or kAbsent.
  uint32_t Find(size_t row, int side = 0) const;
  /// Find for any row of the one-sided key columns, inside the indexed
  /// range or not (TableStats::Extend probes a table's stored rows
  /// against the keys of an appended batch).
  uint32_t Probe(size_t row) const;
  /// True when any key cell of the row is NULL (NULL never equi-joins).
  bool HasNull(size_t row, int side = 0) const;
  size_t size() const {
    return packed_ ? packed_map_.size() : value_map_.size();
  }

 private:
  void PackSide(int side, size_t begin, size_t end);
  const uint64_t* Packed(size_t row, int side) const {
    return &packed_keys_[side][(row - first_row_[side]) * stride_];
  }
  Row ValueKey(size_t row, int side) const;

  std::vector<const ColumnData*> sides_[2];
  size_t width_;
  size_t stride_;  // words between rows' keys; 0 without key columns
  bool packed_ = true;
  // Packed mode: keys of rows first_row_[s].. of side s, row-major.
  std::vector<uint64_t> packed_keys_[2];
  size_t first_row_[2] = {0, 0};
  PackedKeyMap packed_map_;
  std::unordered_map<Row, uint32_t, RowHash, RowEq> value_map_;
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_COLUMN_H_
