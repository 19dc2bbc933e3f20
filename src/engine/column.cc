#include "engine/column.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <type_traits>
#include <unordered_map>

#include "common/status.h"
#include "common/str_util.h"

namespace periodk {

namespace {

// splitmix64 finalizer; also used to combine packed key words.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ValueType CellType(ColumnTag tag) {
  switch (tag) {
    case ColumnTag::kInt:
      return ValueType::kInt;
    case ColumnTag::kDouble:
      return ValueType::kDouble;
    case ColumnTag::kBool:
      return ValueType::kBool;
    case ColumnTag::kString:
      return ValueType::kString;
    case ColumnTag::kMixed:
      break;
  }
  return ValueType::kNull;
}

const char* ColumnTagName(ColumnTag tag) {
  switch (tag) {
    case ColumnTag::kInt:
      return "int";
    case ColumnTag::kDouble:
      return "double";
    case ColumnTag::kBool:
      return "bool";
    case ColumnTag::kString:
      return "string";
    case ColumnTag::kMixed:
      return "mixed";
  }
  return "?";
}

void ColumnData::InitValidity() {
  validity_.assign((size_ + 63) / 64, 0);
}

template <typename CellAt>
ColumnData ColumnData::EncodeCells(size_t n, const CellAt& cell) {
  ColumnData out;
  out.size_ = n;

  bool has_bool = false, has_int = false, has_double = false;
  bool has_string = false;
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) {
    switch (cell(i).type()) {
      case ValueType::kNull:
        ++nulls;
        break;
      case ValueType::kBool:
        has_bool = true;
        break;
      case ValueType::kInt:
        has_int = true;
        break;
      case ValueType::kDouble:
        has_double = true;
        break;
      case ValueType::kString:
        has_string = true;
        break;
    }
  }
  int kinds = static_cast<int>(has_bool) + static_cast<int>(has_int) +
              static_cast<int>(has_double) + static_cast<int>(has_string);
  if (kinds > 1) {
    out.tag_ = ColumnTag::kMixed;
  } else if (has_bool) {
    out.tag_ = ColumnTag::kBool;
  } else if (has_double) {
    out.tag_ = ColumnTag::kDouble;
  } else if (has_string) {
    out.tag_ = ColumnTag::kString;
  } else {
    out.tag_ = ColumnTag::kInt;  // pure int, or all-null/empty
  }

  out.null_count_ = nulls;
  if (nulls > 0) out.InitValidity();
  switch (out.tag_) {
    case ColumnTag::kInt:
      out.ints_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (const int64_t* v = cell(i).TryInt()) {
          out.ints_[i] = *v;
          if (nulls > 0) out.SetValid(i);
        }
      }
      break;
    case ColumnTag::kDouble:
      out.doubles_.resize(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (const double* v = cell(i).TryDouble()) {
          out.doubles_[i] = *v;
          if (std::isnan(*v)) out.has_nan_ = true;
          if (nulls > 0) out.SetValid(i);
        }
      }
      break;
    case ColumnTag::kBool:
      out.bools_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (const bool* v = cell(i).TryBool()) {
          out.bools_[i] = *v ? 1 : 0;
          if (nulls > 0) out.SetValid(i);
        }
      }
      break;
    case ColumnTag::kString: {
      // Codes in first-appearance order through one hash lookup per
      // cell, then a sort of only the distinct strings renumbers them
      // into dictionary (= string) order.
      std::unordered_map<std::string_view, uint32_t> code_of;
      std::vector<std::string_view> distinct;
      out.codes_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (const std::string* s = cell(i).TryString()) {
          auto [it, inserted] = code_of.try_emplace(
              *s, static_cast<uint32_t>(distinct.size()));
          if (inserted) distinct.push_back(*s);
          out.codes_[i] = it->second;
          if (nulls > 0) out.SetValid(i);
        }
      }
      std::vector<uint32_t> order(distinct.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return distinct[a] < distinct[b];
      });
      std::vector<uint32_t> rank(distinct.size());
      std::vector<std::string> dict;
      dict.reserve(distinct.size());
      for (uint32_t k = 0; k < order.size(); ++k) {
        rank[order[k]] = k;
        dict.emplace_back(distinct[order[k]]);
      }
      for (uint32_t& code : out.codes_) code = rank[code];
      out.dict_ = std::make_shared<const StringDict>(std::move(dict));
      break;
    }
    case ColumnTag::kMixed:
      out.mixed_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        out.mixed_.push_back(cell(i));
        if (nulls > 0 && !cell(i).is_null()) out.SetValid(i);
      }
      break;
  }
  return out;
}

ColumnData ColumnData::Encode(const std::vector<Row>& rows, size_t col) {
  return EncodeCells(rows.size(),
                     [&](size_t i) -> const Value& { return rows[i][col]; });
}

ColumnData ColumnData::FromValues(const std::vector<Value>& cells) {
  return EncodeCells(cells.size(),
                     [&](size_t i) -> const Value& { return cells[i]; });
}

template <typename T>
ColumnData ColumnData::FromArray(ColumnTag tag,
                                 std::vector<T> ColumnData::*payload,
                                 std::vector<T> values,
                                 const std::vector<uint8_t>& nulls) {
  ColumnData out;
  out.tag_ = tag;
  out.size_ = values.size();
  if (!nulls.empty()) {
    out.InitValidity();
    for (size_t i = 0; i < out.size_; ++i) {
      if (nulls[i] != 0) {
        values[i] = T{};
        ++out.null_count_;
      } else {
        out.SetValid(i);
      }
    }
    if (out.null_count_ == 0) out.validity_.clear();
  }
  if (out.null_count_ == out.size_) {  // no cell to type: FromValues' kInt
    out.tag_ = ColumnTag::kInt;
    out.ints_.assign(out.size_, 0);
    return out;
  }
  if constexpr (std::is_same_v<T, double>) {
    out.has_nan_ = std::any_of(values.begin(), values.end(),
                               [](double d) { return std::isnan(d); });
  }
  out.*payload = std::move(values);
  return out;
}

ColumnData ColumnData::FromInts(std::vector<int64_t> values,
                                const std::vector<uint8_t>& nulls) {
  return FromArray(ColumnTag::kInt, &ColumnData::ints_, std::move(values),
                   nulls);
}

ColumnData ColumnData::FromDoubles(std::vector<double> values,
                                   const std::vector<uint8_t>& nulls) {
  return FromArray(ColumnTag::kDouble, &ColumnData::doubles_,
                   std::move(values), nulls);
}

ColumnData ColumnData::FromBools(std::vector<uint8_t> values,
                                 const std::vector<uint8_t>& nulls) {
  return FromArray(ColumnTag::kBool, &ColumnData::bools_, std::move(values),
                   nulls);
}

ColumnData ColumnData::Gather(const ColumnData& src,
                              const std::vector<uint32_t>& indices) {
  ColumnData out;
  out.tag_ = src.tag_;
  out.size_ = indices.size();
  out.dict_ = src.dict_;
  size_t nulls = 0;
  if (src.has_nulls()) {
    out.InitValidity();
    for (size_t k = 0; k < indices.size(); ++k) {
      if (src.IsNull(indices[k])) {
        ++nulls;
      } else {
        out.SetValid(k);
      }
    }
    if (nulls == 0) out.validity_.clear();
  }
  out.null_count_ = nulls;
  switch (src.tag_) {
    case ColumnTag::kInt:
      out.ints_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.ints_[k] = src.ints_[indices[k]];
      }
      break;
    case ColumnTag::kDouble:
      out.doubles_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.doubles_[k] = src.doubles_[indices[k]];
      }
      if (src.has_nan_) {  // only a gathered NaN counts
        for (size_t k = 0; k < indices.size() && !out.has_nan_; ++k) {
          out.has_nan_ = std::isnan(out.doubles_[k]) && !out.IsNull(k);
        }
      }
      break;
    case ColumnTag::kBool:
      out.bools_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.bools_[k] = src.bools_[indices[k]];
      }
      break;
    case ColumnTag::kString:
      out.codes_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.codes_[k] = src.codes_[indices[k]];
      }
      break;
    case ColumnTag::kMixed:
      out.mixed_.reserve(indices.size());
      for (uint32_t i : indices) out.mixed_.push_back(src.mixed_[i]);
      break;
  }
  return out;
}

namespace {

/// The dictionary of string parts put back to back: the part dictionary
/// with the most entries when it holds every other part's entries (an
/// append of known strings keeps the stored dictionary object), else the
/// sorted union of them all.
std::shared_ptr<const StringDict> ConcatDict(
    const std::vector<const ColumnData*>& parts) {
  const ColumnData* widest = *std::max_element(
      parts.begin(), parts.end(), [](const ColumnData* a, const ColumnData* b) {
        return a->dict()->size() < b->dict()->size();
      });
  const std::vector<std::string>& kept = widest->dict()->values();
  std::vector<std::string_view> fresh;
  for (const ColumnData* p : parts) {
    if (p->dict() == widest->dict()) continue;
    for (const std::string& s : p->dict()->values()) {
      if (!std::binary_search(kept.begin(), kept.end(), s)) fresh.push_back(s);
    }
  }
  if (fresh.empty()) return widest->dict();
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  std::vector<std::string> merged;
  merged.reserve(kept.size() + fresh.size());
  size_t j = 0;
  for (const std::string& s : kept) {
    while (j < fresh.size() && fresh[j] < s) merged.emplace_back(fresh[j++]);
    merged.push_back(s);
  }
  while (j < fresh.size()) merged.emplace_back(fresh[j++]);
  return std::make_shared<const StringDict>(std::move(merged));
}

/// Code k of `from` as a code of `into`, which holds every entry of
/// `from`: one binary search per entry (both are sorted).
std::vector<uint32_t> Recode(const StringDict& from, const StringDict& into) {
  const std::vector<std::string>& dict = into.values();
  std::vector<uint32_t> codes;
  codes.reserve(from.size());
  auto it = dict.begin();
  for (const std::string& s : from.values()) {
    it = std::lower_bound(it, dict.end(), s);
    codes.push_back(static_cast<uint32_t>(it - dict.begin()));
  }
  return codes;
}

}  // namespace

void ColumnData::OrValidity(const ColumnData& part, size_t base) {
  const size_t shift = base & 63;
  uint64_t* word = validity_.data() + (base >> 6);
  for (size_t w = 0; w * 64 < part.size_; ++w) {
    uint64_t bits = part.has_nulls() ? part.validity_[w] : ~uint64_t{0};
    const size_t left = part.size_ - w * 64;
    if (left < 64) bits &= (uint64_t{1} << left) - 1;
    word[w] |= bits << shift;
    if (shift != 0 && (bits >> (64 - shift)) != 0) {
      word[w + 1] |= bits >> (64 - shift);
    }
  }
}

ColumnData ColumnData::Concat(const std::vector<const ColumnData*>& parts) {
  // Parts holding a non-NULL cell decide the tag; the others (empty or
  // all NULL) hold no cell to type and fit any.
  ColumnData out;
  std::vector<const ColumnData*> typed;
  for (const ColumnData* p : parts) {
    out.size_ += p->size_;
    out.null_count_ += p->null_count_;
    if (p->null_count_ == p->size_) continue;
    typed.push_back(p);
    out.has_nan_ = out.has_nan_ || p->has_nan_;
  }
  if (std::any_of(typed.begin(), typed.end(), [&](const ColumnData* p) {
        return p->tag_ != typed.front()->tag_;
      })) {
    std::vector<Value> cells;  // tags differ: Encode of all the cells
    cells.reserve(out.size_);
    for (const ColumnData* p : parts) {
      for (size_t i = 0; i < p->size_; ++i) cells.push_back(p->Get(i));
    }
    return FromValues(cells);
  }
  out.tag_ = typed.empty() ? ColumnTag::kInt : typed.front()->tag_;
  if (out.tag_ == ColumnTag::kString) out.dict_ = ConcatDict(typed);
  if (out.null_count_ > 0) out.InitValidity();
  size_t base = 0;
  for (const ColumnData* p : parts) {
    // A part without a non-NULL cell adds placeholders, whatever its tag.
    const bool cells = p->null_count_ < p->size_;
    const auto extend = [&](auto& payload, const auto& part_payload) {
      payload.reserve(out.size_);
      if (cells) {
        payload.insert(payload.end(), part_payload.begin(), part_payload.end());
      } else {
        payload.resize(payload.size() + p->size_);
      }
    };
    switch (out.tag_) {
      case ColumnTag::kInt:
        extend(out.ints_, p->ints_);
        break;
      case ColumnTag::kDouble:
        extend(out.doubles_, p->doubles_);
        break;
      case ColumnTag::kBool:
        extend(out.bools_, p->bools_);
        break;
      case ColumnTag::kString:
        if (!cells || p->dict_ == out.dict_) {
          extend(out.codes_, p->codes_);
        } else {
          const std::vector<uint32_t> code = Recode(*p->dict_, *out.dict_);
          out.codes_.reserve(out.size_);
          for (size_t i = 0; i < p->size_; ++i) {
            out.codes_.push_back(p->IsNull(i) ? 0 : code[p->codes_[i]]);
          }
        }
        break;
      case ColumnTag::kMixed:
        extend(out.mixed_, p->mixed_);
        break;
    }
    if (out.null_count_ > 0) out.OrValidity(*p, base);
    base += p->size_;
  }
  return out;
}

Value ColumnData::Get(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (tag_) {
    case ColumnTag::kInt:
      return Value::Int(ints_[i]);
    case ColumnTag::kDouble:
      return Value::Double(doubles_[i]);
    case ColumnTag::kBool:
      return Value::Bool(bools_[i] != 0);
    case ColumnTag::kString:
      return Value::String(dict_->At(codes_[i]));
    case ColumnTag::kMixed:
      return mixed_[i];
  }
  return Value::Null();
}

bool FastKeyable(const ColumnData& column) {
  switch (column.tag()) {
    case ColumnTag::kInt:
    case ColumnTag::kBool:
    case ColumnTag::kString:
      return true;
    case ColumnTag::kDouble:
      return !column.has_nan();
    case ColumnTag::kMixed:
      return false;
  }
  return false;
}

void BuildPackedKeys(const std::vector<const ColumnData*>& keys,
                     size_t begin, size_t end, uint64_t* out) {
  const size_t width = keys.size() + 1;
  std::fill(out, out + (end - begin) * width, 0);
  for (size_t j = 0; j < keys.size(); ++j) {
    const ColumnData& col = *keys[j];
    uint64_t* word = out + j;
    switch (col.tag()) {
      case ColumnTag::kInt:
        for (size_t i = begin; i < end; ++i, word += width) {
          *word = static_cast<uint64_t>(col.ints()[i]);
        }
        break;
      case ColumnTag::kDouble:
        for (size_t i = begin; i < end; ++i, word += width) {
          double d = col.doubles()[i];
          *word = std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);  // -0.0 == +0.0
        }
        break;
      case ColumnTag::kBool:
        for (size_t i = begin; i < end; ++i, word += width) {
          *word = col.bools()[i];
        }
        break;
      case ColumnTag::kString:
        for (size_t i = begin; i < end; ++i, word += width) {
          *word = col.codes()[i];
        }
        break;
      case ColumnTag::kMixed:
        throw EngineError("BuildPackedKeys: mixed columns are not keyable");
    }
    if (col.has_nulls()) {
      word = out + j;
      uint64_t* nulls = out + keys.size();
      for (size_t i = begin; i < end; ++i, word += width, nulls += width) {
        if (col.IsNull(i)) {
          *word = 0;
          *nulls |= uint64_t{1} << j;
        }
      }
    }
  }
}

PackedKeyMap::PackedKeyMap(size_t width, size_t expected) : width_(width) {
  size_t cap = 16;
  while (cap < expected * 2) cap *= 2;
  slots_.assign(cap, kAbsent);
  mask_ = cap - 1;
  arena_.reserve(expected * width_);
}

uint64_t PackedKeyMap::HashKey(const uint64_t* key) const {
  uint64_t h = 0x8445d61a4e774912ULL;
  for (size_t j = 0; j < width_; ++j) h = Mix64(h ^ key[j]);
  return h;
}

uint32_t PackedKeyMap::Find(const uint64_t* key) const {
  for (size_t pos = HashKey(key) & mask_;; pos = (pos + 1) & mask_) {
    uint32_t id = slots_[pos];
    if (id == kAbsent ||
        std::equal(key, key + width_, &arena_[id * width_])) {
      return id;
    }
  }
}

uint32_t PackedKeyMap::FindOrInsert(const uint64_t* key) {
  if ((count_ + 1) * 10 >= slots_.size() * 7) Grow();
  size_t pos = HashKey(key) & mask_;
  while (true) {
    uint32_t id = slots_[pos];
    if (id == kAbsent) {
      uint32_t fresh = static_cast<uint32_t>(count_++);
      slots_[pos] = fresh;
      arena_.insert(arena_.end(), key, key + width_);
      return fresh;
    }
    if (std::equal(key, key + width_, &arena_[id * width_])) return id;
    pos = (pos + 1) & mask_;
  }
}

void PackedKeyMap::Grow() {
  size_t cap = slots_.size() * 2;
  slots_.assign(cap, kAbsent);
  mask_ = cap - 1;
  for (uint32_t id = 0; id < count_; ++id) {
    size_t pos = HashKey(&arena_[id * width_]) & mask_;
    while (slots_[pos] != kAbsent) pos = (pos + 1) & mask_;
    slots_[pos] = id;
  }
}

namespace {

std::vector<const ColumnData*> Pointers(const std::vector<TypedColumn>& cols) {
  std::vector<const ColumnData*> out;
  out.reserve(cols.size());
  for (const TypedColumn& c : cols) out.push_back(&*c);
  return out;
}

}  // namespace

KeyIndex::KeyIndex(const std::vector<TypedColumn>& keys, size_t begin,
                   size_t end)
    : sides_{Pointers(keys), {}},
      width_(keys.size() + 1),
      stride_(keys.empty() ? 0 : width_),
      packed_map_(width_, /*expected=*/64) {
  packed_ = keys.size() < 64;  // one null-bitmap word
  for (const ColumnData* c : sides_[0]) packed_ = packed_ && FastKeyable(*c);
  if (packed_) {
    PackSide(0, begin, keys.empty() ? begin : std::min(end, keys[0]->size()));
  }
}

KeyIndex::KeyIndex(const std::vector<TypedColumn>& keys,
                   const std::vector<TypedColumn>& other)
    : KeyIndex(keys) {
  sides_[1] = Pointers(other);
  for (size_t j = 0; j < sides_[1].size(); ++j) {
    packed_ = packed_ && FastKeyable(*sides_[1][j]) &&
              sides_[1][j]->tag() == sides_[0][j]->tag();
  }
  if (!packed_) {
    packed_keys_[0] = std::vector<uint64_t>();  // Value keys after all
    return;
  }
  PackSide(1, 0, other.empty() ? 0 : other[0]->size());
  // Equal strings carry different codes in different dictionaries.
  // Both are sorted, so each side-1 string finds its side-0 code by
  // binary search; strings side 0 lacks get codes past its range --
  // distinct from every side-0 code and from each other.
  for (size_t j = 0; j < sides_[1].size(); ++j) {
    const ColumnData& lc = *sides_[0][j];
    const ColumnData& rc = *sides_[1][j];
    if (lc.tag() != ColumnTag::kString || lc.dict() == rc.dict()) continue;
    const std::vector<std::string>& lv = lc.dict()->values();
    const std::vector<std::string>& rv = rc.dict()->values();
    std::vector<uint64_t> remap(rv.size());
    for (size_t c = 0; c < rv.size(); ++c) {
      auto it = std::lower_bound(lv.begin(), lv.end(), rv[c]);
      remap[c] = (it != lv.end() && *it == rv[c])
                     ? static_cast<uint64_t>(it - lv.begin())
                     : lv.size() + c;
    }
    uint64_t* word = packed_keys_[1].data() + j;
    for (size_t i = 0; i < rc.size(); ++i, word += width_) {
      if (!rc.IsNull(i)) *word = remap[*word];
    }
  }
}

void KeyIndex::PackSide(int side, size_t begin, size_t end) {
  first_row_[side] = begin;
  if (stride_ == 0) {  // no key columns: every row's key is one 0 word
    packed_keys_[side].assign(1, 0);
    return;
  }
  packed_keys_[side].resize((end - begin) * width_);
  BuildPackedKeys(sides_[side], begin, end, packed_keys_[side].data());
}

Row KeyIndex::ValueKey(size_t row, int side) const {
  Row key;
  key.reserve(sides_[side].size());
  for (const ColumnData* c : sides_[side]) key.push_back(c->Get(row));
  return key;
}

uint32_t KeyIndex::Find(size_t row, int side) const {
  if (packed_) return packed_map_.Find(Packed(row, side));
  auto it = value_map_.find(ValueKey(row, side));
  return it == value_map_.end() ? kAbsent : it->second;
}

uint32_t KeyIndex::Probe(size_t row) const {
  if (!packed_) return Find(row);  // Value keys read any row
  if (stride_ == 0) return packed_map_.Find(packed_keys_[0].data());
  uint64_t key[64];  // width_ <= 64 words whenever packed_
  BuildPackedKeys(sides_[0], row, row + 1, key);
  return packed_map_.Find(key);
}

bool KeyIndex::HasNull(size_t row, int side) const {
  if (packed_) return Packed(row, side)[width_ - 1] != 0;
  for (const ColumnData* c : sides_[side]) {
    if (c->IsNull(row)) return true;
  }
  return false;
}

}  // namespace periodk
