#include "engine/agg.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/status.h"

namespace periodk {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

bool SumIsInt(bool all_int, __int128 isum) {
  return all_int && isum >= std::numeric_limits<int64_t>::min() &&
         isum <= std::numeric_limits<int64_t>::max();
}

int CompareExtremes(const Value& a, const Value& b) {
  const double* x = a.TryDouble();
  const double* y = b.TryDouble();
  const bool a_nan = x != nullptr && std::isnan(*x);
  const bool b_nan = y != nullptr && std::isnan(*y);
  if (a_nan && b_nan) return 0;
  if (a_nan || b_nan) {
    const Value& other = a_nan ? b : a;
    if (other.TryInt() != nullptr || other.TryDouble() != nullptr) {
      return a_nan ? 1 : -1;  // NaN above every number
    }
  }
  const int order = a.Compare(b);
  if (order != 0) return order;
  if (x != nullptr && y != nullptr) {  // -0.0 and 0.0: -0.0 ranks first
    return static_cast<int>(std::signbit(*y)) -
           static_cast<int>(std::signbit(*x));
  }
  if (a.type() == b.type()) return 0;
  // An Int and a Double of equal value: the Int ranks first.
  return a.TryInt() != nullptr ? -1 : 1;
}

void AggState::AccumulateInt(int64_t v, int64_t mult) {
  count += mult;
  isum += static_cast<__int128>(v) * mult;
}

void AggState::AccumulateDouble(double v, int64_t mult) {
  count += mult;
  all_int = false;
  if (mult == 1) {
    dsum.Add(v);
  } else {
    dsum.AddTimes(v, mult);
  }
}

void AggState::Accumulate(const Value& v, int64_t mult) {
  if (v.is_null()) return;
  switch (func) {
    case AggFunc::kCountStar:
      return;
    case AggFunc::kCount:
      count += mult;
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (const int64_t* i = v.TryInt()) {
        AccumulateInt(*i, mult);
      } else if (const double* d = v.TryDouble()) {
        AccumulateDouble(*d, mult);
      } else {
        count += mult;  // counted, but a non-numeric value adds nothing
      }
      return;
    case AggFunc::kMin:
      if (!extreme.has_value() || CompareExtremes(v, *extreme) < 0) {
        extreme = v;
      }
      return;
    case AggFunc::kMax:
      if (!extreme.has_value() || CompareExtremes(v, *extreme) > 0) {
        extreme = v;
      }
      return;
  }
}

void AggState::AccumulateColumn(const ColumnData& col, size_t row,
                                int64_t mult) {
  if (col.IsNull(row)) return;
  switch (func) {
    case AggFunc::kCountStar:
      return;
    case AggFunc::kCount:
      count += mult;
      return;
    case AggFunc::kMin:
    case AggFunc::kMax:
      Accumulate(col.Get(row), mult);
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      break;
  }
  switch (col.tag()) {
    case ColumnTag::kInt:
      AccumulateInt(col.ints()[row], mult);
      return;
    case ColumnTag::kDouble:
      AccumulateDouble(col.doubles()[row], mult);
      return;
    case ColumnTag::kMixed:
      Accumulate(col.mixed()[row], mult);
      return;
    case ColumnTag::kBool:
    case ColumnTag::kString:
      count += mult;  // counted, but a non-numeric value adds nothing
      return;
  }
}

Value AggState::Finalize(int64_t star_count) const {
  switch (func) {
    case AggFunc::kCountStar:
      return Value::Int(star_count);
    case AggFunc::kCount:
      return Value::Int(count);
    case AggFunc::kSum:
      if (count == 0) return Value::Null();
      if (SumIsInt(all_int, isum)) {
        return Value::Int(static_cast<int64_t>(isum));
      }
      return Value::Double(dsum.Round(isum));
    case AggFunc::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(dsum.Round(isum) / static_cast<double>(count));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extreme.value_or(Value::Null());
  }
  throw EngineError("unknown aggregate function");
}

namespace {

// Bit 1074 of the fixed-point total weighs 2^0.
constexpr int kUnitBit = 1074;

int BitWidth(unsigned __int128 m) {
  const auto high = static_cast<uint64_t>(m >> 64);
  return high != 0 ? 64 + std::bit_width(high)
                   : std::bit_width(static_cast<uint64_t>(m));
}

}  // namespace

void ExactSum::AddTimes(double x, int64_t times) {
  const auto bits = std::bit_cast<uint64_t>(x);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  const bool negative = (bits >> 63) != 0;
  if (biased == 0x7ff) {  // NaN or ±inf: counted, resolved by Round
    (mantissa != 0 ? nan_ : negative ? neg_inf_ : pos_inf_) += times;
    return;
  }
  if (biased != 0) mantissa |= uint64_t{1} << 52;
  if (mantissa == 0 || times == 0) return;  // ±0.0
  // x = mantissa * 2^(pos - 1074): subnormals sit at pos 0.
  const int pos = biased == 0 ? 0 : biased - 1;
  const uint64_t copies = times < 0 ? 0 - static_cast<uint64_t>(times)
                                    : static_cast<uint64_t>(times);
  AddMagnitude(static_cast<unsigned __int128>(mantissa) * copies, pos,
               negative == (times < 0) ? 1 : -1);
}

void ExactSum::AddMagnitude(unsigned __int128 m, int pos, int sign) {
  const int k = pos / kDigitBits;
  const int shift = pos % kDigitBits;
  // m << shift in 32-bit digits: five at most, since m < 2^128.
  const int n = (BitWidth(m) + shift + kDigitBits - 1) / kDigitBits;
  if (k < lo_ || k + n > lo_ + static_cast<int>(digits_.size())) {
    Widen(k, k + n);
  }
  int64_t* d = digits_.data() + (k - lo_);
  const unsigned __int128 low = m << shift;
  for (int j = 0; j < std::min(n, 4); ++j) {
    d[j] += sign * static_cast<int64_t>(
                       static_cast<uint32_t>(low >> (kDigitBits * j)));
  }
  if (n == 5) {  // shift > 0 here, the bits `low` shifted out
    d[4] += sign * static_cast<int64_t>(
                       static_cast<uint32_t>(m >> (128 - shift)));
  }
  if (++pending_ >= kMaxPending) Normalize();
}

void ExactSum::Widen(int lo, int hi) {
  if (digits_.empty()) {
    digits_.assign(static_cast<size_t>(hi - lo), 0);
    lo_ = lo;
    return;
  }
  if (lo < lo_) {
    digits_.insert(digits_.begin(), static_cast<size_t>(lo_ - lo), 0);
    lo_ = lo;
  }
  if (hi - lo_ > static_cast<int>(digits_.size())) {
    digits_.resize(static_cast<size_t>(hi - lo_), 0);
  }
}

void ExactSum::Normalize() {
  // Every digit but the top one into [0, 2^32); the top one stays
  // signed and carries on upward until it fits 32 signed bits, so the
  // total is negative exactly when the top digit is.
  constexpr int64_t kMask = (int64_t{1} << kDigitBits) - 1;
  constexpr int64_t kHalf = int64_t{1} << (kDigitBits - 1);
  for (size_t i = 0; i + 1 < digits_.size() ||
                     (i < digits_.size() &&
                      (digits_[i] >= kHalf || digits_[i] < -kHalf));
       ++i) {
    if (i + 1 == digits_.size()) digits_.push_back(0);
    const int64_t carry = digits_[i] >> kDigitBits;  // floor division
    digits_[i] &= kMask;
    digits_[i + 1] += carry;
  }
  pending_ = 0;
}

double ExactSum::Round(__int128 plus) const {
  if (nan_ > 0 || (pos_inf_ > 0 && neg_inf_ > 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_ > 0) return std::numeric_limits<double>::infinity();
  if (neg_inf_ > 0) return -std::numeric_limits<double>::infinity();
  constexpr int64_t kMask = (int64_t{1} << kDigitBits) - 1;
  constexpr int64_t kHalf = int64_t{1} << (kDigitBits - 1);
  // The stored digits plus `plus`, by digit index, in [lo, hi): room
  // for the widest total, 2^63 terms of multiplicity 2^63 near 2^1024.
  int64_t d[kDigits + 8];
  int lo = lo_;
  int hi = lo_ + static_cast<int>(digits_.size());
  const unsigned __int128 plus_mag =
      plus < 0 ? 0 - static_cast<unsigned __int128>(plus)
               : static_cast<unsigned __int128>(plus);
  const int plus_lo = kUnitBit / kDigitBits;
  const int plus_shift = kUnitBit % kDigitBits;
  const int plus_hi =
      plus_lo + (BitWidth(plus_mag) + plus_shift + kDigitBits - 1) / kDigitBits;
  if (plus != 0) {
    if (lo == hi) {
      lo = plus_lo;
      hi = plus_lo;
    }
    lo = std::min(lo, plus_lo);
    hi = std::max(hi, plus_hi);
  }
  if (lo == hi) return 0.0;
  if (lo < lo_ || hi > lo_ + static_cast<int>(digits_.size())) {
    std::fill(d + lo, d + hi, 0);
  }
  std::copy(digits_.begin(), digits_.end(), d + lo_);
  if (plus != 0) {
    const int sign = plus < 0 ? -1 : 1;
    const unsigned __int128 low = plus_mag << plus_shift;
    for (int k = plus_lo; k < plus_hi; ++k) {
      const int j = k - plus_lo;
      const auto digit = static_cast<uint32_t>(
          j < 4 ? low >> (kDigitBits * j) : plus_mag >> (128 - plus_shift));
      d[k] += sign * static_cast<int64_t>(digit);
    }
  }
  // Carries: every digit but the top one into [0, 2^32), the top one
  // signed, so the total is negative exactly when the top digit is.
  for (int k = lo; k + 1 < hi || d[k] >= kHalf || d[k] < -kHalf; ++k) {
    if (k + 1 == hi) d[hi++] = 0;
    const int64_t carry = d[k] >> kDigitBits;  // floor division
    d[k] &= kMask;
    d[k + 1] += carry;
  }
  // The magnitude's digits, each in [0, 2^32).
  const bool negative = d[hi - 1] < 0;
  int64_t carry = 0;
  for (int k = lo; k < hi; ++k) {
    const int64_t m = (negative ? -d[k] : d[k]) + carry;
    carry = m >> kDigitBits;
    d[k] = m & kMask;
  }
  int top = hi - 1;
  while (top >= lo && d[top] == 0) --top;
  if (top < lo) return 0.0;
  // The 128-bit window of digits [top3 - 3, top3], and whether anything
  // nonzero lies below it.
  const int top3 = std::max(top, 3);
  auto digit = [&](int k) -> uint64_t {
    return k >= lo && k <= top ? static_cast<uint64_t>(d[k]) : 0;
  };
  unsigned __int128 window = 0;
  for (int k = top3; k >= top3 - 3; --k) {
    window = (window << kDigitBits) | digit(k);
  }
  bool sticky = false;
  for (int k = lo; k < top3 - 3; ++k) sticky = sticky || d[k] != 0;
  const int exponent = kDigitBits * (top3 - 3) - kUnitBit;  // bit 0's weight
  const auto high = static_cast<uint64_t>(window >> 64);
  const auto low = static_cast<uint64_t>(window);
  const int lead = high != 0 ? 127 - std::countl_zero(high)
                             : 63 - std::countl_zero(low);
  double magnitude = 0.0;
  if (lead <= 52) {
    // At most 53 bits and nothing below: exact, subnormals included.
    magnitude = std::ldexp(static_cast<double>(low), exponent);
  } else {
    const int shift = lead - 52;
    auto mantissa = static_cast<uint64_t>(window >> shift);
    const unsigned __int128 rest =
        window & ((static_cast<unsigned __int128>(1) << shift) - 1);
    const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                   << (shift - 1);
    if (rest > half || (rest == half && (sticky || (mantissa & 1) != 0))) {
      ++mantissa;
    }
    // mantissa * 2^(exponent + shift), a normal double: more than 53
    // bits cannot lie below 2^-1021.
    int biased = exponent + shift + 52 + 1023;
    if (mantissa >> 53 != 0) {  // rounded up to 2^53
      mantissa >>= 1;
      ++biased;
    }
    if (biased > 2046) {
      return negative ? -std::numeric_limits<double>::infinity()
                      : std::numeric_limits<double>::infinity();
    }
    magnitude = std::bit_cast<double>((static_cast<uint64_t>(biased) << 52) |
                                      (mantissa & ((uint64_t{1} << 52) - 1)));
  }
  return negative ? -magnitude : magnitude;
}

}  // namespace periodk
