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

namespace {

// One NaN for every plan: `+=` of +inf and -inf yields the platform's
// default NaN (negative on x86), the split-aggregate sweep quiet_NaN().
double QuietNaN(double d) {
  return std::isnan(d) ? std::numeric_limits<double>::quiet_NaN() : d;
}

}  // namespace

void AggState::AccumulateInt(int64_t v, int64_t mult) {
  count += mult;
  isum += static_cast<__int128>(v) * mult;
  dsum += static_cast<double>(v) * static_cast<double>(mult);
}

void AggState::AccumulateDouble(double v, int64_t mult) {
  count += mult;
  all_int = false;
  dsum += v * static_cast<double>(mult);
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
      if (!extreme.has_value() || v.Compare(*extreme) < 0) extreme = v;
      return;
    case AggFunc::kMax:
      if (!extreme.has_value() || v.Compare(*extreme) > 0) extreme = v;
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

void AggState::Merge(const AggState& other) {
  count += other.count;
  isum += other.isum;
  dsum += other.dsum;
  all_int = all_int && other.all_int;
  if (other.extreme.has_value()) Accumulate(*other.extreme);
}

Value AggState::Finalize(int64_t star_count) const {
  switch (func) {
    case AggFunc::kCountStar:
      return Value::Int(star_count);
    case AggFunc::kCount:
      return Value::Int(count);
    case AggFunc::kSum: {
      if (count == 0) return Value::Null();
      constexpr __int128 kInt64Min = std::numeric_limits<int64_t>::min();
      constexpr __int128 kInt64Max = std::numeric_limits<int64_t>::max();
      if (all_int && isum >= kInt64Min && isum <= kInt64Max) {
        return Value::Int(static_cast<int64_t>(isum));
      }
      return Value::Double(QuietNaN(dsum));
    }
    case AggFunc::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(QuietNaN(dsum / static_cast<double>(count)));
    case AggFunc::kMin:
    case AggFunc::kMax:
      return extreme.value_or(Value::Null());
  }
  throw EngineError("unknown aggregate function");
}

void ExactSum::Accumulate(double x, int sign) {
  const auto bits = std::bit_cast<uint64_t>(x);
  const auto biased = static_cast<int>((bits >> 52) & 0x7ff);
  uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  if (biased != 0) mantissa |= uint64_t{1} << 52;
  if (mantissa == 0) return;  // ±0.0
  if ((bits >> 63) != 0) sign = -sign;
  // x = mantissa * 2^(pos - 1074): subnormals sit at pos 0.
  const int pos = biased == 0 ? 0 : biased - 1;
  if (digits_.empty()) digits_.assign(kDigits, 0);
  const int k = pos / kDigitBits;
  const auto wide = static_cast<unsigned __int128>(mantissa)
                    << (pos % kDigitBits);
  for (int j = 0; j < 3; ++j) {
    const auto digit =
        static_cast<int64_t>(static_cast<uint32_t>(wide >> (kDigitBits * j)));
    digits_[static_cast<size_t>(k + j)] += sign * digit;
  }
  lo_ = std::min(lo_, k);
  hi_ = std::max(hi_, k + 2);
  if (++pending_ == kMaxPending) Normalize();
}

void ExactSum::Normalize() {
  // Every digit but the top one into [0, 2^32); the top one stays
  // signed and carries on upward until it fits 32 signed bits, so the
  // total is negative exactly when the top digit is.
  constexpr int64_t kMask = (int64_t{1} << kDigitBits) - 1;
  constexpr int64_t kHalf = int64_t{1} << (kDigitBits - 1);
  for (int k = lo_; k < hi_ || (k + 1 < kDigits &&
                                (digits_[static_cast<size_t>(k)] >= kHalf ||
                                 digits_[static_cast<size_t>(k)] < -kHalf));
       ++k) {
    int64_t& d = digits_[static_cast<size_t>(k)];
    const int64_t carry = d >> kDigitBits;  // floor division
    d &= kMask;
    digits_[static_cast<size_t>(k) + 1] += carry;
    hi_ = std::max(hi_, k + 1);
  }
  pending_ = 0;
}

double ExactSum::Round() {
  if (hi_ < 0) return 0.0;
  Normalize();
  constexpr int64_t kMask = (int64_t{1} << kDigitBits) - 1;
  // The magnitude's digits, each in [0, 2^32).
  int64_t mag[kDigits];
  const bool negative = digits_[static_cast<size_t>(hi_)] < 0;
  int64_t carry = 0;
  for (int k = lo_; k <= hi_; ++k) {
    const int64_t d = digits_[static_cast<size_t>(k)];
    const int64_t m = (negative ? -d : d) + carry;
    carry = m >> kDigitBits;
    mag[k] = m & kMask;
  }
  int top = hi_;
  while (top >= lo_ && mag[top] == 0) --top;
  if (top < lo_) return 0.0;
  // The 128-bit window of digits [top3 - 3, top3], and whether anything
  // nonzero lies below it.
  const int top3 = std::max(top, 3);
  auto digit = [&](int k) -> uint64_t {
    return k >= lo_ && k <= hi_ ? static_cast<uint64_t>(mag[k]) : 0;
  };
  unsigned __int128 window = 0;
  for (int k = top3; k >= top3 - 3; --k) {
    window = (window << kDigitBits) | digit(k);
  }
  bool sticky = false;
  for (int k = lo_; k < top3 - 3; ++k) sticky = sticky || mag[k] != 0;
  const int exponent = kDigitBits * (top3 - 3) - 1074;  // weight of bit 0
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
      ++mantissa;  // 2^53 at most: still exact as a double
    }
    magnitude = std::ldexp(static_cast<double>(mantissa), exponent + shift);
  }
  return negative ? -magnitude : magnitude;
}

}  // namespace periodk
