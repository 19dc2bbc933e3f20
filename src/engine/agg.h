// Aggregate functions, incremental aggregation state and exact double
// sums, shared by the abstract-model bag aggregation (annotated/), the
// engine's group-by operator and the fused split+aggregate operator of
// the rewrite layer.
#ifndef PERIODK_ENGINE_AGG_H_
#define PERIODK_ENGINE_AGG_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/value.h"
#include "engine/column.h"

namespace periodk {

enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

/// Exact sum of doubles: one fixed-point integer over the whole
/// double range (bit 0 weighs 2^-1074, the least subnormal), kept in
/// 32-bit digits with delayed carries, plus counts of the NaN, +inf and
/// -inf terms.  Add, Subtract and AddTimes never round; Round() rounds
/// the exact total once, to nearest-even, so the result depends neither
/// on the order of the terms nor on terms that were added and later
/// subtracted.  Only the digits
/// the terms touch are stored: a sum of values of one magnitude holds
/// a handful of digits, not the 68 the range spans.  SUM and AVG keep
/// their non-integer terms here, in hash aggregation (AggState) and in
/// the split-aggregate sweep.
class ExactSum {
 public:
  void Add(double x) { AddOne(x, 1); }
  void Subtract(double x) { AddOne(x, -1); }
  /// Adds `times` copies of x (a bag multiplicity; negative removes).
  void AddTimes(double x, int64_t times);
  /// The total plus the integer `plus`, rounded once: NaN when a NaN or
  /// both infinities are among the terms, else the infinity among them,
  /// else the finite total (+0.0 when it is zero, ±inf past the double
  /// range).
  double Round(__int128 plus = 0) const;

 private:
  static constexpr int kDigitBits = 32;
  // 2,098 bits span the finite doubles (2^-1074 up to 2^1024); 64 more
  // absorb the carries of 2^63 terms.
  static constexpr int kDigits = 68;
  // Adds between carry propagations: each adds less than 2^32 to a
  // digit, so an int64 digit cannot overflow before this many.
  static constexpr int kMaxPending = 1 << 30;

  // Add (sign 1) or Subtract (sign -1): the sweep's inner loop, inline.
  void AddOne(double x, int64_t sign) {
    const auto bits = std::bit_cast<uint64_t>(x);
    const auto biased = static_cast<unsigned>(bits >> 52) & 0x7ffu;
    uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
    if (biased == 0x7ff) {
      AddTimes(x, sign);
      return;
    }
    if (biased != 0) {
      mantissa |= uint64_t{1} << 52;
    } else if (mantissa == 0) {
      return;  // ±0.0
    }
    // x = mantissa * 2^(pos - 1074): subnormals sit at pos 0.  Shifted
    // to its digit boundary, the mantissa spans three digits.
    const unsigned pos = biased == 0 ? 0 : biased - 1;
    const auto k = static_cast<int>(pos / kDigitBits);
    if ((bits >> 63) != 0) sign = -sign;
    const unsigned __int128 wide = static_cast<unsigned __int128>(mantissa)
                                   << (pos % kDigitBits);
    if (k < lo_ || k + 3 > lo_ + static_cast<int>(digits_.size())) {
      Widen(k, k + 3);
    }
    int64_t* d = digits_.data() + (k - lo_);
    d[0] += sign * static_cast<int64_t>(static_cast<uint32_t>(wide));
    d[1] += sign * static_cast<int64_t>(static_cast<uint32_t>(wide >> 32));
    d[2] += sign * static_cast<int64_t>(static_cast<uint32_t>(wide >> 64));
    if (++pending_ >= kMaxPending) Normalize();
  }
  // Adds sign * m * 2^(pos - 1074).
  void AddMagnitude(unsigned __int128 m, int pos, int sign);
  // Makes the stored window cover digits [lo, hi).
  void Widen(int lo, int hi);
  void Normalize();

  std::vector<int64_t> digits_;  // digit lo_ + i is digits_[i]
  int lo_ = 0;
  int pending_ = 0;              // terms since the last Normalize
  int64_t nan_ = 0;
  int64_t pos_inf_ = 0;
  int64_t neg_inf_ = 0;
};

/// True when a SUM finalizes as the Int `isum`: every input was an Int
/// and their exact total fits int64.
bool SumIsInt(bool all_int, __int128 isum);

/// The order MIN and MAX pick their extreme by, wherever they run (hash
/// aggregation, the split-aggregate's cells and its sweep):
/// Value::Compare, except that NaN, which Value::Compare leaves
/// unordered, equals NaN and is greater than every other number
/// (PostgreSQL's rule), that -0.0 ranks before 0.0 (MIN(0.0, -0.0) is
/// -0.0, MAX is 0.0), and that an Int ranks before a Double of equal
/// value (MIN(3, 3.0) is 3, MAX is 3.0).  A strict weak order over all
/// Values, by value, then sign of zero, then type, so neither the
/// extreme's value, its sign nor its type depends on the order values
/// arrive.
int CompareExtremes(const Value& a, const Value& b);

/// CompareExtremes as a less-than: the sweep's ordered multiset.
struct ExtremeLess {
  bool operator()(const Value& a, const Value& b) const {
    return CompareExtremes(a, b) < 0;
  }
};

/// Incremental state for one aggregate over one group, with SQL
/// semantics: count(*) counts rows, count(A) counts non-null A, the
/// remaining functions ignore nulls and yield NULL on empty input.
/// Multiplicities allow bag-annotated accumulation (one call per
/// distinct tuple instead of per duplicate).
///
/// Each function keeps only what it needs: count(A) a count; sum and
/// avg the count and the sums; min and max one extreme Value, ordered
/// by CompareExtremes.  So sum, avg and count never build, copy or
/// compare a Value.
///
/// Sums are exact.  Int inputs add up in 128 bits, so summing
/// endpoint-magnitude values (a TimeDomain touching INT64_MIN or
/// INT64_MAX puts such values in plain columns) is never UB; 128 bits
/// cannot realistically overflow, it would take 2^63 rows of
/// INT64_MAX.  Double inputs add up in an ExactSum.  SUM is the Int
/// total when every input was an Int and the total fits int64, else
/// the exact total of all inputs rounded once; AVG is that rounded
/// total over the count.  So neither the order of the inputs nor
/// multiplicities change a result, and the split-aggregate sweep
/// finalizes every fragment by the same rule.
struct AggState {
  explicit AggState(AggFunc f) : func(f) {}

  __int128 isum = 0;    // sum, avg: the Int inputs
  int64_t count = 0;    // non-null inputs (count, sum, avg)
  AggFunc func;
  bool all_int = true;  // sum, avg: every numeric input was an int
  ExactSum dsum;        // sum, avg: the Double inputs
  std::optional<Value> extreme;  // min, max: the least / greatest input

  void Accumulate(const Value& v, int64_t mult = 1);

  /// Accumulates cell `row` of a typed column; equivalent to
  /// Accumulate(col.Get(row), mult).  Count, sum and avg read the raw
  /// arrays (ints(), doubles(), the validity bitmap) -- the inner loop
  /// of hash aggregation.
  void AccumulateColumn(const ColumnData& col, size_t row, int64_t mult = 1);

  Value Finalize(int64_t star_count) const;

 private:
  void AccumulateInt(int64_t v, int64_t mult);
  void AccumulateDouble(double v, int64_t mult);
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_AGG_H_
