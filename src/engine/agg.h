// Aggregate functions and incremental aggregation state, shared by the
// abstract-model bag aggregation (annotated/), the engine's group-by
// operator and the fused split+aggregate operator of the rewrite layer.
#ifndef PERIODK_ENGINE_AGG_H_
#define PERIODK_ENGINE_AGG_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/value.h"
#include "engine/column.h"

namespace periodk {

enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

/// Incremental state for one aggregate over one group, with SQL
/// semantics: count(*) counts rows, count(A) counts non-null A, the
/// remaining functions ignore nulls and yield NULL on empty input.
/// Multiplicities allow bag-annotated accumulation (one call per
/// distinct tuple instead of per duplicate).
///
/// Each function keeps only what it needs: count(A) a count; sum and
/// avg the count and the sums; min and max one extreme Value.  So sum,
/// avg and count never build, copy or compare a Value.
///
/// The integer sum is kept in 128 bits so that summing
/// endpoint-magnitude values — a TimeDomain touching INT64_MIN or
/// INT64_MAX puts such values in plain columns — is never UB, and so
/// that accumulation order cannot matter: a sum whose intermediate
/// prefix overflows int64 but whose total fits still finalizes as that
/// exact integer, identically for sequential accumulation and the
/// parallel chunk-and-Merge path.  Only a *total* outside int64 widens
/// to the double sum.  (128 bits cannot realistically overflow: it
/// would take 2^63 rows of INT64_MAX.)  The double sum is a plain
/// running sum, so it depends on the order in which values arrive; a
/// NaN sum or average finalizes as quiet_NaN(), as the split-aggregate
/// sweep's does.
struct AggState {
  explicit AggState(AggFunc f) : func(f) {}

  AggFunc func;
  int64_t count = 0;    // non-null inputs (count, sum, avg)
  bool all_int = true;  // sum, avg: every numeric input was an int
  __int128 isum = 0;    // sum, avg
  double dsum = 0.0;    // sum, avg
  std::optional<Value> extreme;  // min, max: the least / greatest input

  void Accumulate(const Value& v, int64_t mult = 1);

  /// Accumulates cell `row` of a typed column; equivalent to
  /// Accumulate(col.Get(row), mult).  Count, sum and avg read the raw
  /// arrays (ints(), doubles(), the validity bitmap) -- the inner loop
  /// of hash aggregation and of the split-aggregate's partials.
  void AccumulateColumn(const ColumnData& col, size_t row, int64_t mult = 1);

  /// Merges partially aggregated state of the same function (parallel
  /// hash-aggregation chunks).  Counts and sums add up; extremes keep
  /// the lesser / greater.
  void Merge(const AggState& other);

  Value Finalize(int64_t star_count) const;

 private:
  void AccumulateInt(int64_t v, int64_t mult);
  void AccumulateDouble(double v, int64_t mult);
};

/// Exact running sum of finite doubles: one fixed-point integer over
/// the whole double range (bit 0 weighs 2^-1074, the least subnormal),
/// kept in 32-bit digits with delayed carries.  Add and Subtract never
/// round; Round() rounds the exact total once, to nearest-even, so the
/// result does not depend on the order of the terms, nor on terms that
/// were added and later subtracted.  The split-aggregate sweep keeps
/// the double sums of its open partials here.
class ExactSum {
 public:
  void Add(double x) { Accumulate(x, 1); }
  void Subtract(double x) { Accumulate(x, -1); }
  /// The total, correctly rounded (+0.0 when it is zero; ±inf past the
  /// double range).  Normalizes the digits in place.
  double Round();

 private:
  static constexpr int kDigitBits = 32;
  // 2,098 bits span the finite doubles (2^-1074 up to 2^1024); 64 more
  // absorb the carries of 2^63 terms.
  static constexpr int kDigits = 68;
  // Adds between carry propagations: each adds less than 2^32 to a
  // digit, so an int64 digit cannot overflow before this many.
  static constexpr int64_t kMaxPending = int64_t{1} << 30;

  void Accumulate(double x, int sign);
  void Normalize();

  std::vector<int64_t> digits_;  // empty until the first nonzero term
  int lo_ = kDigits;             // digits_[lo_..hi_] may be nonzero
  int hi_ = -1;
  int64_t pending_ = 0;          // terms since the last Normalize
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_AGG_H_
