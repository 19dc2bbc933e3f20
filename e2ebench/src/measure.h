// Statistics, result fingerprints and host probes shared by the
// end-to-end benchmark and its unit tests.  Everything here is
// independent of the code under test: the fingerprint canonicalises a
// result without calling any engine operator, so a defect in the engine
// cannot hide itself in the check.
#ifndef E2EBENCH_MEASURE_H_
#define E2EBENCH_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/relation.h"

namespace e2e {

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it, i.e. the ceil(p/100 * n)-th smallest (1-based).
/// p in (0, 100]; returns 0 for an empty sample.  The one percentile rule
/// of the benchmark (medians included).
double NearestRank(std::vector<double> samples, double p);

/// exp(mean(log x)); every sample must be > 0.  Returns 0 when empty.
double GeometricMean(const std::vector<double>& samples);

/// Mean of the samples left after dropping floor(trim * n) of the lowest
/// and as many of the highest; trim in [0, 0.5).  Returns 0 when empty.
/// Unlike a median it moves in proportion when the share of slow samples
/// moves, and unlike a mean a few stalls cannot move it.
double TrimmedMean(std::vector<double> samples, double trim);

/// Significant bits (about six decimal digits) doubles keep in a
/// fingerprint.  Plans that sum in a different order (join order, parallel
/// partial sums) differ in the last bits; 20 bits sit far above that noise.
/// Rounding still has ties, where that noise picks the side: decimal
/// ones for sums of money values (22445.55 at six digits) and, rarer,
/// binary ones (299420.25 at 20 bits).  Hence EquivalentResults.
inline constexpr int kFingerprintBits = 20;

/// Canonical text of one value: NULL, booleans, integers verbatim,
/// doubles rounded to kFingerprintBits significant bits (magnitudes below
/// 1e-9 read as 0), strings quoted.
std::string CanonicalCell(const periodk::Value& value);

/// Canonical, order-insensitive form of a result, one string per row,
/// sorted.  A non-temporal result keeps every row (a bag).  A temporal
/// result (PERIODENC: the trailing two columns are the [begin, end)
/// interval) is replaced by its coalesced multiplicity form: for each
/// distinct canonical tuple, the maximal intervals over which its
/// multiplicity is constant and positive, as "tuple|begin|end|xcount".
/// Two snapshot-equivalent encodings therefore canonicalise identically,
/// even when rounding makes two adjacent fragments equal in one plan's
/// output and not in another's.
std::vector<std::string> CanonicalRows(const periodk::Relation& result,
                                       bool temporal);

/// FNV-1a 64 over CanonicalRows.
uint64_t Fingerprint(const periodk::Relation& result, bool temporal);

/// Whether two results agree up to rounding noise, compared without
/// rounding: doubles match when they differ by at most 2^-kFingerprintBits
/// of the larger magnitude (or both read as 0), other cells exactly.  Bag
/// results compare as bags; temporal results snapshot by snapshot (at
/// every time point, the bags of tuples alive then), so fragmentation is
/// ignored too.  The check behind a fingerprint mismatch: any rounding
/// grid has values on its boundaries -- 299420.25 lies halfway between
/// the 20-bit neighbours 299420 and 299420.5 -- and last-bit noise sends
/// such a value to either side, so two equivalent results can
/// fingerprint differently.
bool EquivalentResults(const periodk::Relation& a, const periodk::Relation& b,
                       bool temporal);

/// Order-insensitive hash of a result's exact rows (a sum of row hashes,
/// so duplicates count).  Cheap -- it reads columnar results in place --
/// but, unlike Fingerprint, sensitive to the last bit of every double:
/// it recognises a re-execution that reproduced a checked result exactly.
uint64_t BagHash(const periodk::Relation& result);

/// Milliseconds a fixed integer-mixing loop takes on this host; a host
/// speed diagnostic, never used to scale a metric.
double CalibrationMs();

/// Resets the kernel's peak resident set mark (/proc/self/clear_refs);
/// false when the kernel refuses.
bool ResetPeakRss();
/// Peak resident set (VmHWM) in MiB; 0 when unavailable.
double PeakRssMb();
/// Minor page faults of this process so far.
int64_t MinorFaults();

}  // namespace e2e

#endif  // E2EBENCH_MEASURE_H_
