// The benchmark's own arithmetic: medians, tail percentiles that state how
// many samples lie beyond them, the wire-rounded oracle comparison, and the
// failed-fraction count. Kept apart from the workloads so stats_test.cc can
// check it without running the system.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double Median(std::vector<double> values);

/// A nearest-rank percentile together with its support: the number of
/// samples ranked above it. A tail figure is only reported when at least
/// kMinTailSupport samples lie beyond it.
struct Percentile {
  double value = 0;
  size_t above = 0;    ///< samples ranked strictly after the percentile
  size_t samples = 0;  ///< total sample count
};

inline constexpr size_t kMinTailSupport = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`: the sorted value
/// at index ceil(p/100 * n) - 1. Empty input gives an all-zero result.
Percentile NearestRank(std::vector<double> values, double p);

/// True when `pct` has at least kMinTailSupport samples above it.
inline bool HasTailSupport(const Percentile& pct) {
  return pct.above >= kMinTailSupport;
}

/// What is left of `total` after the measured `parts`: the named remainder
/// of a breakdown, so that parts + remainder == total exactly. Reported as
/// is, negative included, never dropped or clamped.
double Remainder(double total, const std::vector<double>& parts);

/// Tracing overhead from block times along a steady trend, untraced at even
/// and traced at odd indices: the median, over traced blocks with neighbours
/// on both sides, of the block's time over the mean of those neighbours,
/// minus 1. The neighbours cancel a linear trend. 0 when there is no such
/// block.
double AlternatingOverhead(const std::vector<double>& block_seconds);

/// `value` after the serve protocol's number encoding (JsonWriter::Number,
/// which CountResponsePayload uses) and parsing back: what a client can
/// receive for an in-process `value`.
double WireRound(double value);

/// True when a count received over the wire equals the in-process oracle
/// once the oracle is rounded the way the wire rounds it.
inline bool WireMatches(double received, double oracle) {
  return received == WireRound(oracle);
}

/// Bitwise double equality (NaN payloads and signed zeros included): the
/// run-to-run determinism check for utility metrics.
bool SameBits(double a, double b);

/// Operation tally of one workload. Every attempt ends in exactly one of
/// ok / failed / rejected / mismatched.
struct OpCounts {
  uint64_t ok = 0;
  uint64_t failed = 0;      ///< returned an error
  uint64_t rejected = 0;    ///< refused by quota or backpressure
  uint64_t mismatched = 0;  ///< answered, but not what the oracle expects

  uint64_t attempted() const { return ok + failed + rejected + mismatched; }
  /// Everything that did not succeed with a correct answer.
  uint64_t not_ok() const { return failed + rejected + mismatched; }
  /// not_ok() / attempted(); 0 when nothing was attempted.
  double failed_fraction() const;
  OpCounts& operator+=(const OpCounts& other);
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
