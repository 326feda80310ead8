#pragma once
// Summary statistics the benchmark reports: interpolated quantiles, the
// tail-percentile sample rule, and failure accounting.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated q-quantile (q in [0, 1]) of `samples`. A failed job
/// is recorded as +infinity, so it sorts last and misses every limit.
/// Empty input answers 0.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Samples strictly above the q-quantile.
[[nodiscard]] std::size_t count_beyond(const std::vector<double>& samples,
                                       double q);

/// Fewest samples for which at least `min_beyond` lie strictly above the
/// q-quantile (the rule a reported tail percentile must meet).
[[nodiscard]] std::size_t samples_needed(double q, std::size_t min_beyond);

/// A tail percentile that one stall of the host cannot set: `samples`, in
/// the order the jobs were sent, cut into `parts` consecutive runs of equal
/// size; the median of the runs' q-quantiles.
struct PartedQuantile {
  double value = 0.0;
  /// Fewest samples strictly above its own q-quantile in any run.
  std::size_t fewest_beyond = 0;
};
[[nodiscard]] PartedQuantile parted_quantile(
    const std::vector<double>& samples, double q, std::size_t parts);

/// Jobs attempted and failed. A failed job is any that raised
/// (ApiError, ServiceError, TransportError, timeout) or returned no table.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(bool ok) noexcept {
    ++attempted;
    if (!ok) ++failed;
  }
  [[nodiscard]] double fail_ratio() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
