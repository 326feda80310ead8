#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || samples[lo] == samples[hi]) return samples[lo];
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t count_beyond(const std::vector<double>& samples, double q) {
  const double cut = quantile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double v) { return v > cut; }));
}

std::size_t samples_needed(double q, std::size_t min_beyond) {
  // With n samples the q-quantile sits at index q(n-1); the samples above
  // it are those at indices floor(q(n-1)) + 1 .. n-1.
  std::size_t n = min_beyond;
  while (true) {
    const auto cut = static_cast<std::size_t>(
        std::floor(q * static_cast<double>(n - 1) + 1e-9));
    if (n - 1 - cut >= min_beyond) return n;
    ++n;
  }
}

PartedQuantile parted_quantile(const std::vector<double>& samples, double q,
                               std::size_t parts) {
  PartedQuantile out;
  if (parts == 0 || samples.size() < parts) return out;
  std::vector<double> per_part;
  out.fewest_beyond = samples.size();
  for (std::size_t p = 0; p < parts; ++p) {
    const std::vector<double> run(
        samples.begin() + static_cast<std::ptrdiff_t>(p * samples.size() / parts),
        samples.begin() +
            static_cast<std::ptrdiff_t>((p + 1) * samples.size() / parts));
    per_part.push_back(quantile(run, q));
    out.fewest_beyond = std::min(out.fewest_beyond, count_beyond(run, q));
  }
  out.value = median(per_part);
  return out;
}

}  // namespace perfbench
