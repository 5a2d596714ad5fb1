#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  // Guard against q * n landing a hair above an integer (0.9 * 100).
  const double scaled = q * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(scaled - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile q must be in (0, 1]");
  }
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) {
    throw std::invalid_argument("interquartile mean of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t trim = samples.size() / 4;
  double sum = 0.0;
  for (std::size_t i = trim; i < samples.size() - trim; ++i) {
    sum += samples[i];
  }
  return sum / static_cast<double>(samples.size() - 2 * trim);
}

}  // namespace perfbench
