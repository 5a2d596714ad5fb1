// Summaries of the benchmark's timings.
//
// A bounded timing is the interquartile mean of its samples: the mean of
// the middle half. On a shared virtual machine each vCPU switches
// between two speeds about 1.5x apart for seconds at a time, so a run's
// samples are a two-mode mix. Their median lands in whichever mode holds
// more than half the samples and jumps between the modes from run to
// run; the interquartile mean moves smoothly with the mix and, like the
// median, ignores the stray outlier.
//
// Medians and tail percentiles are printed beside it, the percentile
// being the highest one with at least ten samples beyond it. Percentiles
// use the nearest-rank definition, so a reported value is always one of
// the measured samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile, q in (0, 1]: the sample at 1-based rank
/// ceil(q * n) of the sorted values. Throws std::invalid_argument when
/// empty or q is out of range.
double percentile(std::vector<double> samples, double q);

/// Number of samples strictly above the nearest-rank q-percentile's
/// rank: n - ceil(q * n). A percentile is reportable when this is at
/// least kTailSamples (p90 needs n >= 100).
std::size_t samples_beyond(std::size_t n, double q);

/// Mean of the sorted samples left after dropping floor(n / 4) from each
/// end (all of them when n < 4). Throws std::invalid_argument when
/// empty.
double interquartile_mean(std::vector<double> samples);

}  // namespace perfbench
