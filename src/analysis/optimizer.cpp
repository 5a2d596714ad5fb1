#include "analysis/optimizer.hpp"

#include <algorithm>
#include <string>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::analysis {

std::vector<CandidateScore> rank_configurations(
    int n, const phy::TimingConfig& timing, des::SimTime frame_length,
    const std::vector<mac::BackoffConfig>& candidates) {
  util::check_arg(!candidates.empty(), "candidates", "must not be empty");
  std::vector<CandidateScore> scores;
  scores.reserve(candidates.size());
  for (const mac::BackoffConfig& config : candidates) {
    const Model1901Result model = solve_1901(n, config);
    CandidateScore score;
    score.config = config;
    score.throughput = model.normalized_throughput(timing, frame_length);
    score.collision_probability = model.gamma;
    scores.push_back(std::move(score));
  }
  std::stable_sort(scores.begin(), scores.end(),
                   [](const CandidateScore& a, const CandidateScore& b) {
                     return a.throughput > b.throughput;
                   });
  return scores;
}

std::vector<mac::BackoffConfig> default_candidate_pool() {
  std::vector<mac::BackoffConfig> pool;
  pool.push_back(mac::BackoffConfig::ca0_ca1());
  pool.push_back(mac::BackoffConfig::ca2_ca3());

  // Scaled Table 1 windows.
  for (const int scale : {2, 4, 8}) {
    mac::BackoffConfig config = mac::BackoffConfig::ca0_ca1();
    config.name = "CA1 x" + std::to_string(scale);
    for (int& w : config.cw) w *= scale;
    pool.push_back(std::move(config));
  }

  // Deferral variants on the default windows.
  {
    mac::BackoffConfig config = mac::BackoffConfig::ca0_ca1();
    config.name = "CA1 aggressive-dc";
    config.dc = {0, 0, 1, 3};
    pool.push_back(std::move(config));
  }
  {
    mac::BackoffConfig config = mac::BackoffConfig::ca0_ca1();
    config.name = "CA1 relaxed-dc";
    config.dc = {1, 3, 7, 31};
    pool.push_back(std::move(config));
  }
  {
    mac::BackoffConfig config = mac::BackoffConfig::ca0_ca1();
    config.name = "CA1 no-dc";
    config.dc.assign(config.dc.size(), mac::kDeferralDisabled);
    pool.push_back(std::move(config));
  }

  // Uniform windows with deferral disabled.
  for (const int w : {16, 32, 64, 128, 256, 512}) {
    mac::BackoffConfig config;
    config.name = "uniform-" + std::to_string(w);
    config.cw = {w};
    config.dc = {mac::kDeferralDisabled};
    pool.push_back(std::move(config));
  }
  return pool;
}

CandidateScore best_uniform_window(int n, const phy::TimingConfig& timing,
                                   des::SimTime frame_length,
                                   int max_window) {
  PROF_SCOPE("analysis.best_uniform_window");
  util::check_arg(max_window >= 2, "max_window", "must be >= 2");
  CandidateScore best;
  best.throughput = -1.0;
  for (int w = 2; w <= max_window; w = std::max(w + 1, w + w / 16)) {
    mac::BackoffConfig config;
    config.name = "uniform-" + std::to_string(w);
    config.cw = {w};
    config.dc = {mac::kDeferralDisabled};
    const Model1901Result model = solve_1901(n, config);
    const double throughput =
        model.normalized_throughput(timing, frame_length);
    if (throughput > best.throughput) {
      best.config = std::move(config);
      best.throughput = throughput;
      best.collision_probability = model.gamma;
    }
  }
  return best;
}

}  // namespace plc::analysis
