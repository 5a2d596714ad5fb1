#include "analysis/model_1901.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/profiler.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace plc::analysis {

namespace {

/// log(n!) for n below this bound is read from a table. The bound covers
/// every window the registry uses and every window best_uniform_window's
/// scan reaches (max_window = 4096).
constexpr int kLogFactorialTableSize = 4096;

/// util::log_factorial(n) for n < kLogFactorialTableSize, built once per
/// process (a function-local static, so the first use is thread-safe).
const std::array<double, kLogFactorialTableSize>& log_factorial_table() {
  static const std::array<double, kLogFactorialTableSize> table = [] {
    std::array<double, kLogFactorialTableSize> values{};
    for (int i = 0; i < kLogFactorialTableSize; ++i) {
      values[static_cast<std::size_t>(i)] = util::log_factorial(i);
    }
    return values;
  }();
  return table;
}

}  // namespace

StageRow stage_row(int cw, int dc, double p) {
  util::check_arg(cw >= 1, "cw", "must be >= 1");
  util::check_arg(dc >= 0, "dc", "must be >= 0");
  util::check_arg(p >= 0.0 && p <= 1.0, "p", "must be in [0, 1]");
  // The row c_b = P(Bin(b, p) <= dc), b < CW. The station attempts iff
  // fewer than dc+1 of its b countdown events are busy, so
  //   x = (1/CW) * sum_{b=0}^{CW-1} c_b.
  // Countdown events consumed for initial draw b: min(b, T) where T is
  // the index of the (dc+1)-th busy event. E[min(b, T)] telescopes to
  // sum_{k=0}^{b-1} P(T > k) = sum_{k=0}^{b-1} c_k. Averaging over
  // b ~ U{0..CW-1} and swapping sums:
  //   S = (1/CW) * sum_{b=0}^{CW-2} (CW-1-b) * c_b.
  // Each c_b is util::binomial_cdf(b, dc, p) with the same operations in
  // the same order, so the sums keep their bits; only log p, log1p(-p)
  // and the log-factorials are taken once instead of once per pmf.
  const bool interior = p > 0.0 && p < 1.0;
  const double log_p = interior ? std::log(p) : 0.0;
  const double log_q = interior ? std::log1p(-p) : 0.0;
  // log(n!), bit for bit util::log_factorial(n): from the table below
  // its bound, computed directly above it, so memory stays bounded
  // whatever CW a spec asks for.
  const auto& table = log_factorial_table();
  const auto log_factorial = [&table](int n) {
    return n < kLogFactorialTableSize ? table[static_cast<std::size_t>(n)]
                                      : util::log_factorial(n);
  };
  // P(Bin(b, p) == j) for 0 <= j <= b, as util::binomial_pmf has it.
  const auto pmf = [&](int b, double log_b_factorial, int j) {
    if (p == 0.0) return j == 0 ? 1.0 : 0.0;
    if (p == 1.0) return j == b ? 1.0 : 0.0;
    const double log_coefficient =
        (log_b_factorial - log_factorial(j)) - log_factorial(b - j);
    return std::exp(log_coefficient + static_cast<double>(j) * log_p +
                    static_cast<double>(b - j) * log_q);
  };
  double attempt_sum = 0.0;
  double countdown_sum = 0.0;
  for (int b = 0; b < cw; ++b) {
    double cdf = 1.0;
    if (dc < b) {
      const double log_b_factorial = log_factorial(b);
      double sum = 0.0;
      for (int j = 0; j <= dc; ++j) sum += pmf(b, log_b_factorial, j);
      cdf = sum > 1.0 ? 1.0 : sum;
    }
    attempt_sum += cdf;
    if (b + 1 < cw) {
      countdown_sum += static_cast<double>(cw - 1 - b) * cdf;
    }
  }
  return {attempt_sum / static_cast<double>(cw),
          countdown_sum / static_cast<double>(cw)};
}

namespace {

/// tau as a function of the busy probability p, via the renewal cycle
/// over backoff stages.
double tau_given_busy(const mac::BackoffConfig& config, double p,
                      std::vector<StageMetrics>* stages_out) {
  const int m = config.stage_count();
  std::vector<double> x(static_cast<std::size_t>(m));
  std::vector<double> s(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    const StageRow row = stage_row(config.cw[static_cast<std::size_t>(i)],
                                   config.dc[static_cast<std::size_t>(i)], p);
    x[static_cast<std::size_t>(i)] = row.attempt_probability;
    s[static_cast<std::size_t>(i)] = row.expected_countdown;
  }
  const double gamma = p;

  double attempts = 0.0;
  double events = 0.0;
  std::vector<double> visits(static_cast<std::size_t>(m), 0.0);
  double entering = 1.0;  // Probability flow entering stage i per cycle.
  for (int i = 0; i + 1 < m; ++i) {
    visits[static_cast<std::size_t>(i)] = entering;
    attempts += entering * x[static_cast<std::size_t>(i)];
    events += entering * (s[static_cast<std::size_t>(i)] +
                          x[static_cast<std::size_t>(i)]);
    entering *= 1.0 - x[static_cast<std::size_t>(i)] * (1.0 - gamma);
  }
  // Last stage self-loops until the frame finally succeeds.
  const double x_last = x[static_cast<std::size_t>(m - 1)];
  const double s_last = s[static_cast<std::size_t>(m - 1)];
  const double leave = x_last * (1.0 - gamma);
  if (leave < 1e-12) {
    // The cycle is dominated by the last stage's self-loop; the ratio
    // converges to the last stage's attempts-per-event.
    if (stages_out != nullptr) {
      stages_out->resize(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) {
        auto& stage = (*stages_out)[static_cast<std::size_t>(i)];
        stage.attempt_probability = x[static_cast<std::size_t>(i)];
        stage.expected_countdown = s[static_cast<std::size_t>(i)];
        stage.expected_visits = i + 1 == m ? 1.0 : 0.0;
      }
    }
    return x_last / (s_last + x_last);
  }
  const double last_visits = entering / leave;
  visits[static_cast<std::size_t>(m - 1)] = last_visits;
  attempts += last_visits * x[static_cast<std::size_t>(m - 1)];
  events += last_visits * (s[static_cast<std::size_t>(m - 1)] +
                           x[static_cast<std::size_t>(m - 1)]);

  if (stages_out != nullptr) {
    stages_out->resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      auto& stage = (*stages_out)[static_cast<std::size_t>(i)];
      stage.attempt_probability = x[static_cast<std::size_t>(i)];
      stage.expected_countdown = s[static_cast<std::size_t>(i)];
      stage.expected_visits = visits[static_cast<std::size_t>(i)];
    }
  }
  return attempts / events;
}

}  // namespace

Model1901Result solve_1901(int n, const mac::BackoffConfig& config) {
  util::check_arg(n >= 1, "n", "need at least one station");
  return solve_1901_continuous(static_cast<double>(n), config);
}

Model1901Result solve_1901_continuous(double n,
                                      const mac::BackoffConfig& config) {
  PROF_SCOPE("analysis.model_1901");
  util::check_arg(n >= 1.0, "n_effective", "must be >= 1");
  config.validate();

  Model1901Result result;
  if (n == 1.0) {
    // Alone on the medium: never busy, stage 0 only.
    result.tau = tau_given_busy(config, 0.0, &result.stages);
    result.gamma = 0.0;
    result.busy_probability = 0.0;
  } else {
    const auto busy_of_tau = [n](double tau) {
      return 1.0 - std::pow(1.0 - tau, n - 1);
    };
    const auto g = [&](double tau) {
      return tau_given_busy(config, busy_of_tau(tau), nullptr) - tau;
    };
    const double tau =
        util::bisect(g, 1e-12, 1.0 - 1e-12, 1e-14, 200);
    result.tau = tau;
    result.busy_probability = busy_of_tau(tau);
    result.gamma = result.busy_probability;
    tau_given_busy(config, result.busy_probability, &result.stages);
  }

  const double tau = result.tau;
  result.p_idle = std::pow(1.0 - tau, n);
  result.p_success =
      static_cast<double>(n) * tau * std::pow(1.0 - tau, n - 1);
  result.p_collision =
      std::max(0.0, 1.0 - result.p_idle - result.p_success);
  return result;
}

double Model1901Result::normalized_throughput(
    const phy::TimingConfig& timing, des::SimTime frame_length) const {
  const double expected_event_us = p_idle * timing.slot.us() +
                                   p_success * timing.ts(frame_length).us() +
                                   p_collision * timing.tc(frame_length).us();
  if (expected_event_us <= 0.0) return 0.0;
  return p_success * frame_length.us() / expected_event_us;
}

double Model1901Result::success_rate_per_second(
    const phy::TimingConfig& timing, des::SimTime frame_length) const {
  const double expected_event_s =
      p_idle * timing.slot.seconds() +
      p_success * timing.ts(frame_length).seconds() +
      p_collision * timing.tc(frame_length).seconds();
  if (expected_event_s <= 0.0) return 0.0;
  return p_success / expected_event_s;
}

}  // namespace plc::analysis
