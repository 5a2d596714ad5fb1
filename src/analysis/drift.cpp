#include "analysis/drift.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/model_1901.hpp"
#include "util/error.hpp"

namespace plc::analysis {

namespace {

/// Per-stage alpha_i and transition rates at a given busy probability.
struct StageRates {
  std::vector<double> alpha;  ///< Attempts per event while at stage i.
  std::vector<double> up;     ///< Rate of moving to the next stage.
  std::vector<double> reset;  ///< Rate of resetting to stage 0 (success).
};

StageRates stage_rates(const mac::BackoffConfig& config, double p) {
  const int m = config.stage_count();
  StageRates rates;
  rates.alpha.resize(static_cast<std::size_t>(m));
  rates.up.resize(static_cast<std::size_t>(m));
  rates.reset.resize(static_cast<std::size_t>(m));
  const double gamma = p;
  for (int i = 0; i < m; ++i) {
    const StageRow row = stage_row(config.cw[static_cast<std::size_t>(i)],
                                   config.dc[static_cast<std::size_t>(i)], p);
    const double x = row.attempt_probability;
    const double s = row.expected_countdown;
    const double v = std::max(s + x, 1e-12);
    rates.alpha[static_cast<std::size_t>(i)] = x / v;
    rates.up[static_cast<std::size_t>(i)] =
        ((1.0 - x) + x * gamma) / v;
    rates.reset[static_cast<std::size_t>(i)] = x * (1.0 - gamma) / v;
  }
  return rates;
}

/// Busy probability seen by a tagged station given the occupancy of the
/// *other* N-1 stations (we scale the occupancy by (N-1)/N to exclude the
/// tagged station's own share).
double busy_from_occupancy(const std::vector<double>& occupancy, int n,
                           const std::vector<double>& alpha) {
  if (n <= 1) return 0.0;
  const double exclusion =
      static_cast<double>(n - 1) / static_cast<double>(n);
  double log_idle = 0.0;
  for (std::size_t i = 0; i < occupancy.size(); ++i) {
    const double a = std::min(alpha[i], 1.0 - 1e-15);
    log_idle += occupancy[i] * exclusion * std::log1p(-a);
  }
  return 1.0 - std::exp(log_idle);
}

void fill_event_probabilities(DriftResult& result, int n) {
  // P(idle) and P(success) under independent per-station attempts with
  // occupancy-weighted heterogeneous alphas.
  double log_idle = 0.0;
  double success_sum = 0.0;
  for (std::size_t i = 0; i < result.occupancy.size(); ++i) {
    const double a = std::min(result.alpha[i], 1.0 - 1e-15);
    log_idle += result.occupancy[i] * std::log1p(-a);
    success_sum += result.occupancy[i] * a / (1.0 - a);
  }
  (void)n;
  result.p_idle = std::exp(log_idle);
  result.p_success = result.p_idle * success_sum;
  result.p_collision =
      std::max(0.0, 1.0 - result.p_idle - result.p_success);
}

}  // namespace

DriftResult solve_drift(int n, const mac::BackoffConfig& config,
                        int max_iterations, double damping,
                        double tolerance) {
  util::check_arg(n >= 1, "n", "need at least one station");
  util::check_arg(damping > 0.0 && damping <= 1.0, "damping",
                  "must be in (0, 1]");
  config.validate();
  const int m = config.stage_count();

  DriftResult result;
  // Start with everyone at stage 0.
  result.occupancy.assign(static_cast<std::size_t>(m), 0.0);
  result.occupancy[0] = static_cast<double>(n);

  double p = 0.0;
  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const StageRates rates = stage_rates(config, p);
    // Equilibrium occupancy for fixed rates: the single-station chain's
    // time-stationary distribution, scaled by N. Solve by following the
    // flow: pi_i proportional to expected events spent at stage i per
    // renewal cycle.
    std::vector<double> weight(static_cast<std::size_t>(m), 0.0);
    double entering = 1.0;
    double total = 0.0;
    for (int i = 0; i < m; ++i) {
      const double leave_reset = rates.reset[static_cast<std::size_t>(i)];
      const double leave_up = rates.up[static_cast<std::size_t>(i)];
      const double leave = std::max(leave_reset + leave_up, 1e-300);
      double expected_visits_events;
      if (i + 1 < m) {
        expected_visits_events = entering / leave;
        entering *= leave_up / leave;
      } else {
        // Last stage: re-entering it on "up" keeps the station there, so
        // the only true exit is reset.
        expected_visits_events =
            entering / std::max(leave_reset, 1e-300);
      }
      weight[static_cast<std::size_t>(i)] = expected_visits_events;
      total += expected_visits_events;
    }

    std::vector<double> target(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      target[static_cast<std::size_t>(i)] =
          static_cast<double>(n) * weight[static_cast<std::size_t>(i)] /
          total;
    }

    double delta = 0.0;
    for (int i = 0; i < m; ++i) {
      const double updated =
          (1.0 - damping) * result.occupancy[static_cast<std::size_t>(i)] +
          damping * target[static_cast<std::size_t>(i)];
      delta += std::abs(updated -
                        result.occupancy[static_cast<std::size_t>(i)]);
      result.occupancy[static_cast<std::size_t>(i)] = updated;
    }
    const double p_new =
        busy_from_occupancy(result.occupancy, n, rates.alpha);
    delta += std::abs(p_new - p);
    p = (1.0 - damping) * p + damping * p_new;

    result.iterations = iteration + 1;
    if (delta < tolerance) {
      result.converged = true;
      break;
    }
  }

  const StageRates rates = stage_rates(config, p);
  result.alpha = rates.alpha;
  result.busy_probability = p;
  result.gamma = p;
  fill_event_probabilities(result, n);
  return result;
}

std::vector<DriftState> drift_trajectory(
    int n, const mac::BackoffConfig& config,
    const std::vector<double>& initial_occupancy, int steps, double dt) {
  util::check_arg(n >= 1, "n", "need at least one station");
  config.validate();
  const int m = config.stage_count();
  util::check_arg(static_cast<int>(initial_occupancy.size()) == m,
                  "initial_occupancy", "needs one entry per stage");
  double sum = 0.0;
  for (const double v : initial_occupancy) {
    util::check_arg(v >= 0.0, "initial_occupancy",
                    "entries must be non-negative");
    sum += v;
  }
  util::check_arg(std::abs(sum - static_cast<double>(n)) < 1e-6,
                  "initial_occupancy", "must sum to N");
  util::check_arg(steps >= 1, "steps", "must be >= 1");
  util::check_arg(dt > 0.0, "dt", "must be positive");

  std::vector<DriftState> trajectory;
  trajectory.reserve(static_cast<std::size_t>(steps) + 1);
  std::vector<double> occupancy = initial_occupancy;

  for (int step = 0; step <= steps; ++step) {
    StageRates rates = stage_rates(
        config, 0.0);  // placeholder; recomputed below with proper p
    double p = busy_from_occupancy(occupancy, n, rates.alpha);
    rates = stage_rates(config, p);
    p = busy_from_occupancy(occupancy, n, rates.alpha);

    DriftState state;
    state.time_events = static_cast<double>(step) * dt;
    state.occupancy = occupancy;
    state.busy_probability = p;
    trajectory.push_back(state);
    if (step == steps) break;

    // Euler step on the expected flows.
    std::vector<double> flow(static_cast<std::size_t>(m), 0.0);
    for (int i = 0; i < m; ++i) {
      const double here = occupancy[static_cast<std::size_t>(i)];
      const double up = rates.up[static_cast<std::size_t>(i)] * here;
      const double reset = rates.reset[static_cast<std::size_t>(i)] * here;
      flow[static_cast<std::size_t>(i)] -= reset;
      flow[0] += reset;
      if (i + 1 < m) {
        flow[static_cast<std::size_t>(i)] -= up;
        flow[static_cast<std::size_t>(i + 1)] += up;
      }
      // At the last stage, "up" re-enters the same stage: no net flow.
    }
    for (int i = 0; i < m; ++i) {
      occupancy[static_cast<std::size_t>(i)] = std::max(
          0.0, occupancy[static_cast<std::size_t>(i)] +
                   dt * flow[static_cast<std::size_t>(i)]);
    }
  }
  return trajectory;
}

double DriftResult::normalized_throughput(const phy::TimingConfig& timing,
                                          des::SimTime frame_length) const {
  const double expected_event_us = p_idle * timing.slot.us() +
                                   p_success * timing.ts(frame_length).us() +
                                   p_collision * timing.tc(frame_length).us();
  if (expected_event_us <= 0.0) return 0.0;
  return p_success * frame_length.us() / expected_event_us;
}

}  // namespace plc::analysis
