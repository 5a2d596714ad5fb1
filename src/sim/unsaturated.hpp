// Unsaturated MAC runs: N queueing stations with Poisson arrivals on the
// event-driven contention domain. The measured delays validate the
// analytical access-delay model (analysis/delay.hpp) and feed the
// delay-vs-load experiment (bench_ext_delay_vs_load).
#pragma once

#include <cstdint>
#include <vector>

#include "des/random.hpp"
#include "des/time.hpp"
#include "mac/config.hpp"
#include "phy/timing.hpp"

namespace plc::des {
class Scheduler;
}
namespace plc::mac {
class QueueStation;
}
namespace plc::medium {
class ContentionDomain;
}

namespace plc::sim {

/// Poisson frame arrivals at `rate_fps` (frames per second) into one
/// queueing station: each arrival enqueues a frame and wakes the domain.
/// Scheduled arrivals hold its address, so it neither copies nor moves.
class PoissonArrivals {
 public:
  PoissonArrivals(des::Scheduler& scheduler,
                  medium::ContentionDomain& domain,
                  mac::QueueStation& station, double rate_fps,
                  des::RandomStream rng);
  PoissonArrivals(const PoissonArrivals&) = delete;
  PoissonArrivals& operator=(const PoissonArrivals&) = delete;

  /// Schedules the first arrival.
  void start();

  std::int64_t arrivals() const { return arrivals_; }

 private:
  void schedule_next();
  void arrive();

  des::Scheduler& scheduler_;
  medium::ContentionDomain& domain_;
  mac::QueueStation& station_;
  double mean_gap_s_;
  des::RandomStream rng_;
  std::int64_t arrivals_ = 0;
};

/// Configuration of one unsaturated run.
struct PoissonMacSpec {
  int stations = 5;
  mac::BackoffConfig config = mac::BackoffConfig::ca0_ca1();
  phy::TimingConfig timing = phy::TimingConfig::paper_default();
  des::SimTime frame_length = des::SimTime::from_us(2050.0);
  /// Per-station Poisson arrival rate, frames per second.
  double arrival_rate_fps = 100.0;
  des::SimTime duration = des::SimTime::from_seconds(60.0);
  std::uint64_t seed = 0x90155;
};

/// Aggregated results.
struct PoissonMacResult {
  std::int64_t frames_generated = 0;
  /// Frames whose exchange completed: frames_generated equals this plus
  /// backlog_at_end.
  std::int64_t frames_delivered = 0;
  double mean_delay_s = 0.0;    ///< Arrival to successful transmission.
  double p50_delay_s = 0.0;
  double p99_delay_s = 0.0;
  double throughput_fps = 0.0;  ///< Delivered frames per second (total).
  std::size_t backlog_at_end = 0;
  double collision_probability = 0.0;
};

/// Runs the scenario and gathers per-frame delays.
PoissonMacResult run_poisson_mac(const PoissonMacSpec& spec);

}  // namespace plc::sim
