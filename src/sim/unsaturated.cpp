#include "sim/unsaturated.hpp"

#include <memory>
#include <string>
#include <utility>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "mac/backoff.hpp"
#include "mac/station.hpp"
#include "medium/domain.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace plc::sim {

PoissonArrivals::PoissonArrivals(des::Scheduler& scheduler,
                                 medium::ContentionDomain& domain,
                                 mac::QueueStation& station, double rate_fps,
                                 des::RandomStream rng)
    : scheduler_(scheduler),
      domain_(domain),
      station_(station),
      mean_gap_s_(1.0 / rate_fps),
      rng_(std::move(rng)) {
  util::check_arg(rate_fps > 0.0, "rate_fps", "must be positive");
}

void PoissonArrivals::start() { schedule_next(); }

void PoissonArrivals::schedule_next() {
  scheduler_.schedule(des::SimTime::from_seconds(rng_.exponential(mean_gap_s_)),
                      [this] { arrive(); });
}

void PoissonArrivals::arrive() {
  station_.enqueue_frame();
  domain_.notify_pending();
  ++arrivals_;
  schedule_next();
}

PoissonMacResult run_poisson_mac(const PoissonMacSpec& spec) {
  util::check_arg(spec.stations >= 1, "stations", "must be >= 1");
  util::check_arg(spec.arrival_rate_fps > 0.0, "arrival_rate_fps",
                  "must be positive");
  util::check_arg(spec.duration > des::SimTime::zero(), "duration",
                  "must be positive");
  spec.config.validate();

  des::Scheduler scheduler;
  medium::ContentionDomain domain(scheduler, spec.timing);
  des::RandomStream root(spec.seed);

  std::vector<std::unique_ptr<mac::QueueStation>> stations;
  stations.reserve(static_cast<std::size_t>(spec.stations));
  for (int i = 0; i < spec.stations; ++i) {
    stations.push_back(std::make_unique<mac::QueueStation>(
        std::make_unique<mac::Backoff1901>(
            spec.config,
            des::RandomStream(
                root.derive_seed("backoff-" + std::to_string(i)))),
        frames::Priority::kCa1, spec.frame_length, scheduler));
    domain.add_participant(*stations.back());
  }

  std::vector<std::unique_ptr<PoissonArrivals>> arrivals;
  for (int i = 0; i < spec.stations; ++i) {
    arrivals.push_back(std::make_unique<PoissonArrivals>(
        scheduler, domain, *stations[static_cast<std::size_t>(i)],
        spec.arrival_rate_fps,
        des::RandomStream(
            root.derive_seed("arrivals-" + std::to_string(i)))));
    arrivals.back()->start();
  }

  domain.start();
  scheduler.run_until(spec.duration);

  PoissonMacResult result;
  util::QuantileEstimator delays;
  util::RunningStats delay_stats;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    result.frames_generated += arrivals[i]->arrivals();
    // Completed exchanges: a success counts when its exchange starts, so
    // a frame in flight at the horizon is a success still in the queue.
    result.frames_delivered +=
        static_cast<std::int64_t>(stations[i]->delays().size());
    result.backlog_at_end += stations[i]->queue_depth();
    for (const des::SimTime delay : stations[i]->delays()) {
      delays.add(delay.seconds());
      delay_stats.add(delay.seconds());
    }
  }
  if (delays.count() > 0) {
    result.mean_delay_s = delay_stats.mean();
    result.p50_delay_s = delays.quantile(0.5);
    result.p99_delay_s = delays.quantile(0.99);
  }
  result.throughput_fps =
      static_cast<double>(result.frames_delivered) / spec.duration.seconds();
  result.collision_probability = domain.stats().collision_probability();
  return result;
}

}  // namespace plc::sim
