#include "sim/unsaturated.hpp"

#include <memory>
#include <string>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "mac/backoff.hpp"
#include "mac/station.hpp"
#include "medium/domain.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "workload/sources.hpp"

namespace plc::sim {

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

  // Poisson sources; the generated Ethernet frame is a placeholder (the
  // pure-MAC station only counts frames), arrivals and wake-ups are what
  // matter.
  std::vector<std::unique_ptr<workload::PoissonSource>> sources;
  for (int i = 0; i < spec.stations; ++i) {
    workload::FrameTemplate frame_template;
    frame_template.destination = frames::MacAddress::for_station(254);
    frame_template.source =
        frames::MacAddress::for_station(i + 1);
    mac::QueueStation* station = stations[static_cast<std::size_t>(i)].get();
    sources.push_back(std::make_unique<workload::PoissonSource>(
        scheduler, frame_template,
        [station, &domain](const frames::EthernetFrame&) {
          station->enqueue_frame();
          domain.notify_pending();
          return station->queue_depth();
        },
        spec.arrival_rate_fps,
        des::RandomStream(
            root.derive_seed("arrivals-" + std::to_string(i)))));
    sources.back()->start();
  }

  domain.start();
  scheduler.run_until(spec.duration);

  PoissonMacResult result;
  util::QuantileEstimator delays;
  util::RunningStats delay_stats;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    result.frames_generated += sources[i]->frames_generated();
    result.frames_delivered += stations[i]->stats().successes;
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
