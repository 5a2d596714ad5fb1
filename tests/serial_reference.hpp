// An independent serial reference for the engine's determinism tests:
// the repetition loop written out directly on make_simulator, with one
// registry, one trace sink and one observatory per repetition bound
// straight into the slot-stepped oracle — no pool, no per-task
// registries, no trace splice, no store, and always the oracle. Whatever
// sim::ParallelRunner produces for any jobs count and either kernel must
// equal this, so the runner's event-kernel observers are checked against
// slot-stepped ones.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "util/math.hpp"

namespace plc {

inline sim::RunSummary serial_reference(
    const sim::RunSpec& spec, obs::Registry* registry = nullptr,
    obs::TraceSink* trace = nullptr,
    const obs::ObservatoryOptions* observatory = nullptr) {
  sim::RunSummary summary;
  for (int rep = 0; rep < spec.repetitions; ++rep) {
    sim::SlotSimulator simulator = sim::make_simulator(spec, rep);
    std::optional<obs::Observatory> stations;
    if (observatory != nullptr) {
      obs::ObservatoryOptions options = *observatory;
      if (rep > 0) options.trajectory_capacity = 0;
      stations.emplace(simulator.station_count(), simulator.max_stage_count(),
                       options);
      simulator.attach_observatory(&*stations);
    }
    if (registry != nullptr) simulator.bind_metrics(*registry);
    if (trace != nullptr && rep == 0) simulator.set_trace(trace, false);
    const sim::SlotSimResults results = simulator.run(spec.duration);
    if (stations) {
      simulator.flush_observatory();
      if (!summary.stations) summary.stations.emplace();
      summary.stations->merge(stations->summarize());
    }
    summary.medium_events +=
        results.idle_slots + results.successes + results.collision_events;
    summary.simulated = summary.simulated + results.elapsed;
    summary.collision_probability.add(results.collision_probability());
    summary.normalized_throughput.add(
        results.normalized_throughput(spec.frame_length));
    std::vector<double> shares;
    for (const std::int64_t s : results.tx_success) {
      shares.push_back(static_cast<double>(s));
    }
    summary.jain_index.add(util::jain_index(shares));
  }
  return summary;
}

}  // namespace plc
