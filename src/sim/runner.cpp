#include "sim/runner.hpp"

#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>

#include "des/random.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace plc::sim {

Kernel kernel_from_name(std::string_view name) {
  if (name == "event" || name == "auto") return Kernel::kEvent;
  if (name == "slot") return Kernel::kSlot;
  throw Error("unknown kernel \"" + std::string(name) +
              "\" (want event or slot)");
}

std::string canonical_point_json(const RunSpec& spec) {
  // Seeds are 64-bit; JSON numbers are doubles and lose bits past 2^53,
  // so the seed serializes as a lossless hex string (same convention as
  // scenario::Spec::to_json).
  char seed_hex[24];
  std::snprintf(seed_hex, sizeof(seed_hex), "0x%llx",
                static_cast<unsigned long long>(spec.seed));

  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("mac").begin_object();
  // The def's canonical serializer emits result-determining parameters
  // only (cosmetic names excluded): two configs that simulate
  // identically must share a cache key.
  json.field("type", spec.mac.def().name);
  spec.mac.def().write_canonical_fields(json, spec.mac.config());
  json.end_object();
  json.field("stations", spec.stations);
  json.key("timing").begin_object();
  json.field("slot_ns", spec.timing.slot.ns());
  json.field("success_overhead_ns", spec.timing.success_overhead.ns());
  json.field("collision_overhead_ns", spec.timing.collision_overhead.ns());
  json.field("burst_gap_ns", spec.timing.burst_gap.ns());
  json.end_object();
  json.field("frame_length_ns", spec.frame_length.ns());
  json.field("duration_ns", spec.duration.ns());
  json.field("seed", seed_hex);
  json.end_object();
  return out.str();
}

SlotSimulator make_simulator(const RunSpec& spec, int repetition) {
  util::check_arg(spec.stations >= 1, "stations", "must be >= 1");
  des::RandomStream root(spec.seed);
  const std::uint64_t rep_seed =
      root.derive_seed("rep-" + std::to_string(repetition));
  // Same stream fan-out as the entity factories the slot path always
  // used (and as EventKernel): one derived "station-<i>" stream per
  // station, handed to the def's entity factory in ascending order.
  des::RandomStream rep_root(rep_seed);
  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.reserve(static_cast<std::size_t>(spec.stations));
  for (int i = 0; i < spec.stations; ++i) {
    des::RandomStream stream(
        rep_root.derive_seed("station-" + std::to_string(i)));
    entities.push_back(
        spec.mac.def().make_entity(spec.mac.config(), i, std::move(stream)));
  }
  return SlotSimulator(std::move(entities), spec.timing, spec.frame_length);
}

EventKernel make_event_kernel(const RunSpec& spec, int repetition) {
  util::check_arg(spec.stations >= 1, "stations", "must be >= 1");
  des::RandomStream root(spec.seed);
  const std::uint64_t rep_seed =
      root.derive_seed("rep-" + std::to_string(repetition));
  return EventKernel(spec.mac, spec.stations, spec.timing, spec.frame_length,
                     rep_seed);
}

}  // namespace plc::sim
