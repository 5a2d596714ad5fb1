// The slot-level MAC simulator: a faithful C++ port of the paper's
// finite-state-machine simulator (§4.2), generalized to arbitrary
// BackoffEntity implementations so the same event loop drives 1901,
// 802.11 DCF, and any tuned configuration.
//
// Model (identical to the reference MATLAB code):
//   - N saturated stations in one contention domain, ideal channel,
//     infinite retry limit;
//   - time advances per medium event: idle slot (`slot`), success (Ts),
//     collision (Tc);
//   - outputs: normalized throughput succ * frame_length / t, and the
//     collision probability collisions / (collisions + successes) where a
//     collision of k stations contributes k (the per-MPDU firmware
//     counting of §3.2).
//
// This simulator deliberately bypasses the discrete-event scheduler — it
// is a tight loop used for long statistical runs and for cross-validating
// the event-driven ContentionDomain (tests assert the two agree).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "des/time.hpp"
#include "mac/backoff.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/timing.hpp"
#include "sim/medium_observers.hpp"

namespace plc::dcf {
struct DcfConfig;
}

namespace plc::sim {

/// A medium event, exposed to trace observers (Figure 1 reproductions,
/// fairness traces).
struct SlotEvent {
  SlotEventType type = SlotEventType::kIdle;
  des::SimTime start = des::SimTime::zero();
  des::SimTime duration = des::SimTime::zero();
  /// Stations that transmitted in this event (empty for idle slots).
  std::vector<int> transmitters;
};

/// Aggregate results of a run.
struct SlotSimResults {
  std::int64_t idle_slots = 0;
  std::int64_t successes = 0;
  std::int64_t collision_events = 0;
  /// MATLAB `collisions`: transmissions involved in collisions.
  std::int64_t collided_tx = 0;
  des::SimTime elapsed = des::SimTime::zero();

  /// Per-station counters.
  std::vector<std::int64_t> tx_success;
  std::vector<std::int64_t> tx_collision;

  /// collisions / (collisions + successes), the paper's estimator.
  double collision_probability() const;
  /// successes * frame_length / elapsed.
  double normalized_throughput(des::SimTime frame_length) const;
};

/// The paper's frame duration (2050 us), used throughout as the default.
inline des::SimTime default_frame_length() {
  return des::SimTime::from_ns(2'050'000);
}

/// The generalized slot simulator. The medium-event timing triple
/// (slot / Ts / Tc, Table 3) is resolved once at construction from a
/// `phy::TimingConfig` and the frame duration — with the defaults this
/// reproduces the paper's Ts = 2542.64 us, Tc = 2920.64 us exactly.
class SlotSimulator {
 public:
  /// Takes ownership of one backoff entity per station (all saturated).
  explicit SlotSimulator(
      std::vector<std::unique_ptr<mac::BackoffEntity>> entities,
      const phy::TimingConfig& timing = phy::TimingConfig::paper_default(),
      des::SimTime frame_length = default_frame_length());

  /// Installs a per-event observer (may be called millions of times; keep
  /// it cheap). Entities are observable through entity() during the call.
  void set_observer(std::function<void(const SlotEvent&)> observer);

  /// When enabled, results keep the ordered list of winning station ids —
  /// the input to short-term fairness analysis (§3.3 / [4]).
  void enable_winner_trace(bool enable) { record_winners_ = enable; }

  /// Registers this simulator's counters into `registry` (event counts,
  /// airtime, and per-station tx outcomes labeled station=<id>). The
  /// hot-path cost is a handful of pre-resolved integer adds per event;
  /// with no registry bound the cost is one branch.
  void bind_metrics(obs::Registry& registry);

  /// Installs a trace sink (non-owning; nullptr detaches). Every medium
  /// event records a span — idle slots on the medium track, success and
  /// collision spans on the transmitting stations' tracks. When
  /// `counter_samples` is set, each event additionally samples every
  /// station's BC/DC/BPC as counter series (heavier; ring-bounded).
  void set_trace(obs::TraceSink* sink, bool counter_samples = false);

  /// Attaches a MAC-state observatory (non-owning; nullptr detaches):
  /// binds per-stage transition tallies into every entity and feeds the
  /// observatory one call per medium event plus stride-downsampled
  /// trajectory snapshots. Detached, the hot-path cost is one branch per
  /// event (plus one per entity event inside the tally hook).
  void attach_observatory(obs::Observatory* observatory);

  /// Folds the accumulated per-station tallies into the attached
  /// observatory and zeroes them. Call once after run()/run_events(),
  /// before Observatory::summarize().
  void flush_observatory();

  /// The widest stage_count() over all entities — the tally row count an
  /// attached observatory must allocate.
  int max_stage_count() const;

  /// Runs until simulated time reaches `duration`.
  SlotSimResults run(des::SimTime duration);

  /// Runs until `max_events` medium events have elapsed.
  SlotSimResults run_events(std::int64_t max_events);

  int station_count() const { return static_cast<int>(entities_.size()); }
  const mac::BackoffEntity& entity(int station) const;

  /// Winner ids recorded when the winner trace is enabled (one per
  /// success, in order).
  const std::vector<int>& winners() const { return winners_; }

 private:
  /// Advances one medium event; returns its type.
  SlotEventType step();

  std::vector<std::unique_ptr<mac::BackoffEntity>> entities_;
  /// Medium-event durations resolved from the TimingConfig + frame.
  des::SimTime slot_ = des::SimTime::zero();
  des::SimTime ts_ = des::SimTime::zero();
  des::SimTime tc_ = des::SimTime::zero();
  std::function<void(const SlotEvent&)> observer_;
  MediumObservers observers_;
  bool record_winners_ = false;
  std::vector<int> winners_;
  SlotSimResults results_;
  des::SimTime now_ = des::SimTime::zero();
  std::vector<int> scratch_transmitters_;
};

/// Convenience: builds N identical 1901 entities with per-station derived
/// RNG streams.
std::vector<std::unique_ptr<mac::BackoffEntity>> make_1901_entities(
    int n, const mac::BackoffConfig& config, std::uint64_t seed);

/// Convenience: builds N identical DCF entities.
std::vector<std::unique_ptr<mac::BackoffEntity>> make_dcf_entities(
    int n, int cw_min, int cw_max, std::uint64_t seed);

/// Same, from a dcf::DcfConfig description.
std::vector<std::unique_ptr<mac::BackoffEntity>> make_dcf_entities(
    int n, const dcf::DcfConfig& config, std::uint64_t seed);

}  // namespace plc::sim
