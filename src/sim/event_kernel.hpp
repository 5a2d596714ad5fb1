// The event-driven contention kernel: the slot simulator's exact
// semantics without ticking empty slots.
//
// While every station is merely counting down backoff, the medium is
// idle and nothing observable happens until the smallest BC reaches
// zero. The length of that gap is computable in O(stations), so this
// kernel keeps the per-station FSM state in SoA lanes (BC/DC/BPC/stage
// plus the per-station RNG streams), scans for the minimum BC each
// iteration, advances virtual time by the whole gap in one step, and
// then resolves the attempt — success, or a collision of every expired
// station.
//
// The per-station transition rules live in the MAC's registered
// mac::EventMac (see macdef/registry.hpp): the kernel owns the lanes
// and the event loop, the EventMac owns what a success, collision or
// sensed-busy event does to one station's counters. The kernel itself
// applies only the one transition the ABI fixes for every MAC — an
// idle slot decrements every BC by one — which is what lets it batch
// whole idle gaps as `bc -= gap`.
//
// Per-station RNG streams are derived with the same labels as the slot
// path's entity factories and consumed by the same transitions in the
// same station-ascending order, so every draw — and therefore every
// counter, metric and winner sequence — is bit-identical to
// SlotSimulator's on the same seed. Tests pin this down; the
// kernel-equivalence CI job holds it across the whole scenario
// registry.
//
// Observers attach through SlotSimulator's surface and get its bytes:
// busy events reach sim::MediumObservers after their transitions, and
// an observed idle gap is walked slot by slot (only BC moves inside a
// gap, so slot k's state is the gap's start with `bc - (k + 1)`).
// Stage tallies are read off the lanes before each transition. All of
// it sits behind one branch into out-of-line code.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/time.hpp"
#include "macdef/registry.hpp"
#include "obs/metrics.hpp"
#include "phy/timing.hpp"
#include "sim/medium_observers.hpp"
#include "sim/slot_simulator.hpp"

namespace plc::sim {

/// Event-driven twin of SlotSimulator (same results type, same metric
/// names, same RNG discipline). One homogeneous MAC per run, exactly
/// like the slot path; any registered MacDef works (the implicit
/// MacSpec constructors keep `EventKernel(config, ...)` call sites
/// with concrete BackoffConfig / DcfConfig arguments compiling).
class EventKernel {
 public:
  /// N stations running `mac`; per-station streams derive from `seed`
  /// with the "station-<i>" labels, all before any station's initial
  /// state is drawn.
  EventKernel(const mac::MacSpec& mac, int stations,
              const phy::TimingConfig& timing, des::SimTime frame_length,
              std::uint64_t seed);

  /// SlotSimulator's observer surface, with the same output bytes (idle
  /// counters are batch-added per gap).
  void bind_metrics(obs::Registry& registry);
  void set_trace(obs::TraceSink* sink, bool counter_samples = false);
  void attach_observatory(obs::Observatory* observatory);
  void flush_observatory();
  int max_stage_count() const { return mac_->stage_count(); }

  /// When enabled, results keep the ordered list of winning station ids.
  void enable_winner_trace(bool enable) { record_winners_ = enable; }

  /// Runs until simulated time reaches `duration` (cumulative across
  /// calls, like SlotSimulator::run — the final event may overshoot).
  SlotSimResults run(des::SimTime duration);

  /// Runs until `max_events` medium events have elapsed. Each batched
  /// idle slot counts as one medium event, matching the slot path.
  SlotSimResults run_events(std::int64_t max_events);

  int station_count() const { return static_cast<int>(lanes_.size()); }

  /// FSM introspection for tests (mirrors mac::BackoffEntity accessors).
  int backoff_counter(int station) const;
  int deferral_counter(int station) const;
  /// 1901: BPC. DCF: the retry count (same role in the stage ladder).
  int backoff_procedure_counter(int station) const;
  int stage(int station) const;

  const std::vector<int>& winners() const { return winners_; }

 private:
  /// `slots` idle slots at once (requires slots <= min BC).
  void advance_idle(std::int64_t slots);
  /// Resolves the attempt event at the current time (some BC == 0).
  void attempt();
  std::int64_t min_backoff() const;
  void check_station(int station) const;

  // Observed runs only; out of line, so the bare loop stays as it was.
  /// Feeds the `slots`-slot idle gap starting now, slot by slot.
  [[gnu::noinline]] void observe_gap(std::int64_t slots);
  /// Tallies the attempt about to resolve at each station's stage.
  [[gnu::noinline]] void tally_attempt(bool success);
  [[gnu::noinline]] void observe_attempt(SlotEventType type,
                                         des::SimTime duration);
  /// Station `station`'s state `idle_slots` slots into the current gap.
  obs::StationState state_of(int station, int idle_slots) const;

  std::unique_ptr<mac::EventMac> mac_;
  mac::EventLanes lanes_;

  des::SimTime slot_ = des::SimTime::zero();
  des::SimTime ts_ = des::SimTime::zero();
  des::SimTime tc_ = des::SimTime::zero();

  MediumObservers observers_;
  bool record_winners_ = false;
  std::vector<int> winners_;
  SlotSimResults results_;
  des::SimTime now_ = des::SimTime::zero();
  std::vector<int> scratch_transmitters_;
};

}  // namespace plc::sim
