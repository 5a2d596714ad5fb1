// The single contention domain all stations share.
//
// The paper's testbed plugs every device into one power strip: one
// collision domain, ideal channel, globally aligned backoff slots. The
// domain therefore advances in *medium events*, each of which is exactly
// one of:
//   - an idle backoff slot (35.84 us; a run of them that nothing can
//     interrupt is dispatched as one idle gap),
//   - a successful exchange (one transmitter; costs burst payload time
//     plus the success overhead: priority resolution, preamble, RIFS,
//     SACK, CIFS),
//   - a collision (>= 2 transmitters; costs the longest burst payload
//     plus the collision overhead).
// This is the event structure of the paper's reference simulator, embedded
// in a discrete-event scheduler so that full-stack stations (bursting,
// MMEs, queues) and wall-clock timestamps work too.
//
// Priority resolution is logical: at each slot boundary the domain asks
// every station once which class it is pending at (Participant::pending),
// and only the stations at the highest class contend; the others'
// counters freeze.
// The airtime of the two PRS slots is part of the success/collision
// overheads, exactly as the paper folds them into Ts and Tc.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "des/scheduler.hpp"
#include "des/time.hpp"
#include "medium/beacon.hpp"
#include "medium/participant.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/timing.hpp"

namespace plc::medium {

/// What happened on the medium during one event.
enum class MediumEventType : std::uint8_t {
  kIdleSlot = 0,
  kSuccess = 1,
  kCollision = 2,
  kBeacon = 3,  ///< The coordinator's beacon region (hybrid mode).
};

/// A record of one busy medium event, delivered to observers (sniffer
/// taps, fairness traces, statistics).
struct MediumEventRecord {
  MediumEventType type = MediumEventType::kIdleSlot;
  des::SimTime start = des::SimTime::zero();
  des::SimTime duration = des::SimTime::zero();
  /// Participant ids of all transmitters in this event.
  std::vector<int> transmitters;
  /// SoF delimiters of every MPDU heard (all transmitters' bursts,
  /// concatenated in transmitter order). Delimiters survive collisions.
  std::vector<frames::SofDelimiter> sofs;
  frames::Priority priority = frames::Priority::kCa1;
  /// True when the success happened inside a TDMA allocation.
  bool contention_free = false;
};

/// Passive listener on the medium (sniffers, metrics).
class MediumObserver {
 public:
  virtual ~MediumObserver() = default;
  virtual void on_medium_event(const MediumEventRecord& record) = 0;
};

/// Aggregate statistics over the domain's lifetime.
struct DomainStats {
  std::int64_t idle_slots = 0;
  std::int64_t successes = 0;        ///< Successful exchange events.
  std::int64_t collision_events = 0; ///< Collision events.
  std::int64_t collided_tx = 0;      ///< Transmissions involved in
                                     ///< collisions (the MATLAB
                                     ///< `collisions += counter` count).
  std::int64_t success_mpdus = 0;    ///< MPDUs delivered in successes.
  std::int64_t collided_mpdus = 0;   ///< MPDUs lost to collisions.
  des::SimTime idle_time = des::SimTime::zero();
  des::SimTime success_time = des::SimTime::zero();
  des::SimTime collision_time = des::SimTime::zero();
  /// Payload-on-wire time inside successful exchanges (for normalized
  /// throughput, the paper's succ * frame_length / t).
  des::SimTime success_payload_time = des::SimTime::zero();

  // Hybrid (beacon-period) mode accounting.
  std::int64_t tdma_successes = 0;  ///< Contention-free exchanges.
  std::int64_t tdma_mpdus = 0;
  des::SimTime beacon_time = des::SimTime::zero();
  des::SimTime tdma_time = des::SimTime::zero();      ///< TDMA busy time.
  des::SimTime tdma_idle_time = des::SimTime::zero(); ///< Unused TDMA.
  /// CSMA time lost at region tails (an exchange would have crossed the
  /// boundary, so everyone deferred).
  des::SimTime boundary_wait_time = des::SimTime::zero();

  des::SimTime busy_time() const { return success_time + collision_time; }
  des::SimTime total_time() const {
    return idle_time + busy_time() + beacon_time + tdma_time +
           tdma_idle_time + boundary_wait_time;
  }

  /// The paper's collision-probability estimator sum(Ci)/sum(Ai) at the
  /// event level: collided_tx / (collided_tx + successes).
  double collision_probability() const;

  /// Normalized throughput: successful payload time / total time.
  double normalized_throughput() const;
};

/// The contention domain. Participants and observers are registered
/// non-owning; they must outlive the domain's run.
class ContentionDomain {
 public:
  ContentionDomain(des::Scheduler& scheduler, phy::TimingConfig timing);

  /// Registers a station; returns its participant id (dense, from 0).
  int add_participant(Participant& participant);

  /// Registers a passive observer.
  void add_observer(MediumObserver& observer);

  /// Enables hybrid beacon-period mode: the medium follows `schedule`'s
  /// recurring beacon/TDMA/CSMA layout. Call before start().
  void set_beacon_schedule(BeaconSchedule schedule);

  /// Begins operation: schedules the first slot at the current time.
  /// Call exactly once, before Scheduler::run_until.
  void start();

  /// Wakes the domain when a frame arrives at an idle station. Safe to
  /// call at any time, including re-entrantly from callbacks.
  void notify_pending();

  const DomainStats& stats() const { return stats_; }
  const phy::TimingConfig& timing() const { return timing_; }
  /// Medium events since start() (idle slots, exchanges and beacons:
  /// what medium.events counts); reset_stats() leaves it.
  std::int64_t medium_events() const { return medium_events_; }

  /// Registers the domain's counters into `registry` (event counts,
  /// airtime, MPDU outcomes, per-station tx outcomes labeled
  /// station=<participant id>). Call after every participant has been
  /// added; safe to call again to rebind.
  void bind_metrics(obs::Registry& registry);

  /// Installs a trace sink (non-owning; nullptr detaches): every medium
  /// event records a span — idle slots and beacons on the medium track,
  /// success/collision spans on the transmitting stations' tracks.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Resets the statistics counters (not the stations). Used by the
  /// testbed harness to discard warm-up transients, mirroring the
  /// paper's "reset the statistics at the beginning of each test".
  void reset_stats();

 private:
  void slot_boundary();
  /// Dispatches the idle gap that starts at this boundary, inside a CSMA
  /// region ending at `region_end`, for the contenders at `winning`.
  void idle_gap(des::SimTime region_end, frames::Priority winning);
  /// Completes the exchange in flight (transmitters in transmitter_ids_).
  void finish_exchange(bool success);
  /// Handles the TDMA region owned by `region.owner`; returns having
  /// scheduled the next step.
  void tdma_region(const BeaconSchedule::Region& region);
  void finish_tdma_exchange(int owner_id);
  void schedule_slot(des::SimTime delay);
  void emit_record(const MediumEventRecord& record);
  /// Observability taps of emit_record.
  void observe_event(MediumEventType type, des::SimTime start,
                     des::SimTime duration,
                     const std::vector<int>& transmitters, int mpdus);

  /// Pre-resolved registry instruments (indexed by MediumEventType).
  struct Metrics {
    obs::Counter* events[4] = {nullptr, nullptr, nullptr, nullptr};
    obs::Counter* airtime_ns[4] = {nullptr, nullptr, nullptr, nullptr};
    obs::Counter* success_mpdus = nullptr;
    obs::Counter* collided_mpdus = nullptr;
    std::vector<obs::Counter*> station_success;
    std::vector<obs::Counter*> station_collision;
  };

  des::Scheduler& scheduler_;
  phy::TimingConfig timing_;
  std::vector<Participant*> participants_;
  std::vector<MediumObserver*> observers_;
  std::optional<BeaconSchedule> schedule_;
  std::optional<Metrics> metrics_;
  obs::TraceSink* trace_ = nullptr;
  DomainStats stats_;
  bool started_ = false;
  bool sleeping_ = false;   ///< No backlogged station; waiting for work.
  std::int64_t medium_events_ = 0;

  // Per-boundary scratch, cleared at each boundary and reused, so a
  // boundary allocates nothing once the vectors have grown. No slot is
  // scheduled while an exchange is in flight (finish_exchange starts the
  // next one), so transmitter_ids_ doubles as the in-flight exchange's
  // transmitters until its completion event fires.
  std::vector<int> transmitter_ids_;
  std::vector<int> contender_ids_;
  /// Each participant's answer to this boundary's pending() (indexed by
  /// id). Nothing a boundary runs between the poll and its readers can
  /// change an answer: a poll_transmit, and the saturating host's refill
  /// it may run, fill only the polled station.
  std::vector<std::optional<frames::Priority>> pending_;
  /// One burst descriptor per participant (indexed by id), filled by its
  /// polls; a transmitter's entry holds its burst for the boundary.
  std::vector<TxDescriptor> descriptors_;
  MediumEventRecord busy_record_;
  bool exchange_in_flight_ = false;
};

}  // namespace plc::medium
