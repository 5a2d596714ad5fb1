// Pure-MAC stations: minimal Participant implementations carrying no real
// payload, used for MAC-level studies (collision probability, throughput,
// fairness) where only the contention process matters — the regime of the
// paper's simulator. The full-stack HomePlug AV station (aggregation
// queues, firmware counters, MMEs) lives in emu/.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "des/scheduler.hpp"
#include "des/time.hpp"
#include "mac/backoff.hpp"
#include "medium/participant.hpp"

namespace plc::mac {

/// Per-station MAC statistics.
struct StationStats {
  std::int64_t tx_attempts = 0;   ///< Bursts put on the wire.
  std::int64_t successes = 0;     ///< Bursts delivered.
  std::int64_t collisions = 0;    ///< Bursts collided.
  std::int64_t drops = 0;         ///< Frames discarded at the retry limit.
  std::int64_t idle_slots = 0;    ///< Idle slots counted down.
  std::int64_t busy_events = 0;   ///< Busy events sensed (not own tx).
  std::int64_t deferral_jumps = 0;///< Stage changes caused by DC expiry.

  /// The per-station collision probability Ci / Ai with Ai counting
  /// acknowledged-including-collided transmissions (paper §3.2).
  double collision_probability() const {
    return tx_attempts == 0
               ? 0.0
               : static_cast<double>(collisions) /
                     static_cast<double>(tx_attempts);
  }
};

/// A station that always has a frame to send (the paper's saturated
/// assumption) at a fixed priority, with a fixed burst shape.
class SaturatedStation : public medium::Participant {
 public:
  /// `retry_limit` = 0 keeps the paper's infinite-retry assumption; a
  /// positive value drops the frame after that many collisions and
  /// restarts contention at stage 0, as the standard's retransmission
  /// limit does.
  SaturatedStation(std::unique_ptr<BackoffEntity> backoff,
                   frames::Priority priority, des::SimTime mpdu_duration,
                   int mpdu_count = 1, int retry_limit = 0);

  // medium::Participant
  std::optional<frames::Priority> pending() override { return priority_; }
  bool poll_transmit(medium::TxDescriptor& burst) override;
  /// Always pending, so asked only while contending: its backoff counter.
  int idle_slots_ahead() override { return backoff_->backoff_counter(); }
  void on_idle_slots(int count) override;
  void on_busy(bool transmitted, bool success) override;
  /// Saturated stations happily fill any TDMA allocation they own.
  bool poll_contention_free(medium::TxDescriptor& burst) override;

  const StationStats& stats() const { return stats_; }
  const BackoffEntity& backoff() const { return *backoff_; }
  frames::Priority priority() const { return priority_; }

 protected:
  BackoffEntity& mutable_backoff() { return *backoff_; }
  StationStats& mutable_stats() { return stats_; }
  des::SimTime mpdu_duration() const { return mpdu_duration_; }
  int mpdu_count() const { return mpdu_count_; }

 private:
  std::unique_ptr<BackoffEntity> backoff_;
  frames::Priority priority_;
  des::SimTime mpdu_duration_;
  int mpdu_count_;
  int retry_limit_;
  int head_retries_ = 0;
  StationStats stats_;
};

/// A station fed by an external source: frames queue up and the station
/// contends only while backlogged. Records per-frame service delays.
class QueueStation : public medium::Participant {
 public:
  /// `retry_limit` = 0 keeps the paper's infinite-retry assumption; a
  /// positive value drops the head frame after that many collisions.
  QueueStation(std::unique_ptr<BackoffEntity> backoff,
               frames::Priority priority, des::SimTime mpdu_duration,
               des::Scheduler& scheduler, int retry_limit = 0);

  /// Enqueues one frame (burst of 1 MPDU). The caller must also wake the
  /// domain via ContentionDomain::notify_pending().
  void enqueue_frame();

  // medium::Participant
  std::optional<frames::Priority> pending() override {
    if (queue_.empty()) return std::nullopt;
    return priority_;
  }
  bool poll_transmit(medium::TxDescriptor& burst) override;
  /// Contending: its backoff counter. Empty: no limit, since only
  /// enqueue_frame, called from scheduler events, fills the queue.
  int idle_slots_ahead() override;
  void on_idle_slots(int count) override;
  void on_busy(bool transmitted, bool success) override;
  void on_transmission_complete(bool success) override;
  /// Queued frames may also ride a TDMA allocation the station owns.
  bool poll_contention_free(medium::TxDescriptor& burst) override;

  const StationStats& stats() const { return stats_; }
  std::size_t queue_depth() const { return queue_.size(); }
  const std::vector<des::SimTime>& delays() const { return delays_; }

 private:
  std::unique_ptr<BackoffEntity> backoff_;
  frames::Priority priority_;
  des::SimTime mpdu_duration_;
  des::Scheduler& scheduler_;
  int retry_limit_;
  int head_retries_ = 0;
  std::deque<des::SimTime> queue_;  ///< Arrival time of each queued frame.
  std::vector<des::SimTime> delays_;
  StationStats stats_;
};

}  // namespace plc::mac
