#include "mac/station.hpp"

#include <limits>
#include <utility>

#include "util/error.hpp"

namespace plc::mac {

namespace {
bool describe(medium::TxDescriptor& burst, frames::Priority priority,
              des::SimTime mpdu_duration, int mpdu_count) {
  burst.priority = priority;
  burst.mpdu_duration = mpdu_duration;
  burst.mpdu_count = mpdu_count;
  burst.sofs.clear();
  return true;
}
}  // namespace

SaturatedStation::SaturatedStation(std::unique_ptr<BackoffEntity> backoff,
                                   frames::Priority priority,
                                   des::SimTime mpdu_duration,
                                   int mpdu_count, int retry_limit)
    : backoff_(std::move(backoff)),
      priority_(priority),
      mpdu_duration_(mpdu_duration),
      mpdu_count_(mpdu_count),
      retry_limit_(retry_limit) {
  util::check_arg(backoff_ != nullptr, "backoff", "must not be null");
  util::check_arg(mpdu_duration > des::SimTime::zero(), "mpdu_duration",
                  "must be positive");
  util::check_arg(mpdu_count >= 1, "mpdu_count", "must be >= 1");
  util::check_arg(retry_limit >= 0, "retry_limit",
                  "must be >= 0 (0 = infinite)");
}

bool SaturatedStation::poll_transmit(medium::TxDescriptor& burst) {
  if (!backoff_->ready_to_transmit()) return false;
  return describe(burst, priority_, mpdu_duration_, mpdu_count_);
}

bool SaturatedStation::poll_contention_free(medium::TxDescriptor& burst) {
  return describe(burst, priority_, mpdu_duration_, mpdu_count_);
}

void SaturatedStation::on_idle_slots(int count) {
  stats_.idle_slots += count;
  for (int i = 0; i < count; ++i) backoff_->on_idle_slot();
}

void SaturatedStation::on_busy(bool transmitted, bool success) {
  if (transmitted) {
    ++stats_.tx_attempts;
    if (success) {
      ++stats_.successes;
      head_retries_ = 0;
    } else {
      ++stats_.collisions;
      ++head_retries_;
      if (retry_limit_ > 0 && head_retries_ >= retry_limit_) {
        // Retry limit hit: the frame is discarded and contention for the
        // next (always available) frame restarts at stage 0.
        ++stats_.drops;
        head_retries_ = 0;
        backoff_->start_new_frame();
        return;
      }
    }
  } else {
    ++stats_.busy_events;
    const int bpc_before = backoff_->backoff_procedure_counter();
    backoff_->on_busy(false, false);
    if (backoff_->backoff_procedure_counter() > bpc_before) {
      ++stats_.deferral_jumps;
    }
    return;
  }
  backoff_->on_busy(transmitted, success);
}

QueueStation::QueueStation(std::unique_ptr<BackoffEntity> backoff,
                           frames::Priority priority,
                           des::SimTime mpdu_duration,
                           des::Scheduler& scheduler, int retry_limit)
    : backoff_(std::move(backoff)),
      priority_(priority),
      mpdu_duration_(mpdu_duration),
      scheduler_(scheduler),
      retry_limit_(retry_limit) {
  util::check_arg(backoff_ != nullptr, "backoff", "must not be null");
  util::check_arg(mpdu_duration > des::SimTime::zero(), "mpdu_duration",
                  "must be positive");
  util::check_arg(retry_limit >= 0, "retry_limit",
                  "must be >= 0 (0 = infinite)");
}

void QueueStation::enqueue_frame() {
  queue_.push_back(scheduler_.now());
  if (queue_.size() == 1) {
    // The station was idle: contention for this frame starts fresh at
    // backoff stage 0.
    backoff_->start_new_frame();
  }
}

bool QueueStation::poll_transmit(medium::TxDescriptor& burst) {
  if (queue_.empty() || !backoff_->ready_to_transmit()) return false;
  return describe(burst, priority_, mpdu_duration_, 1);
}

bool QueueStation::poll_contention_free(medium::TxDescriptor& burst) {
  if (queue_.empty()) return false;
  return describe(burst, priority_, mpdu_duration_, 1);
}

int QueueStation::idle_slots_ahead() {
  if (queue_.empty()) return std::numeric_limits<int>::max();
  return backoff_->backoff_counter();
}

void QueueStation::on_idle_slots(int count) {
  stats_.idle_slots += count;
  for (int i = 0; i < count; ++i) backoff_->on_idle_slot();
}

void QueueStation::on_busy(bool transmitted, bool success) {
  if (transmitted) {
    ++stats_.tx_attempts;
    if (success) {
      ++stats_.successes;
      head_retries_ = 0;
    } else {
      ++stats_.collisions;
      ++head_retries_;
      if (retry_limit_ > 0 && head_retries_ >= retry_limit_) {
        // Retry limit hit: discard the head frame (no delay sample) and
        // restart contention for the next one, if any.
        ++stats_.drops;
        head_retries_ = 0;
        util::require(!queue_.empty(),
                      "QueueStation: collision with empty queue");
        queue_.pop_front();
        backoff_->start_new_frame();
        return;
      }
    }
    backoff_->on_busy(true, success);
    return;
  }
  ++stats_.busy_events;
  const int bpc_before = backoff_->backoff_procedure_counter();
  backoff_->on_busy(false, false);
  if (backoff_->backoff_procedure_counter() > bpc_before) {
    ++stats_.deferral_jumps;
  }
}

void QueueStation::on_transmission_complete(bool success) {
  if (!success) return;
  util::require(!queue_.empty(),
                "QueueStation: completion with empty queue");
  delays_.push_back(scheduler_.now() - queue_.front());
  queue_.pop_front();
  // Note: Backoff1901::on_busy(true, true) already restarted the entity at
  // stage 0, which doubles as start_new_frame() for the next head frame.
}

}  // namespace plc::mac
