#include "medium/domain.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::medium {

namespace {

const char* event_type_name(MediumEventType type) {
  switch (type) {
    case MediumEventType::kIdleSlot: return "idle";
    case MediumEventType::kSuccess: return "success";
    case MediumEventType::kCollision: return "collision";
    case MediumEventType::kBeacon: return "beacon";
  }
  return "unknown";
}

}  // namespace

double DomainStats::collision_probability() const {
  const std::int64_t denominator = collided_tx + successes;
  if (denominator == 0) return 0.0;
  return static_cast<double>(collided_tx) /
         static_cast<double>(denominator);
}

double DomainStats::normalized_throughput() const {
  const des::SimTime total = total_time();
  if (total == des::SimTime::zero()) return 0.0;
  return static_cast<double>(success_payload_time.ns()) /
         static_cast<double>(total.ns());
}

ContentionDomain::ContentionDomain(des::Scheduler& scheduler,
                                   phy::TimingConfig timing)
    : scheduler_(scheduler), timing_(timing) {
  util::check_arg(timing.slot > des::SimTime::zero(), "timing",
                  "slot duration must be positive");
}

int ContentionDomain::add_participant(Participant& participant) {
  util::require(!started_,
                "ContentionDomain: cannot add participants after start()");
  participants_.push_back(&participant);
  descriptors_.emplace_back();
  pending_.emplace_back();
  return static_cast<int>(participants_.size()) - 1;
}

void ContentionDomain::add_observer(MediumObserver& observer) {
  observers_.push_back(&observer);
}

void ContentionDomain::start() {
  util::require(!started_, "ContentionDomain::start: already started");
  started_ = true;
  schedule_slot(des::SimTime::zero());
}

void ContentionDomain::notify_pending() {
  if (!started_ || !sleeping_) return;
  sleeping_ = false;
  schedule_slot(des::SimTime::zero());
}

void ContentionDomain::reset_stats() { stats_ = DomainStats{}; }

void ContentionDomain::bind_metrics(obs::Registry& registry) {
  Metrics metrics;
  for (int t = 0; t < 4; ++t) {
    const char* name = event_type_name(static_cast<MediumEventType>(t));
    metrics.events[t] = &registry.counter("medium.events", {{"type", name}});
    metrics.airtime_ns[t] =
        &registry.counter("medium.airtime_ns", {{"type", name}});
  }
  metrics.success_mpdus =
      &registry.counter("medium.mpdus", {{"outcome", "success"}});
  metrics.collided_mpdus =
      &registry.counter("medium.mpdus", {{"outcome", "collided"}});
  for (int id = 0; id < static_cast<int>(participants_.size()); ++id) {
    metrics.station_success.push_back(&registry.counter(
        "medium.tx",
        {{"station", std::to_string(id)}, {"outcome", "success"}}));
    metrics.station_collision.push_back(&registry.counter(
        "medium.tx",
        {{"station", std::to_string(id)}, {"outcome", "collision"}}));
  }
  metrics_ = std::move(metrics);
}

void ContentionDomain::observe_event(MediumEventType type, des::SimTime start,
                                     des::SimTime duration,
                                     const std::vector<int>& transmitters,
                                     int mpdus) {
  if (metrics_) {
    const auto t = static_cast<std::size_t>(type);
    metrics_->events[t]->add();
    metrics_->airtime_ns[t]->add(duration.ns());
    if (type == MediumEventType::kSuccess) {
      metrics_->success_mpdus->add(mpdus);
      for (const int id : transmitters) {
        if (id < static_cast<int>(metrics_->station_success.size())) {
          metrics_->station_success[static_cast<std::size_t>(id)]->add();
        }
      }
    } else if (type == MediumEventType::kCollision) {
      metrics_->collided_mpdus->add(mpdus);
      for (const int id : transmitters) {
        if (id < static_cast<int>(metrics_->station_collision.size())) {
          metrics_->station_collision[static_cast<std::size_t>(id)]->add();
        }
      }
    }
  }
  if (trace_ != nullptr) {
    obs::TraceEvent span;
    span.name = event_type_name(type);
    span.start = start;
    span.duration = duration;
    if (transmitters.empty()) {
      span.track = obs::kMediumTrack;  // A beacon.
      trace_->record(span);
    } else {
      for (const int id : transmitters) {
        span.track = obs::station_track(id);
        trace_->record(span);
      }
    }
  }
}

void ContentionDomain::set_beacon_schedule(BeaconSchedule schedule) {
  util::require(!started_,
                "ContentionDomain: set the schedule before start()");
  schedule_ = std::move(schedule);
}

void ContentionDomain::schedule_slot(des::SimTime delay) {
  scheduler_.schedule(delay, [this] { slot_boundary(); });
}

void ContentionDomain::emit_record(const MediumEventRecord& record) {
  ++medium_events_;
  observe_event(record.type, record.start, record.duration,
                record.transmitters, static_cast<int>(record.sofs.size()));
  for (MediumObserver* observer : observers_) {
    observer->on_medium_event(record);
  }
}

void ContentionDomain::slot_boundary() {
  PROF_SCOPE("medium.slot_boundary");
  util::require(!exchange_in_flight_,
                "ContentionDomain: slot boundary while an exchange is in "
                "flight");
  // Determine the backlogged set and the winning priority (the logical
  // outcome of the priority-resolution busy tones): the one question
  // each participant is asked this slot.
  std::optional<frames::Priority> winning;
  for (std::size_t id = 0; id < participants_.size(); ++id) {
    const std::optional<frames::Priority> prio = participants_[id]->pending();
    pending_[id] = prio;
    if (prio.has_value() && (!winning.has_value() || *prio > *winning)) {
      winning = prio;
    }
  }
  if (!winning.has_value()) {
    // Nothing to send anywhere: the medium goes quiet until a source
    // delivers a frame and calls notify_pending(). (Beacon airtime is
    // not accounted while the whole network is idle.)
    sleeping_ = true;
    return;
  }

  // Hybrid mode: follow the beacon period's regions.
  des::SimTime csma_region_end = des::SimTime::max();
  if (schedule_.has_value()) {
    const BeaconSchedule::Region region =
        schedule_->region_at(scheduler_.now());
    switch (region.kind) {
      case BeaconSchedule::RegionKind::kBeacon: {
        const des::SimTime duration = region.end - scheduler_.now();
        stats_.beacon_time += duration;
        MediumEventRecord record;
        record.type = MediumEventType::kBeacon;
        record.start = scheduler_.now();
        record.duration = duration;
        emit_record(record);
        schedule_slot(duration);
        return;
      }
      case BeaconSchedule::RegionKind::kTdma:
        tdma_region(region);
        return;
      case BeaconSchedule::RegionKind::kCsma:
        csma_region_end = region.end;
        break;
    }
  }

  // Poll the contenders; lower-priority backlogged stations defer.
  transmitter_ids_.clear();
  contender_ids_.clear();
  for (int id = 0; id < static_cast<int>(participants_.size()); ++id) {
    if (pending_[static_cast<std::size_t>(id)] != winning) continue;
    contender_ids_.push_back(id);
    TxDescriptor& descriptor = descriptors_[static_cast<std::size_t>(id)];
    if (participants_[static_cast<std::size_t>(id)]->poll_transmit(
            descriptor)) {
      util::require(descriptor.mpdu_count >= 1,
                    "ContentionDomain: burst must have >= 1 MPDU");
      transmitter_ids_.push_back(id);
    }
  }

  if (transmitter_ids_.empty()) {
    if (scheduler_.now() + timing_.slot > csma_region_end) {
      // The slot would cross the region boundary: everyone freezes until
      // the next CSMA opportunity.
      stats_.boundary_wait_time += csma_region_end - scheduler_.now();
      schedule_slot(csma_region_end - scheduler_.now());
      return;
    }
    idle_gap(csma_region_end, *winning);
    return;
  }

  const bool success = transmitter_ids_.size() == 1;

  // Busy-period duration: the winner's burst for a success, the longest
  // involved burst for a collision.
  des::SimTime payload = des::SimTime::zero();
  for (const int id : transmitter_ids_) {
    payload = std::max(payload, descriptors_[static_cast<std::size_t>(id)]
                                    .payload_duration(timing_.burst_gap));
  }
  des::SimTime busy =
      payload +
      (success ? timing_.success_overhead : timing_.collision_overhead);
  if (scheduler_.now() + busy > csma_region_end) {
    // The exchange would cross the region boundary: nobody transmits
    // (counters frozen); contention resumes in the next CSMA region.
    stats_.boundary_wait_time += csma_region_end - scheduler_.now();
    schedule_slot(csma_region_end - scheduler_.now());
    return;
  }
  if (success) {
    ++stats_.successes;
    stats_.success_mpdus +=
        descriptors_[static_cast<std::size_t>(transmitter_ids_.front())]
            .mpdu_count;
    stats_.success_time += busy;
    stats_.success_payload_time += payload;
  } else {
    ++stats_.collision_events;
    stats_.collided_tx += static_cast<std::int64_t>(transmitter_ids_.size());
    for (const int id : transmitter_ids_) {
      stats_.collided_mpdus +=
          descriptors_[static_cast<std::size_t>(id)].mpdu_count;
    }
    stats_.collision_time += busy;
  }

  // Notify contenders of the busy event (transmitters learn their
  // outcome; the rest consume a busy decrement).
  {
    std::size_t tx_index = 0;
    for (const int id : contender_ids_) {
      const bool transmitted = tx_index < transmitter_ids_.size() &&
                               transmitter_ids_[tx_index] == id;
      if (transmitted) ++tx_index;
      participants_[static_cast<std::size_t>(id)]->on_busy(transmitted,
                                                           success);
    }
  }

  // Observers see every delimiter on the wire.
  MediumEventRecord& record = busy_record_;
  record.type =
      success ? MediumEventType::kSuccess : MediumEventType::kCollision;
  record.start = scheduler_.now();
  record.duration = busy;
  record.transmitters = transmitter_ids_;
  record.priority = *winning;
  record.sofs.clear();
  for (const int id : transmitter_ids_) {
    const TxDescriptor& d = descriptors_[static_cast<std::size_t>(id)];
    record.sofs.insert(record.sofs.end(), d.sofs.begin(), d.sofs.end());
  }
  emit_record(record);

  // Completion callbacks fire when the exchange (including SACK) ends.
  exchange_in_flight_ = true;
  scheduler_.schedule(busy, [this, success] { finish_exchange(success); });
}

void ContentionDomain::idle_gap(des::SimTime region_end,
                                frames::Priority winning) {
  // This slot is idle, and so is each next one until a contender's
  // backoff expires, a scheduler event fires (slots start strictly
  // before it, since it was scheduled first), the run's horizon passes
  // (a slot starting at it is still dispatched) or a slot would cross
  // the region's end. The gap is those slots, in one dispatch.
  const des::SimTime now = scheduler_.now();
  const std::int64_t slot = timing_.slot.ns();
  std::int64_t gap = (region_end - now).ns() / slot;
  const des::SimTime barrier = scheduler_.next_barrier();
  if (barrier != des::SimTime::max()) {
    gap = std::min(gap, ((barrier - now).ns() + slot - 1) / slot);
  }
  for (std::size_t id = 0; id < participants_.size(); ++id) {
    if (pending_[id].has_value() && *pending_[id] != winning) continue;
    gap = std::min<std::int64_t>(gap, participants_[id]->idle_slots_ahead());
  }
  const int count = static_cast<int>(std::max<std::int64_t>(gap, 1));
  const des::SimTime duration = count * timing_.slot;

  stats_.idle_slots += count;
  stats_.idle_time += duration;
  medium_events_ += count;
  if (metrics_) {
    const auto t = static_cast<std::size_t>(MediumEventType::kIdleSlot);
    metrics_->events[t]->add(count);
    metrics_->airtime_ns[t]->add(duration.ns());
  }
  if (trace_ != nullptr) {
    // One span per idle slot, at its own start.
    obs::TraceEvent span;
    span.name = event_type_name(MediumEventType::kIdleSlot);
    span.duration = timing_.slot;
    span.track = obs::kMediumTrack;
    for (int k = 0; k < count; ++k) {
      span.start = now + k * timing_.slot;
      trace_->record(span);
    }
  }
  for (const int id : contender_ids_) {
    participants_[static_cast<std::size_t>(id)]->on_idle_slots(count);
  }
  schedule_slot(duration);
}

void ContentionDomain::finish_exchange(bool success) {
  PROF_SCOPE("medium.finish_exchange");
  exchange_in_flight_ = false;
  for (const int id : transmitter_ids_) {
    participants_[static_cast<std::size_t>(id)]->on_transmission_complete(
        success);
  }
  slot_boundary();
}

void ContentionDomain::tdma_region(const BeaconSchedule::Region& region) {
  const des::SimTime now = scheduler_.now();
  Participant* owner =
      region.owner >= 0 &&
              region.owner < static_cast<int>(participants_.size())
          ? participants_[static_cast<std::size_t>(region.owner)]
          : nullptr;
  if (owner != nullptr &&
      pending_[static_cast<std::size_t>(region.owner)].has_value()) {
    TxDescriptor& descriptor =
        descriptors_[static_cast<std::size_t>(region.owner)];
    if (owner->poll_contention_free(descriptor)) {
      util::require(descriptor.mpdu_count >= 1,
                    "ContentionDomain: TDMA burst must have >= 1 MPDU");
      const des::SimTime busy =
          descriptor.payload_duration(timing_.burst_gap) +
          timing_.success_overhead;
      if (now + busy <= region.end) {
        ++stats_.tdma_successes;
        stats_.tdma_mpdus += descriptor.mpdu_count;
        stats_.tdma_time += busy;

        MediumEventRecord record;
        record.type = MediumEventType::kSuccess;
        record.contention_free = true;
        record.start = now;
        record.duration = busy;
        record.transmitters = {region.owner};
        record.priority = descriptor.priority;
        record.sofs = descriptor.sofs;
        emit_record(record);

        scheduler_.schedule(busy, [this, owner_id = region.owner] {
          finish_tdma_exchange(owner_id);
        });
        return;
      }
    }
  }
  // Nothing to send (or it would not fit): the allocation idles out.
  stats_.tdma_idle_time += region.end - now;
  schedule_slot(region.end - now);
}

void ContentionDomain::finish_tdma_exchange(int owner_id) {
  participants_[static_cast<std::size_t>(owner_id)]
      ->on_transmission_complete(true);
  slot_boundary();
}

}  // namespace plc::medium
