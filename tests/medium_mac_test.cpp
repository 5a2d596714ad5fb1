#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "mac/station.hpp"
#include "medium/beacon.hpp"
#include "medium/domain.hpp"
#include "phy/timing.hpp"
#include "util/error.hpp"

namespace plc::medium {
namespace {

using mac::Backoff1901;
using mac::BackoffConfig;
using mac::SaturatedStation;

std::unique_ptr<mac::BackoffEntity> make_entity(std::uint64_t seed) {
  return std::make_unique<Backoff1901>(BackoffConfig::ca0_ca1(),
                                       des::RandomStream(seed));
}

constexpr des::SimTime kMpdu = des::SimTime::from_ns(2'050'000);

struct Fixture {
  des::Scheduler scheduler;
  ContentionDomain domain{scheduler, phy::TimingConfig::paper_default()};
  std::vector<std::unique_ptr<SaturatedStation>> stations;

  SaturatedStation& add_station(std::uint64_t seed,
                                frames::Priority priority =
                                    frames::Priority::kCa1,
                                int mpdu_count = 1) {
    stations.push_back(std::make_unique<SaturatedStation>(
        make_entity(seed), priority, kMpdu, mpdu_count));
    domain.add_participant(*stations.back());
    return *stations.back();
  }

  void run(double seconds) {
    domain.start();
    scheduler.run_until(des::SimTime::from_seconds(seconds));
  }
};

// --- Time accounting ------------------------------------------------------------

TEST(Domain, SingleStationNeverCollides) {
  Fixture fixture;
  fixture.add_station(1);
  fixture.run(5.0);
  const DomainStats& stats = fixture.domain.stats();
  EXPECT_EQ(stats.collision_events, 0);
  EXPECT_GT(stats.successes, 0);
  EXPECT_DOUBLE_EQ(stats.collision_probability(), 0.0);
}

TEST(Domain, TimeAccountingIdentity) {
  Fixture fixture;
  fixture.add_station(1);
  fixture.add_station(2);
  fixture.run(5.0);
  const DomainStats& stats = fixture.domain.stats();
  // Every nanosecond is an idle slot, a success or a collision.
  EXPECT_EQ(stats.total_time().ns(),
            stats.idle_time.ns() + stats.success_time.ns() +
                stats.collision_time.ns());
  EXPECT_EQ(stats.idle_time.ns(), stats.idle_slots * 35'840);
  // Paper timing: every success costs Ts, every collision Tc.
  EXPECT_EQ(stats.success_time.ns(), stats.successes * 2'542'640);
  EXPECT_EQ(stats.collision_time.ns(),
            stats.collision_events * 2'920'640);
  // The run fills (almost) the whole horizon: the last event may overrun.
  EXPECT_GE(stats.total_time().ns(), 5'000'000'000 - 2'920'640);
  EXPECT_LE(stats.total_time().ns(), 5'000'000'000 + 2'920'640);
}

TEST(Domain, SingleStationThroughputMatchesClosedForm) {
  // One saturated station: cycle = E[BC] slots + Ts with E[BC] = 3.5.
  Fixture fixture;
  fixture.add_station(7);
  fixture.run(20.0);
  const DomainStats& stats = fixture.domain.stats();
  const double cycle_us = 3.5 * 35.84 + 2542.64;
  const double expected = 2050.0 / cycle_us;
  EXPECT_NEAR(stats.normalized_throughput(), expected, 0.01);
}

TEST(Domain, CollisionCountingUsesMatlabConvention) {
  Fixture fixture;
  for (int i = 0; i < 5; ++i) fixture.add_station(100 + i);
  fixture.run(10.0);
  const DomainStats& stats = fixture.domain.stats();
  EXPECT_GT(stats.collision_events, 0);
  // Every collision involves at least two transmissions.
  EXPECT_GE(stats.collided_tx, 2 * stats.collision_events);
  // MPDU-level counters mirror burst-level ones for 1-MPDU bursts.
  EXPECT_EQ(stats.collided_mpdus, stats.collided_tx);
  EXPECT_EQ(stats.success_mpdus, stats.successes);
}

TEST(Domain, PerStationStatsSumToDomainStats) {
  Fixture fixture;
  for (int i = 0; i < 3; ++i) fixture.add_station(40 + i);
  fixture.run(10.0);
  std::int64_t successes = 0;
  std::int64_t collisions = 0;
  for (const auto& station : fixture.stations) {
    successes += station->stats().successes;
    collisions += station->stats().collisions;
  }
  EXPECT_EQ(successes, fixture.domain.stats().successes);
  EXPECT_EQ(collisions, fixture.domain.stats().collided_tx);
}

TEST(Domain, BurstsChargePayloadPerMpdu) {
  Fixture fixture;
  fixture.add_station(1, frames::Priority::kCa1, /*mpdu_count=*/2);
  fixture.run(2.0);
  const DomainStats& stats = fixture.domain.stats();
  EXPECT_EQ(stats.success_mpdus, 2 * stats.successes);
  // Success busy time: 2 payloads + overhead.
  const std::int64_t per_success =
      2 * kMpdu.ns() + (2'542'640 - 2'050'000);
  EXPECT_EQ(stats.success_time.ns(), stats.successes * per_success);
}

// --- Priority resolution -----------------------------------------------------------

TEST(Domain, HigherPriorityClassStarvesLower) {
  Fixture fixture;
  SaturatedStation& ca1 = fixture.add_station(1, frames::Priority::kCa1);
  SaturatedStation& ca3 = fixture.add_station(2, frames::Priority::kCa3);
  fixture.run(5.0);
  // The 1901 priority resolution is strict: while a CA3 station is
  // backlogged, CA1 never contends.
  EXPECT_EQ(ca1.stats().tx_attempts, 0);
  EXPECT_GT(ca3.stats().successes, 0);
  EXPECT_EQ(fixture.domain.stats().collision_events, 0);
}

TEST(Domain, SamePriorityClassesShareTheMedium) {
  Fixture fixture;
  SaturatedStation& a = fixture.add_station(1, frames::Priority::kCa2);
  SaturatedStation& b = fixture.add_station(2, frames::Priority::kCa2);
  fixture.run(5.0);
  EXPECT_GT(a.stats().successes, 0);
  EXPECT_GT(b.stats().successes, 0);
}

/// A saturated station that counts the domain's calls into it.
class CountingStation : public Participant {
 public:
  CountingStation(std::uint64_t seed, frames::Priority priority)
      : station_(make_entity(seed), priority, kMpdu) {}

  std::optional<frames::Priority> pending() override {
    ++pending_calls;
    return station_.pending();
  }
  bool poll_transmit(TxDescriptor& burst) override {
    ++polls;
    return station_.poll_transmit(burst);
  }
  void on_idle_slot() override {
    ++idle_slots;
    station_.on_idle_slot();
  }
  void on_busy(bool transmitted, bool success) override {
    ++busy_events;
    station_.on_busy(transmitted, success);
  }
  bool poll_contention_free(TxDescriptor& burst) override {
    ++contention_free_polls;
    return station_.poll_contention_free(burst);
  }

  std::int64_t pending_calls = 0;
  std::int64_t polls = 0;
  std::int64_t idle_slots = 0;
  std::int64_t busy_events = 0;
  std::int64_t contention_free_polls = 0;

 private:
  SaturatedStation station_;
};

TEST(Domain, AsksEachParticipantOncePerSlotBoundary) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  CountingStation owner(1, frames::Priority::kCa3);
  CountingStation rival(2, frames::Priority::kCa3);
  CountingStation low(3, frames::Priority::kCa1);
  const std::vector<CountingStation*> stations{&owner, &rival, &low};
  for (CountingStation* station : stations) domain.add_participant(*station);
  // Station 0 owns a TDMA allocation in every beacon period.
  domain.set_beacon_schedule(BeaconSchedule::default_60hz(
      {{0, des::SimTime::from_us(5'000.0), des::SimTime::from_us(8'000.0)}}));
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(2.0));

  // Every dispatched event is one slot boundary (a slot, a region's start
  // or an exchange's end), and each boundary asks every station once, the
  // allocation's owner included.
  const std::int64_t boundaries = scheduler.events_dispatched();
  ASSERT_GT(boundaries, 0);
  for (const CountingStation* station : stations) {
    EXPECT_EQ(station->pending_calls, boundaries);
  }
  EXPECT_GT(owner.contention_free_polls, 0);
  EXPECT_GT(rival.polls, 0);
  // The CA3 stations are always backlogged, so the CA1 station never
  // contends: no poll and no counter callback.
  EXPECT_EQ(low.polls, 0);
  EXPECT_EQ(low.idle_slots, 0);
  EXPECT_EQ(low.busy_events, 0);
}

// --- Observer ----------------------------------------------------------------------

class RecordingObserver : public MediumObserver {
 public:
  void on_medium_event(const MediumEventRecord& record) override {
    records.push_back(record);
  }
  std::vector<MediumEventRecord> records;
};

TEST(Domain, ObserverSeesBusyEventsWithTransmitters) {
  Fixture fixture;
  fixture.add_station(1);
  fixture.add_station(2);
  RecordingObserver observer;
  fixture.domain.add_observer(observer);
  fixture.run(2.0);
  ASSERT_FALSE(observer.records.empty());
  std::int64_t successes = 0;
  std::int64_t collisions = 0;
  for (const MediumEventRecord& record : observer.records) {
    if (record.type == MediumEventType::kSuccess) {
      EXPECT_EQ(record.transmitters.size(), 1u);
      EXPECT_EQ(record.duration.ns(), 2'542'640);
      ++successes;
    } else if (record.type == MediumEventType::kCollision) {
      EXPECT_GE(record.transmitters.size(), 2u);
      EXPECT_EQ(record.duration.ns(), 2'920'640);
      ++collisions;
    }
  }
  EXPECT_EQ(successes, fixture.domain.stats().successes);
  EXPECT_EQ(collisions, fixture.domain.stats().collision_events);
}

// --- Unsaturated stations / wake-up ---------------------------------------------------

TEST(Domain, SleepsWhenNothingPendingAndWakesOnArrival) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  mac::QueueStation station(make_entity(1), frames::Priority::kCa1, kMpdu,
                            scheduler);
  domain.add_participant(station);
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(1.0));
  EXPECT_EQ(domain.stats().successes, 0);
  EXPECT_EQ(domain.stats().idle_slots, 0);  // Asleep, not idling.

  station.enqueue_frame();
  domain.notify_pending();
  scheduler.run_until(des::SimTime::from_seconds(2.0));
  EXPECT_EQ(domain.stats().successes, 1);
  EXPECT_EQ(station.stats().successes, 1);
  ASSERT_EQ(station.delays().size(), 1u);
  // Delay = backoff slots + Ts, well under 10 ms.
  EXPECT_LT(station.delays()[0].ns(), 10'000'000);
  EXPECT_GE(station.delays()[0].ns(), 2'542'640);
}

TEST(Domain, QueueStationDrainsBacklogInOrder) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  mac::QueueStation station(make_entity(2), frames::Priority::kCa1, kMpdu,
                            scheduler);
  domain.add_participant(station);
  domain.start();
  for (int i = 0; i < 10; ++i) station.enqueue_frame();
  domain.notify_pending();
  scheduler.run_until(des::SimTime::from_seconds(1.0));
  EXPECT_EQ(station.stats().successes, 10);
  EXPECT_EQ(station.queue_depth(), 0u);
  ASSERT_EQ(station.delays().size(), 10u);
  for (std::size_t i = 1; i < station.delays().size(); ++i) {
    EXPECT_GT(station.delays()[i], station.delays()[i - 1]);  // FIFO.
  }
}

// --- Retry limits (standard behaviour; the paper assumes infinite) -----------------------

TEST(RetryLimit, SaturatedStationDropsAndRestartsAtStageZero) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  std::vector<std::unique_ptr<SaturatedStation>> stations;
  for (int i = 0; i < 4; ++i) {
    stations.push_back(std::make_unique<SaturatedStation>(
        make_entity(60 + static_cast<std::uint64_t>(i)),
        frames::Priority::kCa1, kMpdu, 1, /*retry_limit=*/1));
    domain.add_participant(*stations.back());
  }
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(10.0));
  std::int64_t drops = 0;
  std::int64_t collisions = 0;
  for (const auto& station : stations) {
    drops += station->stats().drops;
    collisions += station->stats().collisions;
  }
  EXPECT_GT(collisions, 0);
  // Limit 1: every collision drops the frame (stages may still climb
  // through deferral-counter jumps, which are not transmission retries).
  EXPECT_EQ(drops, collisions);
}

TEST(RetryLimit, InfiniteRetryNeverDrops) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  std::vector<std::unique_ptr<SaturatedStation>> stations;
  for (int i = 0; i < 4; ++i) {
    stations.push_back(std::make_unique<SaturatedStation>(
        make_entity(80 + static_cast<std::uint64_t>(i)),
        frames::Priority::kCa1, kMpdu, 1));
    domain.add_participant(*stations.back());
  }
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(5.0));
  for (const auto& station : stations) {
    EXPECT_EQ(station->stats().drops, 0);
  }
}

TEST(RetryLimit, QueueStationDiscardsHeadAndServesNext) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  mac::QueueStation limited(make_entity(90), frames::Priority::kCa1, kMpdu,
                            scheduler, /*retry_limit=*/1);
  std::vector<std::unique_ptr<SaturatedStation>> contenders;
  for (int i = 0; i < 3; ++i) {
    contenders.push_back(std::make_unique<SaturatedStation>(
        make_entity(91 + static_cast<std::uint64_t>(i)),
        frames::Priority::kCa1, kMpdu, 1));
    domain.add_participant(*contenders.back());
  }
  domain.add_participant(limited);
  domain.start();
  for (int i = 0; i < 200; ++i) limited.enqueue_frame();
  domain.notify_pending();
  scheduler.run_until(des::SimTime::from_seconds(20.0));
  const mac::StationStats& stats = limited.stats();
  EXPECT_GT(stats.drops, 0);
  // Accounting identity: every enqueued frame is delivered, dropped, or
  // still queued.
  EXPECT_EQ(stats.successes + stats.drops +
                static_cast<std::int64_t>(limited.queue_depth()),
            200);
  EXPECT_EQ(static_cast<std::int64_t>(limited.delays().size()),
            stats.successes);
}

TEST(RetryLimit, RejectsNegativeLimit) {
  des::Scheduler scheduler;
  EXPECT_THROW(SaturatedStation(make_entity(1), frames::Priority::kCa1,
                                kMpdu, 1, -1),
               plc::Error);
  EXPECT_THROW(mac::QueueStation(make_entity(1), frames::Priority::kCa1,
                                 kMpdu, scheduler, -2),
               plc::Error);
}

// --- API misuse ------------------------------------------------------------------------

TEST(Domain, StartTwiceThrows) {
  Fixture fixture;
  fixture.add_station(1);
  fixture.domain.start();
  EXPECT_THROW(fixture.domain.start(), plc::Error);
}

TEST(Domain, AddParticipantAfterStartThrows) {
  Fixture fixture;
  fixture.add_station(1);
  fixture.domain.start();
  auto late = std::make_unique<SaturatedStation>(
      make_entity(9), frames::Priority::kCa1, kMpdu, 1);
  EXPECT_THROW(fixture.domain.add_participant(*late), plc::Error);
}

TEST(Domain, ResetStatsClearsCountersOnly) {
  Fixture fixture;
  fixture.add_station(1);
  fixture.run(1.0);
  EXPECT_GT(fixture.domain.stats().successes, 0);
  fixture.domain.reset_stats();
  EXPECT_EQ(fixture.domain.stats().successes, 0);
  fixture.scheduler.run_until(des::SimTime::from_seconds(2.0));
  EXPECT_GT(fixture.domain.stats().successes, 0);  // Still running.
}

}  // namespace
}  // namespace plc::medium
