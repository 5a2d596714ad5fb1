#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "emu/network.hpp"
#include "mac/station.hpp"
#include "medium/beacon.hpp"
#include "medium/domain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/timing.hpp"
#include "phy/tonemap.hpp"
#include "sim/unsaturated.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

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
  void on_idle_slots(int count) override {
    ++idle_slots;
    station_.on_idle_slots(count);
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

TEST(PoissonArrivals, RateIsStatisticallyCorrect) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  mac::QueueStation station(make_entity(7), frames::Priority::kCa1, kMpdu,
                            scheduler);
  domain.add_participant(station);
  sim::PoissonArrivals arrivals(scheduler, domain, station, 100.0,
                                des::RandomStream(7));
  arrivals.start();
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(200.0));
  // 20k expected; 3-sigma ~ 3*sqrt(20000) ~ 424.
  EXPECT_NEAR(static_cast<double>(arrivals.arrivals()), 20'000.0, 600.0);
  // Every arrival queued one frame, which the station woke to send or
  // still holds; a frame whose exchange is in flight counts as both.
  const std::int64_t carried =
      station.stats().successes +
      static_cast<std::int64_t>(station.queue_depth());
  EXPECT_GE(carried, arrivals.arrivals());
  EXPECT_LE(carried, arrivals.arrivals() + 1);
}

TEST(PoissonArrivals, RejectsNonPositiveRate) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  mac::QueueStation station(make_entity(8), frames::Priority::kCa1, kMpdu,
                            scheduler);
  for (const double rate : {0.0, -1.0}) {
    EXPECT_THROW(sim::PoissonArrivals(scheduler, domain, station, rate,
                                      des::RandomStream(1)),
                 plc::Error);
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

// --- Exact pins: the domain's counters -------------------------------------------------
//
// The testbed's pins (tools_test) cover HpavDevice; these cover the
// domain's other users, so a change to how the domain dispatches idle
// slots must leave every counter of theirs as it is. Poisson arrivals
// and beacon-period region ends are what can cut an idle run short.

std::string describe(const DomainStats& s) {
  std::ostringstream out;
  out << "idle=" << s.idle_slots << " ok=" << s.successes
      << " coll=" << s.collision_events << " coll_tx=" << s.collided_tx
      << " ok_mpdus=" << s.success_mpdus
      << " coll_mpdus=" << s.collided_mpdus
      << " idle_ns=" << s.idle_time.ns() << " ok_ns=" << s.success_time.ns()
      << " coll_ns=" << s.collision_time.ns()
      << " payload_ns=" << s.success_payload_time.ns()
      << " tdma=" << s.tdma_successes << " tdma_mpdus=" << s.tdma_mpdus
      << " beacon_ns=" << s.beacon_time.ns()
      << " tdma_ns=" << s.tdma_time.ns()
      << " tdma_idle_ns=" << s.tdma_idle_time.ns()
      << " wait_ns=" << s.boundary_wait_time.ns();
  return out.str();
}

std::string describe(const mac::StationStats& s) {
  std::ostringstream out;
  out << "tx=" << s.tx_attempts << " ok=" << s.successes
      << " coll=" << s.collisions << " drops=" << s.drops
      << " idle=" << s.idle_slots << " busy=" << s.busy_events
      << " jumps=" << s.deferral_jumps;
  return out.str();
}

TEST(DomainPin, PoissonQueueStations) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  std::vector<std::unique_ptr<mac::QueueStation>> stations;
  std::vector<std::unique_ptr<sim::PoissonArrivals>> sources;
  for (int i = 0; i < 3; ++i) {
    stations.push_back(std::make_unique<mac::QueueStation>(
        make_entity(40 + static_cast<std::uint64_t>(i)),
        frames::Priority::kCa1, kMpdu, scheduler, /*retry_limit=*/3));
    domain.add_participant(*stations.back());
    sources.push_back(std::make_unique<sim::PoissonArrivals>(
        scheduler, domain, *stations.back(), 120.0,
        des::RandomStream(50 + static_cast<std::uint64_t>(i))));
    sources.back()->start();
  }
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(2.0));

  EXPECT_EQ(describe(domain.stats()),
            "idle=2406 ok=682 coll=60 coll_tx=121 ok_mpdus=682 "
            "coll_mpdus=121 idle_ns=86231040 ok_ns=1734080480 "
            "coll_ns=175238400 payload_ns=1398100000 tdma=0 tdma_mpdus=0 "
            "beacon_ns=0 tdma_ns=0 tdma_idle_ns=0 wait_ns=0");
  std::int64_t delay_ns = 0;
  for (const auto& station : stations) {
    for (const des::SimTime delay : station->delays()) delay_ns += delay.ns();
  }
  EXPECT_EQ(describe(stations[0]->stats()),
            "tx=247 ok=210 coll=37 drops=1 idle=2359 busy=488 jumps=118");
  EXPECT_EQ(describe(stations[1]->stats()),
            "tx=287 ok=242 coll=45 drops=2 idle=2162 busy=405 jumps=105");
  EXPECT_EQ(describe(stations[2]->stats()),
            "tx=269 ok=230 coll=39 drops=1 idle=1907 busy=364 jumps=104");
  EXPECT_EQ(delay_ns, 62'635'304'270);

  sim::PoissonMacSpec spec;
  spec.stations = 4;
  spec.arrival_rate_fps = 90.0;
  spec.duration = des::SimTime::from_seconds(2.0);
  const sim::PoissonMacResult result = sim::run_poisson_mac(spec);
  EXPECT_EQ(result.frames_generated, 714);
  EXPECT_EQ(result.frames_delivered, 676);
  EXPECT_EQ(result.backlog_at_end, 38u);
  EXPECT_EQ(result.frames_generated,
            result.frames_delivered +
                static_cast<std::int64_t>(result.backlog_at_end));
  EXPECT_EQ(result.mean_delay_s, 0.098039479957100606);
  EXPECT_EQ(result.collision_probability, 0.17034313725490197);
}

TEST(DomainPin, SaturatedStationsUnderBeaconPeriods) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  std::vector<std::unique_ptr<SaturatedStation>> stations;
  for (int i = 0; i < 3; ++i) {
    stations.push_back(std::make_unique<SaturatedStation>(
        make_entity(60 + static_cast<std::uint64_t>(i)),
        frames::Priority::kCa1, kMpdu, /*mpdu_count=*/2));
    domain.add_participant(*stations.back());
  }
  // Station 0 owns a TDMA allocation; the CSMA regions around it end at
  // the allocation and at the next beacon.
  domain.set_beacon_schedule(BeaconSchedule::default_60hz(
      {{0, des::SimTime::from_us(9'000.0), des::SimTime::from_us(6'000.0)}}));
  obs::TraceSink trace;
  domain.set_trace_sink(&trace);
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(2.0));

  EXPECT_EQ(describe(domain.stats()),
            "idle=704 ok=223 coll=17 coll_tx=35 ok_mpdus=446 coll_mpdus=70 "
            "idle_ns=25231360 ok_ns=1024158720 coll_ns=84500880 "
            "payload_ns=914300000 tdma=60 tdma_mpdus=120 beacon_ns=61000000 "
            "tdma_ns=275558400 tdma_idle_ns=84441600 wait_ns=446108840");
  EXPECT_EQ(describe(stations[0]->stats()),
            "tx=71 ok=61 coll=10 drops=0 idle=704 busy=169 jumps=34");
  EXPECT_EQ(describe(stations[1]->stats()),
            "tx=92 ok=81 coll=11 drops=0 idle=704 busy=148 jumps=40");
  EXPECT_EQ(describe(stations[2]->stats()),
            "tx=95 ok=81 coll=14 drops=0 idle=704 busy=145 jumps=37");
  std::ostringstream trace_bytes;
  trace.write_jsonl(trace_bytes);
  EXPECT_EQ(trace.dropped(), 0);
  EXPECT_EQ(util::hash128(trace_bytes.str()).to_hex(),
            "8782e58435e457e77ba49bef5987f49b");
}

// --- Idle gaps ------------------------------------------------------------------------
//
// At a boundary where nobody transmits, the domain dispatches every idle
// slot up to the first contender's transmission as one gap, cut short by
// a pending scheduler event, the run's horizon or the CSMA region's end.

/// Wraps a station, counts the domain's calls into it and, unless
/// `one_at_a_time` is set, forwards its idle_slots_ahead(); set, it
/// keeps the default of one slot per dispatch, the slot-by-slot oracle.
class GapCounter : public Participant {
 public:
  GapCounter(Participant& station, bool one_at_a_time)
      : station_(station), one_at_a_time_(one_at_a_time) {}

  std::optional<frames::Priority> pending() override {
    ++pending_calls;
    return station_.pending();
  }
  bool poll_transmit(TxDescriptor& burst) override {
    return station_.poll_transmit(burst);
  }
  int idle_slots_ahead() override {
    return one_at_a_time_ ? Participant::idle_slots_ahead()
                          : station_.idle_slots_ahead();
  }
  void on_idle_slots(int count) override {
    ++gaps;
    idle_slots += count;
    station_.on_idle_slots(count);
  }
  void on_busy(bool transmitted, bool success) override {
    station_.on_busy(transmitted, success);
  }
  void on_transmission_complete(bool success) override {
    station_.on_transmission_complete(success);
  }
  bool poll_contention_free(TxDescriptor& burst) override {
    return station_.poll_contention_free(burst);
  }

  std::int64_t pending_calls = 0;
  std::int64_t gaps = 0;
  std::int64_t idle_slots = 0;

 private:
  Participant& station_;
  bool one_at_a_time_;
};

TEST(DomainGaps, EachGapIsOneDispatchAndItsCountsSumToIdleSlots) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  std::vector<std::unique_ptr<SaturatedStation>> stations;
  std::vector<std::unique_ptr<GapCounter>> counters;
  for (int i = 0; i < 3; ++i) {
    stations.push_back(std::make_unique<SaturatedStation>(
        make_entity(70 + static_cast<std::uint64_t>(i)),
        frames::Priority::kCa1, kMpdu));
    counters.push_back(std::make_unique<GapCounter>(*stations.back(), false));
    domain.add_participant(*counters.back());
  }
  domain.start();
  scheduler.run_until(des::SimTime::from_seconds(2.0));

  // Nothing but the stations schedules events, so every dispatch is a
  // boundary that asks each station once and is either one idle gap,
  // which every station counts down, or one exchange.
  const DomainStats& stats = domain.stats();
  const std::int64_t dispatched = scheduler.events_dispatched();
  for (const auto& counter : counters) {
    EXPECT_EQ(counter->pending_calls, dispatched);
    EXPECT_EQ(counter->idle_slots, stats.idle_slots);
    EXPECT_EQ(counter->gaps + stats.successes + stats.collision_events,
              dispatched);
  }
  EXPECT_EQ(domain.medium_events(),
            stats.idle_slots + stats.successes + stats.collision_events);
  // A gap runs until a backoff expires, so an exchange follows each one.
  EXPECT_LE(counters[0]->gaps, stats.successes + stats.collision_events);
  EXPECT_LT(2 * counters[0]->gaps, stats.idle_slots);
}

/// A saturated CA1 station whose backoff always counts `countdown`
/// slots, recording each gap it is handed.
class CountdownStation : public Participant {
 public:
  explicit CountdownStation(int countdown)
      : countdown_(countdown), left_(countdown) {}

  std::optional<frames::Priority> pending() override {
    return frames::Priority::kCa1;
  }
  bool poll_transmit(TxDescriptor& burst) override {
    if (left_ > 0) return false;
    burst.priority = frames::Priority::kCa1;
    burst.mpdu_duration = kMpdu;
    burst.mpdu_count = 1;
    burst.sofs.clear();
    return true;
  }
  int idle_slots_ahead() override { return left_; }
  void on_idle_slots(int count) override {
    EXPECT_LE(count, left_);
    gaps.push_back(count);
    left_ -= count;
  }
  void on_busy(bool /*transmitted*/, bool /*success*/) override {
    left_ = countdown_;
  }

  std::vector<int> gaps;

 private:
  int countdown_;
  int left_;
};

constexpr des::SimTime kSlot = des::SimTime::from_ns(35'840);

TEST(DomainGaps, EndAtAPendingEventAndAtARunHorizon) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  ASSERT_EQ(domain.timing().slot, kSlot);
  CountdownStation station(40);
  domain.add_participant(station);
  domain.start();
  // An event halfway through slot 10: slots 0..10 start before it.
  scheduler.schedule_at(des::SimTime::from_ns(10 * kSlot.ns() + kSlot.ns() / 2),
                        [] {});
  // A horizon exactly at slot 20's start: that slot is still dispatched.
  scheduler.run_until(20 * kSlot);
  EXPECT_EQ(station.gaps, (std::vector<int>{11, 10}));
  EXPECT_EQ(domain.stats().idle_slots, 21);
  scheduler.run_until(des::SimTime::from_seconds(0.006));
  // Then the rest of the countdown, and the next full one.
  EXPECT_EQ(station.gaps, (std::vector<int>{11, 10, 19, 40}));
  EXPECT_EQ(domain.stats().successes, 2);
}

TEST(DomainGaps, EndAtACsmaRegionEnd) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  CountdownStation station(1000);  // Longer than one CSMA region.
  domain.add_participant(station);
  const BeaconSchedule schedule = BeaconSchedule::default_60hz();
  domain.set_beacon_schedule(schedule);
  domain.start();
  scheduler.run_until(schedule.period());

  // The first CSMA region runs from the beacon's end to the period's; a
  // gap takes the slots that fit in it, then the tail is a boundary wait.
  const BeaconSchedule::Region csma =
      schedule.region_at(schedule.beacon_duration());
  ASSERT_EQ(csma.kind, BeaconSchedule::RegionKind::kCsma);
  const auto fit = static_cast<int>(
      (csma.end - schedule.beacon_duration()).ns() / kSlot.ns());
  EXPECT_EQ(station.gaps, (std::vector<int>{fit}));
  EXPECT_EQ(domain.stats().boundary_wait_time,
            csma.end - schedule.beacon_duration() - fit * kSlot);
  // The next region's first gap finishes the countdown.
  scheduler.run_until(2 * schedule.period());
  ASSERT_GE(station.gaps.size(), 2u);
  EXPECT_EQ(station.gaps[1], 1000 - fit);
  EXPECT_EQ(domain.stats().successes, 1);
}

TEST(DomainGaps, SteppedRunsMatchSlotBySlotDispatch) {
  // Saturated stations, a TDMA owner and a Poisson-fed queue under beacon
  // periods, run in 1 ms steps: after every step, gaps and the
  // slot-by-slot oracle have the same counters; at the end, the same
  // trace and metrics, which one run to the end reproduces.
  struct Observed {
    std::vector<std::string> steps;
    std::string final_stats;
    std::string trace;
    std::string metrics;
    std::int64_t dispatched = 0;
  };
  const auto observe = [](bool one_at_a_time, bool in_steps) {
    des::Scheduler scheduler;
    ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
    SaturatedStation owner(make_entity(81), frames::Priority::kCa1, kMpdu);
    SaturatedStation rival(make_entity(82), frames::Priority::kCa1, kMpdu, 2);
    mac::QueueStation queue(make_entity(83), frames::Priority::kCa1, kMpdu,
                            scheduler);
    std::vector<std::unique_ptr<GapCounter>> counters;
    for (Participant* station :
         std::vector<Participant*>{&owner, &rival, &queue}) {
      counters.push_back(
          std::make_unique<GapCounter>(*station, one_at_a_time));
      domain.add_participant(*counters.back());
    }
    sim::PoissonArrivals arrivals(scheduler, domain, queue, 150.0,
                                  des::RandomStream(84));
    arrivals.start();
    domain.set_beacon_schedule(BeaconSchedule::default_60hz(
        {{0, des::SimTime::from_us(12'000.0),
          des::SimTime::from_us(4'000.0)}}));
    obs::Registry registry;
    obs::TraceSink trace;
    domain.bind_metrics(registry);
    domain.set_trace_sink(&trace);
    domain.start();

    Observed observed;
    const des::SimTime end = des::SimTime::from_seconds(0.5);
    if (in_steps) {
      for (des::SimTime t = des::SimTime::from_ns(1'000'000); t <= end;
           t += des::SimTime::from_ns(1'000'000)) {
        scheduler.run_until(t);
        observed.steps.push_back(describe(domain.stats()) + " | " +
                                 describe(owner.stats()) + " | " +
                                 describe(rival.stats()) + " | " +
                                 describe(queue.stats()));
      }
    } else {
      scheduler.run_until(end);
    }
    observed.final_stats = describe(domain.stats()) + " | " +
                           describe(owner.stats()) + " | " +
                           describe(rival.stats()) + " | " +
                           describe(queue.stats());
    std::ostringstream trace_bytes;
    trace.write_jsonl(trace_bytes);
    observed.trace = trace_bytes.str();
    std::ostringstream metrics;
    registry.snapshot().write_json(metrics);
    observed.metrics = metrics.str();
    observed.dispatched = scheduler.events_dispatched();
    return observed;
  };
  const Observed oracle = observe(/*one_at_a_time=*/true, /*in_steps=*/true);
  const Observed gaps = observe(false, true);
  const Observed one_run = observe(false, false);
  ASSERT_EQ(gaps.steps.size(), 500u);
  for (std::size_t i = 0; i < gaps.steps.size(); ++i) {
    ASSERT_EQ(gaps.steps[i], oracle.steps[i]) << "after step " << i + 1;
  }
  EXPECT_EQ(gaps.final_stats, oracle.final_stats);
  EXPECT_EQ(gaps.trace, oracle.trace);
  EXPECT_EQ(gaps.metrics, oracle.metrics);
  EXPECT_EQ(one_run.final_stats, gaps.final_stats);
  EXPECT_EQ(one_run.trace, gaps.trace);
  EXPECT_EQ(one_run.metrics, gaps.metrics);
  // Gaps save dispatches; the oracle dispatches every slot.
  EXPECT_LT(one_run.dispatched, oracle.dispatched);
}

/// Never pending and never sets a limit of its own: asked about every
/// gap, it keeps the default answer, so every idle slot is a dispatch.
class OneSlotAtATime : public Participant {
 public:
  std::optional<frames::Priority> pending() override { return std::nullopt; }
  bool poll_transmit(TxDescriptor& /*burst*/) override { return false; }
  void on_idle_slots(int /*count*/) override {}
  void on_busy(bool /*transmitted*/, bool /*success*/) override {}
};

TEST(DomainGaps, DeviceTailPastItsAggregationTimeoutEndsAGap) {
  // With no exchange overheads, a device's one-PB exchange is over well
  // within the 500 us aggregation timeout, so the partly filled block it
  // staged around waits for the timeout with no event to mark it, while
  // a saturated neighbour keeps the medium dispatching idle gaps. The
  // waiting device bounds each gap by that instant: every busy record,
  // counter and delivery matches the run that dispatches every idle slot.
  struct Observed {
    std::vector<std::pair<std::int64_t, std::vector<int>>> busy;
    std::string domain;
    std::int64_t delivered = 0;
  };
  class BusyLog : public MediumObserver {
   public:
    void on_medium_event(const MediumEventRecord& record) override {
      busy.emplace_back(record.start.ns(), record.transmitters);
    }
    std::vector<std::pair<std::int64_t, std::vector<int>>> busy;
  };
  const auto observe = [](bool one_at_a_time) {
    emu::Network network(7, phy::TimingConfig{});
    emu::DeviceConfig config;
    config.tonemap = phy::ToneMap::high_rate();
    emu::HpavDevice& sender = network.add_device(config);
    emu::HpavDevice& sink = network.add_device(config);
    SaturatedStation neighbour(make_entity(9), frames::Priority::kCa1,
                               des::SimTime::from_us(50.0));
    network.domain().add_participant(neighbour);
    OneSlotAtATime slot_by_slot;
    if (one_at_a_time) network.domain().add_participant(slot_by_slot);
    BusyLog log;
    network.domain().add_observer(log);
    // One full PB and a 490-byte tail, every 3 ms.
    frames::EthernetFrame frame;
    frame.destination = sink.mac();
    frame.source = sender.mac();
    frame.ether_type = frames::kEtherTypeIpv4;
    frame.payload.assign(986, 0x5A);
    std::function<void()> send;
    send = [&] {
      sender.host_send(frame);
      network.scheduler().schedule(des::SimTime::from_us(3'000.0), send);
    };
    network.start();
    send();
    network.run_for(des::SimTime::from_seconds(0.3));
    Observed observed;
    observed.busy = log.busy;
    observed.domain = describe(network.domain().stats());
    observed.delivered = sink.host_frames_delivered();
    return observed;
  };
  const Observed oracle = observe(true);
  const Observed gaps = observe(false);
  EXPECT_GT(oracle.delivered, 90);
  EXPECT_EQ(gaps.busy, oracle.busy);
  EXPECT_EQ(gaps.domain, oracle.domain);
  EXPECT_EQ(gaps.delivered, oracle.delivered);
}

}  // namespace
}  // namespace plc::medium
