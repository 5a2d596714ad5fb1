// Tests for the hybrid beacon-period medium structure (beacon region,
// TDMA allocations, CSMA region with boundary deference).
#include <memory>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "emu/network.hpp"
#include "mac/station.hpp"
#include "medium/beacon.hpp"
#include "medium/domain.hpp"
#include "phy/timing.hpp"
#include "util/error.hpp"

namespace plc::medium {
namespace {

using mac::Backoff1901;
using mac::BackoffConfig;

const des::SimTime kMpdu = des::SimTime::from_ns(2'050'000);

std::unique_ptr<mac::BackoffEntity> entity(std::uint64_t seed) {
  return std::make_unique<Backoff1901>(BackoffConfig::ca0_ca1(),
                                       des::RandomStream(seed));
}

// --- BeaconSchedule geometry -----------------------------------------------------

TEST(Schedule, RegionsPartitionThePeriod) {
  BeaconSchedule schedule(des::SimTime::from_us(10'000.0),
                          des::SimTime::from_us(1'000.0),
                          {{/*participant*/ 2, des::SimTime::from_us(4'000.0),
                            des::SimTime::from_us(2'000.0)}});
  // Beacon region.
  auto region = schedule.region_at(des::SimTime::from_us(500.0));
  EXPECT_EQ(region.kind, BeaconSchedule::RegionKind::kBeacon);
  EXPECT_EQ(region.end.ns(), des::SimTime::from_us(1'000.0).ns());
  // CSMA gap between beacon and allocation.
  region = schedule.region_at(des::SimTime::from_us(2'000.0));
  EXPECT_EQ(region.kind, BeaconSchedule::RegionKind::kCsma);
  EXPECT_EQ(region.end.ns(), des::SimTime::from_us(4'000.0).ns());
  // TDMA allocation.
  region = schedule.region_at(des::SimTime::from_us(5'000.0));
  EXPECT_EQ(region.kind, BeaconSchedule::RegionKind::kTdma);
  EXPECT_EQ(region.owner, 2);
  EXPECT_EQ(region.end.ns(), des::SimTime::from_us(6'000.0).ns());
  // Trailing CSMA region.
  region = schedule.region_at(des::SimTime::from_us(8'000.0));
  EXPECT_EQ(region.kind, BeaconSchedule::RegionKind::kCsma);
  EXPECT_EQ(region.end.ns(), des::SimTime::from_us(10'000.0).ns());
}

TEST(Schedule, RepeatsEveryPeriod) {
  const BeaconSchedule schedule = BeaconSchedule::default_60hz();
  const auto first = schedule.region_at(des::SimTime::from_us(100.0));
  const auto later = schedule.region_at(des::SimTime::from_us(100.0) +
                                        3 * schedule.period());
  EXPECT_EQ(first.kind, BeaconSchedule::RegionKind::kBeacon);
  EXPECT_EQ(later.kind, BeaconSchedule::RegionKind::kBeacon);
  EXPECT_EQ((later.end - first.end).ns(), (3 * schedule.period()).ns());
}

TEST(Schedule, ValidatesLayout) {
  // Allocation overlapping the beacon.
  EXPECT_THROW(
      BeaconSchedule(des::SimTime::from_us(10'000.0),
                     des::SimTime::from_us(1'000.0),
                     {{1, des::SimTime::from_us(500.0),
                       des::SimTime::from_us(1'000.0)}}),
      plc::Error);
  // Overlapping allocations.
  EXPECT_THROW(
      BeaconSchedule(des::SimTime::from_us(10'000.0),
                     des::SimTime::from_us(1'000.0),
                     {{1, des::SimTime::from_us(2'000.0),
                       des::SimTime::from_us(2'000.0)},
                      {2, des::SimTime::from_us(3'000.0),
                       des::SimTime::from_us(1'000.0)}}),
      plc::Error);
  // Allocation past the period end.
  EXPECT_THROW(
      BeaconSchedule(des::SimTime::from_us(10'000.0),
                     des::SimTime::from_us(1'000.0),
                     {{1, des::SimTime::from_us(9'500.0),
                       des::SimTime::from_us(1'000.0)}}),
      plc::Error);
}

// --- Domain in hybrid mode ----------------------------------------------------------

struct HybridFixture {
  des::Scheduler scheduler;
  ContentionDomain domain{scheduler, phy::TimingConfig::paper_default()};
  std::vector<std::unique_ptr<mac::SaturatedStation>> stations;

  mac::SaturatedStation& add_saturated(std::uint64_t seed) {
    stations.push_back(std::make_unique<mac::SaturatedStation>(
        entity(seed), frames::Priority::kCa1, kMpdu, 1));
    domain.add_participant(*stations.back());
    return *stations.back();
  }
};

TEST(Hybrid, TimeAccountingIncludesAllRegions) {
  HybridFixture fixture;
  fixture.add_saturated(1);
  fixture.add_saturated(2);
  fixture.domain.set_beacon_schedule(BeaconSchedule::default_60hz(
      {{0, des::SimTime::from_us(5'000.0), des::SimTime::from_us(8'000.0)}}));
  fixture.domain.start();
  fixture.scheduler.run_until(des::SimTime::from_seconds(5.0));
  const DomainStats& stats = fixture.domain.stats();
  EXPECT_GT(stats.beacon_time.ns(), 0);
  EXPECT_GT(stats.tdma_time.ns(), 0);
  EXPECT_GT(stats.successes, 0);
  EXPECT_GT(stats.tdma_successes, 0);
  // Identity: the regions partition the elapsed time.
  EXPECT_EQ(stats.total_time().ns(),
            stats.idle_time.ns() + stats.busy_time().ns() +
                stats.beacon_time.ns() + stats.tdma_time.ns() +
                stats.tdma_idle_time.ns() + stats.boundary_wait_time.ns());
  EXPECT_NEAR(static_cast<double>(stats.total_time().ns()), 5e9, 3e6);
  // Beacon time fraction ~ 1 ms / 33.33 ms = 3%.
  EXPECT_NEAR(static_cast<double>(stats.beacon_time.ns()) /
                  static_cast<double>(stats.total_time().ns()),
              0.03, 0.005);
}

TEST(Hybrid, TdmaOwnerGetsExclusiveAirtime) {
  HybridFixture fixture;
  mac::SaturatedStation& owner = fixture.add_saturated(1);
  mac::SaturatedStation& other = fixture.add_saturated(2);
  // A large allocation for station 0.
  fixture.domain.set_beacon_schedule(BeaconSchedule::default_60hz(
      {{0, des::SimTime::from_us(2'000.0),
        des::SimTime::from_us(15'000.0)}}));
  struct Tap : MediumObserver {
    std::int64_t cf_by_owner = 0;
    std::int64_t cf_by_other = 0;
    void on_medium_event(const MediumEventRecord& record) override {
      if (record.type == MediumEventType::kSuccess &&
          record.contention_free) {
        (record.transmitters.front() == 0 ? cf_by_owner : cf_by_other)++;
      }
    }
  } tap;
  fixture.domain.add_observer(tap);
  fixture.domain.start();
  fixture.scheduler.run_until(des::SimTime::from_seconds(5.0));
  EXPECT_GT(tap.cf_by_owner, 0);
  EXPECT_EQ(tap.cf_by_other, 0);
  // The owner gets TDMA *plus* its CSMA share: strictly more successes.
  EXPECT_GT(owner.stats().successes + fixture.domain.stats().tdma_successes,
            other.stats().successes);
}

TEST(Hybrid, NoExchangeCrossesARegionBoundary) {
  HybridFixture fixture;
  fixture.add_saturated(1);
  fixture.add_saturated(2);
  const BeaconSchedule schedule = BeaconSchedule::default_60hz(
      {{0, des::SimTime::from_us(10'000.0),
        des::SimTime::from_us(5'000.0)}});
  fixture.domain.set_beacon_schedule(schedule);
  struct Tap : MediumObserver {
    const BeaconSchedule* schedule = nullptr;
    void on_medium_event(const MediumEventRecord& record) override {
      if (record.type == MediumEventType::kBeacon) return;
      const auto region = schedule->region_at(record.start);
      // The whole event must fit inside its region.
      EXPECT_LE((record.start + record.duration).ns(), region.end.ns())
          << "event at " << record.start.us() << "us";
    }
  } tap;
  tap.schedule = &schedule;
  fixture.domain.add_observer(tap);
  fixture.domain.start();
  fixture.scheduler.run_until(des::SimTime::from_seconds(2.0));
  EXPECT_GT(fixture.domain.stats().boundary_wait_time.ns(), 0);
}

TEST(Hybrid, ScheduleMustBeSetBeforeStart) {
  HybridFixture fixture;
  fixture.add_saturated(1);
  fixture.domain.start();
  EXPECT_THROW(
      fixture.domain.set_beacon_schedule(BeaconSchedule::default_60hz()),
      plc::Error);
}

TEST(Hybrid, QueueStationDrainsThroughItsAllocation) {
  des::Scheduler scheduler;
  ContentionDomain domain(scheduler, phy::TimingConfig::paper_default());
  mac::QueueStation station(entity(5), frames::Priority::kCa1, kMpdu,
                            scheduler);
  domain.add_participant(station);
  domain.set_beacon_schedule(BeaconSchedule::default_60hz(
      {{0, des::SimTime::from_us(2'000.0),
        des::SimTime::from_us(20'000.0)}}));
  domain.start();
  for (int i = 0; i < 50; ++i) station.enqueue_frame();
  domain.notify_pending();
  scheduler.run_until(des::SimTime::from_seconds(1.0));
  EXPECT_EQ(station.queue_depth(), 0u);
  EXPECT_EQ(station.delays().size(), 50u);
  // Most frames go out contention-free.
  EXPECT_GT(domain.stats().tdma_successes, 25);
}

TEST(Hybrid, EmulatedDevicesUseTheirAllocations) {
  // Full-stack devices (not just pure-MAC stations) ride TDMA: give the
  // sender a large allocation and check contention-free traffic flows.
  emu::Network network(0xBEAC);
  emu::HpavDevice& sender = network.add_device();
  emu::HpavDevice& receiver = network.add_device();
  // Participant ids are tei - 1 by Network construction.
  network.domain().set_beacon_schedule(BeaconSchedule::default_60hz(
      {{sender.tei() - 1, des::SimTime::from_us(2'000.0),
        des::SimTime::from_us(12'000.0)}}));
  int delivered = 0;
  receiver.set_host_receive([&](const frames::EthernetFrame& frame) {
    if (frame.ether_type == frames::kEtherTypeIpv4) ++delivered;
  });
  network.start();
  for (int i = 0; i < 64; ++i) {
    frames::EthernetFrame frame;
    frame.destination = receiver.mac();
    frame.source = sender.mac();
    frame.ether_type = frames::kEtherTypeIpv4;
    frame.payload.assign(1400, 0);
    sender.host_send(frame);
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  EXPECT_EQ(delivered, 64);
  EXPECT_GT(network.domain().stats().tdma_successes, 0);
}

TEST(Hybrid, StagedBurstKeepsItsPriorityInTheAllocation) {
  // The 1 ms CSMA region fits no exchange, so a burst staged there is
  // refused at the region's end and is still staged when the sender's
  // allocation opens. With CA2 MMEs queued next to CA1 data, the head
  // link's class can differ from the staged burst's; the allocation must
  // describe the burst at the class its SoFs carry.
  emu::Network network(0x57A6);
  emu::HpavDevice& sender = network.add_device();
  emu::HpavDevice& receiver = network.add_device();
  network.domain().set_beacon_schedule(
      BeaconSchedule(des::SimTime::from_us(10'000.0),
                     des::SimTime::from_us(1'000.0),
                     {{sender.tei() - 1, des::SimTime::from_us(2'000.0),
                       des::SimTime::from_us(8'000.0)}}));
  struct Tap : MediumObserver {
    std::int64_t sofs = 0;
    std::int64_t mismatched = 0;
    void on_medium_event(const MediumEventRecord& record) override {
      if (!record.contention_free) return;
      for (const frames::SofDelimiter& sof : record.sofs) {
        ++sofs;
        if (sof.priority() != record.priority) ++mismatched;
      }
    }
  } tap;
  network.domain().add_observer(tap);
  network.start();
  sender.start_periodic_mme(des::SimTime::from_us(10'000.0), receiver.mac(),
                            frames::Priority::kCa2, 100);
  for (int i = 0; i < 8; ++i) {
    frames::EthernetFrame frame;
    frame.destination = receiver.mac();
    frame.source = sender.mac();
    frame.ether_type = frames::kEtherTypeIpv4;
    frame.payload.assign(1400, 0);
    sender.host_send(frame);
  }
  network.run_for(des::SimTime::from_seconds(0.2));
  EXPECT_GT(tap.sofs, 0);
  EXPECT_EQ(tap.mismatched, 0);
}

TEST(Hybrid, CsmaOnlyBehaviourUnchangedWithoutSchedule) {
  // Regression guard: the hybrid additions must not alter plain CSMA.
  HybridFixture fixture;
  fixture.add_saturated(1);
  fixture.domain.start();
  fixture.scheduler.run_until(des::SimTime::from_seconds(2.0));
  const DomainStats& stats = fixture.domain.stats();
  EXPECT_EQ(stats.beacon_time.ns(), 0);
  EXPECT_EQ(stats.tdma_time.ns(), 0);
  EXPECT_EQ(stats.boundary_wait_time.ns(), 0);
  EXPECT_NEAR(stats.normalized_throughput(), 2050.0 / 2668.08, 0.01);
}

}  // namespace
}  // namespace plc::medium
