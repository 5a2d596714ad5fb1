#include <deque>

#include <gtest/gtest.h>

#include "des/scheduler.hpp"
#include "util/error.hpp"
#include "workload/sources.hpp"

namespace plc::workload {
namespace {

FrameTemplate make_template() {
  FrameTemplate t;
  t.destination = frames::MacAddress::for_station(2);
  t.source = frames::MacAddress::for_station(1);
  t.payload_bytes = 1470;
  return t;
}

TEST(FrameTemplate, StampsSequenceNumber) {
  const FrameTemplate t = make_template();
  const frames::EthernetFrame frame = t.make(0x01020304);
  EXPECT_EQ(frame.payload[0], 0x01);
  EXPECT_EQ(frame.payload[3], 0x04);
  EXPECT_EQ(frame.payload.size(), 1470u);
  EXPECT_EQ(frame.ether_type, frames::kEtherTypeIpv4);
}

TEST(FrameTemplate, RejectsOversizedPayload) {
  FrameTemplate t = make_template();
  t.payload_bytes = 2000;
  EXPECT_THROW(t.make(0), plc::Error);
}

TEST(Saturated, KeepsBacklogAboveTarget) {
  std::deque<frames::EthernetFrame> queue;
  SaturatedSource source(
      make_template(),
      [&queue](const frames::EthernetFrame& frame) {
        queue.push_back(frame);
      },
      [&queue] { return queue.size(); }, /*target_backlog=*/16);
  source.top_up();
  // The sink takes 5 frames at a time and cues a top-up after each
  // drain; the source must keep up.
  for (int step = 0; step < 100; ++step) {
    for (int i = 0; i < 5 && !queue.empty(); ++i) queue.pop_front();
    EXPECT_GE(queue.size(), 11u) << "step " << step;
    source.top_up();
  }
  EXPECT_GT(source.frames_generated(), 400);
}

TEST(Saturated, NeverPushesAtOrAboveTarget) {
  // A sink that never drains: the first top-up fills it to target, and
  // each of 2000 later top-ups must find it full and push nothing.
  std::size_t queued = 0;
  SaturatedSource source(
      make_template(), [&queued](const frames::EthernetFrame&) { ++queued; },
      [&queued] { return queued; }, /*target_backlog=*/16);
  for (int i = 0; i <= 2000; ++i) source.top_up();
  EXPECT_EQ(queued, 16u);
  EXPECT_EQ(source.frames_generated(), 16);
}

TEST(Poisson, RateIsStatisticallyCorrect) {
  des::Scheduler scheduler;
  std::int64_t arrivals = 0;
  PoissonSource source(
      scheduler, make_template(),
      [&arrivals](frames::EthernetFrame) { ++arrivals; },
      /*rate_fps=*/1000.0, des::RandomStream(7));
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(20.0));
  // 20k expected; 3-sigma ~ 3*sqrt(20000) ~ 424.
  EXPECT_NEAR(static_cast<double>(arrivals), 20'000.0, 600.0);
}

TEST(Poisson, StopHaltsArrivals) {
  des::Scheduler scheduler;
  std::int64_t arrivals = 0;
  PoissonSource source(
      scheduler, make_template(),
      [&arrivals](frames::EthernetFrame) { ++arrivals; },
      1000.0, des::RandomStream(8));
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(1.0));
  source.stop();
  const std::int64_t at_stop = arrivals;
  scheduler.run_until(des::SimTime::from_seconds(2.0));
  EXPECT_LE(arrivals, at_stop + 1);  // At most one in-flight event.
}

TEST(OnOff, GeneratesOnlyDuringOnPeriods) {
  des::Scheduler scheduler;
  std::int64_t arrivals = 0;
  OnOffSource source(
      scheduler, make_template(),
      [&arrivals](frames::EthernetFrame) { ++arrivals; },
      /*on_rate_fps=*/1000.0, des::SimTime::from_seconds(0.5),
      des::SimTime::from_seconds(0.5), des::RandomStream(9));
  source.start();
  scheduler.run_until(des::SimTime::from_seconds(20.0));
  // Duty cycle 50%: expect about 10k arrivals, loosely bounded.
  EXPECT_GT(arrivals, 5'000);
  EXPECT_LT(arrivals, 15'000);
}

TEST(Sources, ValidateArguments) {
  des::Scheduler scheduler;
  const auto sink = [](frames::EthernetFrame) {};
  const auto backlog = [] { return std::size_t{0}; };
  EXPECT_THROW(SaturatedSource(make_template(), sink, backlog, 0),
               plc::Error);
  EXPECT_THROW(SaturatedSource(make_template(), sink, nullptr), plc::Error);
  EXPECT_THROW(PoissonSource(scheduler, make_template(), sink, 0.0,
                             des::RandomStream(1)),
               plc::Error);
  EXPECT_THROW(OnOffSource(scheduler, make_template(), sink, 100.0,
                           des::SimTime::zero(),
                           des::SimTime::from_seconds(1),
                           des::RandomStream(1)),
               plc::Error);
}

}  // namespace
}  // namespace plc::workload
