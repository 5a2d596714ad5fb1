#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "des/time.hpp"
#include "util/error.hpp"

namespace plc::des {
namespace {

// --- SimTime -------------------------------------------------------------------

TEST(SimTime, PaperDurationsAreExactInNanoseconds) {
  EXPECT_EQ(SimTime::from_us(35.84).ns(), 35'840);
  EXPECT_EQ(SimTime::from_us(2920.64).ns(), 2'920'640);
  EXPECT_EQ(SimTime::from_us(2542.64).ns(), 2'542'640);
  EXPECT_EQ(SimTime::from_us(2050.0).ns(), 2'050'000);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::from_ns(100);
  const SimTime b = SimTime::from_ns(40);
  EXPECT_EQ((a + b).ns(), 140);
  EXPECT_EQ((a - b).ns(), 60);
  EXPECT_EQ((a * 3).ns(), 300);
  EXPECT_EQ((3 * a).ns(), 300);
  EXPECT_LT(b, a);
  EXPECT_EQ(SimTime::zero().ns(), 0);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(1.5).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::from_us(2.5).us(), 2.5);
  EXPECT_EQ(SimTime::from_us(35.84).to_string(), "35.84us");
}

TEST(SimTime, CompoundAssignment) {
  SimTime t = SimTime::from_ns(10);
  t += SimTime::from_ns(5);
  EXPECT_EQ(t.ns(), 15);
  t -= SimTime::from_ns(3);
  EXPECT_EQ(t.ns(), 12);
}

// --- Scheduler -----------------------------------------------------------------

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  scheduler.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  scheduler.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  scheduler.run_until(SimTime::from_ns(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now().ns(), 100);
  EXPECT_EQ(scheduler.events_dispatched(), 3);
}

TEST(Scheduler, TiesFireInInsertionOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.schedule(SimTime::from_ns(7), [&order, i] {
      order.push_back(i);
    });
  }
  scheduler.run_until(SimTime::from_ns(7));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, HorizonIsInclusive) {
  Scheduler scheduler;
  bool at_horizon = false;
  bool beyond = false;
  scheduler.schedule(SimTime::from_ns(50), [&] { at_horizon = true; });
  scheduler.schedule(SimTime::from_ns(51), [&] { beyond = true; });
  scheduler.run_until(SimTime::from_ns(50));
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(beyond);
  EXPECT_EQ(scheduler.now().ns(), 50);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler scheduler;
  int chain = 0;
  std::function<void()> tick = [&] {
    ++chain;
    if (chain < 10) {
      scheduler.schedule(SimTime::from_ns(10), tick);
    }
  };
  scheduler.schedule(SimTime::zero(), tick);
  scheduler.run_until(SimTime::from_us(1.0));
  EXPECT_EQ(chain, 10);
}

TEST(Scheduler, RejectsNegativeDelayAndPast) {
  Scheduler scheduler;
  EXPECT_THROW(scheduler.schedule(SimTime::from_ns(-1), [] {}),
               plc::Error);
  scheduler.schedule(SimTime::from_ns(10), [] {});
  scheduler.run_until(SimTime::from_ns(10));
  EXPECT_THROW(scheduler.schedule_at(SimTime::from_ns(5), [] {}),
               plc::Error);
}

TEST(Scheduler, StepReturnsFalseWhenIdle) {
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.step());
  scheduler.schedule(SimTime::from_ns(1), [] {});
  EXPECT_TRUE(scheduler.step());
  EXPECT_FALSE(scheduler.step());
}

TEST(Scheduler, RunningInStepsDispatchesTheSameSequence) {
  // The emulated testbed runs in checkpoints with nothing scheduled in
  // between, which is only sound if stepping through intermediate
  // horizons dispatches exactly what one run_until does. Four chains of
  // callbacks each schedule their next event 0-500 ns (ties and zero
  // delays included) or 1 us ahead; the chain seeded at 7.25 us puts an
  // event on a checkpoint.
  using Dispatch = std::pair<std::int64_t, int>;  // (time in ns, event id)
  const auto run = [](const std::vector<SimTime>& horizons) {
    Scheduler scheduler;
    RandomStream rng(0x5eed);
    std::vector<Dispatch> dispatched;
    int next_id = 0;
    std::function<void(int)> fire;
    const auto schedule_next = [&](SimTime delay) {
      const int id = next_id++;
      scheduler.schedule(delay, [&fire, id] { fire(id); });
    };
    fire = [&](int id) {
      dispatched.emplace_back(scheduler.now().ns(), id);
      schedule_next(rng.bernoulli(0.5)
                        ? SimTime::from_us(1.0)
                        : SimTime::from_ns(125 * rng.uniform_int(0, 4)));
    };
    for (const double start_us : {0.0, 0.0, 0.25, 7.25}) {
      schedule_next(SimTime::from_us(start_us));
    }
    for (const SimTime horizon : horizons) scheduler.run_until(horizon);
    EXPECT_EQ(scheduler.now(), horizons.back());
    EXPECT_EQ(scheduler.events_dispatched(),
              static_cast<std::int64_t>(dispatched.size()));
    return dispatched;
  };
  const std::vector<Dispatch> once = run({SimTime::from_us(20.0)});
  const std::vector<Dispatch> stepped =
      run({SimTime::from_us(1.0), SimTime::from_us(2.0),
           SimTime::from_us(7.25), SimTime::from_us(20.0)});
  EXPECT_GT(once.size(), 50u);
  EXPECT_NE(std::find(once.begin(), once.end(), Dispatch{7'250, 3}),
            once.end());
  EXPECT_EQ(stepped, once);
}

TEST(Scheduler, NextBarrierSeesOnlyItsOwnRunsHorizon) {
  Scheduler scheduler;
  EXPECT_EQ(scheduler.next_barrier(), SimTime::max());
  scheduler.schedule_at(SimTime::from_ns(300), [] {});
  EXPECT_EQ(scheduler.next_barrier(), SimTime::from_ns(300));
  EXPECT_EQ(scheduler.pending(), 1u);

  // Inside run_until, the horizon bounds it one nanosecond past itself
  // (an event at the horizon still fires), unless an event comes first.
  std::vector<std::pair<std::int64_t, SimTime>> seen;
  const auto look = [&] {
    seen.emplace_back(scheduler.now().ns(), scheduler.next_barrier());
  };
  scheduler.schedule_at(SimTime::from_ns(50), look);
  scheduler.schedule_at(SimTime::from_ns(400), look);
  scheduler.schedule_at(SimTime::from_ns(700), look);
  scheduler.run_until(SimTime::from_ns(200));
  EXPECT_EQ(scheduler.next_barrier(), SimTime::from_ns(300));
  scheduler.run_until(SimTime::from_ns(1000));
  const std::vector<std::pair<std::int64_t, SimTime>> expected{
      {50, SimTime::from_ns(201)},
      {400, SimTime::from_ns(700)},
      {700, SimTime::from_ns(1001)}};
  EXPECT_EQ(seen, expected);
  // Outside run_until, with nothing pending, nothing bounds it.
  EXPECT_EQ(scheduler.next_barrier(), SimTime::max());
  EXPECT_FALSE(scheduler.step());
}

// --- RandomStream -----------------------------------------------------------------

TEST(Random, DeterministicForSameSeed) {
  RandomStream a(42);
  RandomStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Random, DifferentSeedsDiffer) {
  RandomStream a(1);
  RandomStream b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(Random, DrawBackoffRangeAndCoverage) {
  RandomStream rng(7);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8000; ++i) {
    const int draw = rng.draw_backoff(8);
    ASSERT_GE(draw, 0);
    ASSERT_LT(draw, 8);
    ++seen[static_cast<std::size_t>(draw)];
  }
  for (const int count : seen) {
    EXPECT_GT(count, 800);  // Roughly uniform: expected 1000 each.
    EXPECT_LT(count, 1200);
  }
}

TEST(Random, DrawBackoffOfOneIsZero) {
  RandomStream rng(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.draw_backoff(1), 0);
  }
}

TEST(Random, BernoulliEdges) {
  RandomStream rng(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Random, BernoulliMean) {
  RandomStream rng(11);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(Random, ExponentialMean) {
  RandomStream rng(13);
  double sum = 0.0;
  const int samples = 100'000;
  for (int i = 0; i < samples; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / samples, 2.5, 0.05);
}

TEST(Random, DeriveSeedIsStableAndLabelSensitive) {
  const RandomStream root(99);
  EXPECT_EQ(root.derive_seed("station-1"), root.derive_seed("station-1"));
  EXPECT_NE(root.derive_seed("station-1"), root.derive_seed("station-2"));
  EXPECT_NE(root.derive_seed("a"), root.derive_seed("aa"));
}

TEST(Random, DeriveSeedDoesNotConsumeDraws) {
  RandomStream a(5);
  RandomStream b(5);
  (void)a.derive_seed("anything");
  EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
}

TEST(Random, RejectsBadArguments) {
  RandomStream rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), plc::Error);
  EXPECT_THROW(rng.draw_backoff(0), plc::Error);
  EXPECT_THROW(rng.bernoulli(-0.1), plc::Error);
  EXPECT_THROW(rng.exponential(0.0), plc::Error);
}

}  // namespace
}  // namespace plc::des
