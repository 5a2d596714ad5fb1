#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.hpp"
#include "mac/backoff.hpp"
#include "mac/config.hpp"
#include "phy/timing.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/sim_1901.hpp"
#include "sim/slot_simulator.hpp"
#include "util/error.hpp"

namespace plc::sim {
namespace {

// --- The Table 3 interface ---------------------------------------------------------

TEST(Sim1901, DefaultConfigurationRuns) {
  // The paper's example invocation:
  // sim_1901(2, 5e8, 2920.64, 2542.64, 2050, [8 16 32 64], [0 1 3 15])
  // (shortened here; the long-run value is checked statistically below).
  const Sim1901Result result = sim_1901(2, 5e6, 2920.64, 2542.64, 2050.0,
                                        {8, 16, 32, 64}, {0, 1, 3, 15});
  EXPECT_GT(result.collision_probability, 0.0);
  EXPECT_LT(result.collision_probability, 0.3);
  EXPECT_GT(result.normalized_throughput, 0.4);
  EXPECT_LT(result.normalized_throughput, 0.8);
}

TEST(Sim1901, SingleStationHasNoCollisions) {
  const Sim1901Result result = sim_1901(1, 1e7, 2920.64, 2542.64, 2050.0,
                                        {8, 16, 32, 64}, {0, 1, 3, 15});
  EXPECT_DOUBLE_EQ(result.collision_probability, 0.0);
  // Closed form: 2050 / (3.5 * 35.84 + 2542.64) = 0.7683...
  EXPECT_NEAR(result.normalized_throughput, 0.7683, 0.005);
}

TEST(Sim1901, DeterministicForSameSeed) {
  const auto a = sim_1901(3, 1e6, 2920.64, 2542.64, 2050.0, {8, 16},
                          {0, 1}, /*seed=*/7);
  const auto b = sim_1901(3, 1e6, 2920.64, 2542.64, 2050.0, {8, 16},
                          {0, 1}, /*seed=*/7);
  EXPECT_DOUBLE_EQ(a.collision_probability, b.collision_probability);
  EXPECT_DOUBLE_EQ(a.normalized_throughput, b.normalized_throughput);
}

TEST(Sim1901, ValidatesInputsLikeTheMatlabOriginal) {
  // The MATLAB function returns early when |cw| != |dc|; we throw.
  EXPECT_THROW(sim_1901(2, 1e6, 2920.64, 2542.64, 2050.0, {8, 16}, {0}),
               plc::Error);
  EXPECT_THROW(sim_1901(0, 1e6, 2920.64, 2542.64, 2050.0, {8}, {0}),
               plc::Error);
  EXPECT_THROW(sim_1901(2, -1.0, 2920.64, 2542.64, 2050.0, {8}, {0}),
               plc::Error);
  EXPECT_THROW(sim_1901(2, 1e6, 2920.64, 2542.64, 2050.0, {0}, {0}),
               plc::Error);
}

TEST(Sim1901, CollisionProbabilityGrowsWithN) {
  double previous = -1.0;
  for (const int n : {1, 2, 4, 8, 16}) {
    const auto result = sim_1901(n, 3e7, 2920.64, 2542.64, 2050.0,
                                 {8, 16, 32, 64}, {0, 1, 3, 15});
    EXPECT_GT(result.collision_probability, previous);
    previous = result.collision_probability;
  }
}

TEST(Sim1901, ThroughputDecreasesWithN) {
  const auto few = sim_1901(2, 3e7, 2920.64, 2542.64, 2050.0,
                            {8, 16, 32, 64}, {0, 1, 3, 15});
  const auto many = sim_1901(20, 3e7, 2920.64, 2542.64, 2050.0,
                             {8, 16, 32, 64}, {0, 1, 3, 15});
  EXPECT_GT(few.normalized_throughput, many.normalized_throughput);
}

// --- SlotSimulator internals ---------------------------------------------------------

TEST(SlotSim, EstimatorMatchesMatlabDefinition) {
  SlotSimulator simulator(
      make_1901_entities(3, mac::BackoffConfig::ca0_ca1(), 11));
  const SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(5.0));
  EXPECT_NEAR(results.collision_probability(),
              static_cast<double>(results.collided_tx) /
                  static_cast<double>(results.collided_tx +
                                      results.successes),
              1e-15);
  // Per-station counters sum to the aggregate ones.
  std::int64_t success_sum = 0;
  std::int64_t collision_sum = 0;
  for (int i = 0; i < 3; ++i) {
    success_sum += results.tx_success[static_cast<std::size_t>(i)];
    collision_sum += results.tx_collision[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(success_sum, results.successes);
  EXPECT_EQ(collision_sum, results.collided_tx);
}

TEST(SlotSim, ElapsedMatchesEventAccounting) {
  SlotSimulator simulator(
      make_1901_entities(2, mac::BackoffConfig::ca0_ca1(), 3));
  const SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(1.0));
  const std::int64_t reconstructed =
      results.idle_slots * 35'840 + results.successes * 2'542'640 +
      results.collision_events * 2'920'640;
  EXPECT_EQ(results.elapsed.ns(), reconstructed);
}

TEST(SlotSim, ObserverSeesEveryEvent) {
  SlotSimulator simulator(
      make_1901_entities(2, mac::BackoffConfig::ca0_ca1(), 5));
  std::int64_t events = 0;
  std::int64_t busy = 0;
  des::SimTime last_start = des::SimTime::from_ns(-1);
  simulator.set_observer([&](const SlotEvent& event) {
    ++events;
    if (event.type != SlotEventType::kIdle) ++busy;
    EXPECT_GT(event.start, last_start);  // Strictly increasing starts.
    last_start = event.start;
  });
  const SlotSimResults results = simulator.run_events(10'000);
  EXPECT_EQ(events, 10'000);
  EXPECT_EQ(busy, results.successes + results.collision_events);
}

TEST(SlotSim, WinnerTraceMatchesSuccessCount) {
  SlotSimulator simulator(
      make_1901_entities(3, mac::BackoffConfig::ca0_ca1(), 5));
  simulator.enable_winner_trace(true);
  const SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(2.0));
  EXPECT_EQ(static_cast<std::int64_t>(simulator.winners().size()),
            results.successes);
  for (const int winner : simulator.winners()) {
    EXPECT_GE(winner, 0);
    EXPECT_LT(winner, 3);
  }
}

TEST(SlotSim, DcfEntitiesRunToo) {
  SlotSimulator simulator(make_dcf_entities(4, 16, 1024, 21));
  const SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(2.0));
  EXPECT_GT(results.successes, 0);
}

TEST(SlotSim, EntityAccessorBoundsChecked) {
  SlotSimulator simulator(
      make_1901_entities(2, mac::BackoffConfig::ca0_ca1(), 5));
  EXPECT_NO_THROW(simulator.entity(0));
  EXPECT_NO_THROW(simulator.entity(1));
  EXPECT_THROW(simulator.entity(2), plc::Error);
  EXPECT_THROW(simulator.entity(-1), plc::Error);
}

TEST(SlotSim, GreedyStationTakesMoreThanItsFairShare) {
  // E12's simulated 1+k leg: one station tuned to {4,8}/{3,7} (d >= CW-1,
  // so deferral never fires) among 4 CA1 stations. The fair share is
  // 0.2; the greedy station must take more than 0.3 of the successes.
  mac::BackoffConfig greedy;
  greedy.cw = {4, 8};
  greedy.dc = {3, 7};
  des::RandomStream root(0x4E7);
  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.push_back(std::make_unique<mac::Backoff1901>(
      greedy, des::RandomStream(root.derive_seed("greedy"))));
  for (int i = 0; i < 4; ++i) {
    entities.push_back(std::make_unique<mac::Backoff1901>(
        mac::BackoffConfig::ca0_ca1(),
        des::RandomStream(root.derive_seed("d" + std::to_string(i)))));
  }
  SlotSimulator simulator(std::move(entities),
                          phy::TimingConfig::paper_default());
  const SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(120.0));
  const double greedy_share =
      static_cast<double>(results.tx_success[0]) /
      static_cast<double>(results.successes);
  EXPECT_GT(greedy_share, 0.3);
}

// --- Parameterized: estimator sanity across configurations ----------------------------

struct ConfigCase {
  const char* name;
  std::vector<int> cw;
  std::vector<int> dc;
};

// gtest appends the printed parameter to each case's ctest name; without
// this it prints the struct's raw bytes, pointer bytes included.
void PrintTo(const ConfigCase& test_case, std::ostream* out) {
  *out << test_case.name;
}

class ConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweep, ProbabilitiesAreWellFormedAndSeedStable) {
  const ConfigCase& test_case = GetParam();
  mac::BackoffConfig config;
  config.cw = test_case.cw;
  config.dc = test_case.dc;
  for (const int n : {1, 2, 5}) {
    SlotSimulator simulator(make_1901_entities(n, config, 42));
    const SlotSimResults results =
        simulator.run(des::SimTime::from_seconds(3.0));
    const double cp = results.collision_probability();
    EXPECT_GE(cp, 0.0) << test_case.name;
    EXPECT_LE(cp, 1.0) << test_case.name;
    if (n == 1) {
      EXPECT_DOUBLE_EQ(cp, 0.0) << test_case.name;
    }
    EXPECT_GT(results.successes, 0) << test_case.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ConfigSweep,
    ::testing::Values(
        ConfigCase{"table1_ca1", {8, 16, 32, 64}, {0, 1, 3, 15}},
        ConfigCase{"table1_ca3", {8, 16, 16, 32}, {0, 1, 3, 15}},
        ConfigCase{"single_stage", {16}, {0}},
        ConfigCase{"no_deferral", {8, 16, 32, 64},
                   {mac::kDeferralDisabled, mac::kDeferralDisabled,
                    mac::kDeferralDisabled, mac::kDeferralDisabled}},
        ConfigCase{"two_stage", {4, 64}, {0, 7}},
        ConfigCase{"wide_single", {256}, {1000}}),
    [](const ::testing::TestParamInfo<ConfigCase>& info) {
      return info.param.name;
    });

// --- Runner -----------------------------------------------------------------------------

TEST(Runner, AggregatesRepetitions) {
  RunSpec spec;
  spec.stations = 3;
  spec.duration = des::SimTime::from_seconds(1.0);
  spec.repetitions = 5;
  const RunSummary summary = ParallelRunner(2).run_point(spec);
  EXPECT_EQ(summary.collision_probability.count(), 5);
  EXPECT_GT(summary.collision_probability.mean(), 0.0);
  EXPECT_GT(summary.normalized_throughput.mean(), 0.3);
  EXPECT_GT(summary.jain_index.mean(), 0.8);  // Long-run fairness.
}

TEST(Runner, DcfSpecUsesDcfEntities) {
  RunSpec spec;
  spec.mac = dcf::DcfConfig{16, 1024};
  spec.stations = 3;
  spec.duration = des::SimTime::from_seconds(1.0);
  spec.repetitions = 2;
  const RunSummary summary = ParallelRunner(2).run_point(spec);
  EXPECT_GT(summary.normalized_throughput.mean(), 0.0);
}

TEST(Runner, RepetitionsUseIndependentSeeds) {
  RunSpec spec;
  spec.stations = 2;
  spec.duration = des::SimTime::from_seconds(1.0);
  spec.repetitions = 3;
  const RunSummary summary = ParallelRunner(2).run_point(spec);
  // Independent repetitions virtually never agree to full precision.
  EXPECT_GT(summary.collision_probability.stddev(), 0.0);
}

}  // namespace
}  // namespace plc::sim
