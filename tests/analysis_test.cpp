#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/delay.hpp"
#include "analysis/exact_chain.hpp"
#include "analysis/model_1901.hpp"
#include "analysis/model_dcf.hpp"
#include "analysis/optimizer.hpp"
#include "exact_pair_reference.hpp"
#include "phy/timing.hpp"
#include "sim/sim_1901.hpp"
#include "sim/slot_simulator.hpp"
#include "sim/unsaturated.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/math.hpp"

namespace plc::analysis {
namespace {

const mac::BackoffConfig kCa1 = mac::BackoffConfig::ca0_ca1();
const phy::TimingConfig kTiming = phy::TimingConfig::paper_default();
const des::SimTime kFrame = des::SimTime::from_us(2050.0);

// --- Per-stage quantities ----------------------------------------------------------

TEST(StageMath, AttemptProbabilityAtZeroBusyIsOne) {
  // With a never-busy medium the deferral counter never fires: the
  // station always reaches BC = 0 and transmits.
  for (const int cw : {1, 8, 64}) {
    for (const int dc : {0, 3, 15}) {
      EXPECT_DOUBLE_EQ(stage_row(cw, dc, 0.0).attempt_probability, 1.0);
    }
  }
}

TEST(StageMath, AttemptProbabilityAtFullBusy) {
  // p = 1: every countdown event is busy, so the station transmits iff
  // its draw b <= dc; the average is min(dc+1, cw)/cw.
  EXPECT_DOUBLE_EQ(stage_row(8, 0, 1.0).attempt_probability, 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(stage_row(64, 15, 1.0).attempt_probability, 16.0 / 64.0);
  EXPECT_DOUBLE_EQ(stage_row(4, 15, 1.0).attempt_probability, 1.0);
}

TEST(StageMath, AttemptProbabilityDecreasesWithBusy) {
  double previous = 2.0;
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    const double x = stage_row(32, 3, p).attempt_probability;
    EXPECT_LE(x, previous + 1e-12);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    previous = x;
  }
}

TEST(StageMath, CountdownAtZeroBusyIsMeanBackoff) {
  // No busy events: countdown slots = E[b] = (CW-1)/2.
  EXPECT_DOUBLE_EQ(stage_row(8, 0, 0.0).expected_countdown, 3.5);
  EXPECT_DOUBLE_EQ(stage_row(64, 15, 0.0).expected_countdown, 31.5);
  EXPECT_DOUBLE_EQ(stage_row(1, 0, 0.5).expected_countdown, 0.0);
}

TEST(StageMath, CountdownShrinksWithBusyWhenDeferralActive) {
  // d = 0: any busy event ends the stage early, so more busy => fewer
  // expected countdown events.
  double previous = 100.0;
  for (double p = 0.0; p <= 1.0; p += 0.2) {
    const double s = stage_row(32, 0, p).expected_countdown;
    EXPECT_LE(s, previous + 1e-12);
    previous = s;
  }
}

TEST(StageMath, DisabledDeferralMatchesPlainBackoff) {
  // With an unreachable deferral counter, busy probability is irrelevant.
  EXPECT_DOUBLE_EQ(
      stage_row(64, mac::kDeferralDisabled, 0.7).attempt_probability, 1.0);
  EXPECT_DOUBLE_EQ(
      stage_row(64, mac::kDeferralDisabled, 0.7).expected_countdown, 31.5);
}

TEST(StageMath, RejectsBadArguments) {
  EXPECT_THROW(stage_row(0, 0, 0.5), plc::Error);
  EXPECT_THROW(stage_row(8, -1, 0.5), plc::Error);
  EXPECT_THROW(stage_row(8, 0, -0.1), plc::Error);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int cw : {1, 8}) {
    for (const double p : {nan, -0.1, -1e-300, 1.5}) {
      EXPECT_THROW(stage_row(cw, 0, p), plc::Error)
          << "cw=" << cw << " p=" << p;
    }
  }
}

/// The stage sums as the solver computed them before the one-pass row:
/// util::binomial_cdf for every b, x and S in separate loops.
StageRow reference_stage_row(int cw, int dc, double p) {
  double x = 0.0;
  for (int b = 0; b < cw; ++b) x += util::binomial_cdf(b, dc, p);
  double s = 0.0;
  for (int k = 0; k + 1 < cw; ++k) {
    s += static_cast<double>(cw - 1 - k) * util::binomial_cdf(k, dc, p);
  }
  return {x / static_cast<double>(cw), s / static_cast<double>(cw)};
}

TEST(StageMath, RowMatchesPerBinomialCdfSumsBitForBit) {
  // Windows 4096 and up cross the log-factorial table's bound; the p grid
  // takes in both exact pmf branches, the smallest subnormal and the
  // largest double below 1. At p = 2^-8 a window of ~4096 expects ~16
  // busy events, so rows past the bound sum pmfs far from 0 and 1, and a
  // wrong bit in log n! there would show.
  for (const int cw : {1, 2, 8, 64, 4095, 4096, 4097, 5000}) {
    for (const int dc : {0, 1, 15, cw - 1, cw, mac::kDeferralDisabled}) {
      for (const double p : {0.0, 5e-324, 1e-300, 0x1p-8, 0.3, 0.5,
                             1.0 - 0x1p-53, 1.0}) {
        const StageRow row = stage_row(cw, dc, p);
        const StageRow reference = reference_stage_row(cw, dc, p);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row.attempt_probability),
                  std::bit_cast<std::uint64_t>(reference.attempt_probability))
            << "x: cw=" << cw << " dc=" << dc << " p=" << p;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row.expected_countdown),
                  std::bit_cast<std::uint64_t>(reference.expected_countdown))
            << "S: cw=" << cw << " dc=" << dc << " p=" << p;
      }
    }
  }
}

// --- Decoupling model -----------------------------------------------------------------

TEST(Model1901, SingleStationClosedForm) {
  const Model1901Result result = solve_1901(1, kCa1);
  EXPECT_DOUBLE_EQ(result.gamma, 0.0);
  // tau = 1 / (E[BC_0] + 1) = 1 / 4.5 = 2/(CW0+1).
  EXPECT_NEAR(result.tau, 2.0 / 9.0, 1e-12);
  const double cycle_us = 3.5 * 35.84 + 2542.64;
  EXPECT_NEAR(result.normalized_throughput(kTiming, kFrame),
              2050.0 / cycle_us, 1e-9);
}

TEST(Model1901, EventProbabilitiesSumToOne) {
  for (const int n : {1, 2, 5, 10, 50}) {
    const Model1901Result result = solve_1901(n, kCa1);
    EXPECT_NEAR(result.p_idle + result.p_success + result.p_collision, 1.0,
                1e-9)
        << "n=" << n;
  }
}

TEST(Model1901, GammaIncreasesWithN) {
  double previous = -1.0;
  for (const int n : {1, 2, 3, 5, 10, 20, 50}) {
    const Model1901Result result = solve_1901(n, kCa1);
    EXPECT_GT(result.gamma, previous) << "n=" << n;
    previous = result.gamma;
  }
}

TEST(Model1901, TauDecreasesWithN) {
  double previous = 2.0;
  for (const int n : {1, 2, 5, 10, 50}) {
    const Model1901Result result = solve_1901(n, kCa1);
    EXPECT_LT(result.tau, previous) << "n=" << n;
    previous = result.tau;
  }
}

TEST(Model1901, StageVisitsDecayAcrossStages) {
  const Model1901Result result = solve_1901(5, kCa1);
  ASSERT_EQ(result.stages.size(), 4u);
  // Stage 0 is entered once per cycle; later stages at most as often.
  EXPECT_NEAR(result.stages[0].expected_visits, 1.0, 1e-9);
  EXPECT_LE(result.stages[1].expected_visits, 1.0 + 1e-9);
}

TEST(Model1901, MatchesSimulatorAtModerateN) {
  // The decoupling assumption is accurate for N >= ~4 (the paper's
  // observation); at small N it overestimates because the stations'
  // stages are anti-correlated (see ExactPair below).
  for (const int n : {4, 5, 7}) {
    const Model1901Result model = solve_1901(n, kCa1);
    const sim::Sim1901Result simulated =
        sim::sim_1901(n, 5e7, 2920.64, 2542.64, 2050.0, kCa1.cw, kCa1.dc);
    EXPECT_NEAR(model.gamma, simulated.collision_probability, 0.025)
        << "n=" << n;
    EXPECT_NEAR(model.normalized_throughput(kTiming, kFrame),
                simulated.normalized_throughput, 0.02)
        << "n=" << n;
  }
}

TEST(Model1901, OverestimatesCollisionsAtSmallN) {
  // The paper's central analytical observation, reproduced: at N = 2 the
  // decoupled prediction lies well above the simulated (= true coupled)
  // collision probability.
  const Model1901Result model = solve_1901(2, kCa1);
  const sim::Sim1901Result simulated =
      sim::sim_1901(2, 5e7, 2920.64, 2542.64, 2050.0, kCa1.cw, kCa1.dc);
  EXPECT_GT(model.gamma, simulated.collision_probability + 0.02);
}

TEST(Model1901, SuccessRatePositive) {
  const Model1901Result result = solve_1901(3, kCa1);
  EXPECT_GT(result.success_rate_per_second(kTiming, kFrame), 100.0);
  EXPECT_LT(result.success_rate_per_second(kTiming, kFrame), 1e6);
}

TEST(Model1901Threads, ConcurrentFirstUseMatchesSerial) {
  // Declared first so that it makes the process's first solves (in the
  // `threaded` entry's Model1901Threads.* run, too): eight threads
  // released together race to build the solver's log-factorial table,
  // which ThreadSanitizer watches, and each must get the serial bits.
  constexpr int kThreads = 8;
  std::vector<Model1901Result> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &start, t] {
      start.arrive_and_wait();
      concurrent[static_cast<std::size_t>(t)] = solve_1901(2 + t, kCa1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    const Model1901Result serial = solve_1901(2 + t, kCa1);
    const Model1901Result& result = concurrent[static_cast<std::size_t>(t)];
    EXPECT_EQ(result.tau, serial.tau) << "n=" << 2 + t;
    EXPECT_EQ(result.gamma, serial.gamma) << "n=" << 2 + t;
    EXPECT_EQ(result.p_idle, serial.p_idle) << "n=" << 2 + t;
    EXPECT_EQ(result.p_success, serial.p_success) << "n=" << 2 + t;
    EXPECT_EQ(result.p_collision, serial.p_collision) << "n=" << 2 + t;
    ASSERT_EQ(result.stages.size(), serial.stages.size());
    for (std::size_t i = 0; i < serial.stages.size(); ++i) {
      EXPECT_EQ(result.stages[i].attempt_probability,
                serial.stages[i].attempt_probability);
      EXPECT_EQ(result.stages[i].expected_countdown,
                serial.stages[i].expected_countdown);
      EXPECT_EQ(result.stages[i].expected_visits,
                serial.stages[i].expected_visits);
    }
  }
}

TEST(Model1901Threads, ConcurrentSolvesMatchSerial) {
  // Scenarios solve models on pool workers at the same time; the log-
  // gamma calls underneath must not race (ThreadSanitizer runs this under
  // the `threaded` label) and must give the serial bits.
  std::vector<Model1901Result> serial;
  for (int n = 2; n <= 8; ++n) serial.push_back(solve_1901(n, kCa1));
  std::vector<std::vector<Model1901Result>> solved(4);
  std::vector<std::thread> threads;
  for (auto& results : solved) {
    threads.emplace_back([&results] {
      for (int n = 2; n <= 8; ++n) results.push_back(solve_1901(n, kCa1));
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& results : solved) {
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(results[i].tau, serial[i].tau);
      EXPECT_EQ(results[i].gamma, serial[i].gamma);
    }
  }
}

// --- Bit pins: the model's output, exactly -------------------------------------------
//
// Every model-bearing report prints solve_1901's numbers, so the solver
// may get cheaper but must not change a single bit. These values were
// recorded from the per-b util::binomial_cdf sums.

std::uint64_t bits_of(double value) {
  return std::bit_cast<std::uint64_t>(value);
}

std::string hex_float(double value) {
  std::ostringstream out;
  out << std::hexfloat << value;
  return out.str();
}

void expect_bits(double actual, double expected, const char* what) {
  EXPECT_EQ(bits_of(actual), bits_of(expected))
      << what << ": " << hex_float(actual) << " != " << hex_float(expected);
}

/// Compares each stage's (x, S, visits) bit for bit.
void expect_stage_bits(const Model1901Result& result,
                       const double (&stages)[4][3]) {
  ASSERT_EQ(result.stages.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(testing::Message() << "stage " << i);
    expect_bits(result.stages[i].attempt_probability, stages[i][0], "x");
    expect_bits(result.stages[i].expected_countdown, stages[i][1], "S");
    expect_bits(result.stages[i].expected_visits, stages[i][2], "visits");
  }
}

void append_bits(std::string& bytes, double value) {
  const std::uint64_t bits = bits_of(value);
  for (int shift = 0; shift < 64; shift += 8) {
    bytes.push_back(static_cast<char>(bits >> shift));
  }
}

void append_solution(std::string& bytes, const Model1901Result& result) {
  for (const double value :
       {result.tau, result.gamma, result.busy_probability, result.p_idle,
        result.p_success, result.p_collision}) {
    append_bits(bytes, value);
  }
  for (const StageMetrics& stage : result.stages) {
    append_bits(bytes, stage.attempt_probability);
    append_bits(bytes, stage.expected_countdown);
    append_bits(bytes, stage.expected_visits);
  }
}

/// hash128 (hex) over the bits of every solve of `config` on the pinned
/// grid: solve_1901 at each integer N, then solve_1901_continuous at each
/// fractional n.
std::string solution_digest(const mac::BackoffConfig& config) {
  std::string bytes;
  for (const int n : {1, 2, 3, 5, 7, 10, 20, 30, 50}) {
    append_solution(bytes, solve_1901(n, config));
  }
  for (const double n : {1.5, 2.25, 7.75}) {
    append_solution(bytes, solve_1901_continuous(n, config));
  }
  return util::hash128(bytes).to_hex();
}

/// boosted-cw's parse-time search: N = 5 under the paper's timing and
/// frame (macdef/def_boosted_cw.cpp).
CandidateScore boosted_cw_search() {
  return best_uniform_window(5, kTiming, des::SimTime::from_ns(2'050'000));
}

TEST(Model1901Pin, Ca1AtTwoStations) {
  const Model1901Result result = solve_1901(2, kCa1);
  expect_bits(result.tau, 0x1.df2e98b28569cp-4, "tau");
  expect_bits(result.gamma, 0x1.df2e98b2856ap-4, "gamma");
  expect_bits(result.busy_probability, 0x1.df2e98b2856ap-4,
              "busy_probability");
  expect_bits(result.p_idle, 0x1.8f3638a32d3a8p-1, "p_idle");
  expect_bits(result.p_success, 0x1.a71fa23410c1dp-3, "p_success");
  expect_bits(result.p_collision, 0x1.c077b3f3a543p-7, "p_collision");
  const double stages[4][3] = {
      {0x1.58de8f5819144p-1, 0x1.65276aa053638p+1, 0x1p+0},
      {0x1.892014bc252c1p-1, 0x1.a5bd8e1362efp+2, 0x1.9ef3c7ccd5628p-2},
      {0x1.ae847a7f35c08p-1, 0x1.cf1fc9cc60408p+3, 0x1.0b3b55489cbdap-3},
      {0x1.ffe9afcbcd3eap-1, 0x1.f7fd42845e5aap+4, 0x1.37c983d96aaeep-5},
  };
  expect_stage_bits(result, stages);
}

TEST(Model1901Pin, Ca1AtSevenStations) {
  const Model1901Result result = solve_1901(7, kCa1);
  expect_bits(result.tau, 0x1.a6027725442f2p-5, "tau");
  expect_bits(result.gamma, 0x1.167062c7a79cep-2, "gamma");
  expect_bits(result.busy_probability, 0x1.167062c7a79cep-2,
              "busy_probability");
  expect_bits(result.p_idle, 0x1.6193a6ef0a976p-1, "p_idle");
  expect_bits(result.p_success, 0x1.0cda2b77d66f3p-2, "p_success");
  expect_bits(result.p_collision, 0x1.7ff43550a3108p-5, "p_collision");
  const double stages[4][3] = {
      {0x1.b19068db7ef93p-2, 0x1.0f6d3f9431742p+1, 0x1p+0},
      {0x1.cb082e8b38f66p-2, 0x1.3777464024366p+2, 0x1.6229f09d35694p-1},
      {0x1.d4bd8e7f49e99p-2, 0x1.4fc6a275d723ep+3, 0x1.dd246b6b249b6p-2},
      {0x1.beef5dfbb491ap-1, 0x1.e81cafdc4d2b1p+4, 0x1.f487cac412dbep-2},
  };
  expect_stage_bits(result, stages);
}

TEST(Model1901Pin, GridDigests) {
  mac::BackoffConfig no_deferral = kCa1;
  no_deferral.dc.assign(no_deferral.dc.size(), mac::kDeferralDisabled);
  mac::BackoffConfig aggressive = kCa1;
  aggressive.dc = {0, 0, 1, 3};
  const struct {
    const char* name;
    mac::BackoffConfig config;
    const char* digest;
  } cases[] = {
      {"CA0/CA1", kCa1, "ebbd7ec207712419694df22e9e4fa055"},
      {"CA2/CA3", mac::BackoffConfig::ca2_ca3(),
       "2340f4b56da5d7094067ad9cd527e629"},
      {"e9 no-deferral", no_deferral, "3e25fd080d7928823981aed44e3e7f89"},
      {"e9 aggressive", aggressive, "394bf3b1d0a2a7e33dbb023992c8fc51"},
      // The same windows and disabled deferral as e9's no-deferral
      // variant, built by the DCF-style factory: the same digest.
      {"dcf_like(8, 4)", mac::BackoffConfig::dcf_like(8, 4),
       "3e25fd080d7928823981aed44e3e7f89"},
      {"boosted-cw(5)", boosted_cw_search().config,
       "c54a9a85cd93150e0206226953320892"},
  };
  for (const auto& pinned : cases) {
    EXPECT_EQ(solution_digest(pinned.config), pinned.digest) << pinned.name;
  }
}

TEST(Model1901Pin, BoostedCwSearchForFiveStations) {
  const CandidateScore best = boosted_cw_search();
  EXPECT_EQ(best.config.cw, std::vector<int>{60});
  EXPECT_EQ(best.config.dc, std::vector<int>{mac::kDeferralDisabled});
  expect_bits(best.throughput, 0x1.62b8f977d7fdbp-1, "throughput");
  expect_bits(best.collision_probability, 0x1.ff5597d4512c8p-4,
              "collision_probability");
}

// --- DCF model ---------------------------------------------------------------------------

TEST(ModelDcf, SingleStation) {
  const ModelDcfResult result = solve_dcf(1, 16, 1024);
  EXPECT_DOUBLE_EQ(result.gamma, 0.0);
  EXPECT_NEAR(result.tau, 1.0 / (1.0 + 7.5), 1e-9);
}

TEST(ModelDcf, MatchesDcfSimulator) {
  // The freeze-corrected Bianchi fixed point tracks the DCF simulator to
  // within a few points of probability (the residual is the usual
  // decoupling error, growing mildly with contention).
  for (const int n : {2, 5, 10}) {
    const ModelDcfResult model = solve_dcf(n, 16, 1024);
    sim::SlotSimulator simulator(sim::make_dcf_entities(n, 16, 1024, 5),
                                 kTiming);
    const sim::SlotSimResults results =
        simulator.run(des::SimTime::from_seconds(40.0));
    EXPECT_NEAR(model.gamma, results.collision_probability(), 0.04)
        << "n=" << n;
  }
}

TEST(ModelDcf, GammaIncreasesWithN) {
  double previous = -1.0;
  for (const int n : {1, 2, 5, 10, 30}) {
    const ModelDcfResult result = solve_dcf(n, 16, 1024);
    EXPECT_GT(result.gamma, previous);
    previous = result.gamma;
  }
}

// --- Exact two-station chain ---------------------------------------------------------------

TEST(ExactPair, TinyConfigMatchesLongSimulation) {
  mac::BackoffConfig tiny;
  tiny.cw = {2, 4};
  tiny.dc = {0, 1};
  const ExactPairResult exact = solve_exact_pair(tiny);
  EXPECT_LT(exact.residual, 1e-10);
  const sim::Sim1901Result simulated =
      sim::sim_1901(2, 2e8, 2920.64, 2542.64, 2050.0, tiny.cw, tiny.dc);
  EXPECT_NEAR(exact.collision_probability,
              simulated.collision_probability, 0.005);
}

TEST(ExactPair, DefaultConfigMatchesSimulatorWhereDecouplingFails) {
  const ExactPairResult exact = solve_exact_pair(kCa1, 4000, 1e-10);
  const sim::Sim1901Result simulated =
      sim::sim_1901(2, 1e8, 2920.64, 2542.64, 2050.0, kCa1.cw, kCa1.dc);
  // The exact chain nails the coupled behaviour...
  EXPECT_NEAR(exact.collision_probability,
              simulated.collision_probability, 0.006);
  // ...which the decoupling model misses by a wide margin at N=2.
  const Model1901Result decoupled = solve_1901(2, kCa1);
  EXPECT_GT(std::abs(decoupled.gamma - simulated.collision_probability),
            3.0 * std::abs(exact.collision_probability -
                           simulated.collision_probability));
}

TEST(ExactPair, ProbabilitiesWellFormed) {
  mac::BackoffConfig small;
  small.cw = {4, 8};
  small.dc = {0, 3};
  const ExactPairResult exact = solve_exact_pair(small);
  EXPECT_NEAR(exact.p_idle + exact.p_success + exact.p_collision, 1.0,
              1e-9);
  EXPECT_GT(exact.p_success, 0.0);
  EXPECT_GT(exact.p_collision, 0.0);
  EXPECT_GT(exact.normalized_throughput(kTiming, kFrame), 0.0);
  // Stage joint sums to 1 and is symmetric (identical stations).
  double total = 0.0;
  for (std::size_t i = 0; i < exact.stage_joint.size(); ++i) {
    for (std::size_t j = 0; j < exact.stage_joint.size(); ++j) {
      total += exact.stage_joint[i][j];
      EXPECT_NEAR(exact.stage_joint[i][j], exact.stage_joint[j][i], 1e-6);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ExactPair, StagesAreAntiCorrelated) {
  // The coupling signature: P(both at stage 0) is *below* the product of
  // the marginals — when one station holds the channel the other has been
  // pushed up.
  mac::BackoffConfig small;
  small.cw = {4, 8, 16};
  small.dc = {0, 1, 3};
  const ExactPairResult exact = solve_exact_pair(small);
  double marginal0 = 0.0;
  for (std::size_t j = 0; j < exact.stage_joint.size(); ++j) {
    marginal0 += exact.stage_joint[0][j];
  }
  EXPECT_LT(exact.stage_joint[0][0], marginal0 * marginal0);
}

TEST(ExactPair, GuardsAgainstHugeStateSpaces) {
  mac::BackoffConfig big;
  big.cw = {1 << 12};
  big.dc = {1 << 12};
  EXPECT_THROW(solve_exact_pair(big), plc::Error);
}

// --- Exact pair against the full joint chain ------------------------------------------------

/// Every probability field of `exact` is within `bound` of `reference`.
void expect_exact_pair_near(const ExactPairResult& exact,
                            const ExactPairResult& reference, double bound,
                            const char* what) {
  SCOPED_TRACE(what);
  EXPECT_NEAR(exact.p_idle, reference.p_idle, bound);
  EXPECT_NEAR(exact.p_success, reference.p_success, bound);
  EXPECT_NEAR(exact.p_collision, reference.p_collision, bound);
  EXPECT_NEAR(exact.p_success_a, reference.p_success_a, bound);
  EXPECT_NEAR(exact.p_success_b, reference.p_success_b, bound);
  EXPECT_NEAR(exact.collision_probability, reference.collision_probability,
              bound);
  EXPECT_NEAR(exact.gamma, reference.gamma, bound);
  ASSERT_EQ(exact.stage_joint.size(), reference.stage_joint.size());
  for (std::size_t i = 0; i < exact.stage_joint.size(); ++i) {
    ASSERT_EQ(exact.stage_joint[i].size(), reference.stage_joint[i].size());
    for (std::size_t j = 0; j < exact.stage_joint[i].size(); ++j) {
      EXPECT_NEAR(exact.stage_joint[i][j], reference.stage_joint[i][j], bound)
          << "stage_joint[" << i << "][" << j << "]";
    }
  }
}

/// The post-event solver against the full joint chain solved to 1e-13:
/// within 1e-12 at the same tolerance, and within 5e-11 at run_scenario's
/// (3000, 1e-10).
void expect_matches_full_chain(const mac::BackoffConfig& a,
                               const mac::BackoffConfig& b) {
  const ExactPairResult reference =
      exact_reference::solve_full_chain(a, b, 20'000, 1e-13);
  ASSERT_LE(reference.residual, 1e-13);
  const ExactPairResult tight = solve_exact_pair(a, b, 20'000, 1e-13);
  EXPECT_LE(tight.residual, 1e-13);
  expect_exact_pair_near(tight, reference, 1e-12, "tolerance 1e-13");
  const ExactPairResult scenario = solve_exact_pair(a, b, 3000, 1e-10);
  EXPECT_LE(scenario.residual, 1e-10);
  expect_exact_pair_near(scenario, reference, 5e-11, "(3000, 1e-10)");
}

mac::BackoffConfig chain_config(std::vector<int> cw, std::vector<int> dc) {
  mac::BackoffConfig config;
  config.cw = std::move(cw);
  config.dc = std::move(dc);
  return config;
}

TEST(ExactPairReference, Ca1) { expect_matches_full_chain(kCa1, kCa1); }

TEST(ExactPairReference, Ca2Ca3) {
  const mac::BackoffConfig ca2 = mac::BackoffConfig::ca2_ca3();
  expect_matches_full_chain(ca2, ca2);
}

TEST(ExactPairReference, Ca1VersusCa2Ca3) {
  expect_matches_full_chain(kCa1, mac::BackoffConfig::ca2_ca3());
}

TEST(ExactPairReference, AggressiveDeferral) {
  // e9-deferral-ablation's "aggressive" variant.
  const mac::BackoffConfig aggressive =
      chain_config({8, 16, 32, 64}, {0, 0, 1, 3});
  expect_matches_full_chain(aggressive, aggressive);
}

TEST(ExactPairReference, SmallConfigs) {
  for (const mac::BackoffConfig& config :
       {chain_config({4, 8, 16}, {0, 1, 3}), chain_config({4, 8}, {0, 3}),
        chain_config({4, 8}, {0, 1}), chain_config({2, 4}, {0, 1}),
        chain_config({1}, {0})}) {
    SCOPED_TRACE(::testing::PrintToString(config.cw) + " / " +
                 ::testing::PrintToString(config.dc));
    expect_matches_full_chain(config, config);
  }
}

TEST(ExactPairReference, HeterogeneousSmallConfigs) {
  expect_matches_full_chain(chain_config({4, 8}, {0, 1}),
                            chain_config({8, 16}, {1, 3}));
}

TEST(ExactPairReference, GreedyVersusCa1) {
  // bench_ext_coexistence's pair: deferral effectively off for A.
  expect_matches_full_chain(chain_config({4, 8}, {3, 7}), kCa1);
}

TEST(ExactPairReference, DisabledDeferralStillThrows) {
  // A disabled deferral counter (DC = 2^30) has no finite state space,
  // so the guard throws instead of solving, alone or against CA1.
  for (const mac::BackoffConfig& config :
       {mac::BackoffConfig::dcf_like(8, 4), boosted_cw_search().config}) {
    EXPECT_THROW(solve_exact_pair(config), plc::Error);
    EXPECT_THROW(solve_exact_pair(config, kCa1), plc::Error);
    EXPECT_THROW(solve_exact_pair(kCa1, config), plc::Error);
  }
}

// --- Heterogeneous exact pair ----------------------------------------------------------------

TEST(ExactPairHeterogeneous, SymmetricCallMatchesHomogeneous) {
  mac::BackoffConfig small;
  small.cw = {4, 8};
  small.dc = {0, 1};
  const ExactPairResult homogeneous = solve_exact_pair(small);
  const ExactPairResult heterogeneous = solve_exact_pair(small, small);
  EXPECT_NEAR(homogeneous.collision_probability,
              heterogeneous.collision_probability, 1e-9);
  EXPECT_NEAR(heterogeneous.success_share_a(), 0.5, 1e-6);
}

TEST(ExactPairHeterogeneous, SmallerWindowWinsTheChannel) {
  // A station with a tighter window grabs more successes — the exact
  // quantification of the coexistence (boosting-vs-default) question.
  mac::BackoffConfig aggressive;
  aggressive.cw = {4, 8};
  aggressive.dc = {0, 1};
  mac::BackoffConfig relaxed;
  relaxed.cw = {16, 32};
  relaxed.dc = {0, 1};
  const ExactPairResult result = solve_exact_pair(aggressive, relaxed);
  EXPECT_GT(result.success_share_a(), 0.6);
  EXPECT_NEAR(result.p_success_a + result.p_success_b, result.p_success,
              1e-12);
  EXPECT_NEAR(result.p_idle + result.p_success + result.p_collision, 1.0,
              1e-9);
}

TEST(ExactPairHeterogeneous, MatchesHeterogeneousSimulation) {
  mac::BackoffConfig a;
  a.cw = {4, 8};
  a.dc = {0, 1};
  mac::BackoffConfig b;
  b.cw = {8, 16};
  b.dc = {1, 3};
  const ExactPairResult exact = solve_exact_pair(a, b);

  std::vector<std::unique_ptr<mac::BackoffEntity>> entities;
  entities.push_back(std::make_unique<mac::Backoff1901>(
      a, des::RandomStream(11)));
  entities.push_back(std::make_unique<mac::Backoff1901>(
      b, des::RandomStream(22)));
  sim::SlotSimulator simulator(std::move(entities), kTiming);
  simulator.enable_winner_trace(true);
  const sim::SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(200.0));

  EXPECT_NEAR(exact.collision_probability,
              results.collision_probability(), 0.01);
  const double share_a =
      static_cast<double>(results.tx_success[0]) /
      static_cast<double>(results.successes);
  EXPECT_NEAR(exact.success_share_a(), share_a, 0.02);
}

// --- Unsaturated delay model -------------------------------------------------------------------

TEST(DelayModel, SaturationRateMatchesSaturatedModel) {
  const double capacity =
      saturation_rate_fps(5, kCa1, kTiming, kFrame);
  const Model1901Result saturated = solve_1901(5, kCa1);
  EXPECT_NEAR(capacity, saturated.success_rate_per_second(kTiming, kFrame) / 5.0,
              1e-9);
  EXPECT_GT(capacity, 10.0);
  EXPECT_LT(capacity, 1000.0);
}

TEST(DelayModel, SingleStationLowLoadIsServiceTime) {
  // N = 1, light load: sojourn ~ E[S] = E[BC] slots + Ts.
  const double capacity = saturation_rate_fps(1, kCa1, kTiming, kFrame);
  const DelayModelResult model =
      access_delay(1, kCa1, kTiming, kFrame, 0.05 * capacity);
  const double expected_service = (3.5 * 35.84 + 2542.64) * 1e-6;
  EXPECT_NEAR(model.mean_service_s, expected_service, 1e-6);
  EXPECT_NEAR(model.mean_sojourn_s, expected_service, 0.2e-3);
  EXPECT_TRUE(model.stable);
}

TEST(DelayModel, SojournGrowsWithLoadAndDiverges) {
  const double capacity = saturation_rate_fps(5, kCa1, kTiming, kFrame);
  double previous = 0.0;
  for (const double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const DelayModelResult model =
        access_delay(5, kCa1, kTiming, kFrame, load * capacity);
    EXPECT_GT(model.mean_sojourn_s, previous);
    previous = model.mean_sojourn_s;
  }
  const DelayModelResult overloaded =
      access_delay(5, kCa1, kTiming, kFrame, 3.0 * capacity);
  EXPECT_FALSE(overloaded.stable);
  EXPECT_TRUE(std::isinf(overloaded.mean_sojourn_s));
}

TEST(DelayModel, MatchesSimulationAtSingleStation) {
  const double capacity = saturation_rate_fps(1, kCa1, kTiming, kFrame);
  for (const double load : {0.2, 0.5, 0.8}) {
    const DelayModelResult model =
        access_delay(1, kCa1, kTiming, kFrame, load * capacity);
    sim::PoissonMacSpec spec;
    spec.stations = 1;
    spec.arrival_rate_fps = load * capacity;
    spec.duration = des::SimTime::from_seconds(120.0);
    const sim::PoissonMacResult simulated = sim::run_poisson_mac(spec);
    EXPECT_NEAR(model.mean_sojourn_s, simulated.mean_delay_s,
                0.15 * simulated.mean_delay_s)
        << "load=" << load;
  }
}

TEST(DelayModel, TracksSimulationUnderContention) {
  const double capacity = saturation_rate_fps(5, kCa1, kTiming, kFrame);
  for (const double load : {0.3, 0.8}) {
    const DelayModelResult model =
        access_delay(5, kCa1, kTiming, kFrame, load * capacity);
    sim::PoissonMacSpec spec;
    spec.stations = 5;
    spec.arrival_rate_fps = load * capacity;
    spec.duration = des::SimTime::from_seconds(120.0);
    const sim::PoissonMacResult simulated = sim::run_poisson_mac(spec);
    // Open-loop approximation: generous bound, tight enough to catch
    // regressions (ratio within [0.6, 1.6]).
    EXPECT_GT(model.mean_sojourn_s, 0.6 * simulated.mean_delay_s)
        << "load=" << load;
    EXPECT_LT(model.mean_sojourn_s, 1.6 * simulated.mean_delay_s)
        << "load=" << load;
  }
}

TEST(DelayModel, RejectsBadArguments) {
  EXPECT_THROW(access_delay(0, kCa1, kTiming, kFrame, 10.0), plc::Error);
  EXPECT_THROW(access_delay(2, kCa1, kTiming, kFrame, 0.0), plc::Error);
  EXPECT_THROW(solve_1901_continuous(0.5, kCa1), plc::Error);
}

TEST(PoissonMacSim, ThroughputEqualsOfferedLoadWhenStable) {
  sim::PoissonMacSpec spec;
  spec.stations = 3;
  spec.arrival_rate_fps = 30.0;
  spec.duration = des::SimTime::from_seconds(60.0);
  const sim::PoissonMacResult result = sim::run_poisson_mac(spec);
  EXPECT_NEAR(result.throughput_fps, 90.0, 5.0);
  EXPECT_LT(result.backlog_at_end, 10u);
  EXPECT_GT(result.p99_delay_s, result.p50_delay_s);
  EXPECT_EQ(result.frames_generated,
            result.frames_delivered +
                static_cast<std::int64_t>(result.backlog_at_end));
}

// --- Optimizer ("boosting") -------------------------------------------------------------------

TEST(Optimizer, RanksByThroughput) {
  const auto scores =
      rank_configurations(10, kTiming, kFrame, default_candidate_pool());
  ASSERT_GT(scores.size(), 3u);
  for (std::size_t i = 1; i < scores.size(); ++i) {
    EXPECT_GE(scores[i - 1].throughput, scores[i].throughput);
  }
}

TEST(Optimizer, SomeCandidateBeatsDefaultAtLargeN) {
  // The "boosting" premise: at high contention, the default Table 1
  // configuration is not throughput-optimal.
  const auto scores =
      rank_configurations(30, kTiming, kFrame, default_candidate_pool());
  double default_throughput = 0.0;
  for (const CandidateScore& score : scores) {
    if (score.config.name == "CA0/CA1") {
      default_throughput = score.throughput;
    }
  }
  ASSERT_GT(default_throughput, 0.0);
  EXPECT_GT(scores.front().throughput, default_throughput * 1.02);
}

TEST(Optimizer, BestUniformWindowGrowsWithN) {
  const CandidateScore few = best_uniform_window(2, kTiming, kFrame);
  const CandidateScore many = best_uniform_window(30, kTiming, kFrame);
  ASSERT_EQ(few.config.cw.size(), 1u);
  ASSERT_EQ(many.config.cw.size(), 1u);
  EXPECT_GT(many.config.cw[0], few.config.cw[0]);
}

TEST(Optimizer, BestUniformWindowPredictionValidatedBySimulation) {
  const CandidateScore best = best_uniform_window(10, kTiming, kFrame);
  const sim::Sim1901Result simulated = sim::sim_1901(
      10, 3e7, 2920.64, 2542.64, 2050.0, best.config.cw, best.config.dc);
  EXPECT_NEAR(best.throughput, simulated.normalized_throughput, 0.03);
}

}  // namespace
}  // namespace plc::analysis
