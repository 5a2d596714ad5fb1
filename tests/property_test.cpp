// Property-style and oracle tests.
//
//  * MatlabOracle: a literal transliteration of the paper's published
//    MATLAB sim_1901 (kept verbatim as a reference oracle, State/BPC/
//    next_state arrays and all) must agree statistically with the
//    framework's entity-based simulator across seeds and configurations.
//  * Randomized convergence-layer round trips: frames of arbitrary sizes
//    through Segmenter/Reassembler with random corruption patterns, and
//    runs of PBs fed in one call against the same PBs fed one by one.
//  * Exact-chain sweep: the stationary solver matches long simulations
//    for a family of small configurations.
#include <ostream>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "frames/pb.hpp"
#include "analysis/exact_chain.hpp"
#include "sim/sim_1901.hpp"
#include "util/stats.hpp"

namespace plc {
namespace {

// --- The MATLAB oracle -------------------------------------------------------------

struct OracleResult {
  double collision_probability;
  double normalized_throughput;
};

/// Line-by-line port of the paper's published MATLAB function (§4.2).
OracleResult matlab_sim_1901(int n, double sim_time, double tc, double ts,
                             double frame_length,
                             const std::vector<int>& cw,
                             const std::vector<int>& dc,
                             std::uint64_t seed) {
  const double slot = 35.84;
  std::mt19937_64 rng(seed);
  const auto unidrnd = [&rng](int m) {
    return std::uniform_int_distribution<int>(1, m)(rng);
  };
  const int m = static_cast<int>(cw.size());
  std::vector<int> state(static_cast<std::size_t>(n), 0);
  std::vector<int> bpc(static_cast<std::size_t>(n), 0);
  std::vector<int> bc(static_cast<std::size_t>(n), 0);
  std::vector<int> dcount(static_cast<std::size_t>(n), 0);
  std::vector<int> next_state(static_cast<std::size_t>(n), 2);
  double t = 0.0;
  long long collisions = 0;
  long long succ = 0;
  while (t <= sim_time) {
    for (int i = 0; i < n; ++i) {
      const auto iu = static_cast<std::size_t>(i);
      if (state[iu] == 0) {
        if (bpc[iu] == 0 || bc[iu] == 0 || dcount[iu] == 0) {
          const int stage = bpc[iu] < m ? bpc[iu] : m - 1;
          dcount[iu] = dc[static_cast<std::size_t>(stage)];
          bc[iu] = unidrnd(cw[static_cast<std::size_t>(stage)]) - 1;
          bpc[iu] = bpc[iu] + 1;
        } else {
          --bc[iu];
          --dcount[iu];
        }
        next_state[iu] = bc[iu] == 0 ? 1 : 2;
      } else if (state[iu] == 2) {
        --bc[iu];
        next_state[iu] = bc[iu] == 0 ? 1 : 2;
      }
    }
    int counter = 0;
    for (int i = 0; i < n; ++i) {
      if (next_state[static_cast<std::size_t>(i)] == 1) ++counter;
    }
    if (counter == 0) {
      t += slot;
    } else if (counter == 1) {
      ++succ;
      for (int i = 0; i < n; ++i) {
        const auto iu = static_cast<std::size_t>(i);
        if (next_state[iu] == 1) bpc[iu] = 0;
        next_state[iu] = 0;
      }
      t += ts;
    } else {
      collisions += counter;
      for (int i = 0; i < n; ++i) {
        next_state[static_cast<std::size_t>(i)] = 0;
      }
      t += tc;
    }
    state = next_state;
  }
  OracleResult result;
  result.collision_probability =
      static_cast<double>(collisions) /
      static_cast<double>(collisions + succ);
  result.normalized_throughput =
      static_cast<double>(succ) * frame_length / t;
  return result;
}

struct OracleCase {
  const char* name;
  int n;
  std::vector<int> cw;
  std::vector<int> dc;
};

// gtest appends the printed parameter to each case's ctest name. Without
// this it prints the struct's raw bytes, pointer bytes included, so the
// names changed with the build's address layout.
void PrintTo(const OracleCase& test_case, std::ostream* out) {
  *out << test_case.name;
}

class MatlabOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(MatlabOracle, FrameworkAgreesWithLiteralPort) {
  const OracleCase& test_case = GetParam();
  // Average several independent runs of both implementations (different
  // RNGs, so agreement is statistical).
  util::RunningStats oracle_cp;
  util::RunningStats ours_cp;
  util::RunningStats oracle_thr;
  util::RunningStats ours_thr;
  for (int rep = 0; rep < 4; ++rep) {
    const OracleResult oracle = matlab_sim_1901(
        test_case.n, 3e7, 2920.64, 2542.64, 2050.0, test_case.cw,
        test_case.dc, 1000 + static_cast<std::uint64_t>(rep));
    const sim::Sim1901Result ours = sim::sim_1901(
        test_case.n, 3e7, 2920.64, 2542.64, 2050.0, test_case.cw,
        test_case.dc, 2000 + static_cast<std::uint64_t>(rep));
    oracle_cp.add(oracle.collision_probability);
    ours_cp.add(ours.collision_probability);
    oracle_thr.add(oracle.normalized_throughput);
    ours_thr.add(ours.normalized_throughput);
  }
  EXPECT_NEAR(oracle_cp.mean(), ours_cp.mean(), 0.012) << test_case.name;
  EXPECT_NEAR(oracle_thr.mean(), ours_thr.mean(), 0.012) << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, MatlabOracle,
    ::testing::Values(
        OracleCase{"ca1_n2", 2, {8, 16, 32, 64}, {0, 1, 3, 15}},
        OracleCase{"ca1_n5", 5, {8, 16, 32, 64}, {0, 1, 3, 15}},
        OracleCase{"ca1_n10", 10, {8, 16, 32, 64}, {0, 1, 3, 15}},
        OracleCase{"ca3_n4", 4, {8, 16, 16, 32}, {0, 1, 3, 15}},
        OracleCase{"single_stage_n6", 6, {32}, {2}},
        OracleCase{"two_stage_n3", 3, {4, 64}, {0, 7}}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

// --- Randomized convergence-layer round trips ---------------------------------------

class SegmentationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SegmentationFuzz, RandomFramesSurviveRandomCorruption) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  frames::Segmenter segmenter;
  std::vector<frames::EthernetFrame> sent;
  const int frame_count =
      std::uniform_int_distribution<int>(1, 60)(rng);
  for (int i = 0; i < frame_count; ++i) {
    frames::EthernetFrame frame;
    frame.destination = frames::MacAddress::for_station(2);
    frame.source = frames::MacAddress::for_station(1);
    frame.ether_type = frames::kEtherTypeIpv4;
    const int size = std::uniform_int_distribution<int>(0, 1500)(rng);
    frame.payload.resize(static_cast<std::size_t>(size));
    for (auto& byte : frame.payload) {
      byte = static_cast<std::uint8_t>(rng());
    }
    segmenter.push_frame(frame);
    sent.push_back(std::move(frame));
  }
  std::vector<frames::PhysicalBlock> pbs;
  segmenter.pop_pbs(100000, /*flush=*/true, pbs);
  // Corrupt a random subset of blocks.
  const double corruption_rate =
      std::uniform_real_distribution<double>(0.0, 0.3)(rng);
  int corrupted = 0;
  for (auto& pb : pbs) {
    if (std::uniform_real_distribution<double>(0.0, 1.0)(rng) <
        corruption_rate) {
      pb.received_ok = false;
      ++corrupted;
    }
  }
  frames::Reassembler reassembler(segmenter);
  std::vector<frames::EthernetFrame> received;
  for (const auto& pb : pbs) {
    for (const std::span<const std::uint8_t> bytes : reassembler.push_pb(pb)) {
      received.push_back(frames::EthernetFrame::deserialize(bytes));
    }
  }
  // Conservation: every frame is either delivered intact or dropped.
  EXPECT_EQ(reassembler.frames_delivered() + reassembler.frames_dropped(),
            static_cast<std::int64_t>(sent.size()));
  if (corrupted == 0) {
    EXPECT_EQ(received.size(), sent.size());
  }
  // Delivered frames arrive in order and intact: match them against the
  // sent sequence with a forward scan.
  std::size_t cursor = 0;
  for (const auto& frame : received) {
    bool found = false;
    while (cursor < sent.size()) {
      const auto& candidate = sent[cursor++];
      // Compare against the padded payload the wire actually carried.
      const auto wire = frames::EthernetFrame::deserialize(
          candidate.serialize());
      if (wire.payload == frame.payload) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "out-of-order or corrupted delivery";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentationFuzz,
                         ::testing::Range(1, 17));

// Two segmenters carry one stream. One reassembler takes its PBs one by
// one, the other in random runs of consecutive PBs; after every run both
// must have produced the same frame bytes, dropped the same frames and
// released the same prefix. Random frame sizes over a small ring make
// frames straddle its end, and more than 2^16 PBs wrap the SSNs.
class ReassemblyRuns : public ::testing::TestWithParam<int> {};

TEST_P(ReassemblyRuns, FeedingRunsEqualsFeedingSinglePbs) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const auto uniform = [&rng](int low, int high) {
    return std::uniform_int_distribution<int>(low, high)(rng);
  };
  const auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  using Bytes = std::vector<std::uint8_t>;
  frames::Segmenter single_source;
  frames::Segmenter run_source;
  frames::Reassembler single(single_source);
  frames::Reassembler runs(run_source);
  const double corruption = 0.002 * GetParam();
  std::uint64_t pushed = 0;
  std::int64_t pbs_fed = 0;
  std::int64_t straddling = 0;
  bool ssn_wrapped = false;
  std::vector<frames::PhysicalBlock> pbs;
  std::vector<frames::PhysicalBlock> run_pbs;
  while (pbs_fed <= 70'000) {
    for (int i = uniform(0, 4); i > 0; --i) {
      frames::EthernetFrame frame;
      frame.destination = frames::MacAddress::for_station(2);
      frame.source = frames::MacAddress::for_station(1);
      frame.ether_type = frames::kEtherTypeIpv4;
      frame.payload.resize(static_cast<std::size_t>(uniform(0, 1500)));
      for (auto& byte : frame.payload) byte = static_cast<std::uint8_t>(rng());
      single_source.push_frame(frame);
      run_source.push_frame(frame);
      const std::uint64_t end = pushed + 2 + frame.wire_size();
      const std::uint64_t ring = run_source.capacity();
      if (pushed / ring != (end - 1) / ring) ++straddling;
      pushed = end;
    }
    const int max_pbs = uniform(0, 40);
    const bool flush = chance(0.3);
    pbs.clear();
    run_pbs.clear();
    single_source.pop_pbs(max_pbs, flush, pbs);
    run_source.pop_pbs(max_pbs, flush, run_pbs);
    ASSERT_EQ(pbs.size(), run_pbs.size());
    for (std::size_t i = 0; i < pbs.size(); ++i) {
      if (pbs[i].ssn == 0 && pbs_fed > 0) ssn_wrapped = true;
      pbs[i].received_ok = run_pbs[i].received_ok = !chance(corruption);
    }
    for (std::size_t at = 0; at < pbs.size();) {
      const auto length = static_cast<std::size_t>(
          uniform(1, static_cast<int>(pbs.size() - at)));
      std::vector<Bytes> one_by_one;
      for (std::size_t i = at; i < at + length; ++i) {
        for (const std::span<const std::uint8_t> bytes :
             single.push_pb(pbs[i])) {
          one_by_one.emplace_back(bytes.begin(), bytes.end());
        }
      }
      std::vector<Bytes> in_one_call;
      for (const std::span<const std::uint8_t> bytes :
           runs.push_pbs(std::span(run_pbs).subspan(at, length))) {
        in_one_call.emplace_back(bytes.begin(), bytes.end());
      }
      ASSERT_EQ(in_one_call, one_by_one) << "run at PB " << pbs_fed;
      ASSERT_EQ(runs.frames_delivered(), single.frames_delivered());
      ASSERT_EQ(runs.frames_dropped(), single.frames_dropped());
      ASSERT_EQ(run_source.released(), single_source.released());
      at += length;
      pbs_fed += static_cast<std::int64_t>(length);
    }
  }
  EXPECT_TRUE(ssn_wrapped);
  EXPECT_GT(straddling, 100);
  EXPECT_GT(single.frames_delivered(), 10'000);
  EXPECT_GT(single.frames_dropped(), 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyRuns, ::testing::Range(1, 4));

// --- Exact-chain sweep ------------------------------------------------------------------

struct ChainCase {
  const char* name;
  std::vector<int> cw;
  std::vector<int> dc;
};

// Stable ctest names, as for OracleCase above.
void PrintTo(const ChainCase& test_case, std::ostream* out) {
  *out << test_case.name;
}

class ExactChainSweep : public ::testing::TestWithParam<ChainCase> {};

TEST_P(ExactChainSweep, StationaryChainMatchesLongSimulation) {
  const ChainCase& test_case = GetParam();
  mac::BackoffConfig config;
  config.cw = test_case.cw;
  config.dc = test_case.dc;
  const analysis::ExactPairResult exact =
      analysis::solve_exact_pair(config);
  const sim::Sim1901Result simulated = sim::sim_1901(
      2, 3e8, 2920.64, 2542.64, 2050.0, config.cw, config.dc, 77);
  EXPECT_NEAR(exact.collision_probability,
              simulated.collision_probability, 0.006)
      << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, ExactChainSweep,
    ::testing::Values(ChainCase{"tiny", {2, 4}, {0, 1}},
                      ChainCase{"single", {8}, {1}},
                      ChainCase{"no_defer", {4, 8}, {3, 7}},
                      ChainCase{"steep", {2, 32}, {0, 3}},
                      ChainCase{"three_stage", {4, 8, 16}, {0, 1, 3}}),
    [](const ::testing::TestParamInfo<ChainCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace plc
