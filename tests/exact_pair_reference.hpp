// The full-chain reference for the exact N = 2 solver: power iteration
// over every joint (stage, BC, DC) state of the two stations, one medium
// event (idle / success / collision) per step, with matrix-free
// transitions. analysis::solve_exact_pair solves the same chain observed
// right after each busy event; every ExactPairResult field it returns
// must match this one's (ExactPairReference.* in analysis_test), except
// `iterations` and `residual`, which here describe the joint chain.
// CA1 has 1,420,864 joint states: ~1.5 s at tolerance 1e-10.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "mac/config.hpp"
#include "util/error.hpp"

namespace plc::exact_reference {

/// Enumeration of one station's (stage, bc, dc) states.
struct StateSpace {
  const mac::BackoffConfig& config;
  std::vector<int> stage_offset;  ///< First index of each stage's block.
  int total = 0;

  explicit StateSpace(const mac::BackoffConfig& cfg) : config(cfg) {
    const int m = cfg.stage_count();
    stage_offset.resize(static_cast<std::size_t>(m));
    // 64-bit accumulation: a deferral-disabled stage (dc ~ 2^30) must
    // trip the size guard, not overflow int.
    std::int64_t running = 0;
    for (int i = 0; i < m; ++i) {
      stage_offset[static_cast<std::size_t>(i)] =
          static_cast<int>(running);
      running += static_cast<std::int64_t>(
                     cfg.cw[static_cast<std::size_t>(i)]) *
                 (static_cast<std::int64_t>(
                      cfg.dc[static_cast<std::size_t>(i)]) +
                  1);
      util::require(running <= (std::int64_t{1} << 30),
                    "exact chain: per-station state space too large "
                    "(is a deferral counter disabled?)");
    }
    total = static_cast<int>(running);
  }

  int index(int stage, int bc, int dc) const {
    const int depth = config.dc[static_cast<std::size_t>(stage)] + 1;
    return stage_offset[static_cast<std::size_t>(stage)] + bc * depth + dc;
  }

  struct Decoded {
    int stage;
    int bc;
    int dc;
  };
  Decoded decode(int index) const {
    const int m = config.stage_count();
    int stage = m - 1;
    for (int i = 1; i < m; ++i) {
      if (index < stage_offset[static_cast<std::size_t>(i)]) {
        stage = i - 1;
        break;
      }
    }
    const int local = index - stage_offset[static_cast<std::size_t>(stage)];
    const int depth = config.dc[static_cast<std::size_t>(stage)] + 1;
    return {stage, local / depth, local % depth};
  }
};

/// A sparse successor list: (state index, probability) pairs.
using Successors = std::vector<std::pair<int, double>>;

/// Redraw distribution entering `stage`: BC uniform over the window,
/// DC = d_stage.
inline Successors redraw_successors(const StateSpace& space, int stage) {
  const int cw = space.config.cw[static_cast<std::size_t>(stage)];
  const int d = space.config.dc[static_cast<std::size_t>(stage)];
  Successors successors;
  successors.reserve(static_cast<std::size_t>(cw));
  const double p = 1.0 / static_cast<double>(cw);
  for (int b = 0; b < cw; ++b) {
    successors.emplace_back(space.index(stage, b, d), p);
  }
  return successors;
}

/// One station's transition kernels for every role it can play during a
/// medium event.
struct StationModel {
  StateSpace space;
  std::vector<Successors> idle;  ///< Idle slot: bc-- (only when bc > 0).
  std::vector<Successors> busy;  ///< Sensed another's tx: decrement/jump.
  std::vector<Successors> win;   ///< Own success: redraw at stage 0.
  std::vector<Successors> lose;  ///< Own collision: redraw at next stage.
  std::vector<bool> ready;       ///< bc == 0: transmits next event.
  std::vector<int> stage;        ///< Stage of each state.
  Successors start;              ///< Fresh draw at stage 0.

  explicit StationModel(const mac::BackoffConfig& config)
      : space(config) {
    const int m = config.stage_count();
    const int n = space.total;
    idle.resize(static_cast<std::size_t>(n));
    busy.resize(static_cast<std::size_t>(n));
    win.resize(static_cast<std::size_t>(n));
    lose.resize(static_cast<std::size_t>(n));
    ready.resize(static_cast<std::size_t>(n));
    stage.resize(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      const auto [stg, bc, dc] = space.decode(s);
      stage[static_cast<std::size_t>(s)] = stg;
      ready[static_cast<std::size_t>(s)] = bc == 0;
      const int next_stage = std::min(stg + 1, m - 1);
      if (bc == 0) {
        win[static_cast<std::size_t>(s)] = redraw_successors(space, 0);
        lose[static_cast<std::size_t>(s)] =
            redraw_successors(space, next_stage);
      } else {
        idle[static_cast<std::size_t>(s)] = {
            {space.index(stg, bc - 1, dc), 1.0}};
        if (dc == 0) {
          busy[static_cast<std::size_t>(s)] =
              redraw_successors(space, next_stage);
        } else {
          busy[static_cast<std::size_t>(s)] = {
              {space.index(stg, bc - 1, dc - 1), 1.0}};
        }
      }
    }
    start = redraw_successors(space, 0);
  }
};

inline analysis::ExactPairResult solve_full_chain(
    const mac::BackoffConfig& config_a, const mac::BackoffConfig& config_b,
    int max_iterations, double tolerance) {
  const StationModel a(config_a);
  const StationModel b(config_b);
  const int na = a.space.total;
  const int nb = b.space.total;
  const std::size_t joint =
      static_cast<std::size_t>(na) * static_cast<std::size_t>(nb);

  // Power iteration, matrix-free.
  std::vector<double> v(joint, 0.0);
  std::vector<double> next(joint, 0.0);
  for (const auto& [sa, pa] : a.start) {
    for (const auto& [sb, pb] : b.start) {
      v[static_cast<std::size_t>(sa) * static_cast<std::size_t>(nb) +
        static_cast<std::size_t>(sb)] = pa * pb;
    }
  }

  analysis::ExactPairResult result;
  double residual = 1.0;
  int iteration = 0;
  for (; iteration < max_iterations && residual > tolerance; ++iteration) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int sa = 0; sa < na; ++sa) {
      const std::size_t row =
          static_cast<std::size_t>(sa) * static_cast<std::size_t>(nb);
      const bool ready_a = a.ready[static_cast<std::size_t>(sa)];
      for (int sb = 0; sb < nb; ++sb) {
        const double mass = v[row + static_cast<std::size_t>(sb)];
        if (mass == 0.0) continue;
        const bool ready_b = b.ready[static_cast<std::size_t>(sb)];
        const Successors* list_a;
        const Successors* list_b;
        if (!ready_a && !ready_b) {
          list_a = &a.idle[static_cast<std::size_t>(sa)];
          list_b = &b.idle[static_cast<std::size_t>(sb)];
        } else if (ready_a && !ready_b) {
          list_a = &a.win[static_cast<std::size_t>(sa)];
          list_b = &b.busy[static_cast<std::size_t>(sb)];
        } else if (!ready_a && ready_b) {
          list_a = &a.busy[static_cast<std::size_t>(sa)];
          list_b = &b.win[static_cast<std::size_t>(sb)];
        } else {
          list_a = &a.lose[static_cast<std::size_t>(sa)];
          list_b = &b.lose[static_cast<std::size_t>(sb)];
        }
        for (const auto& [ta, pa] : *list_a) {
          const double mass_a = mass * pa;
          const std::size_t out_row =
              static_cast<std::size_t>(ta) * static_cast<std::size_t>(nb);
          for (const auto& [tb, pb] : *list_b) {
            next[out_row + static_cast<std::size_t>(tb)] += mass_a * pb;
          }
        }
      }
    }
    // L1 residual between successive iterates (checked every 16 rounds to
    // amortize the scan).
    if (iteration % 16 == 15 || iteration + 1 == max_iterations) {
      residual = 0.0;
      for (std::size_t i = 0; i < joint; ++i) {
        residual += std::abs(next[i] - v[i]);
      }
    }
    v.swap(next);
  }
  result.iterations = iteration;
  result.residual = residual;

  // Harvest stationary event probabilities and the stage joint.
  const int stages_a = config_a.stage_count();
  const int stages_b = config_b.stage_count();
  result.stage_joint.assign(
      static_cast<std::size_t>(stages_a),
      std::vector<double>(static_cast<std::size_t>(stages_b), 0.0));
  for (int sa = 0; sa < na; ++sa) {
    const std::size_t row =
        static_cast<std::size_t>(sa) * static_cast<std::size_t>(nb);
    const bool ready_a = a.ready[static_cast<std::size_t>(sa)];
    const int stage_a = a.stage[static_cast<std::size_t>(sa)];
    for (int sb = 0; sb < nb; ++sb) {
      const double mass = v[row + static_cast<std::size_t>(sb)];
      if (mass == 0.0) continue;
      const bool ready_b = b.ready[static_cast<std::size_t>(sb)];
      result.stage_joint[static_cast<std::size_t>(stage_a)]
                        [static_cast<std::size_t>(
                            b.stage[static_cast<std::size_t>(sb)])] += mass;
      if (ready_a && ready_b) {
        result.p_collision += mass;
      } else if (ready_a) {
        result.p_success_a += mass;
      } else if (ready_b) {
        result.p_success_b += mass;
      } else {
        result.p_idle += mass;
      }
    }
  }
  result.p_success = result.p_success_a + result.p_success_b;
  // Paper estimator: each collision contributes 2 collided MPDUs.
  result.collision_probability =
      (2.0 * result.p_collision + result.p_success) > 0.0
          ? 2.0 * result.p_collision /
                (2.0 * result.p_collision + result.p_success)
          : 0.0;
  // Station A's per-attempt collision probability.
  const double attempts_a = result.p_collision + result.p_success_a;
  result.gamma = attempts_a > 0.0 ? result.p_collision / attempts_a : 0.0;
  return result;
}

}  // namespace plc::exact_reference
