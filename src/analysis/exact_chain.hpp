// Exact two-station analysis of the 1901 backoff.
//
// Why this exists: the decoupling model (model_1901) assumes each station
// sees an independent busy process. For 1901 the deferral counter couples
// the stations strongly at small N — after a success the winner restarts
// at stage 0 while every transmission pushes the loser's stage *up* even
// without collisions, so the two stations' stages are anti-correlated and
// the collision probability at attempt instants is well below the
// decoupled prediction 1-(1-tau)^(N-1). Quantifying this is the central
// analytical observation of the paper.
//
// This module computes the *exact* stationary behaviour of the joint
// chain for N = 2: per-station state (stage, BC, DC) with the standard's
// transition rules, joint evolution per medium event (idle / success /
// collision). It solves that chain observed right after each busy
// event: a success leaves the winner drawing at stage 0 and a collision
// leaves both drawing at their next stage, so a post-event state is
// "A won, B in state t", "B won, A in state t" or "a collision left the
// two drawing at stages (i, j)" — n_A + n_B + m_A*m_B states, where a
// station has n = sum_i CW_i*(d_i+1) states and m stages (CA1: 1192 per
// station and 2,400 post-event states, against 1,420,864 joint states).
// One step of that chain skips the idle gap min(BC_A, BC_B) and applies
// one busy event; power iteration over its merged sparse rows (35,536
// transitions for CA1) solves CA1 in ~140 iterations and a few ms. The
// per-event probabilities follow by dividing by 1 + E[gap]
// (tests/exact_pair_reference.hpp keeps the full joint chain as the
// reference).
#pragma once

#include <cstdint>
#include <vector>

#include "des/time.hpp"
#include "mac/config.hpp"
#include "phy/timing.hpp"

namespace plc::analysis {

/// Exact stationary results for two saturated stations.
struct ExactPairResult {
  /// Stationary per-event probabilities.
  double p_idle = 0.0;
  double p_success = 0.0;
  double p_collision = 0.0;
  /// Success events won by station A / by station B (sums to p_success).
  double p_success_a = 0.0;
  double p_success_b = 0.0;
  /// Collision probability as the paper estimates it:
  /// E[collided tx] / E[collided tx + successes] = 2*Pc / (2*Pc + Ps).
  double collision_probability = 0.0;
  /// Per-attempt collision probability of a tagged station (station A
  /// when the stations' configs differ).
  double gamma = 0.0;
  /// Stationary joint distribution over (stage_A, stage_B), per medium
  /// event.
  std::vector<std::vector<double>> stage_joint;
  /// Power-iteration steps on the post-event chain, and the L1 distance
  /// between its last two iterates (the loop stops once it is at most
  /// `tolerance`).
  int iterations = 0;
  double residual = 0.0;

  /// Station A's share of successful transmissions (0.5 when symmetric).
  double success_share_a() const {
    return p_success > 0.0 ? p_success_a / p_success : 0.5;
  }

  double normalized_throughput(const phy::TimingConfig& timing,
                               des::SimTime frame_length) const;
};

/// Solves the exact N=2 chain for two identically-configured stations.
/// Throws plc::Error when the per-station state space exceeds
/// `max_states_per_station` (guard against accidental huge configs:
/// joint memory is quadratic).
ExactPairResult solve_exact_pair(const mac::BackoffConfig& config,
                                 int max_iterations = 20'000,
                                 double tolerance = 1e-12,
                                 int max_states_per_station = 4096);

/// Heterogeneous variant: station A runs `config_a`, station B `config_b`
/// — the exact answer to "what happens when a tuned station coexists
/// with a default one?" (long-term shares, collision probability).
ExactPairResult solve_exact_pair(const mac::BackoffConfig& config_a,
                                 const mac::BackoffConfig& config_b,
                                 int max_iterations = 20'000,
                                 double tolerance = 1e-12,
                                 int max_states_per_station = 4096);

}  // namespace plc::analysis
