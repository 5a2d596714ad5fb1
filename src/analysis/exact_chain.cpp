#include "analysis/exact_chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::analysis {

namespace {

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

  int stages() const { return config.stage_count(); }
  int cw(int stage) const {
    return config.cw[static_cast<std::size_t>(stage)];
  }
  int dc(int stage) const {
    return config.dc[static_cast<std::size_t>(stage)];
  }
  int next_stage(int stage) const { return std::min(stage + 1, stages() - 1); }

  int index(int stage, int bc, int dc_value) const {
    return stage_offset[static_cast<std::size_t>(stage)] +
           bc * (dc(stage) + 1) + dc_value;
  }
};

/// One station at the start of a cycle, right after a busy event: BC
/// uniform over [first_bc, last_bc) at a fixed stage and DC. A known
/// state has one BC; a window draw at a stage has the whole window and
/// DC = d_stage.
struct Start {
  int stage = 0;
  int first_bc = 0;
  int last_bc = 1;
  int dc = 0;
};

Start window_draw(const StateSpace& space, int stage) {
  return {stage, 0, space.cw(stage), space.dc(stage)};
}

/// The chain observed right after each busy event. A success leaves the
/// winner drawing at stage 0 whatever state it won from, a collision
/// leaves both drawing at their next stage, and idle slots only lower
/// both BCs, so a post-event state is one of
///   - "A won, B is in state t"  (index t, t < n_B),
///   - "B won, A is in state t"  (index n_B + t, t < n_A),
///   - "a collision left A drawing at stage i and B at stage j"
///     (index n_B + n_A + i * m_B + j).
/// One step of this chain is one cycle of the per-event chain: the idle
/// gap g = min(BC_A, BC_B), then one busy event.
class PostEventChain {
 public:
  /// What one cycle from a post-event state does. Idle slots change no
  /// stage, so both stations keep the state's stages for the cycle.
  struct Row {
    int stage_a = 0;
    int stage_b = 0;
    double gap = 0.0;      ///< Expected idle slots before the busy event.
    double win_a = 0.0;    ///< P(the busy event is A's success).
    double win_b = 0.0;    ///< P(it is B's success).
    double collide = 0.0;  ///< P(it is a collision).
  };

  PostEventChain(const StateSpace& a, const StateSpace& b)
      : a_(a),
        b_(b),
        a_won_{&b, 0, std::vector<double>(
                          static_cast<std::size_t>(b.stages()), 0.0)},
        b_won_{&a, static_cast<std::size_t>(b.total),
               std::vector<double>(static_cast<std::size_t>(a.stages()),
                                   0.0)},
        states_(static_cast<std::size_t>(b.total) +
                static_cast<std::size_t>(a.total) +
                static_cast<std::size_t>(a.stages()) *
                    static_cast<std::size_t>(b.stages())),
        rows_(states_),
        row_end_(states_),
        scratch_(states_, 0.0) {
    // Rows in state-index order; station states enumerate in index order.
    std::size_t s = 0;
    for (int stage = 0; stage < b.stages(); ++stage) {
      for (int bc = 0; bc < b.cw(stage); ++bc) {
        for (int dc = 0; dc <= b.dc(stage); ++dc) {
          build_row(s++, window_draw(a, 0), Start{stage, bc, bc + 1, dc});
        }
      }
    }
    for (int stage = 0; stage < a.stages(); ++stage) {
      for (int bc = 0; bc < a.cw(stage); ++bc) {
        for (int dc = 0; dc <= a.dc(stage); ++dc) {
          build_row(s++, Start{stage, bc, bc + 1, dc}, window_draw(b, 0));
        }
      }
    }
    for (int i = 0; i < a.stages(); ++i) {
      for (int j = 0; j < b.stages(); ++j) {
        build_row(s++, window_draw(a, i), window_draw(b, j));
      }
    }
  }

  std::size_t states() const { return states_; }
  const Row& row(std::size_t s) const { return rows_[s]; }

  /// The per-event chain's start (both stations drawing at stage 0) as a
  /// post-event state.
  std::size_t fresh_start() const { return collision_index(0, 0); }

  /// next = v * P.
  void step(const std::vector<double>& v, std::vector<double>& next) const {
    std::fill(next.begin(), next.end(), 0.0);
    std::size_t k = 0;
    for (std::size_t s = 0; s < states_; ++s) {
      const double mass = v[s];
      const std::size_t end = row_end_[s];
      if (mass == 0.0) {
        k = end;
        continue;
      }
      for (; k < end; ++k) {
        next[static_cast<std::size_t>(to_[k])] += mass * p_[k];
      }
    }
  }

 private:
  /// The block of states in which `space`'s station lost the channel.
  struct LoserBlock {
    const StateSpace* space;
    std::size_t offset;
    std::vector<double> draws;  ///< Row scratch: next-stage draws by stage.
  };

  std::size_t collision_index(int stage_a, int stage_b) const {
    return static_cast<std::size_t>(b_.total) +
           static_cast<std::size_t>(a_.total) +
           static_cast<std::size_t>(stage_a) *
               static_cast<std::size_t>(b_.stages()) +
           static_cast<std::size_t>(stage_b);
  }

  void add(std::size_t to, double p) {
    if (scratch_[to] == 0.0) touched_.push_back(to);
    scratch_[to] += p;
  }

  /// The loser's busy step at its attempt state: BC and DC drop by one,
  /// or, with DC at 0, it draws at its next stage. Draws are collected
  /// per stage and spread over the window once per row.
  void lose(LoserBlock& block, int stage, int bc, int dc, double p) {
    if (dc == 0) {
      block.draws[static_cast<std::size_t>(block.space->next_stage(stage))] +=
          p;
    } else {
      add(block.offset +
              static_cast<std::size_t>(
                  block.space->index(stage, bc - 1, dc - 1)),
          p);
    }
  }

  void spread_draws(LoserBlock& block) {
    const StateSpace& space = *block.space;
    for (int stage = 0; stage < space.stages(); ++stage) {
      double& mass = block.draws[static_cast<std::size_t>(stage)];
      if (mass == 0.0) continue;
      const double p = mass / static_cast<double>(space.cw(stage));
      for (int bc = 0; bc < space.cw(stage); ++bc) {
        add(block.offset +
                static_cast<std::size_t>(
                    space.index(stage, bc, space.dc(stage))),
            p);
      }
      mass = 0.0;
    }
  }

  /// Every realization of the two starts: skip the gap, apply the event
  /// at the attempt state, and merge the destinations into row s.
  void build_row(std::size_t s, const Start& start_a, const Start& start_b) {
    Row& row = rows_[s];
    row.stage_a = start_a.stage;
    row.stage_b = start_b.stage;
    const double p =
        1.0 / static_cast<double>(start_a.last_bc - start_a.first_bc) /
        static_cast<double>(start_b.last_bc - start_b.first_bc);
    for (int bc_a = start_a.first_bc; bc_a < start_a.last_bc; ++bc_a) {
      for (int bc_b = start_b.first_bc; bc_b < start_b.last_bc; ++bc_b) {
        const int gap = std::min(bc_a, bc_b);
        row.gap += p * static_cast<double>(gap);
        if (bc_a == bc_b) {
          row.collide += p;
          add(collision_index(a_.next_stage(start_a.stage),
                              b_.next_stage(start_b.stage)),
              p);
        } else if (bc_a == gap) {
          row.win_a += p;
          lose(a_won_, start_b.stage, bc_b - gap, start_b.dc, p);
        } else {
          row.win_b += p;
          lose(b_won_, start_a.stage, bc_a - gap, start_a.dc, p);
        }
      }
    }
    spread_draws(a_won_);
    spread_draws(b_won_);
    std::sort(touched_.begin(), touched_.end());
    for (const std::size_t to : touched_) {
      to_.push_back(static_cast<int>(to));
      p_.push_back(scratch_[to]);
      scratch_[to] = 0.0;
    }
    touched_.clear();
    row_end_[s] = to_.size();
  }

  const StateSpace& a_;
  const StateSpace& b_;
  LoserBlock a_won_;  ///< B lost: "A won, B is in state t".
  LoserBlock b_won_;  ///< A lost: "B won, A is in state t".
  std::size_t states_;
  std::vector<Row> rows_;
  std::vector<std::size_t> row_end_;  ///< Row s is [end(s - 1), end(s)).
  std::vector<int> to_;
  std::vector<double> p_;
  std::vector<double> scratch_;  ///< Row scratch: merged destinations.
  std::vector<std::size_t> touched_;
};

}  // namespace

ExactPairResult solve_exact_pair(const mac::BackoffConfig& config_a,
                                 const mac::BackoffConfig& config_b,
                                 int max_iterations, double tolerance,
                                 int max_states_per_station) {
  PROF_SCOPE("analysis.exact_pair");
  config_a.validate();
  config_b.validate();
  const StateSpace a(config_a);
  const StateSpace b(config_b);
  util::check_arg(a.total <= max_states_per_station, "config_a",
                  "per-station state space too large for the exact solver");
  util::check_arg(b.total <= max_states_per_station, "config_b",
                  "per-station state space too large for the exact solver");
  const PostEventChain chain(a, b);
  const std::size_t states = chain.states();

  // Power iteration on the post-event chain.
  std::vector<double> v(states, 0.0);
  std::vector<double> next(states, 0.0);
  v[chain.fresh_start()] = 1.0;
  ExactPairResult result;
  double residual = 1.0;
  int iteration = 0;
  for (; iteration < max_iterations && residual > tolerance; ++iteration) {
    chain.step(v, next);
    residual = 0.0;
    for (std::size_t s = 0; s < states; ++s) {
      residual += std::abs(next[s] - v[s]);
    }
    v.swap(next);
  }
  result.iterations = iteration;
  result.residual = residual;

  // Harvest: a cycle from post-event state s is gap(s) idle events and
  // one busy event, all at s's stages, so the per-event chain's
  // frequencies are the cycle's divided by the expected cycle length.
  result.stage_joint.assign(
      static_cast<std::size_t>(a.stages()),
      std::vector<double>(static_cast<std::size_t>(b.stages()), 0.0));
  double gap = 0.0;
  for (std::size_t s = 0; s < states; ++s) {
    const double mass = v[s];
    if (mass == 0.0) continue;
    const PostEventChain::Row& row = chain.row(s);
    gap += mass * row.gap;
    result.p_success_a += mass * row.win_a;
    result.p_success_b += mass * row.win_b;
    result.p_collision += mass * row.collide;
    result.stage_joint[static_cast<std::size_t>(row.stage_a)]
                      [static_cast<std::size_t>(row.stage_b)] +=
        mass * (1.0 + row.gap);
  }
  const double cycle = 1.0 + gap;
  result.p_idle = gap / cycle;
  result.p_success_a /= cycle;
  result.p_success_b /= cycle;
  result.p_collision /= cycle;
  for (std::vector<double>& stage_row : result.stage_joint) {
    for (double& cell : stage_row) cell /= cycle;
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

ExactPairResult solve_exact_pair(const mac::BackoffConfig& config,
                                 int max_iterations, double tolerance,
                                 int max_states_per_station) {
  return solve_exact_pair(config, config, max_iterations, tolerance,
                          max_states_per_station);
}

double ExactPairResult::normalized_throughput(
    const phy::TimingConfig& timing, des::SimTime frame_length) const {
  const double expected_event_us = p_idle * timing.slot.us() +
                                   p_success * timing.ts(frame_length).us() +
                                   p_collision * timing.tc(frame_length).us();
  if (expected_event_us <= 0.0) return 0.0;
  return p_success * frame_length.us() / expected_event_us;
}

}  // namespace plc::analysis
