#include "scenario/run.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exact_chain.hpp"
#include "macdef/registry.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel_runner.hpp"
#include "store/result_store.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace plc::scenario {

namespace {

std::string scalar_prefix(const std::string& label, int stations) {
  return label + ".n" + std::to_string(stations) + ".";
}

/// Model-leg results for one (variant, N) point, MAC-agnostic: the
/// def's registered solver, or nullopt for MACs without one (TDMA) —
/// those print "-" cells and record no model scalars.
std::optional<mac::MacModelResult> solve_model(const sim::MacSpec& mac,
                                               int stations,
                                               const phy::TimingConfig& timing,
                                               des::SimTime frame_length) {
  if (mac.def().solve == nullptr) return std::nullopt;
  return mac.def().solve(mac.config(), stations, timing, frame_length);
}

/// The exact N = 2 chain's iteration cap and convergence tolerance.
constexpr int kExactMaxIterations = 3000;
constexpr double kExactTolerance = 1e-10;

/// The exact-pair leg: one task per 1901-family variant when the sweep
/// includes N = 2, each solving the exact joint chain
/// (analysis::solve_exact_pair: 2,400 post-event states for CA1, a few
/// ms). The key is the chain's whole input — CW and DC vectors, iteration
/// cap and tolerance — so relabelled or renamed variants share one entry.
/// It also names the solver, whose iterations and tolerance are steps of
/// the post-event chain, so a value solved on the full joint chain is
/// never served. The payload is the one number the report reads.
class ExactPairLeg final : public sim::TaskLeg {
 public:
  explicit ExactPairLeg(const Spec& spec) : collision_(spec.macs.size(), 0.0) {
    const bool has_pair = std::find(spec.stations.begin(), spec.stations.end(),
                                    2) != spec.stations.end();
    if (!spec.legs.exact_pair || !has_pair) return;
    for (std::size_t variant = 0; variant < spec.macs.size(); ++variant) {
      if (const mac::BackoffConfig* chain =
              spec.macs[variant].mac.backoff_config()) {
        tasks_.push_back({variant, chain});
      }
    }
  }

  std::size_t size() const override { return tasks_.size(); }

  std::pair<std::size_t, int> coordinates(std::size_t task) const override {
    return {tasks_[task].variant, 0};
  }

  store::Key key(std::size_t task) const override {
    const mac::BackoffConfig& chain = *tasks_[task].chain;
    std::ostringstream point;
    obs::JsonWriter json(point);
    json.begin_object();
    json.key("cw").begin_array();
    for (const int w : chain.cw) json.value(w);
    json.end_array();
    json.key("dc").begin_array();
    for (const int d : chain.dc) json.value(d);
    json.end_array();
    json.field("max_iterations", kExactMaxIterations);
    json.field("solver", "post-event");
    json.field("tolerance", kExactTolerance);
    json.end_object();
    return store::make_key("exact_pair", point.str(), 0);
  }

  void run(std::size_t task, obs::Registry* /*metrics*/) override {
    collision_[tasks_[task].variant] =
        analysis::solve_exact_pair(*tasks_[task].chain, kExactMaxIterations,
                                   kExactTolerance)
            .collision_probability;
  }

  std::string encode(std::size_t task,
                     const obs::Snapshot& /*metrics*/) const override {
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.begin_object();
    json.field("collision_probability", collision_[tasks_[task].variant]);
    json.end_object();
    return out.str();
  }

  /// Accepts only a finite number in [0, 1]; anything else re-solves.
  bool decode(std::size_t task, const obs::JsonValue& payload,
              obs::Snapshot* /*metrics*/) override {
    const obs::JsonValue* value = payload.find("collision_probability");
    if (value == nullptr || !value->is_number() ||
        !(value->number >= 0.0 && value->number <= 1.0)) {
      return false;
    }
    collision_[tasks_[task].variant] = value->number;
    return true;
  }

  /// The solved collision probability of `variant` (a task's variant).
  double collision_probability(std::size_t variant) const {
    return collision_[variant];
  }

 private:
  struct Task {
    std::size_t variant = 0;
    const mac::BackoffConfig* chain = nullptr;
  };
  std::vector<Task> tasks_;
  std::vector<double> collision_;  ///< Per variant.
};

}  // namespace

RunOutcome run_scenario(const Spec& spec, const RunOptions& options) {
  const obs::Stopwatch wall;
  spec.validate();
  // The engine checks the flag before every task; this catches a job
  // cancelled before it started, including one with no engine legs.
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed)) {
    throw Error("sweep cancelled");
  }

  // Store counters are atomics, safe to read from any thread — ideal
  // live probes: the hub's /metrics scrape sees hit/miss progress while
  // the sweep is still running.
  if (options.telemetry != nullptr && options.store != nullptr) {
    store::ResultStore* store = options.store;
    options.telemetry->add_probe("store.hits", [store] {
      return static_cast<double>(store->counters().hits);
    });
    options.telemetry->add_probe("store.misses", [store] {
      return static_cast<double>(store->counters().misses);
    });
    options.telemetry->add_probe("store.publishes", [store] {
      return static_cast<double>(store->counters().publishes);
    });
    options.telemetry->add_probe("store.bytes_written", [store] {
      return static_cast<double>(store->counters().bytes_written);
    });
  }

  RunOutcome outcome;
  obs::RunReport& report = outcome.report;
  report.name = spec.name;
  report.scenario = spec.to_json();
  if (options.store != nullptr) {
    // Run-invariant provenance only (schema/epoch, never hit counts):
    // the warm run's report must be byte-identical to the cold run's.
    std::ostringstream cache_json;
    obs::JsonWriter json(cache_json);
    json.begin_object();
    json.field("store_schema", store::kEntrySchema);
    json.field("epoch", store::kResultEpoch);
    json.end_object();
    report.cache = cache_json.str();
  }

  obs::Registry local_registry;
  obs::Registry* registry =
      options.registry != nullptr ? options.registry : &local_registry;

  const std::size_t variants = spec.macs.size();
  const std::size_t points = spec.stations.size();

  // Every engine leg runs on one runner. A caller-owned runner (the serve
  // scheduler's warm pool) wins over a per-run pool; either merges task
  // results in task-index order, so the choice cannot change a single
  // output byte.
  ExactPairLeg exact(spec);
  std::optional<sim::ParallelRunner> local_runner;
  sim::ParallelRunner* runner = options.runner;
  if (runner == nullptr &&
      (spec.legs.sim || spec.legs.testbed || exact.size() > 0)) {
    runner = &local_runner.emplace(options.jobs);
  }
  sim::RunObservability attach;
  attach.registry = registry;
  attach.store = options.store;
  attach.telemetry = options.telemetry;
  attach.cancel = options.cancel;

  // Sim leg: one parallel sweep over every (variant x N) point —
  // summaries indexed variant-major, bit-identical for any jobs count.
  std::vector<sim::RunSummary> summaries;
  if (spec.legs.sim) {
    std::vector<sim::RunSpec> run_specs;
    std::vector<std::string> store_legs;
    run_specs.reserve(variants * points);
    store_legs.reserve(variants * points);
    for (std::size_t variant = 0; variant < variants; ++variant) {
      for (const int n : spec.stations) {
        run_specs.push_back(spec.to_run_spec(n, variant));
        store_legs.push_back("sim/" + spec.macs[variant].label);
      }
    }
    sim::RunObservability sim_attach = attach;
    sim_attach.store_legs = &store_legs;
    obs::ObservatoryOptions observatory_options;
    if (spec.observatory) {
      observatory_options.fairness_window = spec.observatory_window;
      observatory_options.trajectory_capacity =
          static_cast<std::size_t>(spec.observatory_trajectory);
      sim_attach.observatory = &observatory_options;
    }
    summaries = runner->run_points(run_specs, sim_attach);
    outcome.serial_equivalent_seconds += runner->serial_equivalent_seconds();
    for (const sim::RunSummary& summary : summaries) {
      report.events += summary.medium_events;
      report.simulated_seconds += summary.simulated.seconds();
    }
  }

  // Testbed and exact-pair legs: one batch with the exact-pair tasks
  // first. A solve takes milliseconds, so it delays the testbed tests by
  // no more than that, and the legs share one barrier. The emulated
  // devices run their HomePlug AV firmware configuration, so the testbed
  // leg executes once (labelled by variant 0), testbed_tests independent
  // tests per station count.
  std::vector<tools::TestbedConfig> testbed_configs;
  std::vector<tools::TestbedResult> testbed_runs;
  std::vector<std::string> testbed_store_legs;
  std::optional<tools::TestbedLeg> testbed;
  sim::RunObservability testbed_attach = attach;
  std::vector<sim::TaskLeg*> batch;
  if (exact.size() > 0) batch.push_back(&exact);
  if (spec.legs.testbed) {
    testbed_configs.reserve(points *
                            static_cast<std::size_t>(spec.testbed_tests));
    for (const int n : spec.stations) {
      for (int test = 0; test < spec.testbed_tests; ++test) {
        testbed_configs.push_back(spec.to_testbed_config(n, test, 0));
      }
    }
    testbed_store_legs.assign(points, "testbed/" + spec.macs[0].label);
    testbed_attach.store_legs = &testbed_store_legs;
    batch.push_back(&testbed.emplace(testbed_configs, spec.testbed_tests,
                                     testbed_attach, &testbed_runs));
    for (const tools::TestbedConfig& config : testbed_configs) {
      report.simulated_seconds += (config.warmup + config.duration).seconds();
    }
  }
  if (!batch.empty()) {
    runner->run_tasks(batch, testbed_attach);
    outcome.serial_equivalent_seconds += runner->serial_equivalent_seconds();
  }

  if (options.out != nullptr && !spec.title.empty()) {
    *options.out << "=== " << spec.title << " ===\n";
  }

  // Observatory reductions per (variant, N) point, variant-major — the
  // report's "stations" section. Pointers into `summaries` (stable from
  // here on).
  std::vector<std::pair<std::string, const obs::ObservatorySummary*>>
      station_points;

  for (std::size_t variant = 0; variant < variants; ++variant) {
    const std::string& label = spec.macs[variant].label;
    const sim::MacSpec& mac = spec.macs[variant].mac;
    const bool is_1901_family = mac.backoff_config() != nullptr;
    const bool with_exact = spec.legs.exact_pair && is_1901_family;
    const bool with_testbed = spec.legs.testbed && variant == 0;
    const bool with_reference = variant == 0 && !spec.reference.empty();

    std::vector<std::string> header = {"N"};
    if (spec.legs.sim) {
      header.push_back("sim coll");
      header.push_back("sim thr");
      if (spec.observatory) header.push_back("jain(W)");
    }
    if (spec.legs.model) {
      header.push_back("model coll");
      header.push_back("model thr");
    }
    if (with_exact) header.push_back("exact coll (N=2)");
    if (with_testbed) {
      header.push_back("testbed coll (mean)");
      header.push_back("testbed coll (std)");
      header.push_back("collided");
      header.push_back("acknowledged");
    }
    if (with_reference) {
      for (const auto& [key, series] : spec.reference) header.push_back(key);
    }
    util::TablePrinter table(std::move(header));

    for (std::size_t point = 0; point < points; ++point) {
      const int n = spec.stations[point];
      const std::string prefix = scalar_prefix(label, n);
      std::vector<std::string> row = {std::to_string(n)};
      const sim::RunSummary* summary =
          spec.legs.sim ? &summaries[variant * points + point] : nullptr;
      // One solve per point serves both the model columns and the
      // observatory's per-stage drift scalars.
      std::optional<mac::MacModelResult> model;
      if (spec.legs.model || (summary != nullptr && summary->stations)) {
        model = solve_model(mac, n, spec.timing, spec.frame_length);
      }

      if (summary != nullptr) {
        const double collision = summary->collision_probability.mean();
        const double throughput = summary->normalized_throughput.mean();
        report.scalars[prefix + "sim_collision_probability"] = collision;
        report.scalars[prefix + "sim_throughput"] = throughput;
        row.push_back(util::format_fixed(collision, 4));
        row.push_back(util::format_fixed(throughput, 4));
        if (summary->stations) {
          const obs::ObservatorySummary& stations = *summary->stations;
          station_points.emplace_back(label + ".n" + std::to_string(n),
                                      &stations);
          const double jain = stations.window_jain.mean();
          report.scalars[prefix + "obs.window_jain_mean"] = jain;
          report.scalars[prefix + "obs.window_jain_stddev"] =
              stations.window_jain.stddev();
          if (spec.observatory) row.push_back(util::format_fixed(jain, 4));
          // Per-stage drift: the empirical attempt frequency of each
          // backoff stage next to the decoupled model's x_i(gamma) — the
          // divergence at small N is the paper's coupling story. MACs
          // whose solver has no per-stage analysis (DCF) — or no solver
          // at all — record empirical frequencies only.
          for (std::size_t s = 0; s < stations.per_stage.size(); ++s) {
            const std::string stage =
                prefix + "obs.stage" + std::to_string(s) + ".";
            report.scalars[stage + "attempt_freq"] =
                stations.per_stage[s].attempt_freq();
            if (model && s < model->stage_attempt_probability.size()) {
              report.scalars[stage + "attempt_model"] =
                  model->stage_attempt_probability[s];
            }
          }
        } else if (spec.observatory) {
          row.push_back("-");
        }
      }

      if (spec.legs.model) {
        if (model) {
          report.scalars[prefix + "model_collision_probability"] =
              model->collision_probability;
          report.scalars[prefix + "model_throughput"] = model->throughput;
          row.push_back(util::format_fixed(model->collision_probability, 4));
          row.push_back(util::format_fixed(model->throughput, 4));
        } else {
          row.push_back("-");
          row.push_back("-");
        }
      }

      if (with_exact) {
        if (n == 2) {
          const double collision = exact.collision_probability(variant);
          report.scalars[prefix + "exact_collision_probability"] = collision;
          row.push_back(util::format_fixed(collision, 4));
        } else {
          row.push_back(n == 1 ? "0.0000" : "-");
        }
      }

      if (with_testbed) {
        util::RunningStats collision;
        util::RunningStats collided;
        util::RunningStats acknowledged;
        for (int test = 0; test < spec.testbed_tests; ++test) {
          const std::size_t run =
              point * static_cast<std::size_t>(spec.testbed_tests) +
              static_cast<std::size_t>(test);
          collision.add(testbed_runs[run].collision_probability);
          collided.add(static_cast<double>(testbed_runs[run].total_collided));
          acknowledged.add(
              static_cast<double>(testbed_runs[run].total_acknowledged));
        }
        report.scalars[prefix + "testbed_collision_mean"] = collision.mean();
        report.scalars[prefix + "testbed_collision_stddev"] =
            collision.stddev();
        report.scalars[prefix + "testbed_collided"] = collided.mean();
        report.scalars[prefix + "testbed_acknowledged"] = acknowledged.mean();
        row.push_back(util::format_fixed(collision.mean(), 4));
        row.push_back(util::format_fixed(collision.stddev(), 4));
        row.push_back(util::with_thousands(
            static_cast<std::int64_t>(collided.mean())));
        row.push_back(util::with_thousands(
            static_cast<std::int64_t>(acknowledged.mean())));
      }

      if (with_reference) {
        for (const auto& [key, series] : spec.reference) {
          report.scalars["reference." + key + ".n" + std::to_string(n)] =
              series[point];
          row.push_back(util::format_double(series[point]));
        }
      }

      table.add_row(std::move(row));
    }

    if (options.out != nullptr) {
      *options.out << "\n--- " << label << " ---\n";
      table.print(*options.out);
    }
  }

  if (!station_points.empty()) {
    report.stations = obs::stations_section_json(station_points);
  }

  if (options.registry == nullptr) {
    report.metrics = local_registry.snapshot();
    if (report.events == 0) {
      // No sim leg: the testbed's medium events, warm-up included.
      report.events =
          static_cast<std::int64_t>(report.metrics.total("medium.events"));
    }
  }

  outcome.wall_seconds = wall.elapsed_seconds();
  return outcome;
}

}  // namespace plc::scenario
