// The benchmark workloads, run in-process against the repo's
// public APIs. Each run measures with tracing off first; a traced run
// then replays the workload's ops through the layers' public entry
// points with a span around every call, and reports the per-layer
// ledger instead of the end-to-end metrics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

struct RunConfig {
  std::string workload;
  /// Workload seed; unset keeps figure2's registry seed (the serve plan
  /// then uses seed 0).
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;  ///< Length of the timed phase.
  bool trace = false;     ///< Per-layer replay instead of end-to-end.
  int pool = 1;           ///< Worker pool size (sim, testbed, serve).
  std::string work_dir;   ///< Private scratch directory of this run.
  std::string trace_path; ///< Chrome trace output of a traced run.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Every failed check, one line each (printed to stderr).
  std::vector<std::string> failures;
  /// End-to-end metrics (untraced) or the per-layer ledger (traced).
  std::map<std::string, Metric> metrics;
  /// Extra result fields (name -> JSON value text): digests, the
  /// realized traffic mix, paper_err, sample counts.
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Runs one workload; throws std::invalid_argument for unknown names.
RunResult run_workload(const RunConfig& config);

}  // namespace perfbench
