// perfbench — the repository benchmark: runs one workload and reports.
//
//   perfbench --workload <figure2|serve-cold> [--seed <n>]
//             [--seconds <s>] [--trace <0|1>] [--work-dir <dir>]
//             [--trace-file <path>] [--revision <rev>]
//             [--source-digest <hex>]
//
// The run's stores go in a private directory under --work-dir (default
// .perfbench-work), removed when the run ends. Prints an environment
// stamp line, a result line (digest, realized mix, sample counts) and,
// last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). Normally launched through perfbench/run.py, which builds
// this binary first.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "core/workloads.hpp"
#include "obs/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload <figure2|serve-cold> "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--trace-file PATH] [--revision REV] [--source-digest HEX]\n";
  return 2;
}

/// Online CPUs this process may run on (what `nproc` prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double load_average() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// Cumulative CPU ticks from /proc/stat: {steal, total}; zeros when the
/// file is unreadable. On a virtual machine, steal is the time the
/// hypervisor gave this machine's CPUs to other guests — the usual cause
/// of run-to-run spread on shared hardware.
std::pair<double, double> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8 && stat; ++field) {
    double value = 0.0;
    stat >> value;
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string revision = "unknown";
  std::string source_digest = "unknown";
  std::string work_root = ".perfbench-work";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (flag == "--work-dir") {
        work_root = value;
      } else if (flag == "--trace-file") {
        config.trace_path = value;
      } else if (flag == "--revision") {
        revision = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == config.workload;
  }
  if (!known) return usage("unknown workload " + config.workload);
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");

  // The worker pool is pinned to nproc and recorded.
  config.pool = nproc();
  // The run's stores live in a private directory under --work-dir; only
  // that directory is ever removed.
  namespace fs = std::filesystem;
  config.work_dir = (fs::path(work_root) /
                     (config.workload + "-" + std::to_string(getpid())))
                        .string();
  if (fs::exists(config.work_dir)) {
    return usage("work directory " + config.work_dir + " already exists");
  }
  fs::create_directories(config.work_dir);
  // Start from quiesced disk I/O: flush what the build or an earlier run
  // left dirty, so its write-back (and, on a discard-mounted VM disk, its
  // trims) cannot land inside this run's timed phase.
  sync();

  const double load_before = load_average();
  const std::pair<double, double> ticks_before = cpu_ticks();
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    fs::remove_all(config.work_dir);
    sync();
    return 1;
  }
  const double load_after = load_average();
  const std::pair<double, double> ticks_after = cpu_ticks();
  const double ticks = ticks_after.second - ticks_before.second;
  const double steal_pct =
      ticks > 0.0 ? 100.0 * (ticks_after.first - ticks_before.first) / ticks
                  : 0.0;
  fs::remove_all(config.work_dir);
  sync();  // The same courtesy for the next run: our deletes are flushed.

  for (const std::string& failure : result.failures) {
    std::cerr << "perfbench: FAILED " << failure << "\n";
  }

  {
    std::ostringstream env;
    plc::obs::JsonWriter json(env);
    json.begin_object();
    json.field("nproc", nproc());
    json.field("pool", config.pool);
    json.field("build_type", PERFBENCH_BUILD_TYPE);
    json.field("compiler", compiler());
    json.field("revision", revision);
    json.field("source_digest", source_digest);
    json.field("loadavg_before", load_before);
    json.field("loadavg_after", load_after);
    json.field("steal_pct", steal_pct);
    json.end_object();
    std::cout << "perfbench env " << env.str() << "\n";
  }
  {
    std::ostringstream line;
    plc::obs::JsonWriter json(line);
    json.begin_object();
    json.field("workload", config.workload);
    json.field("seed", config.seed ? std::to_string(*config.seed)
                                   : std::string("default"));
    json.field("seconds", config.seconds);
    json.field("trace", config.trace);
    json.field("failed_ratio",
               result.attempted > 0
                   ? static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted)
                   : 1.0);
    for (const auto& [name, value] : result.notes) json.key(name).raw(value);
    if (config.trace && !config.trace_path.empty()) {
      json.field("trace_file", config.trace_path);
    }
    json.end_object();
    std::cout << "perfbench result " << line.str() << "\n";
  }

  std::ostringstream out;
  plc::obs::JsonWriter json(out);
  json.begin_object();
  json.field("correct",
             result.failed == 0 && result.failures.empty() &&
                 result.attempted > 0);
  json.field("attempted", result.attempted);
  json.field("failed", result.failed);
  json.key("metrics").begin_object();
  for (const auto& [name, metric] : result.metrics) {
    json.key(name).begin_object();
    json.field("value", metric.value);
    json.field("unit", metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << out.str() << std::endl;
  return 0;
}
