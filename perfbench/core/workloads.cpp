#include "core/workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/exact_chain.hpp"
#include "core/http_client.hpp"
#include "core/ledger.hpp"
#include "core/plan.hpp"
#include "core/stats.hpp"
#include "macdef/registry.hpp"
#include "obs/json.hpp"
#include "obs/observatory.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "serve/server.hpp"
#include "sim/parallel_runner.hpp"
#include "store/result_store.hpp"
#include "tools/testbed.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using plc::obs::JsonValue;

namespace {

/// setup_s is the interquartile mean of set-ups timed in bursts spread
/// across the run: each vCPU of a shared virtual machine switches between
/// two speeds for seconds at a time, and set-ups timed only before the
/// first op would see one of them. Bursts sit between ops, outside every
/// timed op. Stores create their directories lazily, so no set-up touches
/// the filesystem: on a VM disk, metadata writes vary several-fold with
/// what earlier runs deleted.
constexpr int kFigure2SetupBurst = 500;  ///< About 3 ms per CPU.
constexpr int kServeSetupBurst = 4;      ///< About 16 ms.
/// serve-cold's reference pass runs a set-up burst after every this many
/// specs.
constexpr std::size_t kServeSetupEvery = 10;
/// Warm figure2 ops always run at least this many times.
constexpr std::size_t kMinWarmOps = 3;
/// Plan specs the serve report digest covers (always served or
/// referenced, so the digest is a function of the seed alone).
constexpr std::size_t kDigestSpecs = 20;
/// Jobs the traced serve run replays (the first ones of the plan).
constexpr std::size_t kReplayJobs = 40;
/// Store entries the store-call replay times.
constexpr std::size_t kStoreReplayEntries = 400;
/// A job that has no report after this long counts as failed (jobs take
/// well under a second; the bound keeps a stuck run inside its budget).
constexpr double kJobTimeoutSeconds = 30.0;
/// Messages kept per run (the counts stay exact).
constexpr std::size_t kMaxFailureMessages = 20;

void add_failure(RunResult& result, const std::string& message) {
  if (result.failures.size() < kMaxFailureMessages) {
    result.failures.push_back(message);
  }
}

void put(RunResult& result, const std::string& name, double value,
         const std::string& unit) {
  result.metrics[name] = Metric{std::isfinite(value) ? value : 0.0, unit};
}

std::string json_number(double value) {
  std::ostringstream out;
  plc::obs::JsonWriter(out).value(value);
  return out.str();
}

std::string json_string(const std::string& text) {
  std::ostringstream out;
  plc::obs::JsonWriter(out).value(text);
  return out.str();
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Store hits over lookups between two counter snapshots.
double hit_ratio(const plc::store::Counters& before,
                 const plc::store::Counters& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto misses = static_cast<double>(after.misses - before.misses);
  return ratio(hits, hits + misses);
}

/// Median of `samples`; throws plc::Error when empty.
double median(const std::vector<double>& samples) {
  plc::util::QuantileEstimator estimator;
  for (const double sample : samples) estimator.add(sample);
  return estimator.median();
}

/// Times `count` calls of `set_up`, each result kept alive until its
/// time is taken, so tearing a set-up down is not counted.
template <typename SetUp>
void setup_burst(std::vector<double>& samples, int count, SetUp&& set_up) {
  for (int i = 0; i < count; ++i) {
    plc::obs::Stopwatch watch;
    const auto made = set_up();
    samples.push_back(watch.elapsed_seconds());
  }
}

/// setup_burst() on each CPU of the process in turn, so that a
/// single-threaded set-up samples every vCPU's speed state, not only
/// that of the CPU the calling thread happens to sit on. Round r starts
/// on the r-th CPU and so ends on a different one each time: the thread
/// then starts its next op there, and ops between rounds sample every
/// vCPU too. The calling thread's mask is restored after each burst, so
/// no op runs pinned. Only for set-ups that start no threads: a thread
/// inherits its creator's mask.
template <typename SetUp>
void setup_round(std::vector<double>& samples, int count, std::size_t round,
                 SetUp&& set_up) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) {
    setup_burst(samples, count, set_up);
    return;
  }
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[(round + i) % cpus.size()], &one);
    const bool pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
    setup_burst(samples, count, set_up);
    if (pinned && sched_setaffinity(0, sizeof(allowed), &allowed) != 0) {
      throw std::runtime_error("cannot restore the CPU mask");
    }
  }
}

/// Peak resident set of this process, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// CPU seconds (user + system) this process has used so far.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// --- Store entries -----------------------------------------------------

/// One entry of an on-disk store, read back through its echoed key
/// material (the store writes leg, rep and point into every entry).
struct StoredEntry {
  plc::store::Key key;
  std::string payload;
  int stations = -1;
};

std::vector<StoredEntry> read_entries(const std::string& root) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const fs::path& path = it->path();
    if (path.extension() != ".json" ||
        path.parent_path().filename() == "quarantine") {
      continue;
    }
    paths.push_back(path.string());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<StoredEntry> entries;
  for (const std::string& path : paths) {
    const JsonValue doc = plc::obs::parse_json(plc::util::read_file(path));
    const JsonValue* leg = doc.find("leg");
    const JsonValue* rep = doc.find("rep");
    const JsonValue* point = doc.find("point");
    const JsonValue* payload = doc.find("payload");
    if (leg == nullptr || rep == nullptr || point == nullptr ||
        payload == nullptr) {
      throw std::runtime_error("store entry without key material: " + path);
    }
    StoredEntry entry;
    entry.key = plc::store::make_key(
        leg->text, point->dump(), static_cast<std::int64_t>(rep->number));
    entry.payload = payload->dump();
    if (const JsonValue* stations = point->find("stations")) {
      entry.stations = static_cast<int>(stations->number);
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

/// Testbed entries by (stations, test index).
using TestbedEntries = std::map<std::pair<int, int>, StoredEntry>;

TestbedEntries testbed_entries(const std::string& root) {
  TestbedEntries out;
  for (StoredEntry& entry : read_entries(root)) {
    if (entry.key.leg.rfind("testbed/", 0) != 0) continue;
    const std::pair<int, int> at{entry.stations,
                                 static_cast<int>(entry.key.rep)};
    out.emplace(at, std::move(entry));
  }
  return out;
}

/// Mean wall per ResultStore::lookup (on `root`) and per publish (into
/// `scratch`) over up to kStoreReplayEntries of `root`'s entries.
std::pair<double, double> time_store_calls(const std::string& root,
                                           const std::string& scratch) {
  std::vector<StoredEntry> entries = read_entries(root);
  if (entries.size() > kStoreReplayEntries) {
    entries.resize(kStoreReplayEntries);
  }
  plc::store::ResultStore source(root);
  plc::store::ResultStore sink(scratch);
  plc::util::RunningStats lookups;
  plc::util::RunningStats publishes;
  for (const StoredEntry& entry : entries) {
    plc::obs::Stopwatch lookup;
    if (!source.lookup(entry.key)) {
      throw std::runtime_error("store replay: stored entry missed");
    }
    lookups.add(lookup.elapsed_seconds());
    plc::obs::Stopwatch publish;
    sink.publish(entry.key, entry.payload);
    publishes.add(publish.elapsed_seconds());
  }
  return {lookups.mean() * 1e3, publishes.mean() * 1e3};
}

// --- Ops ---------------------------------------------------------------

struct OpOutput {
  plc::obs::RunReport report;
  std::string bytes;
  double wall = 0.0;
};

/// One scenario op as a user runs it: parse the spec document, run
/// every leg, serialize the report.
OpOutput run_op(const std::string& spec_text, int pool,
                plc::store::ResultStore* store) {
  plc::obs::Stopwatch wall;
  const plc::scenario::Spec spec = plc::scenario::Spec::from_json(spec_text);
  plc::scenario::RunOptions options;
  options.jobs = pool;
  options.store = store;
  OpOutput out;
  out.report = plc::scenario::run_scenario(spec, options).report;
  std::ostringstream bytes;
  out.report.write_json(bytes);
  out.bytes = bytes.str();
  out.wall = wall.elapsed_seconds();
  return out;
}

// --- Replay ------------------------------------------------------------

/// What the replayed ops did, summed over ops.
struct ReplayStats {
  double sim_task_s = 0.0;
  std::int64_t sim_events = 0;
  double testbed_task_s = 0.0;
  std::int64_t testbed_events = 0;
  std::int64_t exact_iterations = 0;
  std::int64_t model_solves = 0;
  std::int64_t report_bytes = 0;
  std::int64_t reports = 0;
  plc::store::Counters store;
  double traced_wall = 0.0;    ///< Replay op spans.
  double untraced_wall = 0.0;  ///< The same ops, untraced.
  double parse_outside_s = 0.0;  ///< Parse spans outside the op spans.
  std::int64_t ops = 0;
  std::int64_t mismatched_ops = 0;
};

struct ReplayEnv {
  Ledger& ledger;
  plc::sim::ParallelRunner& runner;
  int pool = 1;
  /// The store as the op found it (nullptr: no store).
  plc::store::ResultStore* store = nullptr;
  /// Key material of the testbed leg's store glue (figure2).
  const TestbedEntries* testbed = nullptr;
  /// Serve jobs run with the server's hub attached.
  plc::obs::TelemetryHub* telemetry = nullptr;
  /// False for serve jobs, whose spec is parsed at submit time.
  bool parse_in_op = true;
};

void add_counters(plc::store::Counters& total, const plc::store::Counters& a,
                  const plc::store::Counters& b) {
  total.hits += b.hits - a.hits;
  total.misses += b.misses - a.misses;
  total.publishes += b.publishes - a.publishes;
  total.bytes_read += b.bytes_read - a.bytes_read;
  total.bytes_written += b.bytes_written - a.bytes_written;
  total.quarantined += b.quarantined - a.quarantined;
}

/// Replays one op — what run_scenario and RunReport::write_json do for
/// `spec_text` — as calls into each layer's public entry point, in
/// run_scenario's order, with a span around every call. Every layer
/// output is compared with the op's report; returns false on any
/// difference (details appended to `mismatches`).
bool replay_op(ReplayEnv& env, int op, const std::string& name,
               const std::string& spec_text,
               const plc::obs::RunReport& report, double untraced_wall,
               ReplayStats& stats, std::vector<std::string>& mismatches) {
  namespace scenario = plc::scenario;
  namespace sim = plc::sim;
  Ledger& ledger = env.ledger;
  const plc::store::Counters store_before =
      env.store != nullptr ? env.store->counters() : plc::store::Counters{};
  std::size_t mismatch_count = 0;
  auto expect = [&](const std::string& key, double value) {
    const auto it = report.scalars.find(key);
    if (it != report.scalars.end() && it->second == value) return;
    ++mismatch_count;
    mismatches.push_back(name + ": replayed " + key + " = " +
                         json_number(value) + ", report has " +
                         (it == report.scalars.end()
                              ? std::string("nothing")
                              : json_number(it->second)));
  };

  scenario::Spec spec;
  auto parse = [&](int parent) {
    Ledger::Scope span(ledger, "scenario", "Spec::from_json", op, parent);
    spec = scenario::Spec::from_json(spec_text);
    return span.close();
  };
  // The server parses a job's spec when it is submitted, before the run
  // its wall_seconds covers; a serve op's root span starts after it.
  if (!env.parse_in_op) stats.parse_outside_s += parse(-1);
  Ledger::Scope root(ledger, "op", name, op);
  const int parent = root.id();
  if (env.parse_in_op) parse(parent);
  plc::obs::Registry registry;
  const std::size_t variants = spec.macs.size();
  const std::size_t points = spec.stations.size();

  std::vector<sim::RunSummary> summaries;
  if (spec.legs.sim) {
    std::vector<sim::RunSpec> run_specs;
    std::vector<std::string> store_legs;
    for (std::size_t variant = 0; variant < variants; ++variant) {
      for (const int n : spec.stations) {
        run_specs.push_back(spec.to_run_spec(n, variant));
        store_legs.push_back("sim/" + spec.macs[variant].label);
      }
    }
    sim::RunObservability attach;
    attach.registry = &registry;
    attach.store = env.store;
    attach.store_legs = env.store != nullptr ? &store_legs : nullptr;
    attach.telemetry = env.telemetry;
    plc::obs::ObservatoryOptions observatory;
    if (spec.observatory) {
      observatory.fairness_window = spec.observatory_window;
      observatory.trajectory_capacity =
          static_cast<std::size_t>(spec.observatory_trajectory);
      attach.observatory = &observatory;
    }
    {
      Ledger::Scope span(ledger, "sim", "ParallelRunner::run_points", op,
                         parent);
      summaries = env.runner.run_points(run_specs, attach);
    }
    stats.sim_task_s += env.runner.serial_equivalent_seconds();
    for (const sim::RunSummary& summary : summaries) {
      stats.sim_events += summary.medium_events;
    }
  }

  // Testbed leg, with run_scenario's store glue: look every test up,
  // run the misses as one suite, publish them.
  std::vector<double> testbed_mean(points, 0.0);
  if (spec.legs.testbed) {
    const auto tests = static_cast<std::size_t>(spec.testbed_tests);
    std::vector<plc::tools::TestbedConfig> configs;
    for (const int n : spec.stations) {
      for (int test = 0; test < spec.testbed_tests; ++test) {
        configs.push_back(spec.to_testbed_config(n, test, 0));
      }
    }
    const bool glue = env.store != nullptr && env.testbed != nullptr;
    std::vector<double> collision(configs.size(), 0.0);
    std::vector<const StoredEntry*> entries(configs.size(), nullptr);
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (glue) {
        const auto it = env.testbed->find(
            {configs[i].stations, static_cast<int>(i % tests)});
        if (it != env.testbed->end()) entries[i] = &it->second;
      }
      bool hit = false;
      if (entries[i] != nullptr) {
        Ledger::Scope span(ledger, "store", "ResultStore::lookup", op,
                           parent);
        if (const auto payload = env.store->lookup(entries[i]->key)) {
          const JsonValue* value = payload->find("collision_probability");
          if (value != nullptr && value->is_number()) {
            collision[i] = value->number;
            hit = true;
          }
        }
      }
      if (!hit) misses.push_back(i);
    }
    if (!misses.empty()) {
      plc::obs::Registry testbed_registry;
      std::vector<plc::tools::TestbedConfig> miss_configs;
      for (const std::size_t i : misses) {
        miss_configs.push_back(configs[i]);
        miss_configs.back().registry = &testbed_registry;
      }
      plc::tools::TestbedSuiteResult suite;
      {
        Ledger::Scope span(ledger, "testbed", "run_testbed_suite", op,
                           parent);
        suite = plc::tools::run_testbed_suite(miss_configs, env.pool);
      }
      stats.testbed_task_s += suite.serial_equivalent_seconds;
      if (const plc::obs::MetricSample* events =
              testbed_registry.snapshot().find("des.events_dispatched")) {
        stats.testbed_events += static_cast<std::int64_t>(events->value);
      }
      for (std::size_t j = 0; j < misses.size(); ++j) {
        collision[misses[j]] = suite.runs[j].collision_probability;
        if (entries[misses[j]] != nullptr) {
          Ledger::Scope span(ledger, "store", "ResultStore::publish", op,
                             parent);
          env.store->publish(entries[misses[j]]->key,
                             entries[misses[j]]->payload);
        }
      }
    }
    for (std::size_t point = 0; point < points; ++point) {
      plc::util::RunningStats mean_of_tests;
      for (std::size_t test = 0; test < tests; ++test) {
        mean_of_tests.add(collision[point * tests + test]);
      }
      testbed_mean[point] = mean_of_tests.mean();
    }
  }

  // The per-point legs, in run_scenario's table order.
  for (std::size_t variant = 0; variant < variants; ++variant) {
    const std::string& label = spec.macs[variant].label;
    const plc::mac::MacSpec& mac = spec.macs[variant].mac;
    const bool with_exact =
        spec.legs.exact_pair && mac.backoff_config() != nullptr;
    for (std::size_t point = 0; point < points; ++point) {
      const int n = spec.stations[point];
      const std::string prefix = label + ".n" + std::to_string(n) + ".";
      auto solve = [&] {
        Ledger::Scope span(ledger, "model", "MacDef::solve", op, parent);
        ++stats.model_solves;
        return mac.def().solve(mac.config(), n, spec.timing,
                               spec.frame_length);
      };
      if (spec.legs.sim) {
        const sim::RunSummary& summary = summaries[variant * points + point];
        expect(prefix + "sim_collision_probability",
               summary.collision_probability.mean());
        expect(prefix + "sim_throughput", summary.normalized_throughput.mean());
        if (summary.stations && mac.def().solve != nullptr) {
          const std::vector<double> stage_model =
              solve().stage_attempt_probability;
          for (std::size_t s = 0; s < stage_model.size() &&
                                  s < summary.stations->per_stage.size();
               ++s) {
            expect(prefix + "obs.stage" + std::to_string(s) +
                       ".attempt_model",
                   stage_model[s]);
          }
        }
      }
      if (spec.legs.model && mac.def().solve != nullptr) {
        const plc::mac::MacModelResult model = solve();
        expect(prefix + "model_collision_probability",
               model.collision_probability);
        expect(prefix + "model_throughput", model.throughput);
      }
      if (with_exact && n == 2) {
        plc::analysis::ExactPairResult exact;
        {
          // run_scenario's iteration cap and tolerance.
          Ledger::Scope span(ledger, "exact", "solve_exact_pair", op, parent);
          exact = plc::analysis::solve_exact_pair(*mac.backoff_config(), 3000,
                                                  1e-10);
        }
        stats.exact_iterations += exact.iterations;
        expect(prefix + "exact_collision_probability",
               exact.collision_probability);
      }
      if (spec.legs.testbed && variant == 0) {
        expect(prefix + "testbed_collision_mean", testbed_mean[point]);
      }
    }
  }

  {
    Ledger::Scope span(ledger, "report", "RunReport::write_json", op, parent);
    std::ostringstream bytes;
    report.write_json(bytes);
    stats.report_bytes += static_cast<std::int64_t>(bytes.str().size());
  }
  ++stats.reports;

  stats.traced_wall += root.close();
  stats.untraced_wall += untraced_wall;
  ++stats.ops;
  if (env.store != nullptr) {
    add_counters(stats.store, store_before, env.store->counters());
  }
  if (mismatch_count > 0) ++stats.mismatched_ops;
  return mismatch_count == 0;
}

// --- Per-layer ledger --------------------------------------------------

/// Client-side serve figures of the timed window.
struct ServeFigures {
  std::vector<double> run;      ///< Server-side job wall (wall_seconds).
  std::vector<double> wait;     ///< Latency minus run.
  std::vector<double> latency;  ///< Submit to report in hand.
  std::int64_t requests = 0;
  std::int64_t coalesced = 0;
  std::int64_t rejected = 0;
};

void put_layer_metrics(RunResult& result, const Ledger& ledger,
                       const ReplayStats& stats,
                       std::pair<double, double> store_ms,
                       const ServeFigures& serve, double cpu_s,
                       double cpu_wall, int pool) {
  const std::vector<Span> spans = ledger.spans();
  const std::map<std::string, LayerTime> times = layer_times(spans);
  auto layer = [&](const std::string& name) {
    const auto it = times.find(name);
    return it == times.end() ? LayerTime{} : it->second;
  };
  auto mean_span_ms = [&](const std::string& layer_name) {
    plc::util::RunningStats durations;
    for (const Span& span : spans) {
      if (span.layer == layer_name) durations.add(span.duration());
    }
    return durations.mean() * 1e3;
  };

  // Layers the replay calls into, inside the replayed ops' spans.
  double replay_layers = -stats.parse_outside_s;
  for (const char* name :
       {"scenario", "sim", "testbed", "store", "model", "exact", "report"}) {
    replay_layers += layer(name).busy;
  }
  const double glue = stats.untraced_wall - replay_layers;

  const LayerTime testbed = layer("testbed");
  put(result, "testbed.busy_s", testbed.busy, "s");
  put(result, "testbed.self_s", testbed.self, "s");
  put(result, "testbed.task_s", stats.testbed_task_s, "s");
  put(result, "testbed.events", static_cast<double>(stats.testbed_events),
      "count");
  put(result, "testbed.ns_per_event",
      ratio(stats.testbed_task_s * 1e9,
            static_cast<double>(stats.testbed_events)),
      "ns");
  put(result, "testbed.pool_efficiency",
      ratio(stats.testbed_task_s, testbed.busy * pool), "ratio");

  const LayerTime exact = layer("exact");
  put(result, "exact.busy_s", exact.busy, "s");
  put(result, "exact.self_s", exact.self, "s");
  put(result, "exact.iterations", static_cast<double>(stats.exact_iterations),
      "count");
  put(result, "exact.ms_per_iteration",
      ratio(exact.busy * 1e3, static_cast<double>(stats.exact_iterations)),
      "ms");

  const LayerTime model = layer("model");
  put(result, "model.busy_s", model.busy, "s");
  put(result, "model.self_s", model.self, "s");
  put(result, "model.solves", static_cast<double>(stats.model_solves),
      "count");
  put(result, "model.ms_per_solve",
      ratio(model.busy * 1e3, static_cast<double>(stats.model_solves)), "ms");

  const LayerTime sim = layer("sim");
  put(result, "sim.busy_s", sim.busy, "s");
  put(result, "sim.self_s", sim.self, "s");
  put(result, "sim.task_s", stats.sim_task_s, "s");
  put(result, "sim.events", static_cast<double>(stats.sim_events), "count");
  put(result, "sim.ns_per_event",
      ratio(stats.sim_task_s * 1e9, static_cast<double>(stats.sim_events)),
      "ns");
  put(result, "sim.pool_efficiency", ratio(stats.sim_task_s, sim.busy * pool),
      "ratio");

  const LayerTime store = layer("store");
  const plc::store::Counters& counters = stats.store;
  const auto lookups = static_cast<double>(counters.hits + counters.misses);
  put(result, "store.busy_s", store.busy, "s");
  put(result, "store.self_s", store.self, "s");
  put(result, "store.lookups", lookups, "count");
  put(result, "store.hits", static_cast<double>(counters.hits), "count");
  put(result, "store.misses", static_cast<double>(counters.misses), "count");
  put(result, "store.hit_ratio", ratio(static_cast<double>(counters.hits),
                                       lookups),
      "ratio");
  put(result, "store.publishes", static_cast<double>(counters.publishes),
      "count");
  put(result, "store.bytes_read", static_cast<double>(counters.bytes_read),
      "bytes");
  put(result, "store.bytes_written",
      static_cast<double>(counters.bytes_written), "bytes");
  put(result, "store.quarantined", static_cast<double>(counters.quarantined),
      "count");
  put(result, "store.lookup_ms", store_ms.first, "ms");
  put(result, "store.publish_ms", store_ms.second, "ms");

  const LayerTime parse = layer("scenario");
  put(result, "scenario.busy_s", parse.busy + glue, "s");
  put(result, "scenario.self_s", glue, "s");
  put(result, "scenario.parse_ms", mean_span_ms("scenario"), "ms");

  const LayerTime report = layer("report");
  put(result, "report.busy_s", report.busy, "s");
  put(result, "report.self_s", report.self, "s");
  put(result, "report.serialize_ms", mean_span_ms("report"), "ms");
  put(result, "report.bytes",
      ratio(static_cast<double>(stats.report_bytes),
            static_cast<double>(stats.reports)),
      "bytes");

  double run_total = 0.0;
  double wait_total = 0.0;
  for (const double run : serve.run) run_total += run;
  for (const double wait : serve.wait) wait_total += wait;
  const bool served = !serve.latency.empty();
  put(result, "serve.busy_s", run_total, "s");
  put(result, "serve.self_s", wait_total, "s");
  put(result, "serve.run_s", served ? median(serve.run) : 0.0, "s");
  put(result, "serve.wait_s", served ? median(serve.wait) : 0.0, "s");
  put(result, "serve.job_p90_s",
      served ? percentile(serve.latency, 0.9) : 0.0, "s");
  put(result, "serve.coalesced", static_cast<double>(serve.coalesced),
      "count");
  put(result, "serve.rejected", static_cast<double>(serve.rejected), "count");

  const LayerTime http = layer("http");
  put(result, "http.busy_s", http.busy, "s");
  put(result, "http.self_s", http.self, "s");
  put(result, "http.requests_per_job",
      ratio(static_cast<double>(serve.requests),
            static_cast<double>(serve.latency.size())),
      "count");
  std::vector<double> rtts;
  for (const Span& span : spans) {
    if (span.layer == "http") rtts.push_back(span.duration() * 1e3);
  }
  put(result, "http.rtt_ms", rtts.empty() ? 0.0 : median(rtts), "ms");

  put(result, "cpu_s", cpu_s, "s");
  put(result, "cpu_util", ratio(cpu_s, cpu_wall * pool), "ratio");

  put(result, "trace.coverage", ratio(replay_layers, stats.untraced_wall),
      "ratio");
  put(result, "trace.overhead_pct",
      ratio(stats.traced_wall - stats.untraced_wall, stats.untraced_wall) *
          100.0,
      "%");

  result.notes.emplace_back("replay_ops", json_number(stats.ops));
  result.notes.emplace_back("replay_mismatched_ops",
                            json_number(stats.mismatched_ops));
}

void write_trace(const Ledger& ledger, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  ledger.write_chrome_trace(out);
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

// --- figure2 -----------------------------------------------------------

RunResult run_figure2(const RunConfig& config) {
  RunResult result;
  Ledger ledger(config.trace);

  // Set-up: generate the spec document from the seed and open a store
  // on a fresh directory. The ops use the first one.
  struct Setup {
    std::string store_dir;
    std::unique_ptr<plc::store::ResultStore> store;
    plc::scenario::Spec spec;
    std::string spec_text;
  };
  int setups_made = 0;
  auto set_up = [&] {
    Setup made;
    made.store_dir =
        config.work_dir + "/figure2-store-" + std::to_string(setups_made++);
    made.store = std::make_unique<plc::store::ResultStore>(made.store_dir);
    made.spec = plc::scenario::Registry::get("figure2");
    if (const auto seed = figure2_seed(config.seed)) made.spec.seed = *seed;
    made.spec_text = made.spec.to_json();
    return made;
  };
  std::vector<double> setups;
  const plc::obs::Stopwatch first_setup;
  Setup used = set_up();
  setups.push_back(first_setup.elapsed_seconds());
  std::size_t setup_rounds = 0;
  setup_round(setups, kFigure2SetupBurst, setup_rounds++, set_up);
  const std::string& store_dir = used.store_dir;
  const std::string& spec_text = used.spec_text;
  const plc::scenario::Spec& spec = used.spec;
  plc::store::ResultStore* store = used.store.get();

  const double cpu_before = process_cpu_seconds();
  const double start = ledger.now();

  // Cold op: every sim and testbed task simulated and published.
  OpOutput cold;
  bool cold_ok = false;
  ++result.attempted;
  try {
    cold = run_op(spec_text, config.pool, store);
    cold_ok = true;
  } catch (const std::exception& e) {
    ++result.failed;
    add_failure(result, std::string("cold op threw: ") + e.what());
  }
  const std::string cold_digest = plc::util::hash128(cold.bytes).to_hex();
  setup_round(setups, kFigure2SetupBurst, setup_rounds++, set_up);

  // Warm ops on the same store, for the timed window.
  std::vector<double> warm;
  std::vector<OpOutput> warm_sample;
  const double deadline = ledger.now() + config.seconds;
  while (cold_ok &&
         (ledger.now() < deadline || warm.size() < kMinWarmOps)) {
    ++result.attempted;
    try {
      OpOutput op = run_op(spec_text, config.pool, store);
      warm.push_back(op.wall);
      if (plc::util::hash128(op.bytes).to_hex() != cold_digest) {
        ++result.failed;
        add_failure(result, "warm report differs from the cold report");
      }
      if (warm_sample.empty()) warm_sample.push_back(std::move(op));
      setup_round(setups, kFigure2SetupBurst, setup_rounds++, set_up);
    } catch (const std::exception& e) {
      ++result.failed;
      add_failure(result, std::string("warm op threw: ") + e.what());
      break;
    }
  }
  // cpu_s and cpu_wall include the set-up bursts, well under 1% of them.
  const double cpu_wall = ledger.now() - start;
  const double cpu_s = process_cpu_seconds() - cpu_before;
  const double window_rss_mb = peak_rss_mb();

  // paper_err: the testbed's distance from the paper's measured markers.
  double paper_err = 0.0;
  if (cold_ok) {
    const std::string label = spec.macs[0].label;
    for (const int n : spec.stations) {
      const std::string suffix = ".n" + std::to_string(n);
      const auto testbed = cold.report.scalars.find(
          label + suffix + ".testbed_collision_mean");
      const auto paper =
          cold.report.scalars.find("reference.paper_measured" + suffix);
      if (testbed == cold.report.scalars.end() ||
          paper == cold.report.scalars.end()) {
        ++result.failed;
        add_failure(result, "cold report lacks the N=" + std::to_string(n) +
                                " testbed or paper scalar");
        break;
      }
      paper_err = std::max(paper_err, std::abs(testbed->second - paper->second));
    }
  }

  result.notes.emplace_back("spec_seed", json_string([&] {
                              char hex[24];
                              std::snprintf(hex, sizeof(hex), "0x%llx",
                                            static_cast<unsigned long long>(
                                                spec.seed));
                              return std::string(hex);
                            }()));
  result.notes.emplace_back("digest", json_string(cold_digest));
  result.notes.emplace_back(
      "store_hit_ratio",
      json_number(hit_ratio(plc::store::Counters{}, store->counters())));
  result.notes.emplace_back("paper_err", json_number(paper_err));
  result.notes.emplace_back("cold_s", json_number(cold.wall));
  if (!warm.empty()) {
    result.notes.emplace_back("warm_p50_s", json_number(median(warm)));
  }
  result.notes.emplace_back("setups", json_number(setups.size()));
  {
    std::ostringstream walls;
    plc::obs::JsonWriter json(walls);
    json.begin_array();
    for (const double w : warm) json.value(w);
    json.end_array();
    result.notes.emplace_back("warm_s", walls.str());
  }

  if (!config.trace) {
    put(result, "setup_s", interquartile_mean(setups), "s");
    put(result, "cold_s", cold.wall, "s");
    put(result, "op_iqm_s", warm.empty() ? 0.0 : interquartile_mean(warm),
        "s");
    double warm_total = 0.0;
    for (const double w : warm) warm_total += w;
    put(result, "ops_per_s",
        ratio(static_cast<double>(warm.size()), warm_total), "1/s");
    put(result, "peak_rss_mb", window_rss_mb, "MB");
    return result;
  }

  // Traced replay: the cold op against a fresh store, then one warm op
  // against the op's (warm) store.
  ReplayStats stats;
  std::vector<std::string> mismatches;
  if (cold_ok && !warm_sample.empty()) {
    const TestbedEntries entries = testbed_entries(store_dir);
    plc::sim::ParallelRunner runner(config.pool);
    const std::string replay_dir = config.work_dir + "/figure2-replay-store";
    plc::store::ResultStore replay_store(replay_dir);
    ReplayEnv cold_env{ledger, runner, config.pool, &replay_store, &entries,
                       nullptr};
    result.attempted += 2;
    if (!replay_op(cold_env, 0, "figure2.cold", spec_text, cold.report,
                   cold.wall, stats, mismatches)) {
      ++result.failed;
    }
    ReplayEnv warm_env{ledger, runner, config.pool, store, &entries,
                       nullptr};
    if (!replay_op(warm_env, 1, "figure2.warm", spec_text,
                   warm_sample.front().report, warm_sample.front().wall,
                   stats, mismatches)) {
      ++result.failed;
    }
    for (const std::string& message : mismatches) add_failure(result, message);
    const std::pair<double, double> store_ms = time_store_calls(
        replay_dir, config.work_dir + "/figure2-store-replay");
    put_layer_metrics(result, ledger, stats, store_ms, ServeFigures{}, cpu_s,
                      cpu_wall, config.pool);
  } else {
    add_failure(result, "no replay: the untraced ops failed");
    ++result.failed;
  }
  write_trace(ledger, config.trace_path);
  return result;
}

// --- serve-cold --------------------------------------------------------

struct JobRecord {
  std::size_t index = 0;  ///< Plan index; every job is a distinct spec.
  bool ok = false;
  double submitted = 0.0;  ///< Ledger clock at submit.
  double latency = 0.0;
  std::int64_t requests = 0;
  std::string id;
  std::string digest;
  std::string error;
};

/// One closed-loop job: submit, poll the report every 1 ms, fetch it.
JobRecord serve_job(HttpClient& client, Ledger& ledger,
                    const std::string& body, int op, int thread) {
  JobRecord job;
  const long requests_before = client.requests();
  Ledger::Scope span(ledger, "op", "job", op, -1, thread);
  job.submitted = ledger.now();
  try {
    const HttpReply submit =
        client.request("POST", "/v1/jobs", body, op, span.id());
    if (submit.status != 202 && submit.status != 200) {
      job.error = "submit answered " + std::to_string(submit.status) + " " +
                  submit.error + submit.body.substr(0, 200);
    } else {
      const JsonValue accepted = plc::obs::parse_json(submit.body);
      const JsonValue* id = accepted.find("id");
      if (id == nullptr || !id->is_string()) {
        throw std::runtime_error("submit reply without an id");
      }
      job.id = id->text;
      const std::string path = "/v1/jobs/" + job.id + "/report";
      while (true) {
        const HttpReply report = client.request("GET", path, "", op,
                                                span.id());
        if (report.status == 200) {
          job.ok = true;
          job.digest = plc::util::hash128(report.body).to_hex();
          break;
        }
        if (report.status != 409 ||
            report.body.find(" is failed") != std::string::npos ||
            report.body.find(" is cancelled") != std::string::npos) {
          job.error = "report answered " + std::to_string(report.status) +
                      " " + report.error + report.body.substr(0, 200);
          break;
        }
        if (ledger.now() - job.submitted > kJobTimeoutSeconds) {
          job.error = "job " + job.id + " timed out";
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  } catch (const std::exception& e) {
    job.ok = false;
    job.error = e.what();
  }
  job.latency = span.close();
  job.requests = client.requests() - requests_before;
  return job;
}

RunResult run_serve_cold(const RunConfig& config) {
  RunResult result;
  Ledger ledger(config.trace);
  Ledger quiet(false);

  // Set-up: write the seeded plan's spec documents, sized well beyond
  // what the window can serve, and start a server on loopback with its
  // store in a fresh directory. The window uses the first one. The
  // templates are read once, before: e21's takes tens of milliseconds
  // (the registry solves its best window).
  std::map<std::string, plc::scenario::Spec> templates;
  for (const std::string& name : serve_templates()) {
    templates.emplace(name, plc::scenario::Registry::get(name));
  }
  const std::size_t jobs_planned = std::max<std::size_t>(
      400, static_cast<std::size_t>(std::ceil(config.seconds * 40.0)));
  struct Setup {
    std::vector<PlannedSpec> plan;
    std::vector<std::string> texts;
    std::unique_ptr<plc::serve::Server> server;
  };
  int setups_made = 0;
  auto set_up = [&] {
    Setup made;
    made.plan = make_serve_plan(config.seed.value_or(0), jobs_planned);
    for (const PlannedSpec& planned : made.plan) {
      plc::scenario::Spec spec = templates.at(planned.template_name);
      spec.seed = planned.spec_seed;
      made.texts.push_back(spec.to_json());
    }
    plc::serve::Server::Options options;
    options.port = 0;
    options.jobs = config.pool;
    options.cache_dir =
        config.work_dir + "/serve-store-" + std::to_string(setups_made++);
    made.server = std::make_unique<plc::serve::Server>(options);
    made.server->start();
    return made;
  };
  std::vector<double> setups;
  const plc::obs::Stopwatch first_setup;
  Setup used = set_up();
  setups.push_back(first_setup.elapsed_seconds());
  setup_burst(setups, kServeSetupBurst, set_up);
  const std::vector<PlannedSpec>& plan = used.plan;
  const std::vector<std::string>& texts = used.texts;
  std::unique_ptr<plc::serve::Server>& server = used.server;

  // Timed window: 2 closed-loop clients, one connection each at a time.
  const plc::store::Counters store_before = server->store()->counters();
  const double cpu_before = process_cpu_seconds();
  const double start = ledger.now();
  const double deadline = start + config.seconds;
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<JobRecord>> per_client(2);
  auto client_loop = [&](int thread) {
    HttpClient client(server->port(), ledger, thread + 1);
    while (ledger.now() < deadline) {
      const std::size_t index = next.fetch_add(1);
      if (index >= plan.size()) break;
      JobRecord job = serve_job(client, ledger, texts[index],
                                static_cast<int>(index), thread + 1);
      job.index = index;
      per_client[static_cast<std::size_t>(thread)].push_back(std::move(job));
    }
  };
  {
    const std::jthread first(client_loop, 0);
    const std::jthread second(client_loop, 1);
  }
  std::vector<JobRecord> jobs;
  for (auto& records : per_client) {
    for (JobRecord& job : records) jobs.push_back(std::move(job));
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.index < b.index;
            });
  double end = start;
  for (const JobRecord& job : jobs) {
    end = std::max(end, job.submitted + job.latency);
  }
  const double window = end - start;
  const double cpu_s = process_cpu_seconds() - cpu_before;
  // Read before the reference pass below, whose in-process runs would
  // otherwise set the high-water mark.
  const double window_rss_mb = peak_rss_mb();
  const double store_hits =
      hit_ratio(store_before, server->store()->counters());

  // Server-side run time of every job, from its status document.
  std::map<std::string, double> run_wall;
  {
    HttpClient client(server->port(), quiet, 0);
    for (const JobRecord& job : jobs) {
      if (!job.ok) continue;
      const HttpReply status = client.request("GET", "/v1/jobs/" + job.id);
      if (status.status != 200) {
        throw std::runtime_error("job status answered " +
                                 std::to_string(status.status));
      }
      const JsonValue doc = plc::obs::parse_json(status.body);
      const JsonValue* wall = doc.find("wall_seconds");
      run_wall[job.id] = wall != nullptr ? wall->number : 0.0;
    }
  }
  ServeFigures figures;
  figures.coalesced = server->scheduler().jobs_coalesced();
  figures.rejected = server->scheduler().jobs_rejected();
  server.reset();

  // Reference pass, outside the window: in-process run_scenario, on a
  // fresh store, of every spec the window served (and at least the first
  // kDigestSpecs, which the run's digest covers). One spec at a time, as
  // the server runs them: two scenarios at once would solve models
  // concurrently, and util's log_factorial calls lgamma, which writes the
  // global signgam. The pass also hosts set-up bursts, which spread
  // setup_s across the run.
  std::size_t reference_count = kDigestSpecs;
  for (const JobRecord& job : jobs) {
    reference_count = std::max(reference_count, job.index + 1);
  }
  plc::store::ResultStore reference_store(config.work_dir +
                                          "/reference-store");
  std::vector<std::string> reference_digests;
  std::vector<plc::obs::RunReport> reference_reports;
  std::string digest_material;
  for (std::size_t s = 0; s < reference_count; ++s) {
    OpOutput op = run_op(texts[s], config.pool, &reference_store);
    reference_digests.push_back(plc::util::hash128(op.bytes).to_hex());
    if (s < kDigestSpecs) digest_material += reference_digests.back();
    if (s < kReplayJobs) reference_reports.push_back(std::move(op.report));
    if ((s + 1) % kServeSetupEvery == 0) {
      setup_burst(setups, kServeSetupBurst, set_up);
    }
  }

  std::map<std::string, std::int64_t> mix;
  std::map<std::string, std::vector<double>> template_latency;
  std::map<std::string, std::vector<double>> template_run;
  std::int64_t live = 0;
  std::int64_t ok_jobs = 0;
  for (const JobRecord& job : jobs) {
    ++result.attempted;
    figures.requests += job.requests;
    if (!job.ok) {
      ++result.failed;
      add_failure(result, "job failed: " + job.error);
      continue;
    }
    if (job.digest != reference_digests[job.index]) {
      ++result.failed;
      add_failure(result, "job " + job.id + " (" +
                              plan[job.index].template_name +
                              "): served report differs from in-process "
                              "run_scenario");
      continue;
    }
    ++ok_jobs;
    const std::string& name = plan[job.index].template_name;
    ++mix[name];
    if (name == "e20-mac-observatory") ++live;
    const double run = run_wall[job.id];
    template_latency[name].push_back(job.latency);
    template_run[name].push_back(run);
    figures.latency.push_back(job.latency);
    figures.run.push_back(run);
    figures.wait.push_back(job.latency - run);
  }

  std::ostringstream mix_json;
  {
    plc::obs::JsonWriter json(mix_json);
    json.begin_object();
    for (const auto& [name, count] : mix) json.field(name, count);
    json.end_object();
  }
  result.notes.emplace_back(
      "digest", json_string(plc::util::hash128(digest_material).to_hex()));
  result.notes.emplace_back("jobs", json_number(ok_jobs));
  result.notes.emplace_back("mix", mix_json.str());
  result.notes.emplace_back("store_hit_ratio", json_number(store_hits));
  result.notes.emplace_back("coalesced", json_number(figures.coalesced));
  result.notes.emplace_back(
      "live_share", json_number(ratio(static_cast<double>(live),
                                      static_cast<double>(ok_jobs))));
  if (!figures.latency.empty()) {
    result.notes.emplace_back("job_p50_s",
                              json_number(median(figures.latency)));
    result.notes.emplace_back("job_p90_s",
                              json_number(percentile(figures.latency, 0.9)));
    result.notes.emplace_back(
        "job_p90_beyond",
        json_number(samples_beyond(figures.latency.size(), 0.9)));
  }
  result.notes.emplace_back("setups", json_number(setups.size()));

  if (!config.trace) {
    put(result, "setup_s", interquartile_mean(setups), "s");
    // A job's cost is mostly its template's, which spans 10x, so both
    // figures are taken per template (one figure across templates would
    // jump between them). cold_s is the cold cost of one spec of each
    // template as the server runs it: the sum of the per-template run
    // walls. Every job misses the store, so every run is cold.
    double cold_s = 0.0;
    for (const auto& [name, runs] : template_run) {
      cold_s += interquartile_mean(runs);
    }
    put(result, "cold_s", cold_s, "s");
    // Latency averages the templates, which count equally whatever the
    // realized mix.
    double latency = 0.0;
    for (const auto& [name, latencies] : template_latency) {
      latency += interquartile_mean(latencies);
    }
    put(result, "op_iqm_s",
        ratio(latency, static_cast<double>(template_latency.size())), "s");
    put(result, "ops_per_s", ratio(static_cast<double>(ok_jobs), window),
        "1/s");
    put(result, "peak_rss_mb", window_rss_mb, "MB");
    return result;
  }

  // Traced replay of the plan's first kReplayJobs jobs against a fresh
  // store, as the window's server found its store.
  const std::string replay_dir = config.work_dir + "/serve-replay-store";
  plc::store::ResultStore replay_store(replay_dir);
  plc::sim::ParallelRunner runner(config.pool);
  plc::obs::TelemetryHub hub;
  ReplayEnv env{ledger, runner, config.pool, &replay_store, nullptr, &hub,
                false};
  ReplayStats stats;
  std::vector<std::string> mismatches;
  for (std::size_t s = 0; s < kReplayJobs && s < jobs.size(); ++s) {
    const JobRecord& job = jobs[s];
    if (job.index != s || !job.ok) break;
    ++result.attempted;
    if (!replay_op(env, static_cast<int>(s), plan[s].template_name, texts[s],
                   reference_reports[s], run_wall[job.id], stats,
                   mismatches)) {
      ++result.failed;
    }
  }
  for (const std::string& message : mismatches) add_failure(result, message);
  const std::pair<double, double> store_ms = time_store_calls(
      replay_dir, config.work_dir + "/serve-store-replay");
  put_layer_metrics(result, ledger, stats, store_ms, figures, cpu_s, window,
                    config.pool);
  write_trace(ledger, config.trace_path);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"figure2", "serve-cold"};
  return names;
}

RunResult run_workload(const RunConfig& config) {
  if (config.workload == "figure2") return run_figure2(config);
  if (config.workload == "serve-cold") return run_serve_cold(config);
  throw std::invalid_argument("unknown workload \"" + config.workload + "\"");
}

}  // namespace perfbench
