// plcsim — command-line driver for the framework:
//
//   plcsim <command> [operands] [--flag [value] ...]
//
// kCommands (end of file) lists the commands; each command's flag table
// sits next to its handler. `plcsim <command> --help` prints the table,
// and a flag the table does not list exits 2 (DESIGN.md §8). Narration
// goes to stderr through obs::Log (PLC_LOG=off silences it).
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/delay.hpp"
#include "macdef/registry.hpp"
#include "util/error.hpp"
#include "analysis/model_1901.hpp"
#include "analysis/optimizer.hpp"
#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "des/random.hpp"
#include "phy/timing.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "serve/server.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/unsaturated.hpp"
#include "store/result_store.hpp"
#include "util/fs.hpp"
#include "util/socket.hpp"
#include "tools/capture.hpp"
#include "tools/testbed.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace plc;

/// One flag a command reads. `default_value` is what the command uses
/// when the flag is absent: "" for switches and optional outputs.
struct Flag {
  const char* name;
  const char* default_value;
  const char* help;
};

/// A command's flag table: its own rows, then those of the shared groups
/// it also reads.
std::vector<Flag> table(std::vector<Flag> rows,
                        std::initializer_list<std::vector<Flag>> shared = {}) {
  for (const std::vector<Flag>& group : shared) {
    rows.insert(rows.end(), group.begin(), group.end());
  }
  return rows;
}

class Args;

/// One row of kCommands. An empty summary hides it from usage().
struct Command {
  const char* name;
  const char* operands;  ///< Synopsis, e.g. "<stats|verify|gc>".
  std::size_t max_operands;
  const char* summary;
  int (*handler)(const Args&);
  std::vector<Flag> flags;
};

const Flag* find_flag(const Command& command, const std::string& name) {
  for (const Flag& flag : command.flags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

/// One command's parsed argv: leading operands, then flags, each checked
/// against the command's table. A getter returns the given value or the
/// table default, and rejects a malformed value naming the flag.
class Args {
 public:
  Args(const Command& command, int argc, char** argv) : command_(command) {
    int i = 2;
    for (; i < argc && !is_flag(argv[i]); ++i) operands_.emplace_back(argv[i]);
    if (operands_.size() > command.max_operands) {
      throw plc::Error("unexpected argument: " +
                       operands_[command.max_operands]);
    }
    for (; i < argc; ++i) {
      std::string key = argv[i];
      if (!is_flag(key)) throw plc::Error("unexpected argument: " + key);
      key = key.substr(2);
      std::string value;
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      } else if (i + 1 < argc && !is_flag(argv[i + 1])) {
        value = argv[++i];
      }
      if (key == "help") {
        help_ = true;
      } else if (find_flag(command, key) != nullptr) {
        values_[key] = value;
      } else {
        std::string valid;
        for (const Flag& flag : command.flags) {
          valid += std::string(" --") + flag.name;
        }
        throw plc::Error(std::string(command.name) + ": unknown flag --" +
                         key + " (valid:" + valid + " --help)");
      }
    }
  }

  bool help() const { return help_; }
  std::string operand(std::size_t i) const {
    return i < operands_.size() ? operands_[i] : std::string();
  }
  bool has(const std::string& key) const {
    declared(key);
    return values_.count(key) > 0;
  }
  std::string get_string(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? declared(key).default_value : it->second;
  }
  int get_int(const std::string& key) const {
    return parse<int>(key, get_string(key), "an integer", 10);
  }
  double get_double(const std::string& key) const {
    return parse<double>(key, get_string(key), "a finite number");
  }
  /// Decimal or 0x hex, the form a plc-scenario/1 seed takes.
  std::uint64_t get_seed(const std::string& key) const {
    const std::string text = get_string(key);
    const bool hex = text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0;
    return parse<std::uint64_t>(key, text, "an unsigned 64-bit integer",
                                hex ? 16 : 10, hex ? 2 : 0);
  }
  std::vector<int> get_int_list(const std::string& key) const {
    const std::string text = get_string(key);
    std::vector<int> out;
    for (std::size_t begin = 0;;) {
      const std::size_t comma = text.find(',', begin);
      out.push_back(parse<int>(key, text.substr(begin, comma - begin),
                               "a comma-separated int list", 10));
      if (comma == std::string::npos) return out;
      begin = comma + 1;
    }
  }

 private:
  static bool is_flag(const std::string& token) {
    return token.rfind("--", 0) == 0;
  }

  /// The flag's row; reading an undeclared flag is a bug in this file.
  const Flag& declared(const std::string& key) const {
    const Flag* flag = find_flag(command_, key);
    if (flag == nullptr) {
      throw plc::Error(std::string("internal: --") + key +
                       " is not in the flag table of " + command_.name);
    }
    return *flag;
  }

  /// std::from_chars over text[skip..]: no sign, space or trailing byte.
  template <typename T>
  T parse(const std::string& key, const std::string& text,
          const char* expected, int base = 10, std::size_t skip = 0) const {
    T value{};
    const char* first = text.data() + std::min(skip, text.size());
    const char* end = text.data() + text.size();
    std::from_chars_result result{};
    if constexpr (std::is_floating_point_v<T>) {
      result = std::from_chars(first, end, value);
    } else {
      result = std::from_chars(first, end, value, base);
    }
    if (first == end || result.ec != std::errc() || result.ptr != end ||
        !std::isfinite(static_cast<double>(value))) {
      throw plc::Error(std::string(command_.name) + " --" + key +
                       ": expected " + expected + ", got \"" + text + "\"");
    }
    return value;
  }

  const Command& command_;
  std::vector<std::string> operands_;
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

// The flag groups several commands read, declared once.
const std::vector<Flag> kBackoffFlags = {
    {"cw", "8,16,32,64", "contention window per backoff stage"},
    {"dc", "0,1,3,15", "deferral counter per backoff stage"},
};

const std::vector<Flag> kTelemetryFlags = {
    {"listen", "", "serve /metrics etc. on 127.0.0.1:PORT, 0 for a free one"},
    {"timeseries", "", "write the sampled telemetry series to FILE as JSONL"},
    {"flight-recorder", "", "arm the crash recorder; dumps go to DIR or ."},
};

const std::vector<Flag> kProfileFlags = {
    {"profile", "", "write the phase profiler's text tree to FILE"},
    {"profile-trace", "", "write the phases to FILE as a Chrome flame chart"},
};

mac::BackoffConfig config_from(const Args& args) {
  mac::BackoffConfig config;
  config.name = "cli";
  config.cw = args.get_int_list("cw");
  config.dc = args.get_int_list("dc");
  config.validate();
  return config;
}

/// Opens `path` for writing and runs `fn(stream)`; throws on failure.
template <typename Fn>
void write_file(const std::string& path, Fn&& fn) {
  std::ofstream out(path);
  if (!out) throw plc::Error("cannot open " + path);
  fn(out);
}

/// The --trace and --metrics outputs of sim and testbed, written after
/// the run so that a bad path still prints the results first.
void write_outputs(const Args& args, const obs::TraceSink& trace,
                   const obs::Registry& registry) {
  if (const std::string path = args.get_string("trace"); !path.empty()) {
    write_file(path, [&](std::ostream& out) { trace.write_chrome_trace(out); });
    PLC_LOG_INFO("cli", "wrote trace")
        .str("path", path)
        .num("events", static_cast<double>(trace.size()))
        .num("dropped", static_cast<double>(trace.dropped()));
  }
  if (const std::string path = args.get_string("metrics"); !path.empty()) {
    write_file(path, [&](std::ostream& out) {
      registry.snapshot().write_json(out);
    });
    PLC_LOG_INFO("cli", "wrote metrics snapshot").str("path", path);
  }
}

/// --report: saves `report` when the flag names a file.
void save_report(const Args& args, const obs::RunReport& report) {
  if (const std::string path = args.get_string("report"); !path.empty()) {
    report.save(path);
    PLC_LOG_INFO("cli", "wrote run report").str("path", path);
  }
}

/// A testbed run's report: wall and simulated seconds, the metric
/// snapshot (events: its medium.events total) and the station count.
obs::RunReport testbed_report(const char* name, double wall_seconds,
                              double simulated_seconds,
                              const obs::Registry& registry, int stations) {
  obs::RunReport report;
  report.name = name;
  report.wall_seconds = wall_seconds;
  report.simulated_seconds = simulated_seconds;
  report.metrics = registry.snapshot();
  report.events =
      static_cast<std::int64_t>(report.metrics.total("medium.events"));
  report.scalars["stations"] = static_cast<double>(stations);
  return report;
}

/// --profile / --profile-trace handling, shared by sim and testbed: turn
/// the profiler on before the run, write the requested artifacts after.
struct ProfileOutputs {
  std::string tree_path;   ///< --profile: text tree.
  std::string trace_path;  ///< --profile-trace: Chrome flame chart.

  bool enabled() const { return !tree_path.empty() || !trace_path.empty(); }

  static ProfileOutputs from(const Args& args) {
    ProfileOutputs outputs;
    outputs.tree_path = args.get_string("profile");
    outputs.trace_path = args.get_string("profile-trace");
    if (outputs.enabled()) {
      obs::Profiler::instance().reset();
      if (!outputs.trace_path.empty()) {
        obs::Profiler::instance().set_capture_events(true);
      }
      obs::Profiler::set_enabled(true);
    }
    return outputs;
  }

  void write() const {
    if (!enabled()) return;
    obs::Profiler::set_enabled(false);
    if (!tree_path.empty()) {
      write_file(tree_path, [](std::ostream& out) {
        obs::Profiler::instance().snapshot().write_text_tree(out);
      });
      PLC_LOG_INFO("cli", "wrote profile tree").str("path", tree_path);
    }
    if (!trace_path.empty()) {
      write_file(trace_path, [](std::ostream& out) {
        obs::Profiler::instance().write_chrome_trace(out);
      });
      PLC_LOG_INFO("cli", "wrote profile trace")
          .str("path", trace_path)
          .num("events", static_cast<double>(
                             obs::Profiler::instance().captured_events()));
    }
  }
};

/// --listen / --timeseries / --flight-recorder handling shared by sim
/// and scenario: owns the telemetry hub, the exposition server and the
/// recorder arming for the duration of one run. finish() tears the
/// plane down in the safe order (server first — it dereferences the
/// hub — then artifacts, then the recorder's process-global handlers).
struct Telemetry {
  std::unique_ptr<obs::TelemetryHub> hub;
  std::unique_ptr<obs::ExpositionServer> server;
  std::string timeseries_path;
  bool recorder = false;

  static Telemetry from(const Args& args) {
    Telemetry telemetry;
    telemetry.timeseries_path = args.get_string("timeseries");
    if (args.has("listen") || !telemetry.timeseries_path.empty()) {
      telemetry.hub = std::make_unique<obs::TelemetryHub>();
    }
    if (args.has("listen")) {
      obs::ExpositionServer::Options options;
      options.port =
          args.get_string("listen").empty() ? 0 : args.get_int("listen");
      telemetry.server =
          std::make_unique<obs::ExpositionServer>(*telemetry.hub, options);
      telemetry.server->start();
      PLC_LOG_INFO("cli", "telemetry listening")
          .str("url", "http://127.0.0.1:" +
                          std::to_string(telemetry.server->port()) +
                          "/metrics");
    }
    if (args.has("flight-recorder")) {
      obs::FlightRecorder::Options options;
      const std::string dir = args.get_string("flight-recorder");
      if (!dir.empty()) options.directory = dir;
      obs::FlightRecorder::instance().arm(options);
      if (telemetry.hub != nullptr) {
        obs::FlightRecorder::instance().attach_hub(telemetry.hub.get());
      }
      telemetry.recorder = true;
    }
    return telemetry;
  }

  void finish() {
    if (server != nullptr) server->stop();
    if (hub != nullptr && !timeseries_path.empty()) {
      hub->sample_now();
      const std::string jsonl = hub->timeseries_jsonl();
      write_file(timeseries_path,
                 [&](std::ostream& out) { out << jsonl; });
      PLC_LOG_INFO("cli", "wrote timeseries").str("path", timeseries_path);
    }
    if (recorder) obs::FlightRecorder::instance().disarm();
  }
};

/// --progress on sim and testbed: a view of the run's telemetry hub. A
/// ticker thread prints obs::progress_line to stderr once per wall
/// second; finish() stops it and prints the final line.
class ProgressTicker {
 public:
  ProgressTicker(const obs::TelemetryHub& hub, double goal_sim_seconds)
      : hub_(hub), goal_sim_seconds_(goal_sim_seconds),
        thread_([this] { tick(); }) {}
  ~ProgressTicker() { stop(); }
  ProgressTicker(const ProgressTicker&) = delete;
  ProgressTicker& operator=(const ProgressTicker&) = delete;

  void finish() {
    stop();
    print(/*final_line=*/true);
  }

 private:
  void print(bool final_line) const {
    const std::string line =
        obs::progress_line(hub_.progress(), goal_sim_seconds_, final_line);
    std::cerr << line + "\n" << std::flush;
  }
  void tick() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, std::chrono::seconds(1),
                           [this] { return done_; })) {
      print(/*final_line=*/false);
    }
  }
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  const obs::TelemetryHub& hub_;
  double goal_sim_seconds_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool done_ = false;
  std::thread thread_;  ///< Last, so it starts after the members above.
};

int cmd_sim(const Args& args) {
  sim::RunSpec spec;
  spec.stations = args.get_int("n");
  spec.mac = config_from(args);
  spec.frame_length = des::SimTime::from_us(args.get_double("frame-us"));
  spec.timing = phy::TimingConfig::from_ts_tc(
      des::SimTime::from_ns(35'840),
      des::SimTime::from_us(args.get_double("ts-us")),
      des::SimTime::from_us(args.get_double("tc-us")), spec.frame_length);
  spec.duration = des::SimTime::from_seconds(args.get_double("time-s"));
  spec.repetitions = args.get_int("reps");
  spec.seed = args.get_seed("seed");
  spec.kernel = sim::kernel_from_name(args.get_string("kernel"));

  obs::Registry registry;
  obs::TraceSink trace;
  sim::RunObservability observability;
  observability.registry = &registry;
  if (!args.get_string("trace").empty()) {
    observability.trace = &trace;
    observability.trace_counter_samples = args.has("trace-counters");
  }
  Telemetry telemetry = Telemetry::from(args);
  // --progress reads the hub; alone, it attaches one without a server,
  // a series file or a report section.
  if (args.has("progress") && telemetry.hub == nullptr) {
    telemetry.hub = std::make_unique<obs::TelemetryHub>();
  }
  observability.telemetry = telemetry.hub.get();
  // MAC-state observatory: --stations-out and --obs-window imply it.
  obs::ObservatoryOptions observatory_options;
  obs::ObservatorySummary stations_summary;
  const std::string stations_path = args.get_string("stations-out");
  const bool observatory_on = args.has("observatory") ||
                              args.has("obs-window") ||
                              !stations_path.empty();
  if (observatory_on) {
    observatory_options.fairness_window = args.get_int("obs-window");
    observability.observatory = &observatory_options;
    observability.stations_sink = &stations_summary;
  }
  // Scheduler spans only when --jobs is typed and a trace is being
  // collected anyway: they add wall-clock events to the trace.
  observability.task_spans =
      args.has("jobs") && observability.trace != nullptr;
  if (telemetry.recorder) {
    obs::FlightRecorder::instance().attach_registry(&registry);
    if (observability.trace != nullptr) {
      obs::FlightRecorder::instance().attach_trace(&trace);
    }
  }
  const ProfileOutputs profile = ProfileOutputs::from(args);

  sim::ParallelRunner runner(args.has("jobs") ? args.get_int("jobs")
                                              : util::jobs_from_env());
  std::optional<ProgressTicker> ticker;
  if (args.has("progress")) {
    const des::SimTime goal =
        spec.duration * static_cast<std::int64_t>(spec.repetitions);
    ticker.emplace(*telemetry.hub, goal.seconds());
  }
  obs::RunReport report =
      runner.run_point_report(spec, "plcsim-sim", observability);
  if (ticker) ticker->finish();
  std::printf("jobs=%d  speedup=%.2fx (serial-equivalent %.2f s)\n",
              runner.jobs(), runner.speedup(),
              runner.serial_equivalent_seconds());
  profile.write();
  if (telemetry.server != nullptr || !telemetry.timeseries_path.empty()) {
    // Sim reports already carry wall-clock fields, so embedding the
    // sampled series keeps the report's determinism story intact.
    telemetry.hub->sample_now();
    report.timeseries = telemetry.hub->timeseries_json();
  }
  std::printf("N=%d  collision_pr=%.4f  norm_throughput=%.4f\n",
              spec.stations,
              report.scalars.at("collision_probability_mean"),
              report.scalars.at("normalized_throughput_mean"));
  std::printf("%.2fM medium events in %.2f s wall (%.1f sim-s/wall-s)\n",
              static_cast<double>(report.events) / 1e6, report.wall_seconds,
              report.sim_seconds_per_wall_second());
  if (observatory_on) {
    std::printf("observatory: window_jain(W=%d) mean=%.4f  "
                "longest collision burst=%lld\n",
                observatory_options.fairness_window,
                stations_summary.window_jain.mean(),
                static_cast<long long>(stations_summary.longest_burst));
  }
  if (!stations_path.empty()) {
    write_file(stations_path, [&](std::ostream& out) {
      stations_summary.write_trajectory_jsonl(out);
    });
    PLC_LOG_INFO("cli", "wrote station trajectory")
        .str("path", stations_path)
        .num("samples",
             static_cast<double>(stations_summary.trajectory.size()));
  }

  write_outputs(args, trace, registry);
  save_report(args, report);
  telemetry.finish();
  return 0;
}

int cmd_model(const Args& args) {
  const int n = args.get_int("n");
  const mac::BackoffConfig config = config_from(args);
  const analysis::Model1901Result model = analysis::solve_1901(n, config);
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  std::printf("N=%d  tau=%.5f  gamma=%.4f  throughput=%.4f\n", n,
              model.tau, model.gamma,
              model.normalized_throughput(timing,
                                          des::SimTime::from_us(2050.0)));
  util::TablePrinter table({"stage", "CW", "d", "attempt prob",
                            "E[countdown]", "E[visits/cycle]"});
  for (std::size_t i = 0; i < model.stages.size(); ++i) {
    table.add_row({std::to_string(i), std::to_string(config.cw[i]),
                   std::to_string(config.dc[i]),
                   util::format_fixed(model.stages[i].attempt_probability, 4),
                   util::format_fixed(model.stages[i].expected_countdown, 2),
                   util::format_fixed(model.stages[i].expected_visits, 4)});
  }
  table.print(std::cout);
  return 0;
}

/// `plcsim testbed --tests R [--jobs N]`: R independent tests of the
/// same configuration (seeds derived per test index), sharded across the
/// worker pool — the Figure 2 averaging procedure from the shell.
int cmd_testbed_suite(const Args& args, tools::TestbedConfig base,
                      int tests) {
  if (args.has("trace") || args.has("progress") || args.has("sniff") ||
      args.has("capture")) {
    throw plc::Error(
        "testbed --tests: --trace/--progress/--sniff/--capture apply to "
        "single runs only");
  }
  obs::Registry registry;
  const std::uint64_t root_seed = args.get_seed("seed");
  std::vector<tools::TestbedConfig> configs;
  configs.reserve(static_cast<std::size_t>(tests));
  for (int test = 0; test < tests; ++test) {
    tools::TestbedConfig config = base;
    config.seed = des::derive_task_seed(root_seed, 0,
                                        static_cast<std::uint64_t>(test));
    config.registry = &registry;
    configs.push_back(config);
  }
  const ProfileOutputs profile = ProfileOutputs::from(args);
  const obs::Stopwatch wall;
  const tools::TestbedSuiteResult suite =
      tools::run_testbed_suite(configs, args.get_int("jobs"));
  const double wall_seconds = wall.elapsed_seconds();
  profile.write();

  util::TablePrinter table({"test", "sum Ai", "sum Ci", "Ci/Ai"});
  util::RunningStats collision;
  for (std::size_t i = 0; i < suite.runs.size(); ++i) {
    const tools::TestbedResult& run = suite.runs[i];
    collision.add(run.collision_probability);
    table.add_row(
        {std::to_string(i),
         util::with_thousands(
             static_cast<std::int64_t>(run.total_acknowledged)),
         util::with_thousands(static_cast<std::int64_t>(run.total_collided)),
         util::format_fixed(run.collision_probability, 4)});
  }
  table.print(std::cout);
  std::printf("collision probability over %d tests: mean=%.4f std=%.4f\n",
              tests, collision.mean(), collision.stddev());
  std::printf("jobs=%d  speedup=%.2fx (serial-equivalent %.2f s)\n",
              util::ThreadPool::resolve_jobs(args.get_int("jobs")),
              wall_seconds > 0.0
                  ? suite.serial_equivalent_seconds / wall_seconds
                  : 1.0,
              suite.serial_equivalent_seconds);

  write_outputs(args, obs::TraceSink(), registry);  // --trace was refused.
  obs::RunReport report = testbed_report(
      "plcsim-testbed-suite", wall_seconds,
      static_cast<double>(tests) * (base.warmup + base.duration).seconds(),
      registry, base.stations);
  report.scalars["tests"] = static_cast<double>(tests);
  report.scalars["collision_probability_mean"] = collision.mean();
  report.scalars["collision_probability_stddev"] = collision.stddev();
  save_report(args, report);
  return 0;
}

int cmd_testbed(const Args& args) {
  tools::TestbedConfig config;
  config.stations = args.get_int("n");
  config.duration = des::SimTime::from_seconds(args.get_double("time-s"));
  const double mme_ms = args.get_double("mme-ms");
  if (mme_ms > 0.0) {
    config.mme_interval = des::SimTime::from_us(mme_ms * 1000.0);
  }
  const int tests = args.get_int("tests");
  if (tests > 1) return cmd_testbed_suite(args, config, tests);
  const std::string capture_path = args.get_string("capture");
  config.sniff_at_destination = args.has("sniff") || !capture_path.empty();

  obs::Registry registry;
  obs::TraceSink trace;
  config.registry = &registry;
  if (!args.get_string("trace").empty()) config.trace = &trace;
  const ProfileOutputs profile = ProfileOutputs::from(args);

  obs::TelemetryHub hub;
  std::optional<ProgressTicker> ticker;
  if (args.has("progress")) {
    config.telemetry = &hub;
    ticker.emplace(hub, (config.warmup + config.duration).seconds());
  }
  obs::Stopwatch stopwatch;
  const tools::TestbedResult result = tools::run_saturated_testbed(config);
  const double wall_seconds = stopwatch.elapsed_seconds();
  if (ticker) ticker->finish();
  profile.write();

  util::TablePrinter table({"station", "acked (Ai)", "collided (Ci)"});
  for (std::size_t i = 0; i < result.acknowledged.size(); ++i) {
    table.add_row({std::to_string(i + 1),
                   util::with_thousands(static_cast<std::int64_t>(
                       result.acknowledged[i])),
                   util::with_thousands(static_cast<std::int64_t>(
                       result.collided[i]))});
  }
  table.print(std::cout);
  std::printf("sum(Ci)/sum(Ai) = %.4f   normalized throughput = %.4f\n",
              result.collision_probability,
              result.domain.normalized_throughput());
  if (config.sniff_at_destination) {
    std::printf("sniffer: %zu data bursts, MME overhead %.4f\n",
                result.data_burst_sources.size(), result.mme_overhead);
  }
  if (!capture_path.empty()) {
    tools::write_capture_file(capture_path, result.captures);
    PLC_LOG_INFO("cli", "wrote captures")
        .str("path", capture_path)
        .num("captures", static_cast<double>(result.captures.size()));
  }

  write_outputs(args, trace, registry);
  obs::RunReport report = testbed_report(
      "plcsim-testbed", wall_seconds,
      (config.warmup + config.duration).seconds(), registry, config.stations);
  report.scalars["collision_probability"] = result.collision_probability;
  report.scalars["normalized_throughput"] =
      result.domain.normalized_throughput();
  save_report(args, report);
  return 0;
}

/// `plcsim sweep`: one 1901 variant ("cli", from --cw/--dc) over
/// N = 1..n-max as a sim+model scenario, one repetition per point, so
/// the table is identical for any --jobs value and either --kernel.
int cmd_sweep(const Args& args) {
  scenario::Spec spec;
  spec.name = "plcsim-sweep";
  spec.macs = {scenario::MacVariant{"cli", config_from(args)}};
  spec.stations.clear();
  for (int n = 1; n <= args.get_int("n-max"); ++n) spec.stations.push_back(n);
  spec.duration = des::SimTime::from_seconds(args.get_double("time-s"));
  spec.repetitions = 1;
  spec.kernel = sim::kernel_from_name(args.get_string("kernel"));
  scenario::RunOptions options;
  options.jobs =
      args.has("jobs") ? args.get_int("jobs") : util::jobs_from_env();
  const obs::RunReport report = scenario::run_scenario(spec, options).report;

  util::TablePrinter table({"n", "sim_collision", "sim_throughput",
                            "model_collision", "model_throughput"});
  for (const int n : spec.stations) {
    const std::string prefix = "cli.n" + std::to_string(n) + ".";
    std::vector<std::string> row = {std::to_string(n)};
    for (const char* metric :
         {"sim_collision_probability", "sim_throughput",
          "model_collision_probability", "model_throughput"}) {
      row.push_back(util::format_fixed(report.scalars.at(prefix + metric), 4));
    }
    table.add_row(std::move(row));
  }
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}

int cmd_boost(const Args& args) {
  const int n = args.get_int("n");
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  const des::SimTime frame = des::SimTime::from_us(2050.0);
  const auto ranked = analysis::rank_configurations(
      n, timing, frame, analysis::default_candidate_pool());
  const auto uniform = analysis::best_uniform_window(n, timing, frame);
  util::TablePrinter table({"configuration", "model throughput",
                            "model collision"});
  for (std::size_t i = 0; i < ranked.size() && i < 5; ++i) {
    table.add_row({ranked[i].config.name,
                   util::format_fixed(ranked[i].throughput, 4),
                   util::format_fixed(ranked[i].collision_probability, 4)});
  }
  table.add_row({"tuned " + uniform.config.name,
                 util::format_fixed(uniform.throughput, 4),
                 util::format_fixed(uniform.collision_probability, 4)});
  table.print(std::cout);
  return 0;
}

int cmd_delay(const Args& args) {
  const int n = args.get_int("n");
  const double load = args.get_double("load");
  const mac::BackoffConfig config = config_from(args);
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  const des::SimTime frame = des::SimTime::from_us(2050.0);
  const double capacity =
      analysis::saturation_rate_fps(n, config, timing, frame);
  const double lambda = load * capacity;
  const auto model =
      analysis::access_delay(n, config, timing, frame, lambda);
  sim::PoissonMacSpec spec;
  spec.stations = n;
  spec.config = config;
  spec.arrival_rate_fps = lambda;
  spec.duration = des::SimTime::from_seconds(args.get_double("time-s"));
  const auto simulated = sim::run_poisson_mac(spec);
  std::printf("N=%d  capacity=%.1f fps/station  lambda=%.1f fps "
              "(load %.2f)\n",
              n, capacity, lambda, load);
  std::printf("model: E[T]=%.2f ms (rho=%.2f)   sim: mean=%.2f ms "
              "p99=%.2f ms\n",
              model.mean_sojourn_s * 1e3, model.utilization,
              simulated.mean_delay_s * 1e3, simulated.p99_delay_s * 1e3);
  return 0;
}

/// `plcsim scenario`: run (or inspect) a declarative experiment spec —
/// a scenario::Registry built-in or a "plc-scenario/1" JSON file.
int cmd_scenario(const Args& args) {
  const std::string target = args.operand(0);
  if (args.has("list")) {
    for (const std::string& name : scenario::Registry::names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (target.empty()) {
    throw plc::Error(
        "scenario: give a registry name or a .json spec file "
        "(plcsim scenario --list enumerates the built-ins)");
  }
  // The profile session opens before the spec is read, so parse-time
  // work (boosted-cw's window search) is attributed, and every return
  // below writes it.
  const ProfileOutputs profile = ProfileOutputs::from(args);
  // A bare word that is not a built-in gets the registry's "unknown
  // scenario" error listing the known names, not a file-open error.
  const bool is_file = !scenario::Registry::contains(target) &&
                       target.find_first_of("./") != std::string::npos;
  scenario::Spec spec = [&] {
    PROF_SCOPE("scenario.parse");
    return is_file ? scenario::Spec::from_file(target)
                   : scenario::Registry::get(target);
  }();
  if (args.has("kernel")) {
    // The field is never serialized and both kernels write the same
    // report, so this cannot change --dump-spec or report bytes.
    spec.kernel = sim::kernel_from_name(args.get_string("kernel"));
  }

  if (args.has("dump-spec")) {
    const std::string path = args.get_string("dump-spec");
    if (path.empty()) {
      std::printf("%s\n", spec.to_json().c_str());
    } else {
      write_file(path,
                 [&](std::ostream& out) { out << spec.to_json() << "\n"; });
      PLC_LOG_INFO("cli", "wrote scenario spec").str("path", path);
    }
    profile.write();
    return 0;
  }
  if (args.has("validate")) {
    // from_file/Registry::get already validated; re-check the round-trip
    // so a committed fixture that drifts from the parser fails here.
    {
      PROF_SCOPE("scenario.parse");
      scenario::Spec::from_json(spec.to_json());
    }
    std::printf("%s: ok (%zu MAC variant(s), %zu station count(s))\n",
                spec.name.c_str(), spec.macs.size(), spec.stations.size());
    profile.write();
    return 0;
  }

  scenario::RunOptions options;
  options.jobs =
      args.has("jobs") ? args.get_int("jobs") : util::jobs_from_env();
  const bool json_summary = args.has("json");
  options.out = json_summary ? nullptr : &std::cout;
  std::unique_ptr<store::ResultStore> cache;
  const std::string cache_dir = args.get_string("cache");
  if (!cache_dir.empty()) {
    cache = std::make_unique<store::ResultStore>(cache_dir);
    options.store = cache.get();
  }
  Telemetry telemetry = Telemetry::from(args);
  options.telemetry = telemetry.hub.get();
  const scenario::RunOutcome outcome = scenario::run_scenario(spec, options);
  profile.write();

  const int jobs = util::ThreadPool::resolve_jobs(options.jobs);
  const double speedup =
      outcome.wall_seconds > 0.0
          ? outcome.serial_equivalent_seconds / outcome.wall_seconds
          : 1.0;
  const store::Counters counters =
      cache != nullptr ? cache->counters() : store::Counters{};
  const std::int64_t lookups = counters.hits + counters.misses;
  if (json_summary) {
    // The machine twin of the human epilogue below. The report stays the
    // deterministic artifact; wall-clock and cache traffic live here.
    obs::JsonWriter json(std::cout);
    json.begin_object();
    json.field("schema", "plc-scenario-summary/1");
    json.field("name", spec.name);
    json.field("jobs", static_cast<std::int64_t>(jobs));
    json.field("wall_seconds", outcome.wall_seconds);
    json.field("serial_equivalent_seconds",
               outcome.serial_equivalent_seconds);
    json.field("speedup", speedup);
    if (cache != nullptr) {
      json.key("cache").begin_object();
      json.field("hits", counters.hits);
      json.field("misses", counters.misses);
      json.field("hit_rate",
                 lookups > 0 ? static_cast<double>(counters.hits) /
                                   static_cast<double>(lookups)
                             : 0.0);
      json.field("publishes", counters.publishes);
      json.field("quarantined", counters.quarantined);
      json.end_object();
    }
    json.end_object();
    std::printf("\n");
  } else {
    std::printf("\njobs=%d  speedup=%.2fx (serial-equivalent %.2f s in "
                "%.2f s wall)\n",
                jobs, speedup, outcome.serial_equivalent_seconds,
                outcome.wall_seconds);
    if (cache != nullptr) {
      std::printf("cache: %lld hits, %lld misses (%.1f%% hit rate), "
                  "%lld published\n",
                  static_cast<long long>(counters.hits),
                  static_cast<long long>(counters.misses),
                  lookups > 0 ? 100.0 * static_cast<double>(counters.hits) /
                                    static_cast<double>(lookups)
                              : 0.0,
                  static_cast<long long>(counters.publishes));
      if (counters.quarantined > 0) {
        std::printf("cache: quarantined %lld corrupt entr%s (see %s)\n",
                    static_cast<long long>(counters.quarantined),
                    counters.quarantined == 1 ? "y" : "ies",
                    cache->quarantine_dir().c_str());
      }
    }
  }
  save_report(args, outcome.report);
  telemetry.finish();
  return 0;
}

/// SIGTERM/SIGINT flag for `plcsim serve` — the handler only sets the
/// flag; the main thread polls it and runs the drain outside signal
/// context.
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void handle_serve_signal(int) { g_serve_stop = 1; }

/// `plcsim serve`: the store-backed sweep service. Runs until SIGTERM
/// or SIGINT, then drains (finish running tasks, persist the owed queue
/// to --queue-file, refuse new work) and exits 0.
int cmd_serve(const Args& args) {
  serve::Server::Options options;
  options.port = args.get_int("port");
  options.bind_address = args.get_string("bind");
  options.jobs = args.get_int("jobs");
  options.max_queue = args.get_int("max-queue");
  options.cache_dir = args.get_string("cache");
  options.queue_file = args.get_string("queue-file");

  serve::Server server(options);
  server.start();
  const std::string url = "http://" + options.bind_address + ":" +
                          std::to_string(server.port());
  if (args.has("json")) {
    // Machine-readable startup banner ("plc-serve/1"): harnesses parse
    // the chosen port from here when --port 0 picked an ephemeral one.
    obs::JsonWriter json(std::cout);
    json.begin_object();
    json.field("schema", "plc-serve/1");
    json.field("url", url);
    json.field("port", static_cast<std::int64_t>(server.port()));
    json.field("jobs",
               static_cast<std::int64_t>(server.scheduler().pool_jobs()));
    json.field("max_queue", static_cast<std::int64_t>(options.max_queue));
    json.field("cache", options.cache_dir);
    json.field("queue_file", options.queue_file);
    json.field("restored_jobs", server.restored_jobs());
    json.end_object();
    std::printf("\n");
  } else {
    std::printf("plcsim serve: %s (jobs=%d, max-queue=%d%s%s)\n",
                url.c_str(), server.scheduler().pool_jobs(),
                options.max_queue,
                options.cache_dir.empty() ? "" : ", cache=",
                options.cache_dir.c_str());
  }
  std::fflush(stdout);

  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  PLC_LOG_INFO("serve", "signal received; draining");
  server.drain();
  server.stop();
  return 0;
}

/// `plcsim http`: one loopback HTTP request against the daemon (the
/// curl the CLI tests can rely on). Exit 0 on 2xx, or exactly --expect.
int cmd_http(const Args& args) {
  const int port = args.get_int("port");
  if (port <= 0) throw plc::Error("http: --port is required");
  const std::string host = args.get_string("host");
  const std::string path = args.get_string("path");

  std::string body;
  const bool have_body = args.has("body");
  if (have_body) {
    const std::string body_file = args.get_string("body");
    if (body_file.empty() || body_file == "-") {
      std::ostringstream in;
      in << std::cin.rdbuf();
      body = in.str();
    } else {
      body = util::read_file(body_file);
    }
  }
  std::string method = args.get_string("method");
  if (method.empty()) method = have_body ? "POST" : "GET";

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: " + host +
                        "\r\n";
  if (have_body) {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "Connection: close\r\n\r\n" + body;

  util::Socket socket = util::Socket::connect_tcp(host, port);
  socket.send_all(request);
  const std::string response = socket.recv_all();
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw plc::Error("http: malformed response (no header terminator)");
  }
  const std::string head = response.substr(0, head_end);
  const std::string payload = response.substr(head_end + 4);
  int status = 0;
  if (const std::size_t space = head.find(' ');
      space != std::string::npos && space + 1 < head.size()) {
    status = std::stoi(head.substr(space + 1));
  }

  if (args.has("include")) std::printf("%s\n\n", head.c_str());
  const std::string out_path = args.get_string("out");
  if (!out_path.empty()) {
    // Byte-exact: this is the `cmp`-against-the-CLI-report path.
    util::write_file_atomic(out_path, payload);
  } else {
    std::fwrite(payload.data(), 1, payload.size(), stdout);
  }
  std::fflush(stdout);
  if (args.has("expect")) {
    return status == args.get_int("expect") ? 0 : 1;
  }
  return status >= 200 && status < 300 ? 0 : 1;
}

/// `plcsim crash-test`: deliberately crashes after arming the flight
/// recorder, so tests (and the curious) can exercise the crash-dump
/// path end to end. Hidden from usage() on purpose.
int cmd_crash_test(const Args& args) {
  obs::FlightRecorder::Options options;
  options.directory = args.get_string("dir");
  obs::FlightRecorder::instance().arm(options);

  // Give the dump something real to record: a few trace events, a
  // counter, and an open profiler scope.
  obs::TraceSink trace;
  for (int i = 0; i < 3; ++i) {
    obs::TraceEvent event;
    event.phase = obs::TracePhase::kInstant;
    event.name = "crash-test";
    event.category = "cli";
    event.start = des::SimTime::from_ns(i * 1000);
    event.add_arg("i", static_cast<double>(i));
    trace.record(event);
  }
  obs::Registry registry;
  registry.counter("crash_test.events").add(3);
  obs::FlightRecorder::instance().attach_trace(&trace);
  obs::FlightRecorder::instance().attach_registry(&registry);
  // A small observatory, so the dump's "stations" section (the backoff
  // FSM tail) is exercised too.
  obs::Observatory observatory(2, 4, obs::ObservatoryOptions{});
  observatory.on_success(0, 1'000);
  observatory.begin_sample(1'000);
  observatory.record_state(3, 1, 0, 0);
  observatory.record_state(5, 0, 1, 1);
  observatory.advance_event();
  obs::FlightRecorder::instance().attach_observatory(&observatory);
  obs::Profiler::set_enabled(true);
  PROF_SCOPE("crash_test");

  const std::string mode = args.get_string("signal");
  if (mode == "segv") {
    ::raise(SIGSEGV);
  } else if (mode == "abort") {
    std::abort();
  } else if (mode == "terminate") {
    // Rethrowing from a noexcept frame reaches std::terminate with a
    // current exception; a plain throw here would be caught by main().
    std::exception_ptr error;
    try {
      throw plc::Error("crash-test: deliberate unhandled exception");
    } catch (...) {
      error = std::current_exception();
    }
    const auto boom = [&error]() noexcept { std::rethrow_exception(error); };
    boom();
  } else {
    throw plc::Error("crash-test: unknown --signal \"" + mode +
                     "\" (want segv, abort or terminate)");
  }
  return 1;  // Unreachable: every branch above kills the process.
}

/// One "plc-cache-*/1" object on stdout: schema, store dir and `fields`.
void print_cache_json(
    const char* schema, const std::string& dir,
    std::initializer_list<std::pair<const char*, std::int64_t>> fields) {
  obs::JsonWriter json(std::cout);
  json.begin_object();
  json.field("schema", schema);
  json.field("dir", dir);
  for (const auto& [key, value] : fields) json.field(key, value);
  json.end_object();
  std::printf("\n");
}

/// `plcsim cache <stats|verify|gc>`: maintenance of a plc::store result
/// cache directory (the one `scenario --cache` reads and writes).
int cmd_cache(const Args& args) {
  const std::string action = args.operand(0);
  if (action.empty()) {
    throw plc::Error("cache: give an action (stats, verify or gc)");
  }
  const std::string dir = args.get_string("dir");
  if (dir.empty()) throw plc::Error("cache: --dir is required");
  store::ResultStore store(dir);

  if (action == "stats") {
    const store::DiskUsage usage = store.scan();
    if (args.has("json")) {
      print_cache_json("plc-cache-stats/1", dir,
                       {{"entries", usage.entries},
                        {"bytes", usage.bytes},
                        {"quarantined_entries", usage.quarantined_entries},
                        {"quarantined_bytes", usage.quarantined_bytes}});
    } else {
      std::printf("%s: %lld entries, %lld bytes "
                  "(%lld quarantined, %lld bytes)\n",
                  dir.c_str(), static_cast<long long>(usage.entries),
                  static_cast<long long>(usage.bytes),
                  static_cast<long long>(usage.quarantined_entries),
                  static_cast<long long>(usage.quarantined_bytes));
    }
    return 0;
  }

  if (action == "verify") {
    const store::VerifyResult result = store.verify();
    if (args.has("json")) {
      print_cache_json("plc-cache-verify/1", dir,
                       {{"checked", result.checked},
                        {"ok", result.ok},
                        {"quarantined", result.quarantined}});
    } else {
      std::printf("%s: checked %lld entries, %lld ok, %lld quarantined\n",
                  dir.c_str(), static_cast<long long>(result.checked),
                  static_cast<long long>(result.ok),
                  static_cast<long long>(result.quarantined));
    }
    return result.quarantined > 0 ? 1 : 0;
  }

  if (action == "gc") {
    if (!args.has("max-mb") && !args.has("max-bytes")) {
      throw plc::Error("cache gc: give the size cap as --max-mb or "
                       "--max-bytes");
    }
    const std::int64_t max_bytes =
        args.has("max-bytes")
            ? static_cast<std::int64_t>(args.get_double("max-bytes"))
            : static_cast<std::int64_t>(args.get_double("max-mb") *
                                        1024.0 * 1024.0);
    if (max_bytes < 0) throw plc::Error("cache gc: size cap must be >= 0");
    const store::GcResult result = store.gc(max_bytes);
    if (args.has("json")) {
      print_cache_json("plc-cache-gc/1", dir,
                       {{"bytes_before", result.bytes_before},
                        {"bytes_after", result.bytes_after},
                        {"removed", result.removed}});
    } else {
      std::printf("%s: %lld -> %lld bytes, removed %lld files\n", dir.c_str(),
                  static_cast<long long>(result.bytes_before),
                  static_cast<long long>(result.bytes_after),
                  static_cast<long long>(result.removed));
    }
    return 0;
  }

  throw plc::Error("cache: unknown action \"" + action +
                   "\" (want stats, verify or gc)");
}

/// One MAC def as a "plc-mac/1" JSON object: identity, metadata and the
/// def's default configuration in spec form (the same fields a
/// plc-scenario/1 mac object takes).
void write_mac_def_json(obs::JsonWriter& json, const mac::MacDef& def) {
  json.begin_object();
  json.field("name", def.name);
  json.key("aliases").begin_array();
  for (std::size_t i = 0; i < def.alias_count; ++i) json.value(def.aliases[i]);
  json.end_array();
  json.field("summary", def.summary);
  json.key("presets").begin_array();
  for (std::size_t i = 0; i < def.preset_count; ++i) {
    json.begin_object();
    json.field("name", def.presets[i].name);
    json.field("summary", def.presets[i].summary);
    json.end_object();
  }
  json.end_array();
  json.key("counters").begin_array();
  for (std::size_t i = 0; i < def.counter_count; ++i) {
    json.begin_object();
    json.field("name", def.counters[i].name);
    json.field("summary", def.counters[i].summary);
    json.end_object();
  }
  json.end_array();
  json.field("has_model", def.solve != nullptr);
  json.field("is_1901_family", def.backoff_config != nullptr);
  const std::shared_ptr<const void> config = def.default_config();
  json.key("default").begin_object();
  def.write_spec_fields(json, config.get());
  json.end_object();
  json.end_object();
}

/// `plcsim mac <list|describe NAME>`: the registered MAC defs, driven
/// entirely by mac::builtin_registry() metadata.
int cmd_mac(const Args& args) {
  const std::string action = args.operand(0);
  const std::string name = args.operand(1);
  if (action.empty()) {
    throw plc::Error("mac: give an action (list or describe)");
  }
  const mac::Registry& registry = mac::builtin_registry();
  if (action == "list") {
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      json.begin_object();
      json.field("schema", "plc-mac-list/1");
      json.key("macs").begin_array();
      for (const mac::MacDef* def : registry.defs()) {
        write_mac_def_json(json, *def);
      }
      json.end_array();
      json.end_object();
      std::cout << "\n";
      return 0;
    }
    util::TablePrinter table({"name", "aliases", "presets", "model",
                              "summary"});
    for (const mac::MacDef* def : registry.defs()) {
      std::string aliases;
      for (std::size_t i = 0; i < def->alias_count; ++i) {
        if (!aliases.empty()) aliases += ", ";
        aliases += def->aliases[i];
      }
      std::string presets;
      for (std::size_t i = 0; i < def->preset_count; ++i) {
        if (!presets.empty()) presets += ", ";
        presets += def->presets[i].name;
      }
      table.add_row({def->name, aliases.empty() ? "-" : aliases,
                     presets.empty() ? "-" : presets,
                     def->solve != nullptr ? "yes" : "-", def->summary});
    }
    table.print(std::cout);
    return 0;
  }
  if (action == "describe") {
    if (name.empty()) {
      throw plc::Error("mac describe: give a MAC name (known: " +
                       registry.known_names() + ")");
    }
    const mac::MacDef& def = registry.get(name);
    if (args.has("json")) {
      obs::JsonWriter json(std::cout);
      write_mac_def_json(json, def);
      std::cout << "\n";
      return 0;
    }
    std::printf("%s — %s\n", def.name, def.summary);
    for (std::size_t i = 0; i < def.alias_count; ++i) {
      std::printf("  alias: %s\n", def.aliases[i]);
    }
    if (def.preset_count > 0) {
      std::printf("presets:\n");
      for (std::size_t i = 0; i < def.preset_count; ++i) {
        std::printf("  %-24s %s\n", def.presets[i].name,
                    def.presets[i].summary);
      }
    }
    std::printf("counters:\n");
    for (std::size_t i = 0; i < def.counter_count; ++i) {
      std::printf("  %-6s %s\n", def.counters[i].name,
                  def.counters[i].summary);
    }
    std::printf("model solver: %s\n", def.solve != nullptr ? "yes" : "no");
    std::printf("1901 family:  %s\n",
                def.backoff_config != nullptr ? "yes" : "no");
    const std::shared_ptr<const void> config = def.default_config();
    std::ostringstream out;
    obs::JsonWriter json(out);
    json.begin_object();
    def.write_spec_fields(json, config.get());
    json.end_object();
    std::printf("default:      %s\n", out.str().c_str());
    return 0;
  }
  throw plc::Error("mac: unknown action \"" + action +
                   "\" (want list or describe)");
}

int cmd_capture(const Args& args) {
  const std::string path = args.get_string("file");
  if (path.empty()) throw plc::Error("capture: --file is required");
  const auto captures = tools::read_capture_file(path);
  const auto bursts = tools::Faifa::segment_bursts(captures);
  std::printf("%zu delimiters, %zu bursts, MME overhead %.4f\n",
              captures.size(), bursts.size(),
              tools::Faifa::mme_overhead_of(captures));
  // Per-source burst shares (the §3.3 fairness trace, aggregated).
  std::map<int, int> per_source;
  for (const int tei : tools::Faifa::data_burst_sources_of(captures)) {
    ++per_source[tei];
  }
  util::TablePrinter table({"source TEI", "data bursts", "share"});
  std::int64_t total = 0;
  for (const auto& [tei, count] : per_source) total += count;
  for (const auto& [tei, count] : per_source) {
    table.add_row({std::to_string(tei), std::to_string(count),
                   util::format_fixed(
                       total > 0 ? static_cast<double>(count) /
                                       static_cast<double>(total)
                                 : 0.0,
                       4)});
  }
  table.print(std::cout);
  const int head = args.get_int("head");
  for (int i = 0; i < head && i < static_cast<int>(captures.size()); ++i) {
    std::printf("%s\n",
                tools::Faifa::format_capture(
                    captures[static_cast<std::size_t>(i)]).c_str());
  }
  return 0;
}

/// Every command and, per command, every flag its handler reads.
const Command kCommands[] = {
    {"sim", "", 0, "simulate N saturated stations", cmd_sim,
     table({{"n", "2", "saturated stations"},
            {"time-s", "50", "simulated seconds per repetition"},
            {"reps", "1", "independent repetitions, seeded per index"},
            {"seed", "0x1901", "root seed, decimal or 0x hex"},
            {"ts-us", "2542.64", "success duration Ts in us"},
            {"tc-us", "2920.64", "collision duration Tc in us"},
            {"frame-us", "2050", "frame duration in us"},
            {"jobs", "", "worker threads (default $PLC_JOBS)"},
            {"kernel", "event", "contention kernel: event or slot"},
            {"trace", "", "write a Chrome trace_event JSON to FILE"},
            {"trace-counters", "", "add BC/DC/BPC series to the trace"},
            {"metrics", "", "write the metric-registry snapshot to FILE"},
            {"report", "", "write a plc-run-report/1 JSON to FILE"},
            {"progress", "", "print a heartbeat line to stderr every second"},
            {"observatory", "", "attach the MAC-state observatory"},
            {"obs-window", "50", "its fairness window; implies --observatory"},
            {"stations-out", "", "write its trajectory to FILE; implies it"}},
           {kBackoffFlags, kTelemetryFlags, kProfileFlags})},
    {"model", "", 0, "the decoupled 1901 model, per stage", cmd_model,
     table({{"n", "2", "saturated stations"}}, {kBackoffFlags})},
    {"testbed", "", 0, "run the emulated HomePlug AV testbed", cmd_testbed,
     table({{"n", "3", "saturated stations"},
            {"time-s", "30", "measured seconds per test, after the warm-up"},
            {"mme-ms", "0", "CA2 management-message period in ms, 0 for none"},
            {"tests", "1", "independent tests; above 1 runs a seeded suite"},
            {"seed", "0x1901", "root seed of a suite, decimal or 0x hex"},
            {"jobs", "0", "worker threads of a suite, 0 for all cores"},
            {"capture", "", "write the sniffed delimiters to a .plcc FILE"},
            {"sniff", "", "sniff at the destination and report MME overhead"},
            {"trace", "", "write a Chrome trace_event JSON to FILE"},
            {"metrics", "", "write the metric-registry snapshot to FILE"},
            {"report", "", "write a plc-run-report/1 JSON to FILE"},
            {"progress", "", "print a heartbeat line to stderr every second"}},
           {kProfileFlags})},
    {"sweep", "", 0, "sim and model columns over N = 1..n-max", cmd_sweep,
     table({{"n-max", "7", "largest station count"},
            {"time-s", "20", "simulated seconds per point"},
            {"jobs", "", "worker threads (default $PLC_JOBS)"},
            {"kernel", "event", "contention kernel: event or slot"},
            {"csv", "", "print CSV instead of a table"}},
           {kBackoffFlags})},
    {"scenario", "[<name|file.json>]", 1, "run or inspect a spec",
     cmd_scenario,
     table({{"list", "", "print the registry's built-in scenario names"},
            {"dump-spec", "", "print the canonical spec, or write it to FILE"},
            {"validate", "", "parse and check the spec without running it"},
            {"jobs", "", "worker threads (default $PLC_JOBS)"},
            {"kernel", "", "override the spec's kernel: event or slot"},
            {"cache", "", "result store DIR: take hits, publish misses"},
            {"report", "", "write the deterministic run report to FILE"},
            {"json", "", "print one plc-scenario-summary/1 object, no tables"}},
           {kTelemetryFlags, kProfileFlags})},
    {"cache", "<stats|verify|gc>", 1, "maintain a result store", cmd_cache,
     table({{"dir", "", "the result store directory (required)"},
            {"max-mb", "", "gc: evict oldest-first down to this many MiB"},
            {"max-bytes", "", "gc: evict oldest-first down to this many bytes"},
            {"json", "", "print one machine-readable object"}})},
    {"mac", "<list|describe> [<name>]", 2, "the registered MAC defs", cmd_mac,
     table({{"json", "", "print plc-mac-list/1 or plc-mac/1 JSON"}})},
    {"serve", "", 0, "the store-backed sweep service over HTTP", cmd_serve,
     table({{"port", "0", "TCP port; 0 picks one and prints it in the banner"},
            {"bind", "127.0.0.1", "address to listen on"},
            {"jobs", "0", "worker threads of the shared pool, 0 for all cores"},
            {"max-queue", "16", "queued jobs admitted before a 429"},
            {"cache", "", "result store DIR shared by every job"},
            {"queue-file", "", "persist the owed queue to FILE; reload it"},
            {"json", "", "print the startup banner as plc-serve/1 JSON"}})},
    {"http", "", 0, "one loopback HTTP request (the tests' curl)", cmd_http,
     table({{"port", "0", "server port (required)"},
            {"host", "127.0.0.1", "server address"},
            {"path", "/", "request path"},
            {"method", "", "request method; GET, or POST with --body"},
            {"body", "", "send FILE (no value or -: stdin) as the JSON body"},
            {"out", "", "write the response body bytes to FILE"},
            {"include", "", "print the response head first"},
            {"expect", "", "exit 0 iff the status is CODE, not any 2xx"}})},
    {"boost", "", 0, "model-ranked CW/DC configurations", cmd_boost,
     table({{"n", "10", "saturated stations to tune for"}})},
    {"delay", "", 0, "access delay under Poisson load", cmd_delay,
     table({{"n", "5", "stations"},
            {"load", "0.5", "offered load as a fraction of capacity"},
            {"time-s", "60", "simulated seconds"}},
           {kBackoffFlags})},
    {"capture", "", 0, "summarize a .plcc capture file", cmd_capture,
     table({{"file", "", "the .plcc capture file (required)"},
            {"head", "0", "also print the first N delimiters"}})},
    {"crash-test", "", 0, "", cmd_crash_test,
     table({{"dir", ".", "directory the crash dump is written to"},
            {"signal", "segv", "how to die: segv, abort or terminate"}})},
};

int usage() {
  std::fprintf(stderr,
               "usage: plcsim <command> [operands] [--flag [value] ...]\n");
  for (const Command& command : kCommands) {
    if (command.summary[0] == '\0') continue;
    std::fprintf(stderr, "  %-9s %-26s %s\n", command.name, command.operands,
                 command.summary);
  }
  std::fprintf(stderr, "plcsim <command> --help lists its flags\n");
  return 2;
}

/// `plcsim <command> --help`: the command's flag table.
int print_help(const Command& command) {
  std::printf("usage: plcsim %s%s%s [--flag [value] ...]\n", command.name,
              command.operands[0] == '\0' ? "" : " ", command.operands);
  for (const Flag& flag : command.flags) {
    std::printf("  --%-16s %s", flag.name, flag.help);
    if (flag.default_value[0] != '\0') {
      std::printf(" (default %s)", flag.default_value);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  for (const Command& command : kCommands) {
    if (command.name != std::string(argv[1])) continue;
    try {
      const Args args(command, argc, argv);
      return args.help() ? print_help(command) : command.handler(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "plcsim: %s\n", e.what());
      return 2;
    }
  }
  return usage();
}
