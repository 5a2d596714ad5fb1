// The live telemetry plane: downsampling time series, the hub's
// aggregation + OpenMetrics exposition, the HTTP endpoint, the progress
// heartbeat's task-based ETA formatting, and the crash flight recorder.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "util/socket.hpp"

namespace {

using namespace plc;

// ---------------------------------------------------------------- series

TEST(TimeSeries, KeepsEverythingBelowCapacity) {
  obs::TimeSeries series(8);
  for (int i = 0; i < 7; ++i) {
    series.record(static_cast<double>(i), static_cast<double>(i * 10));
  }
  ASSERT_EQ(series.points().size(), 7u);
  EXPECT_EQ(series.stride(), 1);
  EXPECT_EQ(series.offered(), 7);
  for (int i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(series.points()[i].t_seconds, i);
    EXPECT_DOUBLE_EQ(series.points()[i].value, i * 10.0);
  }
}

TEST(TimeSeries, CompactionHalvesAndDoublesStride) {
  obs::TimeSeries series(8);
  for (int i = 0; i < 8; ++i) {
    series.record(static_cast<double>(i), 0.0);
  }
  // Reaching capacity compacts proactively: even-indexed survivors plus
  // stride doubling, so the buffer always has room for the next accept.
  EXPECT_EQ(series.stride(), 2);
  EXPECT_EQ(series.points().size(), 4u);
  EXPECT_EQ(series.offered(), 8);
  for (std::size_t i = 0; i < series.points().size(); ++i) {
    EXPECT_DOUBLE_EQ(series.points()[i].t_seconds, 2.0 * i);
  }
}

TEST(TimeSeries, LongStreamStaysBoundedAndSpansTheRun) {
  obs::TimeSeries series(16);
  constexpr int kOffers = 100'000;
  for (int i = 0; i < kOffers; ++i) {
    series.record(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_LE(series.points().size(), 16u);
  EXPECT_GE(series.points().size(), 4u);
  EXPECT_EQ(series.offered(), kOffers);
  // Retained points cover the whole stream, not the newest window.
  EXPECT_LT(series.points().front().t_seconds, kOffers / 4.0);
  EXPECT_GT(series.points().back().t_seconds, kOffers / 2.0);
  // Monotone time: compaction must preserve order.
  for (std::size_t i = 1; i < series.points().size(); ++i) {
    EXPECT_LT(series.points()[i - 1].t_seconds,
              series.points()[i].t_seconds);
  }
}

TEST(TimeSeriesSet, JsonAndJsonlRoundTrip) {
  obs::TimeSeriesSet set(8);
  set.record("a", 0.5, 1.0);
  set.record("a", 1.5, 2.0);
  set.record("b", 0.25, -3.5);

  const obs::JsonValue parsed = obs::parse_json(set.to_json());
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.items.size(), 2u);
  EXPECT_EQ(parsed.items[0].find("series")->text, "a");
  EXPECT_EQ(parsed.items[0].find("points")->items.size(), 2u);
  EXPECT_EQ(parsed.items[1].find("series")->text, "b");

  std::ostringstream jsonl;
  set.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const obs::JsonValue row = obs::parse_json(line);
    ASSERT_TRUE(row.is_object());
    EXPECT_NE(row.find("series"), nullptr);
    EXPECT_NE(row.find("t"), nullptr);
    EXPECT_NE(row.find("value"), nullptr);
    ++count;
  }
  EXPECT_EQ(count, 3);
}

// -------------------------------------------------------------- escaping

// Property: every escaped string round-trips through the JSON parser,
// whatever bytes went in — the shared escaper is what makes the JSONL
// log sink and the exposition labels injection-proof.
TEST(Escaping, JsonEscapeRoundTripsArbitraryBytes) {
  std::uint64_t state = 0x1901;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<char>((state >> 33) & 0x7F);
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string raw;
    for (int i = 0; i < trial % 32; ++i) raw.push_back(next());
    raw += "\"\\\n\r\t";  // Always include the dangerous characters.
    const std::string wrapped = "\"" + obs::json_escape(raw) + "\"";
    const obs::JsonValue parsed = obs::parse_json(wrapped);
    ASSERT_TRUE(parsed.is_string());
    EXPECT_EQ(parsed.text, raw) << "trial " << trial;
  }
}

TEST(Escaping, OpenMetricsEscapesExactlyTheSpecTriple) {
  // OpenMetrics label values escape backslash, quote and newline — and
  // nothing else (a tab or CR is legal payload there).
  EXPECT_EQ(obs::openmetrics_escape("plain"), "plain");
  EXPECT_EQ(obs::openmetrics_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::openmetrics_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::openmetrics_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::openmetrics_escape("a\tb"), "a\tb");
}

// ------------------------------------------------------------------- hub

void seed_registry(obs::Registry& registry) {
  registry.counter("des.events_dispatched").add(42);
  registry.gauge("sweep.load").set(0.75);
  registry.histogram("task.seconds").observe(0.5);
  registry.histogram("task.seconds").observe(1.5);
  registry.counter("tx.frames", {{"station", "node \"1\""}}).add(7);
}

TEST(OpenMetrics, GoldenRenderForSeededRegistry) {
  obs::Registry registry;
  seed_registry(registry);
  const std::string text = obs::openmetrics_render(registry.snapshot());
  const std::string expected =
      "# TYPE plc_des_events_dispatched counter\n"
      "plc_des_events_dispatched_total 42\n"
      "# TYPE plc_sweep_load gauge\n"
      "plc_sweep_load 0.75\n"
      "# TYPE plc_task_seconds summary\n"
      "plc_task_seconds_count 2\n"
      "plc_task_seconds_sum 2\n"
      "# TYPE plc_tx_frames counter\n"
      "plc_tx_frames_total{station=\"node \\\"1\\\"\"} 7\n"
      "# EOF\n";
  EXPECT_EQ(text, expected);
}

TEST(TelemetryHub, TracksTaskLifecycle) {
  obs::TelemetryHub hub;
  hub.begin_tasks(4);
  hub.task_started();
  hub.task_started();
  obs::TelemetryHub::TaskEnd end;
  end.used_store = true;
  end.store_hit = true;
  end.queue_wait_seconds = 0.01;
  end.task_seconds = 0.25;
  hub.task_finished(end);

  const obs::TelemetryHub::Progress progress = hub.progress();
  EXPECT_EQ(progress.tasks_total, 4);
  EXPECT_EQ(progress.tasks_completed, 1);
  EXPECT_EQ(progress.tasks_in_flight, 1);
  EXPECT_EQ(progress.store_hits, 1);
  EXPECT_EQ(progress.store_misses, 0);
  EXPECT_GT(progress.tasks_per_second, 0.0);
  EXPECT_GE(progress.eta_seconds, 0.0);

  const std::string metrics = hub.openmetrics();
  EXPECT_NE(metrics.find("plc_sweep_tasks_completed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("plc_sweep_store_hits_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.find("# EOF\n"), std::string::npos);

  const obs::JsonValue parsed = obs::parse_json(hub.progress_json());
  EXPECT_EQ(parsed.find("schema")->text, "plc-progress/1");
  EXPECT_DOUBLE_EQ(parsed.find("tasks")->find("completed")->number, 1.0);
}

TEST(TelemetryHub, TaskRateIgnoresIdleTimeBeforeTheBatch) {
  // A long-lived hub (serve's) sits idle before a batch arrives. The
  // rate, and with it the ETA, counts from the announcement: two tasks
  // finished within microseconds of it leave two more due at once, not
  // after as long again as the idle spell.
  obs::TelemetryHub hub;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  hub.begin_tasks(4);
  hub.task_finished({});
  hub.task_finished({});
  const obs::TelemetryHub::Progress progress = hub.progress();
  EXPECT_EQ(progress.tasks_completed, 2);
  EXPECT_GE(progress.eta_seconds, 0.0);
  EXPECT_LT(progress.eta_seconds, 0.1);
}

TEST(TelemetryHub, AbsorbMergesAndProbesEvaluateLazily) {
  obs::TelemetryHub hub;
  obs::Registry registry;
  seed_registry(registry);
  hub.absorb(registry.snapshot());
  double probe_value = 1.0;
  hub.add_probe("store.hits", [&probe_value] { return probe_value; });
  probe_value = 9.0;  // Probes must read at scrape time, not add time.
  const std::string metrics = hub.openmetrics();
  EXPECT_NE(metrics.find("plc_des_events_dispatched_total 42"),
            std::string::npos);
  EXPECT_NE(metrics.find("plc_store_hits 9"), std::string::npos);
}

TEST(TelemetryHub, TryVariantsWorkWhenUncontended) {
  obs::TelemetryHub hub;
  hub.begin_tasks(2);
  obs::TelemetryHub::Progress progress;
  ASSERT_TRUE(hub.try_progress(&progress));
  EXPECT_EQ(progress.tasks_total, 2);
  obs::Snapshot snapshot;
  ASSERT_TRUE(hub.try_metrics_snapshot(&snapshot));
  EXPECT_NE(snapshot.find("sweep.tasks_total"), nullptr);
}

// ------------------------------------------------------------ exposition

TEST(ExpositionServer, RoutesAndErrorPaths) {
  obs::TelemetryHub hub;
  hub.begin_tasks(1);
  obs::ExpositionServer server(hub, {});

  const std::string metrics =
      server.handle_request("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"),
            std::string::npos);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);

  const std::string progress =
      server.handle_request("GET /progress?x=1 HTTP/1.1\r\n\r\n");
  EXPECT_NE(progress.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(progress.find("plc-progress/1"), std::string::npos);

  EXPECT_NE(server.handle_request("GET /nope HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(server.handle_request("POST /metrics HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_NE(server.handle_request("garbage").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(server.handle_request("").find("HTTP/1.1 400"),
            std::string::npos);
}

std::string http_get(int port, const std::string& path) {
  util::Socket client = util::Socket::connect_tcp("127.0.0.1", port);
  client.send_all("GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
  std::string response;
  while (true) {
    const std::string chunk = client.recv_some();
    if (chunk.empty()) break;
    response += chunk;
  }
  return response;
}

TEST(ExpositionServer, ServesRealSockets) {
  obs::TelemetryHub hub;
  hub.begin_tasks(3);
  obs::ExpositionServer server(hub, {});  // Ephemeral port.
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("plc_sweep_tasks_total 3"), std::string::npos);
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("ok"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.requests_served(), 2);
}

TEST(ExpositionServer, SurvivesConcurrentScrapesDuringSweep) {
  obs::TelemetryHub hub;
  obs::ExpositionServer server(hub, {});
  server.start();

  std::atomic<bool> done{false};
  std::atomic<bool> scrape_failed{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load()) {
      std::string response;
      try {
        response = http_get(server.port(), "/metrics");
      } catch (const std::exception&) {
        scrape_failed.store(true);  // Fails the test after the join.
        return;
      }
      if (response.find("# EOF") != std::string::npos) {
        scrapes.fetch_add(1);
      }
    }
  });
  // The sweep takes milliseconds: hold it until the scraper has completed
  // a GET, so that it cannot finish first on a loaded machine. The wait is
  // bounded, so a dead server fails the test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (scrapes.load() == 0 && !scrape_failed.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<sim::RunSpec> specs;
  for (const int stations : {2, 5}) {
    sim::RunSpec spec;
    spec.stations = stations;
    spec.duration = des::SimTime::from_seconds(5.0);
    spec.repetitions = 3;
    specs.push_back(spec);
  }
  sim::ParallelRunner runner(2);
  sim::RunObservability obs;
  obs.telemetry = &hub;
  const std::vector<sim::RunSummary> summaries =
      runner.run_points(specs, obs);
  done.store(true);
  scraper.join();
  server.stop();

  EXPECT_FALSE(scrape_failed.load());
  ASSERT_EQ(summaries.size(), specs.size());
  EXPECT_GT(scrapes.load(), 0);
  const obs::TelemetryHub::Progress progress = hub.progress();
  EXPECT_EQ(progress.tasks_completed, 6);
  EXPECT_EQ(progress.tasks_in_flight, 0);
}

// -------------------------------------------------------------- progress

TEST(Progress, FormatDurationBrief) {
  EXPECT_EQ(obs::format_duration_brief(-1.0), "?");
  EXPECT_EQ(obs::format_duration_brief(0.0), "0.0s");
  EXPECT_EQ(obs::format_duration_brief(12.34), "12.3s");
  EXPECT_EQ(obs::format_duration_brief(61.0), "1m01s");
  EXPECT_EQ(obs::format_duration_brief(3599.0), "59m59s");
  EXPECT_EQ(obs::format_duration_brief(3600.0), "1h00m");
  EXPECT_EQ(obs::format_duration_brief(7265.0), "2h01m");
}

TEST(Progress, TaskGoalDrivesHeartbeatLine) {
  obs::TelemetryHub::Progress progress;
  progress.tasks_total = 4;
  progress.tasks_completed = 1;
  progress.wall_seconds = 1.0;
  progress.eta_seconds = 3.0;
  progress.sim_seconds = 2.5;
  progress.events = 1000;
  const std::string text =
      obs::progress_line(progress, 10.0, /*final_line=*/false);
  EXPECT_NE(text.find("tasks 1/4"), std::string::npos) << text;
  EXPECT_NE(text.find("2.5/10.0 sim-s (25.0%)"), std::string::npos) << text;
}

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, DumpCarriesTraceMetricsAndProgress) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("plc-test-flight-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  obs::TraceSink trace;
  for (int i = 0; i < 5; ++i) {
    obs::TraceEvent event;
    event.phase = obs::TracePhase::kInstant;
    event.name = "tick";
    event.category = "test";
    event.start = des::SimTime::from_ns(i * 100);
    trace.record(event);
  }
  obs::Registry registry;
  seed_registry(registry);
  obs::TelemetryHub hub;
  hub.begin_tasks(2);

  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  obs::FlightRecorder::Options options;
  options.directory = dir.string();
  options.trace_tail = 3;
  recorder.arm(options);
  recorder.attach_trace(&trace);
  recorder.attach_registry(&registry);
  recorder.attach_hub(&hub);

  const std::string path = recorder.dump("unit test");
  ASSERT_FALSE(path.empty());
  // Second dump is suppressed: first crash wins.
  EXPECT_TRUE(recorder.dump("again").empty());
  recorder.disarm();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue dump = obs::parse_json(buffer.str());
  EXPECT_EQ(dump.find("schema")->text, "plc-flight-record/1");
  EXPECT_EQ(dump.find("reason")->text, "unit test");
  const obs::JsonValue* trace_section = dump.find("trace");
  ASSERT_NE(trace_section, nullptr);
  EXPECT_DOUBLE_EQ(trace_section->find("recorded")->number, 5.0);
  EXPECT_EQ(trace_section->find("events")->items.size(), 3u);
  const obs::JsonValue* progress = dump.find("progress");
  ASSERT_NE(progress, nullptr);
  EXPECT_DOUBLE_EQ(progress->find("tasks_total")->number, 2.0);
  ASSERT_NE(dump.find("metrics"), nullptr);
  EXPECT_TRUE(dump.find("metrics")->is_array());

  std::filesystem::remove_all(dir);
}

TEST(FlightRecorder, RearmResetsTheDumpedLatch) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("plc-test-flight2-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  obs::FlightRecorder::Options options;
  options.directory = dir.string();
  recorder.arm(options);
  EXPECT_FALSE(recorder.dump("first").empty());
  recorder.arm(options);  // Re-arm resets the once-latch.
  EXPECT_FALSE(recorder.dump("second").empty());
  recorder.disarm();
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------- report stays untouched

TEST(Telemetry, HubNeverLeaksIntoParallelReports) {
  sim::RunSpec spec;
  spec.stations = 3;
  spec.duration = des::SimTime::from_seconds(5.0);
  spec.repetitions = 2;

  sim::ParallelRunner runner(2);
  const obs::RunReport plain =
      runner.run_point_report(spec, "t", sim::RunObservability{});

  obs::TelemetryHub hub;
  sim::RunObservability with_hub;
  with_hub.telemetry = &hub;
  const obs::RunReport observed =
      runner.run_point_report(spec, "t", with_hub);

  EXPECT_EQ(plain.scalars, observed.scalars);
  EXPECT_GT(hub.progress().tasks_completed, 0);
}

}  // namespace
