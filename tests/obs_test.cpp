// Tests for the observability layer: the metrics registry, snapshot
// semantics, the trace ring buffer and its exporters, the run report, and
// the end-to-end wiring into the slot simulator, the runner, and the
// emulated testbed.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mac/config.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/slot_simulator.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"

namespace plc {
namespace {

// --- json writer -------------------------------------------------------------

TEST(JsonWriter, NestedStructuresAndEscaping) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.field("name", "say \"hi\"\n");
  json.key("values").begin_array().value(std::int64_t{1}).value(2.5)
      .end_array();
  json.field("ok", true);
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\"name\": \"say \\\"hi\\\"\\n\","
            "\"values\": [1,2.5],\"ok\": true}");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.end_array();
  EXPECT_EQ(out.str(), "[null,null]");
}

TEST(JsonWriter, ControlCharactersEscapedUtf8PassedThrough) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  // \x01 has no shorthand escape and must become a \uXXXX escape;
  // tab has one; multi-byte UTF-8 ("é") passes through as raw bytes.
  json.begin_object();
  json.field("s", "a\x01" "b\tc\xc3\xa9");
  json.end_object();
  EXPECT_EQ(out.str(),
            "{\"s\": \"a\\u0001b\\tc\xc3\xa9\"}");
}

// --- registry ----------------------------------------------------------------

TEST(Registry, SameSeriesReturnsSameInstrument) {
  obs::Registry registry;
  obs::Counter& a = registry.counter("events", {{"type", "idle"}});
  obs::Counter& b = registry.counter("events", {{"type", "idle"}});
  EXPECT_EQ(&a, &b);
  // Label order must not matter.
  obs::Counter& c =
      registry.counter("tx", {{"station", "1"}, {"outcome", "ok"}});
  obs::Counter& d =
      registry.counter("tx", {{"outcome", "ok"}, {"station", "1"}});
  EXPECT_EQ(&c, &d);
  // Different labels are a different series.
  obs::Counter& e = registry.counter("events", {{"type", "success"}});
  EXPECT_NE(&a, &e);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  EXPECT_THROW(registry.histogram("x"), Error);
}

TEST(Registry, InstrumentPointersStableAcrossGrowth) {
  obs::Registry registry;
  obs::Counter& first = registry.counter("first");
  for (int i = 0; i < 1000; ++i) {
    registry.counter("c" + std::to_string(i));
  }
  first.add(7);
  EXPECT_EQ(registry.counter("first").value(), 7);
}

TEST(Registry, GaugeAndHistogram) {
  obs::Registry registry;
  obs::Gauge& gauge = registry.gauge("depth");
  gauge.set(3.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);

  obs::Histogram& histogram = registry.histogram("delay");
  histogram.observe(1.0);
  histogram.observe(3.0);
  EXPECT_EQ(histogram.stats().count(), 2);
  EXPECT_NEAR(histogram.stats().mean(), 2.0, 1e-12);
}

// --- snapshot ----------------------------------------------------------------

TEST(Snapshot, FindAndMerge) {
  obs::Registry registry;
  registry.counter("events", {{"type", "idle"}}).add(10);
  registry.gauge("depth").set(2.0);
  registry.histogram("delay").observe(4.0);
  obs::Snapshot first = registry.snapshot();

  registry.counter("events", {{"type", "idle"}}).add(5);
  registry.gauge("depth").set(9.0);
  registry.histogram("delay").observe(8.0);
  registry.counter("fresh").add(1);
  obs::Snapshot second = registry.snapshot();

  // Snapshots are point-in-time copies.
  const obs::MetricSample* idle =
      first.find("events", {{"type", "idle"}});
  ASSERT_NE(idle, nullptr);
  EXPECT_DOUBLE_EQ(idle->value, 10.0);
  EXPECT_EQ(first.find("fresh"), nullptr);

  // Merge: counters add, gauges take the incoming value, histograms merge
  // distributions, unseen series append.
  first.merge(second);
  EXPECT_DOUBLE_EQ(first.find("events", {{"type", "idle"}})->value, 25.0);
  EXPECT_DOUBLE_EQ(first.find("depth")->value, 9.0);
  EXPECT_EQ(first.find("delay")->distribution.count(), 3);
  ASSERT_NE(first.find("fresh"), nullptr);
  EXPECT_DOUBLE_EQ(first.find("fresh")->value, 1.0);
}

TEST(Snapshot, WritesJsonArray) {
  obs::Registry registry;
  registry.counter("events", {{"type", "idle"}}).add(3);
  std::ostringstream out;
  registry.snapshot().write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\": \"events\""), std::string::npos);
  EXPECT_NE(text.find("\"type\": \"idle\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"value\": 3"), std::string::npos);
  EXPECT_EQ(text.front(), '[');
}

// --- trace sink --------------------------------------------------------------

obs::TraceEvent span_at(std::int64_t ns, const char* name) {
  obs::TraceEvent event;
  event.phase = obs::TracePhase::kSpan;
  event.name = name;
  event.start = des::SimTime::from_ns(ns);
  event.duration = des::SimTime::from_ns(100);
  return event;
}

TEST(TraceSink, RingBufferKeepsMostRecent) {
  obs::TraceSink sink(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    sink.record(span_at(i, "e"));
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.recorded(), 10);
  EXPECT_EQ(sink.dropped(), 6);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and exactly the most recent window.
  EXPECT_EQ(events.front().start.ns(), 6);
  EXPECT_EQ(events.back().start.ns(), 9);
}

TEST(TraceSink, ChromeTraceFormat) {
  obs::TraceSink sink;
  obs::TraceEvent span = span_at(1000, "success");
  span.track = obs::station_track(2);
  span.add_arg("winner", 2.0);
  sink.record(span);

  obs::TraceEvent counter;
  counter.phase = obs::TracePhase::kCounter;
  counter.name = "backoff";
  counter.track = obs::station_track(0);
  counter.add_arg("bc", 5.0);
  sink.record(counter);

  std::ostringstream out;
  sink.write_chrome_trace(out);
  const std::string text = out.str();
  // A JSON array with span + counter phases, microsecond timestamps, and
  // thread-name metadata naming the station tracks.
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"dur\": 0.1"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"station 2\""), std::string::npos);
  // Counter series are suffixed per station so Chrome keys them apart.
  EXPECT_NE(text.find("\"name\": \"backoff/station 0\""),
            std::string::npos);
}

TEST(TraceSink, JsonlOneObjectPerLine) {
  obs::TraceSink sink;
  sink.record(span_at(10, "a"));
  sink.record(span_at(20, "b"));
  std::ostringstream out;
  sink.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"ts_ns\": 10"), std::string::npos);
  EXPECT_NE(text.find("\"dur_ns\": 100"), std::string::npos);
}

// --- run report --------------------------------------------------------------

TEST(RunReport, JsonCarriesSchemaAndDerivedRates) {
  obs::RunReport report;
  report.name = "unit";
  report.wall_seconds = 2.0;
  report.simulated_seconds = 100.0;
  report.events = 1000;
  report.scalars["x"] = 1.5;
  EXPECT_DOUBLE_EQ(report.events_per_second(), 500.0);
  EXPECT_DOUBLE_EQ(report.sim_seconds_per_wall_second(), 50.0);

  std::ostringstream out;
  report.write_json(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\": \"plc-run-report/1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"name\": \"unit\""), std::string::npos);
  EXPECT_NE(text.find("\"events\": 1000"), std::string::npos);
  EXPECT_NE(text.find("\"x\": 1.5"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\": []"), std::string::npos);
}

TEST(RunReport, SaveRejectsUnwritablePath) {
  obs::RunReport report;
  EXPECT_THROW(report.save("/nonexistent-dir/report.json"), Error);
}

// --- slot simulator integration ---------------------------------------------

TEST(SlotSimObs, MetricsAgreeWithResults) {
  obs::Registry registry;
  sim::SlotSimulator simulator(
      sim::make_1901_entities(3, mac::BackoffConfig::ca0_ca1(), 7));
  simulator.bind_metrics(registry);
  const sim::SlotSimResults results = simulator.run_events(5'000);

  const obs::Snapshot snapshot = registry.snapshot();
  EXPECT_DOUBLE_EQ(
      snapshot.find("slot_sim.events", {{"type", "idle"}})->value,
      static_cast<double>(results.idle_slots));
  EXPECT_DOUBLE_EQ(
      snapshot.find("slot_sim.events", {{"type", "success"}})->value,
      static_cast<double>(results.successes));
  EXPECT_DOUBLE_EQ(
      snapshot.find("slot_sim.events", {{"type", "collision"}})->value,
      static_cast<double>(results.collision_events));

  // Per-station outcomes match the per-station result counters.
  double success_total = 0.0;
  for (int station = 0; station < 3; ++station) {
    const obs::MetricSample* sample = snapshot.find(
        "slot_sim.tx", {{"station", std::to_string(station)},
                        {"outcome", "success"}});
    ASSERT_NE(sample, nullptr);
    EXPECT_DOUBLE_EQ(
        sample->value,
        static_cast<double>(
            results.tx_success[static_cast<std::size_t>(station)]));
    success_total += sample->value;
  }
  EXPECT_DOUBLE_EQ(success_total,
                   static_cast<double>(results.successes));
}

TEST(SlotSimObs, TraceRecordsSpansOnStationTracks) {
  obs::TraceSink sink;
  sim::SlotSimulator simulator(
      sim::make_1901_entities(2, mac::BackoffConfig::ca0_ca1(), 11));
  simulator.set_trace(&sink, /*counter_samples=*/true);
  const sim::SlotSimResults results = simulator.run_events(200);

  bool saw_station_span = false;
  bool saw_counter = false;
  std::int64_t spans = 0;
  for (const obs::TraceEvent& event : sink.events()) {
    if (event.phase == obs::TracePhase::kSpan) {
      ++spans;
      if (event.track != obs::kMediumTrack) saw_station_span = true;
      EXPECT_GT(event.duration.ns(), 0);
    }
    if (event.phase == obs::TracePhase::kCounter) saw_counter = true;
  }
  EXPECT_TRUE(saw_station_span);
  EXPECT_TRUE(saw_counter);
  // One span per idle/success event and one per colliding transmitter.
  EXPECT_EQ(spans, results.idle_slots + results.successes +
                       results.collided_tx);
}

// --- runner integration ------------------------------------------------------

TEST(RunnerObs, RegistryAccumulatesAcrossRepetitions) {
  sim::RunSpec spec;
  spec.stations = 2;
  spec.duration = des::SimTime::from_seconds(0.5);
  spec.repetitions = 3;

  obs::Registry registry;
  obs::TraceSink trace;
  sim::RunObservability observability;
  observability.registry = &registry;
  observability.trace = &trace;
  const sim::RunSummary summary =
      sim::ParallelRunner(2).run_point(spec, observability);

  EXPECT_EQ(summary.collision_probability.count(), 3);
  EXPECT_GT(summary.medium_events, 0);
  EXPECT_NEAR(summary.simulated.seconds(), 1.5, 0.05);
  EXPECT_GT(trace.recorded(), 0);

  // The one registry saw all three repetitions' events.
  const obs::Snapshot snapshot = registry.snapshot();
  double events = 0.0;
  for (const char* type : {"idle", "success", "collision"}) {
    const obs::MetricSample* sample =
        snapshot.find("slot_sim.events", {{"type", type}});
    ASSERT_NE(sample, nullptr);
    events += sample->value;
  }
  EXPECT_DOUBLE_EQ(events, static_cast<double>(summary.medium_events));
}

TEST(RunnerObs, RunPointReportIsSelfConsistent) {
  sim::RunSpec spec;
  spec.stations = 3;
  spec.duration = des::SimTime::from_seconds(0.5);
  spec.repetitions = 2;

  const obs::RunReport report =
      sim::ParallelRunner(2).run_point_report(spec, "unit-run");
  EXPECT_EQ(report.name, "unit-run");
  EXPECT_GT(report.events, 0);
  EXPECT_GE(report.wall_seconds, 0.0);
  EXPECT_NEAR(report.simulated_seconds, 1.0, 0.05);
  EXPECT_DOUBLE_EQ(report.scalars.at("stations"), 3.0);
  EXPECT_DOUBLE_EQ(report.scalars.at("repetitions"), 2.0);
  EXPECT_GT(report.scalars.at("collision_probability_mean"), 0.0);
  EXPECT_GT(report.scalars.at("normalized_throughput_mean"), 0.0);
  EXPECT_FALSE(report.metrics.empty());
}

// --- testbed integration -----------------------------------------------------

TEST(TestbedObs, RegistryAndTraceSeeTheWholeStack) {
  tools::TestbedConfig config;
  config.stations = 2;
  config.duration = des::SimTime::from_seconds(2.0);
  config.warmup = des::SimTime::from_seconds(0.2);

  obs::Registry registry;
  obs::TraceSink trace;
  config.registry = &registry;
  config.trace = &trace;
  const tools::TestbedResult result = tools::run_saturated_testbed(config);
  EXPECT_GT(result.total_acknowledged, 0u);

  const obs::Snapshot snapshot = registry.snapshot();
  // Domain and device instruments all present and non-zero.
  EXPECT_GT(snapshot.total("medium.events"), 0.0);
  const obs::MetricSample* successes =
      snapshot.find("medium.events", {{"type", "success"}});
  ASSERT_NE(successes, nullptr);
  EXPECT_GT(successes->value, 0.0);
  const obs::MetricSample* acked =
      snapshot.find("emu.bursts", {{"station", "1"}, {"outcome", "acked"}});
  ASSERT_NE(acked, nullptr);
  EXPECT_GT(acked->value, 0.0);
  EXPECT_GT(trace.recorded(), 0);
}

// --- profiler ----------------------------------------------------------------

void spin_ns(std::int64_t ns) {
  // Touch a volatile in a loop long enough to accumulate measurable time.
  volatile std::int64_t sink = 0;
  for (std::int64_t i = 0; i < ns / 4; ++i) sink = sink + 1;
}

TEST(Profiler, DisabledScopesAreNoOps) {
  obs::Profiler::set_enabled(false);
  obs::Profiler::instance().reset();
  {
    PROF_SCOPE("off.outer");
    PROF_SCOPE("off.inner");
    spin_ns(1000);
  }
  EXPECT_TRUE(obs::Profiler::instance().snapshot().empty());
}

TEST(Profiler, NestedScopesFormPathsWithSelfTime) {
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  obs::Profiler::set_enabled(true);
  {
    PROF_SCOPE("outer");
    spin_ns(50'000);
    for (int i = 0; i < 3; ++i) {
      PROF_SCOPE("inner");
      spin_ns(10'000);
    }
  }
  obs::Profiler::set_enabled(false);

  const obs::ProfileSnapshot snapshot = profiler.snapshot();
  const obs::ProfileNodeStats* outer = snapshot.find("outer");
  const obs::ProfileNodeStats* inner = snapshot.find("outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->calls, 1);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->calls, 3);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(inner->name, "inner");
  // The child's time is inside the parent's, and self excludes it.
  EXPECT_GT(outer->total_ns, 0);
  EXPECT_LE(inner->total_ns, outer->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  EXPECT_EQ(inner->self_ns, inner->total_ns);
  EXPECT_LE(inner->min_ns, inner->max_ns);
  EXPECT_LE(inner->max_ns, inner->total_ns);
  // Depth-first order: the parent precedes its child.
  ASSERT_EQ(snapshot.nodes().size(), 2u);
  EXPECT_EQ(snapshot.nodes()[0].path, "outer");
  EXPECT_EQ(snapshot.nodes()[1].path, "outer/inner");
}

TEST(Profiler, TextTreeListsPhases) {
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  obs::Profiler::set_enabled(true);
  {
    PROF_SCOPE("tree.root");
    PROF_SCOPE("tree.leaf");
  }
  obs::Profiler::set_enabled(false);
  std::ostringstream out;
  profiler.snapshot().write_text_tree(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("tree.root"), std::string::npos);
  EXPECT_NE(text.find("tree.leaf"), std::string::npos);
}

TEST(Profiler, MergedThreadsListEveryPhaseUnderItsParent) {
  // Both threads open "merge.task", with different children. The second
  // thread's child is first seen after the first thread's later root
  // "merge.model", and must still be listed (and indented) under
  // "merge.task".
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  obs::Profiler::set_enabled(true);
  {
    PROF_SCOPE("merge.task");
    PROF_SCOPE("merge.sim");
  }
  { PROF_SCOPE("merge.model"); }
  std::thread([] {
    PROF_SCOPE("merge.task");
    PROF_SCOPE("merge.exact_pair");
  }).join();
  obs::Profiler::set_enabled(false);

  const obs::ProfileSnapshot snapshot = profiler.snapshot();
  std::vector<std::string> paths;
  for (const obs::ProfileNodeStats& node : snapshot.nodes()) {
    paths.push_back(node.path);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{
                       "merge.task", "merge.task/merge.sim",
                       "merge.task/merge.exact_pair", "merge.model"}));
  const obs::ProfileNodeStats* task = snapshot.find("merge.task");
  ASSERT_NE(task, nullptr);
  EXPECT_EQ(task->calls, 2);
  std::ostringstream out;
  snapshot.write_text_tree(out);
  const std::string text = out.str();
  const std::size_t exact = text.find("\n  merge.exact_pair");
  const std::size_t model = text.find("\nmerge.model");
  ASSERT_NE(exact, std::string::npos);
  ASSERT_NE(model, std::string::npos);
  EXPECT_LT(exact, model);
}

TEST(Profiler, ResetClearsNodesAndCapturedEvents) {
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  profiler.set_capture_events(true, 16);
  obs::Profiler::set_enabled(true);
  { PROF_SCOPE("reset.scope"); }
  obs::Profiler::set_enabled(false);
  EXPECT_FALSE(profiler.snapshot().empty());
  EXPECT_GT(profiler.captured_events(), 0);

  profiler.reset();
  EXPECT_TRUE(profiler.snapshot().empty());
  EXPECT_EQ(profiler.captured_events(), 0);
  profiler.set_capture_events(false);
}

TEST(Profiler, ChromeTraceCarriesScopeInvocations) {
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  profiler.set_capture_events(true, 64);
  obs::Profiler::set_enabled(true);
  {
    PROF_SCOPE("trace.phase");
    spin_ns(1000);
  }
  obs::Profiler::set_enabled(false);
  std::ostringstream out;
  profiler.write_chrome_trace(out);
  const std::string text = out.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("trace.phase"), std::string::npos);
  profiler.set_capture_events(false);
}

// --- structured log ----------------------------------------------------------

TEST(Log, LevelFilterDropsQuietRecords) {
  std::ostringstream sink;
  obs::Log log(obs::LogLevel::kWarn, &sink);
  EXPECT_FALSE(log.enabled(obs::LogLevel::kDebug));
  EXPECT_FALSE(log.enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(log.enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(log.enabled(obs::LogLevel::kError));

  { obs::LogEvent(log, obs::LogLevel::kInfo, "unit", "dropped").num("x", 1); }
  { obs::LogEvent(log, obs::LogLevel::kError, "unit", "kept").num("x", 2); }
  const std::string text = sink.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
  EXPECT_EQ(text.rfind("[error]", 0), 0u) << text;
  EXPECT_NE(text.find("unit: kept x=2"), std::string::npos) << text;
  EXPECT_EQ(text.find("dropped"), std::string::npos);
}

TEST(Log, FormatTextRendersFieldsAndSimTime) {
  obs::LogRecord record;
  record.level = obs::LogLevel::kInfo;
  record.component = "sim";
  record.message = "step done";
  record.add_number("n", 42.0);
  record.add_text("mode", "ca1");
  std::ostringstream out;
  obs::Log::format_text(out, record);
  const std::string text = out.str();
  EXPECT_NE(text.find("[info ]"), std::string::npos);
  EXPECT_NE(text.find("sim: step done"), std::string::npos);
  EXPECT_NE(text.find(" n=42"), std::string::npos);
  EXPECT_NE(text.find(" mode=ca1"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Log, FieldLimitsTruncateGracefully) {
  obs::LogRecord record;
  // One more than capacity: the extra field is dropped, not UB.
  for (int i = 0; i < obs::LogRecord::kMaxFields + 1; ++i) {
    record.add_number("k", static_cast<double>(i));
  }
  EXPECT_EQ(record.field_count, obs::LogRecord::kMaxFields);
  // Long string values truncate to the inline capacity.
  obs::LogRecord text_record;
  const std::string long_value(100, 'x');
  text_record.add_text("s", long_value);
  EXPECT_EQ(std::string(text_record.values[0].text).size(),
            obs::LogValue::kTextCapacity);
}

TEST(Log, ParseLogLevel) {
  using obs::LogLevel;
  using obs::parse_log_level;
  EXPECT_EQ(parse_log_level("trace", LogLevel::kInfo), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kWarn), LogLevel::kWarn);
}

// --- run report round-trip ---------------------------------------------------

// A deliberately minimal JSON reader, local to this test: just enough to
// check that a saved report parses back to the values that went in. The
// production-grade reader lives in tools/benchdiff and has its own tests.
class MiniJsonReader {
 public:
  explicit MiniJsonReader(std::string text) : text_(std::move(text)) {}

  /// Value of `"key": <number>` anywhere in the document.
  double number_after(const std::string& key) const {
    const std::size_t at = position_after(key);
    return std::stod(text_.substr(at));
  }

  /// Value of `"key": "<string>"` anywhere in the document.
  std::string string_after(const std::string& key) const {
    std::size_t at = position_after(key);
    EXPECT_EQ(text_[at], '"');
    ++at;
    const std::size_t end = text_.find('"', at);
    return text_.substr(at, end - at);
  }

  bool contains(const std::string& needle) const {
    return text_.find(needle) != std::string::npos;
  }

 private:
  std::size_t position_after(const std::string& key) const {
    const std::string quoted = "\"" + key + "\":";
    std::size_t at = text_.find(quoted);
    EXPECT_NE(at, std::string::npos) << "missing key: " << key;
    at += quoted.size();
    while (at < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at]))) {
      ++at;
    }
    return at;
  }

  std::string text_;
};

TEST(RunReport, SaveThenParseRoundTrips) {
  obs::RunReport report;
  report.name = "round-trip-unit";
  report.wall_seconds = 2.5;
  report.simulated_seconds = 10.0;
  report.events = 1234;
  report.scalars["throughput"] = 0.75;
  report.scalars["stations"] = 4.0;

  obs::Registry registry;
  registry.counter("events", {{"type", "idle"}}).add(7);
  report.metrics = registry.snapshot();

  const std::string path = "roundtrip_report.json";
  report.save(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  const MiniJsonReader json(buffer.str());
  EXPECT_EQ(json.string_after("schema"), "plc-run-report/1");
  EXPECT_EQ(json.string_after("name"), "round-trip-unit");
  EXPECT_DOUBLE_EQ(json.number_after("wall_seconds"), 2.5);
  EXPECT_DOUBLE_EQ(json.number_after("simulated_seconds"), 10.0);
  EXPECT_DOUBLE_EQ(json.number_after("events"), 1234.0);
  EXPECT_DOUBLE_EQ(json.number_after("events_per_second"), 1234.0 / 2.5);
  EXPECT_DOUBLE_EQ(json.number_after("throughput"), 0.75);
  EXPECT_DOUBLE_EQ(json.number_after("stations"), 4.0);
  // The metrics snapshot made it through with its labels and value.
  EXPECT_TRUE(json.contains("\"type\": \"idle\""));
  EXPECT_DOUBLE_EQ(json.number_after("value"), 7.0);
}

}  // namespace
}  // namespace plc
