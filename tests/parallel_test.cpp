// The determinism contract of the parallel layer: the thread pool's
// barrier/exception semantics, counter-based seed derivation, and the
// headline guarantee — ParallelRunner and run_testbed_suite produce
// bit-identical results for any --jobs count, including against
// independent serial loops written out in the tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "des/random.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serial_reference.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace plc {
namespace {

// --- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedTaskBeforeWaitReturns) {
  util::ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, WaitRethrowsFirstTaskExceptionAndPoolStaysUsable) {
  util::ThreadPool pool(2);
  pool.submit([] { throw plc::Error("task failed"); });
  EXPECT_THROW(pool.wait(), plc::Error);
  // The error was cleared; the next batch runs normally.
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(done.load(), 1);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
    // No wait(): shutdown must still run every queued task.
  }
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPool, OnWorkerStartRunsOncePerWorker) {
  std::mutex mutex;
  std::set<int> seen;
  util::ThreadPool pool(3, [&](int worker) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(worker);
  });
  EXPECT_EQ(pool.size(), 3);
  // Workers check in asynchronously; poll until all three have (the hook
  // runs before the worker loop, so a bounded wait suffices).
  for (int i = 0; i < 5000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (seen.size() == 3) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(seen, (std::set<int>{0, 1, 2}));
}

TEST(ThreadPool, ResolveJobsDefaultsToHardwareAndPassesPositive) {
  EXPECT_EQ(util::ThreadPool::resolve_jobs(5), 5);
  EXPECT_GE(util::ThreadPool::resolve_jobs(0), 1);
  EXPECT_GE(util::ThreadPool::resolve_jobs(-3), 1);
}

// --- Seed derivation ----------------------------------------------------

TEST(TaskSeed, PinnedValues) {
  // Pinned: these are the streams every sweep ever run has used; changing
  // the derivation silently invalidates all recorded experiment numbers.
  EXPECT_EQ(des::derive_task_seed(0x1901, 0, 0), 0x40469cdd34a829caULL);
  EXPECT_EQ(des::derive_task_seed(0x1901, 3, 7), 0x1a51596afbf7474aULL);
  EXPECT_EQ(des::derive_task_seed(0xBEEF, 12, 345), 0xec484f99129af6c4ULL);
}

TEST(TaskSeed, NoCollisionsAcrossADenseGrid) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t root : {0x1901ULL, 0xBEEFULL, 0x0ULL}) {
    for (std::uint64_t point = 0; point < 64; ++point) {
      for (std::uint64_t rep = 0; rep < 64; ++rep) {
        seeds.insert(des::derive_task_seed(root, point, rep));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 64u * 64u);
}

TEST(TaskSeed, PointAndRepAreNotInterchangeable) {
  // (point, rep) must not alias (rep, point) — a transposed grid would
  // silently reuse streams.
  EXPECT_NE(des::derive_task_seed(0x1901, 2, 5),
            des::derive_task_seed(0x1901, 5, 2));
}

// --- ParallelRunner vs a serial reference loop --------------------------

sim::RunSpec small_spec(int stations, int repetitions) {
  sim::RunSpec spec;
  spec.stations = stations;
  spec.duration = des::SimTime::from_seconds(0.5);
  spec.repetitions = repetitions;
  spec.seed = 0xD37E;
  return spec;
}

void expect_identical(const sim::RunSummary& a, const sim::RunSummary& b) {
  EXPECT_EQ(a.medium_events, b.medium_events);
  EXPECT_EQ(a.simulated.ns(), b.simulated.ns());
  EXPECT_EQ(a.collision_probability.mean(), b.collision_probability.mean());
  EXPECT_EQ(a.collision_probability.stddev(),
            b.collision_probability.stddev());
  EXPECT_EQ(a.normalized_throughput.mean(), b.normalized_throughput.mean());
  EXPECT_EQ(a.normalized_throughput.stddev(),
            b.normalized_throughput.stddev());
  EXPECT_EQ(a.jain_index.mean(), b.jain_index.mean());
}

TEST(ParallelRunner, BitIdenticalToSerialRunPoint) {
  const sim::RunSpec spec = small_spec(3, 5);
  const sim::RunSummary serial = serial_reference(spec);
  for (const int jobs : {1, 2, 8}) {
    sim::ParallelRunner runner(jobs);
    expect_identical(runner.run_point(spec), serial);
  }
}

TEST(ParallelRunner, RunPointsMatchesSerialLoopPerSpec) {
  std::vector<sim::RunSpec> specs;
  for (const int n : {2, 3, 4}) specs.push_back(small_spec(n, 3));
  sim::ParallelRunner runner(4);
  const std::vector<sim::RunSummary> summaries = runner.run_points(specs);
  ASSERT_EQ(summaries.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(summaries[i], serial_reference(specs[i]));
  }
}

TEST(ParallelRunner, ReportsAreByteIdenticalAcrossJobsCounts) {
  const sim::RunSpec spec = small_spec(3, 4);
  std::vector<std::string> serialized;
  for (const int jobs : {1, 2, 8}) {
    sim::ParallelRunner runner(jobs);
    obs::RunReport report = runner.run_point_report(spec, "determinism");
    // Wall-clock fields are the only legitimate jobs-dependent content.
    report.wall_seconds = 0.0;
    std::ostringstream out;
    report.write_json(out);
    serialized.push_back(out.str());
  }
  EXPECT_EQ(serialized[0], serialized[1]);
  EXPECT_EQ(serialized[0], serialized[2]);
}

TEST(ParallelRunner, AbsorbedCountersMatchSerialRegistry) {
  const sim::RunSpec spec = small_spec(2, 3);

  obs::Registry serial_registry;
  serial_reference(spec, &serial_registry);

  obs::Registry parallel_registry;
  sim::RunObservability parallel_obs;
  parallel_obs.registry = &parallel_registry;
  sim::ParallelRunner runner(2);
  runner.run_point(spec, parallel_obs);

  const obs::Snapshot serial_snapshot = serial_registry.snapshot();
  const obs::Snapshot parallel_snapshot = parallel_registry.snapshot();
  ASSERT_EQ(serial_snapshot.samples().size(),
            parallel_snapshot.samples().size());
  for (std::size_t i = 0; i < serial_snapshot.samples().size(); ++i) {
    const obs::MetricSample& serial_sample = serial_snapshot.samples()[i];
    const obs::MetricSample& parallel_sample = parallel_snapshot.samples()[i];
    EXPECT_EQ(serial_sample.name, parallel_sample.name);
    if (serial_sample.kind == obs::MetricKind::kCounter) {
      EXPECT_EQ(serial_sample.value, parallel_sample.value)
          << serial_sample.name;
    }
  }
}

TEST(ParallelRunner, TraceSpliceMatchesSerialRepetitionZero) {
  const sim::RunSpec spec = small_spec(2, 2);

  obs::TraceSink serial_trace(1 << 12);
  serial_reference(spec, nullptr, &serial_trace);

  obs::TraceSink parallel_trace(1 << 12);
  sim::RunObservability parallel_obs;
  parallel_obs.trace = &parallel_trace;
  sim::ParallelRunner runner(2);
  runner.run_point(spec, parallel_obs);

  const std::vector<obs::TraceEvent> serial_events = serial_trace.events();
  const std::vector<obs::TraceEvent> parallel_events =
      parallel_trace.events();
  ASSERT_EQ(serial_events.size(), parallel_events.size());
  for (std::size_t i = 0; i < serial_events.size(); ++i) {
    EXPECT_EQ(serial_events[i].track, parallel_events[i].track);
    EXPECT_EQ(serial_events[i].start.ns(), parallel_events[i].start.ns());
    EXPECT_EQ(serial_events[i].duration.ns(),
              parallel_events[i].duration.ns());
  }
}

TEST(ParallelRunner, SeedGridPinsSeedsByPointIndex) {
  std::vector<sim::RunSpec> specs(3);
  const std::vector<sim::RunSpec> seeded =
      sim::ParallelRunner::seed_grid(specs, 0x1901);
  EXPECT_EQ(seeded[0].seed, des::derive_task_seed(0x1901, 0, 0));
  EXPECT_EQ(seeded[1].seed, des::derive_task_seed(0x1901, 1, 0));
  EXPECT_EQ(seeded[2].seed, des::derive_task_seed(0x1901, 2, 0));
}

TEST(ParallelRunner, SpeedupAccountingIsPopulated) {
  sim::ParallelRunner runner(2);
  runner.run_point(small_spec(2, 4));
  EXPECT_GT(runner.wall_seconds(), 0.0);
  EXPECT_GT(runner.serial_equivalent_seconds(), 0.0);
  EXPECT_GT(runner.speedup(), 0.0);
}

// --- run_tasks over several legs ----------------------------------------

/// A leg whose task results are a pure function of (tag, task). It counts
/// runs into the task registry and records the order of its merge.
class RecordingLeg final : public sim::TaskLeg {
 public:
  RecordingLeg(int tag, std::size_t size) : tag_(tag), results_(size, 0) {}

  std::size_t size() const override { return results_.size(); }
  std::pair<std::size_t, int> coordinates(std::size_t task) const override {
    return {task, 0};
  }
  store::Key key(std::size_t task) const override {
    return store::make_key("recording", std::to_string(tag_),
                           static_cast<std::int64_t>(task));
  }
  void run(std::size_t task, obs::Registry* metrics) override {
    if (task == throw_at) throw plc::Error("leg task failed");
    if (cancel_at_start != nullptr) cancel_at_start->store(true);
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    results_[task] = tag_ * 1000 + static_cast<int>(task);
    runs.fetch_add(1);
    if (metrics != nullptr) {
      metrics->counter("recording.runs", {{"leg", std::to_string(tag_)}})
          .add();
      metrics->gauge("recording.last").set(results_[task]);
    }
  }
  std::string encode(std::size_t task,
                     const obs::Snapshot& /*metrics*/) const override {
    return std::to_string(results_[task]);
  }
  bool decode(std::size_t /*task*/, const obs::JsonValue& /*payload*/,
              obs::Snapshot* /*metrics*/) override {
    return false;
  }
  void merge(std::size_t task) override {
    merged.push_back(task);
    merged_results.push_back(results_[task]);
  }

  std::size_t throw_at = static_cast<std::size_t>(-1);
  std::atomic<bool>* cancel_at_start = nullptr;
  int sleep_ms = 0;
  std::atomic<int> runs{0};
  std::vector<std::size_t> merged;
  std::vector<int> merged_results;

 private:
  int tag_;
  std::vector<int> results_;
};

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(RunTasksBatch, MergesEachLegInTaskOrder) {
  sim::ParallelRunner runner(4);
  RecordingLeg a(1, 5);
  RecordingLeg b(2, 7);
  obs::Registry registry;
  sim::RunObservability obs;
  obs.registry = &registry;
  runner.run_tasks({&a, &b}, obs);
  EXPECT_EQ(a.merged, iota(5));
  EXPECT_EQ(b.merged, iota(7));
  // Leg by leg: the last absorbed gauge value is leg b's last task.
  const obs::Snapshot snapshot = registry.snapshot();
  const obs::MetricSample* last = snapshot.find("recording.last");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->value, 2006.0);
  const obs::MetricSample* runs_a =
      snapshot.find("recording.runs", {{"leg", "1"}});
  const obs::MetricSample* runs_b =
      snapshot.find("recording.runs", {{"leg", "2"}});
  ASSERT_NE(runs_a, nullptr);
  ASSERT_NE(runs_b, nullptr);
  EXPECT_EQ(runs_a->value, 5.0);
  EXPECT_EQ(runs_b->value, 7.0);
}

TEST(RunTasksBatch, EqualsTwoOneLegBatchesAtAnyJobs) {
  std::vector<tools::TestbedConfig> configs;
  for (int test = 0; test < 2; ++test) {
    tools::TestbedConfig config;
    config.stations = 2;
    config.duration = des::SimTime::from_seconds(1.0);
    config.seed = des::derive_task_seed(0x1901, 0,
                                        static_cast<std::uint64_t>(test));
    configs.push_back(config);
  }
  struct Outcome {
    std::vector<tools::TestbedResult> runs;
    std::vector<int> recorded;
    obs::Snapshot metrics;
  };
  const auto run = [&configs](int jobs, bool one_batch) {
    sim::ParallelRunner runner(jobs);
    obs::Registry registry;
    sim::RunObservability obs;
    obs.registry = &registry;
    Outcome outcome;
    RecordingLeg recording(3, 4);
    tools::TestbedLeg testbed(configs, 1, obs, &outcome.runs);
    if (one_batch) {
      runner.run_tasks({&recording, &testbed}, obs);
    } else {
      runner.run_tasks({&recording}, obs);
      runner.run_tasks({&testbed}, obs);
    }
    outcome.recorded = recording.merged_results;
    outcome.metrics = registry.snapshot();
    return outcome;
  };
  const Outcome reference = run(1, false);
  ASSERT_EQ(reference.runs.size(), configs.size());
  for (const int jobs : {1, 4}) {
    const Outcome batched = run(jobs, true);
    EXPECT_EQ(batched.recorded, reference.recorded) << "jobs " << jobs;
    ASSERT_EQ(batched.runs.size(), reference.runs.size());
    for (std::size_t i = 0; i < reference.runs.size(); ++i) {
      EXPECT_EQ(batched.runs[i].acknowledged, reference.runs[i].acknowledged);
      EXPECT_EQ(batched.runs[i].collided, reference.runs[i].collided);
      EXPECT_EQ(batched.runs[i].collision_probability,
                reference.runs[i].collision_probability);
    }
    std::ostringstream batched_json;
    std::ostringstream reference_json;
    batched.metrics.write_json(batched_json);
    reference.metrics.write_json(reference_json);
    EXPECT_EQ(batched_json.str(), reference_json.str()) << "jobs " << jobs;
  }
}

TEST(RunTasksBatch, SumsSerialEquivalentSecondsOverBothLegs) {
  sim::ParallelRunner runner(2);
  RecordingLeg a(1, 3);
  RecordingLeg b(2, 3);
  a.sleep_ms = 10;
  b.sleep_ms = 10;
  runner.run_tasks({&a, &b}, sim::RunObservability{});
  // Six tasks of >= 10 ms each; either leg alone sums to >= 30 ms.
  EXPECT_GE(runner.serial_equivalent_seconds(), 0.06);
  EXPECT_GT(runner.wall_seconds(), 0.0);
}

TEST(RunTasksBatch, RethrowsATaskExceptionFromEitherLeg) {
  for (const int failing : {0, 1}) {
    sim::ParallelRunner runner(2);
    RecordingLeg a(1, 4);
    RecordingLeg b(2, 4);
    (failing == 0 ? a : b).throw_at = 2;
    EXPECT_THROW(runner.run_tasks({&a, &b}, sim::RunObservability{}),
                 plc::Error)
        << "failing leg " << failing;
    // No leg is merged after a failed barrier.
    EXPECT_TRUE(a.merged.empty());
    EXPECT_TRUE(b.merged.empty());
    // The runner stays usable.
    RecordingLeg c(3, 2);
    runner.run_tasks({&c}, sim::RunObservability{});
    EXPECT_EQ(c.merged, iota(2));
  }
}

TEST(RunTasksBatch, CancelStopsBothLegs) {
  // One worker runs the batch in order: the first task raises the flag,
  // and every later task, in either leg, bails out before running.
  sim::ParallelRunner runner(1);
  std::atomic<bool> cancel{false};
  RecordingLeg a(1, 3);
  RecordingLeg b(2, 3);
  a.cancel_at_start = &cancel;
  sim::RunObservability obs;
  obs.cancel = &cancel;
  try {
    runner.run_tasks({&a, &b}, obs);
    ADD_FAILURE() << "a cancelled batch must throw";
  } catch (const plc::Error& error) {
    EXPECT_NE(std::string(error.what()).find("sweep cancelled"),
              std::string::npos);
  }
  EXPECT_EQ(a.runs.load(), 1);
  EXPECT_EQ(b.runs.load(), 0);
  EXPECT_TRUE(a.merged.empty());
  EXPECT_TRUE(b.merged.empty());
}

// --- Testbed suite ------------------------------------------------------

TEST(TestbedSuite, BitIdenticalAcrossJobsAndToSerialRuns) {
  std::vector<tools::TestbedConfig> configs;
  for (int test = 0; test < 3; ++test) {
    tools::TestbedConfig config;
    config.stations = 2;
    config.duration = des::SimTime::from_seconds(2.0);
    config.seed = des::derive_task_seed(0x1901, 0,
                                        static_cast<std::uint64_t>(test));
    configs.push_back(config);
  }
  const tools::TestbedSuiteResult one = tools::run_testbed_suite(configs, 1);
  const tools::TestbedSuiteResult many =
      tools::run_testbed_suite(configs, 3);
  ASSERT_EQ(one.runs.size(), configs.size());
  ASSERT_EQ(many.runs.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const tools::TestbedResult serial =
        tools::run_saturated_testbed(configs[i]);
    for (const tools::TestbedSuiteResult* suite : {&one, &many}) {
      EXPECT_EQ(suite->runs[i].acknowledged, serial.acknowledged);
      EXPECT_EQ(suite->runs[i].collided, serial.collided);
      EXPECT_EQ(suite->runs[i].collision_probability,
                serial.collision_probability);
    }
  }
}

TEST(TestbedSuite, SharedRegistryCountersMatchSerialBinding) {
  auto make_configs = [](obs::Registry* registry) {
    std::vector<tools::TestbedConfig> configs;
    for (int test = 0; test < 2; ++test) {
      tools::TestbedConfig config;
      config.stations = 2;
      config.duration = des::SimTime::from_seconds(1.0);
      config.seed = 0x5EED + static_cast<std::uint64_t>(test);
      config.registry = registry;
      configs.push_back(config);
    }
    return configs;
  };

  obs::Registry serial_registry;
  for (tools::TestbedConfig& config : make_configs(&serial_registry)) {
    tools::run_saturated_testbed(config);
  }
  obs::Registry suite_registry;
  tools::run_testbed_suite(make_configs(&suite_registry), 2);

  const obs::Snapshot serial_snapshot = serial_registry.snapshot();
  const obs::Snapshot suite_snapshot = suite_registry.snapshot();
  ASSERT_EQ(serial_snapshot.samples().size(), suite_snapshot.samples().size());
  for (std::size_t i = 0; i < serial_snapshot.samples().size(); ++i) {
    if (serial_snapshot.samples()[i].kind == obs::MetricKind::kCounter) {
      EXPECT_EQ(serial_snapshot.samples()[i].value,
                suite_snapshot.samples()[i].value)
          << serial_snapshot.samples()[i].name;
    }
  }
}

TEST(TestbedSuite, RejectsSharedTraceSinks) {
  obs::TraceSink trace;
  tools::TestbedConfig config;
  config.stations = 2;
  config.duration = des::SimTime::from_seconds(1.0);
  config.trace = &trace;
  EXPECT_THROW(tools::run_testbed_suite({config}, 2), plc::Error);
}

}  // namespace
}  // namespace plc
