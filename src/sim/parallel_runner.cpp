#include "sim/parallel_runner.hpp"

#include <cstddef>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "des/random.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace plc::sim {
namespace {

/// The pool worker executing the current task (-1 on non-pool threads);
/// set once per worker by the on_worker_start hook, read by task spans.
thread_local int t_worker_index = -1;

/// The engine's record of one task: its metric snapshot until the
/// ordered absorb, plus scheduling observability (offsets on the run's
/// wall stopwatch) for telemetry and the opt-in task spans.
struct TaskStamp {
  obs::Snapshot metrics;
  double wall_seconds = 0.0;
  double submit_seconds = 0.0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  int worker = -1;
  int store_outcome = -1;  ///< -1 no store consulted, 0 miss, 1 hit.
};

std::vector<std::string> make_worker_names(int jobs) {
  const int count = util::ThreadPool::resolve_jobs(jobs);
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    names.push_back("worker " + std::to_string(i));
  }
  return names;
}

/// Detaches the pool.* probes when run_tasks returns, on any path. The
/// probes capture the runner, so they must never outlive the run:
/// callers are free to destroy the hub and the runner in either order
/// afterwards (the refreshed gauge values survive in the hub).
class ProbeGuard {
 public:
  explicit ProbeGuard(obs::TelemetryHub* hub) : hub_(hub) {}
  ~ProbeGuard() {
    if (hub_ == nullptr) return;
    hub_->remove_probe("pool.queue_depth");
    hub_->remove_probe("pool.in_flight");
    hub_->remove_probe("pool.workers");
  }
  ProbeGuard(const ProbeGuard&) = delete;
  ProbeGuard& operator=(const ProbeGuard&) = delete;

 private:
  obs::TelemetryHub* hub_;
};

/// The sim leg: one task per (point × repetition), point-major.
class SimLeg final : public TaskLeg {
 public:
  SimLeg(const std::vector<RunSpec>& specs, const RunObservability& obs)
      : specs_(specs), obs_(obs), summaries_(specs.size()) {
    for (std::size_t p = 0; p < specs.size(); ++p) {
      util::check_arg(specs[p].repetitions >= 1, "repetitions",
                      "must be >= 1");
      for (int rep = 0; rep < specs[p].repetitions; ++rep) {
        tasks_.emplace_back(p, rep);
      }
    }
    slots_.resize(tasks_.size());
    // Cache key coordinates, derived once per point (tasks share them
    // read-only). The digest is over canonical bytes, never over
    // anything schedule- or jobs-dependent, so warm hits line up for any
    // --jobs.
    if (obs.store != nullptr) {
      util::check_arg(
          obs.store_legs != nullptr && obs.store_legs->size() == specs.size(),
          "store_legs", "must carry one leg label per spec when store is set");
      point_json_.reserve(specs.size());
      for (const RunSpec& spec : specs) {
        point_json_.push_back(canonical_point_json(spec));
      }
    }
  }

  std::size_t size() const override { return tasks_.size(); }

  std::pair<std::size_t, int> coordinates(std::size_t task) const override {
    return tasks_[task];
  }

  store::Key key(std::size_t task) const override {
    const auto [p, rep] = tasks_[task];
    return store::make_key((*obs_.store_legs)[p], point_json_[p], rep);
  }

  // The trace (rep 0 with a sink attached) and the observatory reduction
  // are not in the payload — caching them would change the payload
  // schema for every cached run — so those tasks always run.
  bool must_run_live(std::size_t task) const override {
    return (obs_.trace != nullptr && tasks_[task].second == 0) ||
           obs_.observatory != nullptr;
  }

  void run(std::size_t task, obs::Registry* metrics) override;
  std::string encode(std::size_t task,
                     const obs::Snapshot& metrics) const override;
  bool decode(std::size_t task, const obs::JsonValue& payload,
              obs::Snapshot* metrics) override;
  void merge(std::size_t task) override;

  std::vector<RunSummary> take_summaries() { return std::move(summaries_); }

 private:
  /// Everything one task produces besides its metrics.
  struct Slot {
    double collision_probability = 0.0;
    double normalized_throughput = 0.0;
    double jain_index = 0.0;
    std::int64_t medium_events = 0;
    des::SimTime elapsed = des::SimTime::zero();
    /// Repetition 0's medium trace (trace-attached runs only).
    std::unique_ptr<obs::TraceSink> trace;
    /// This repetition's observatory reduction (engaged runs only).
    std::optional<obs::ObservatorySummary> stations;
  };

  const std::vector<RunSpec>& specs_;
  const RunObservability& obs_;
  std::vector<std::pair<std::size_t, int>> tasks_;
  std::vector<std::string> point_json_;
  std::vector<Slot> slots_;
  std::vector<RunSummary> summaries_;

  /// The one observer sequence for both kernel types: attaches this
  /// task's metrics, trace and observatory to `kernel`, runs it, and
  /// reduces the observatory into the task's slot.
  template <class Kernel>
  SlotSimResults observe_and_run(Kernel kernel, std::size_t task,
                                 obs::Registry* metrics) {
    const auto [p, rep] = tasks_[task];
    Slot& slot = slots_[task];

    // Per-task observatory: the merge folds the per-repetition summaries
    // in repetition order.
    std::optional<obs::Observatory> observatory;
    obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
    const bool recorded = recorder.armed() && rep == 0;
    if (obs_.observatory != nullptr) {
      obs::ObservatoryOptions options = *obs_.observatory;
      // The merge keeps repetition 0's trajectory only (the trace
      // convention); skip capturing the others' entirely.
      if (rep > 0) options.trajectory_capacity = 0;
      observatory.emplace(kernel.station_count(), kernel.max_stage_count(),
                          options);
      kernel.attach_observatory(&*observatory);
      // Crash dumps carry this repetition's FSM tail while it runs.
      if (recorded) recorder.attach_observatory(&*observatory);
    }
    if (metrics != nullptr) kernel.bind_metrics(*metrics);
    if (obs_.trace != nullptr && rep == 0) {
      slot.trace = std::make_unique<obs::TraceSink>(obs_.trace->capacity());
      kernel.set_trace(slot.trace.get(), obs_.trace_counter_samples);
    }

    const SlotSimResults results = kernel.run(specs_[p].duration);
    if (observatory) {
      kernel.flush_observatory();
      slot.stations = observatory->summarize();
      if (recorded) recorder.attach_observatory(nullptr);
    }
    return results;
  }
};

void SimLeg::run(std::size_t task, obs::Registry* metrics) {
  PROF_SCOPE("sim.repetition");
  const auto [p, rep] = tasks_[task];
  const RunSpec& spec = specs_[p];
  Slot& slot = slots_[task];

  // Exactly the kernel the spec names, observed or not.
  const SlotSimResults results =
      spec.kernel == Kernel::kSlot
          ? observe_and_run(make_simulator(spec, rep), task, metrics)
          : observe_and_run(make_event_kernel(spec, rep), task, metrics);
  slot.medium_events =
      results.idle_slots + results.successes + results.collision_events;
  slot.elapsed = results.elapsed;
  slot.collision_probability = results.collision_probability();
  slot.normalized_throughput = results.normalized_throughput(spec.frame_length);
  std::vector<double> shares;
  shares.reserve(results.tx_success.size());
  for (const std::int64_t s : results.tx_success) {
    shares.push_back(static_cast<double>(s));
  }
  slot.jain_index = util::jain_index(shares);
  // Live views only (arrival order): never feed reports. Observatory
  // tasks always run live, so every summary reaches the hub.
  if (obs_.telemetry != nullptr) {
    if (slot.stations) {
      obs_.telemetry->publish_stations("point-" + std::to_string(p),
                                       *slot.stations);
    }
    obs_.telemetry->add_sim(slot.elapsed.seconds(), slot.medium_events);
  }
}

/// Serializes everything a warm run needs to refill a slot
/// bit-identically: the summary statistics, event/time accounting, and
/// the task's metric snapshot with raw-moment fidelity. The trace is
/// deliberately absent — trace-attached tasks run live.
std::string SimLeg::encode(std::size_t task,
                           const obs::Snapshot& metrics) const {
  const Slot& slot = slots_[task];
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.field("collision_probability", slot.collision_probability);
  json.field("normalized_throughput", slot.normalized_throughput);
  json.field("jain_index", slot.jain_index);
  json.field("medium_events", slot.medium_events);
  json.field("elapsed_ns", slot.elapsed.ns());
  json.key("metrics");
  store::write_metrics_payload(json, metrics);
  json.end_object();
  return out.str();
}

/// False when the payload does not have the expected shape or carries an
/// invalid count (the entry already passed the store's checksum, so a
/// shape mismatch means a schema change that should have bumped
/// kResultEpoch, or a hand-made entry).
bool SimLeg::decode(std::size_t task, const obs::JsonValue& payload,
                    obs::Snapshot* metrics) {
  try {
    const obs::JsonValue* collision = payload.find("collision_probability");
    const obs::JsonValue* throughput = payload.find("normalized_throughput");
    const obs::JsonValue* jain = payload.find("jain_index");
    const obs::JsonValue* events = payload.find("medium_events");
    const obs::JsonValue* elapsed = payload.find("elapsed_ns");
    const obs::JsonValue* metric_samples = payload.find("metrics");
    if (collision == nullptr || !collision->is_number() ||
        throughput == nullptr || !throughput->is_number() ||
        jain == nullptr || !jain->is_number() || events == nullptr ||
        elapsed == nullptr || metric_samples == nullptr) {
      return false;
    }
    Slot decoded;
    decoded.collision_probability = collision->number;
    decoded.normalized_throughput = throughput->number;
    decoded.jain_index = jain->number;
    decoded.medium_events = store::read_count(*events);
    decoded.elapsed = des::SimTime::from_ns(store::read_count(*elapsed));
    *metrics = store::read_metrics_payload(*metric_samples);
    slots_[task] = std::move(decoded);
    return true;
  } catch (const Error&) {
    return false;
  }
}

// Exactly the arithmetic a serial loop would perform: ordered
// RunningStats::add calls per repetition, never batch merges (those
// differ in the last float bits).
void SimLeg::merge(std::size_t task) {
  const auto [p, rep] = tasks_[task];
  Slot& slot = slots_[task];
  RunSummary& summary = summaries_[p];
  summary.medium_events += slot.medium_events;
  summary.simulated = summary.simulated + slot.elapsed;
  summary.collision_probability.add(slot.collision_probability);
  summary.normalized_throughput.add(slot.normalized_throughput);
  summary.jain_index.add(slot.jain_index);
  if (slot.stations) {
    if (!summary.stations) summary.stations.emplace();
    summary.stations->merge(std::move(*slot.stations));
  }
  if (slot.trace != nullptr) {
    obs_.trace->splice(*slot.trace);
    slot.trace.reset();
  }
}

}  // namespace

ParallelRunner::ParallelRunner(int jobs)
    : worker_names_(make_worker_names(jobs)),
      pool_(static_cast<int>(worker_names_.size()), [this](int worker) {
        t_worker_index = worker;
        obs::Profiler::instance().set_thread_name(
            worker_names_[static_cast<std::size_t>(worker)].c_str());
      }) {}

void ParallelRunner::run_tasks(const std::vector<TaskLeg*>& legs,
                               const RunObservability& obs) {
  PROF_SCOPE("sim.parallel.run_tasks");
  obs::Stopwatch wall;
  // The batch: every leg's (leg, task) pairs, leg-major in task order.
  std::vector<std::pair<TaskLeg*, std::size_t>> batch;
  for (TaskLeg* leg : legs) {
    for (std::size_t task = 0; task < leg->size(); ++task) {
      batch.emplace_back(leg, task);
    }
  }
  const std::size_t total = batch.size();
  std::vector<TaskStamp> stamps(total);

  ProbeGuard probe_guard(obs.telemetry);
  if (obs.telemetry != nullptr) {
    obs.telemetry->begin_tasks(static_cast<std::int64_t>(total));
    // Scheduling-backpressure gauges (plc_pool_*), sampled straight from
    // the pool at scrape time. add_probe replaces same-named probes, so
    // repeated runs against one hub never accumulate duplicates; the
    // guard detaches them before either the pool or the hub dies.
    obs.telemetry->add_probe("pool.queue_depth", [this] {
      return static_cast<double>(pool_.queue_depth());
    });
    obs.telemetry->add_probe("pool.in_flight", [this] {
      return static_cast<double>(pool_.in_flight());
    });
    obs.telemetry->add_probe(
        "pool.workers", [this] { return static_cast<double>(pool_.size()); });
  }

  for (std::size_t index = 0; index < total; ++index) {
    TaskStamp* stamp = &stamps[index];
    stamp->submit_seconds = wall.elapsed_seconds();
    TaskLeg* leg = batch[index].first;
    const std::size_t task = batch[index].second;
    pool_.submit([leg, &obs, &wall, task, stamp] {
      PROF_SCOPE("sim.parallel.task");
      // Cooperative cancel: tasks that have not started yet bail out
      // before touching the store or the hub; the barrier rethrows.
      if (obs.cancel != nullptr &&
          obs.cancel->load(std::memory_order_relaxed)) {
        throw Error("sweep cancelled");
      }
      obs::Stopwatch task_wall;
      stamp->start_seconds = wall.elapsed_seconds();
      stamp->worker = t_worker_index;
      if (obs.telemetry != nullptr) obs.telemetry->task_started();

      // Store lookup happens inside the task, so warm-run file I/O is as
      // parallel as the cold-run work it replaces.
      std::optional<store::Key> key;
      bool store_hit = false;
      if (obs.store != nullptr) {
        key = leg->key(task);
        if (!leg->must_run_live(task)) {
          if (const auto payload = obs.store->lookup(*key)) {
            store_hit = leg->decode(task, *payload, &stamp->metrics);
          }
        }
      }
      if (!store_hit) {
        // Per-task registry: the hot path never crosses threads, and the
        // ordered absorb below lands everything into the caller's sinks.
        obs::Registry registry;
        const bool want_metrics = obs.registry != nullptr ||
                                  obs.telemetry != nullptr || key.has_value();
        leg->run(task, want_metrics ? &registry : nullptr);
        if (want_metrics) stamp->metrics = registry.snapshot();
        if (key.has_value()) {
          obs.store->publish(*key, leg->encode(task, stamp->metrics));
        }
      }

      stamp->end_seconds = wall.elapsed_seconds();
      stamp->wall_seconds = task_wall.elapsed_seconds();
      if (key.has_value()) stamp->store_outcome = store_hit ? 1 : 0;
      if (obs.telemetry != nullptr) {
        obs::TelemetryHub::TaskEnd end;
        end.used_store = key.has_value();
        end.store_hit = store_hit;
        end.queue_wait_seconds = stamp->start_seconds - stamp->submit_seconds;
        end.task_seconds = stamp->end_seconds - stamp->start_seconds;
        obs.telemetry->task_finished(end);
        obs.telemetry->absorb(stamp->metrics);
      }
    });
  }
  pool_.wait();

  double serial_equivalent = 0.0;
  for (std::size_t index = 0; index < total; ++index) {
    const auto [leg, task] = batch[index];
    if (obs.registry != nullptr) obs.registry->absorb(stamps[index].metrics);
    leg->merge(task);
    serial_equivalent += stamps[index].wall_seconds;
  }

  // Opt-in scheduler spans: one "task" span per task in task order
  // (deterministic ordering; the timestamps are wall-clock and therefore
  // run-specific, which is why this never runs by default).
  if (obs.trace != nullptr && obs.task_spans) {
    for (std::size_t index = 0; index < total; ++index) {
      const TaskStamp& stamp = stamps[index];
      const auto [point, rep] = batch[index].first->coordinates(
          batch[index].second);
      obs::TraceEvent event;
      event.phase = obs::TracePhase::kSpan;
      event.track = obs::worker_track(stamp.worker < 0 ? 0 : stamp.worker);
      event.name = "task";
      event.category = "sched";
      event.start = des::SimTime::from_ns(
          static_cast<std::int64_t>(stamp.start_seconds * 1e9));
      event.duration = des::SimTime::from_ns(static_cast<std::int64_t>(
          (stamp.end_seconds - stamp.start_seconds) * 1e9));
      event.add_arg("point", static_cast<double>(point));
      event.add_arg("rep", static_cast<double>(rep));
      event.add_arg("store_hit", static_cast<double>(stamp.store_outcome));
      event.add_arg("queue_wait_us",
                    (stamp.start_seconds - stamp.submit_seconds) * 1e6);
      obs.trace->record(event);
    }
  }

#if defined(__GLIBC__)
  // Each worker allocates from its own malloc arena, which keeps freed
  // pages resident. Hand them back, so the caller's next batch does not
  // stack its peak on top of this one's leftovers (a scenario's sim
  // batch under its testbed and exact-pair batch).
  malloc_trim(0);
#endif
  wall_seconds_ = wall.elapsed_seconds();
  serial_equivalent_seconds_ = serial_equivalent;
}

RunSummary ParallelRunner::run_point(const RunSpec& spec,
                                     const RunObservability& obs) {
  PROF_SCOPE("sim.run_point");
  const std::vector<RunSpec> specs{spec};
  RunSummary summary = run_points(specs, obs)[0];
  if (obs.stations_sink != nullptr && summary.stations) {
    *obs.stations_sink = *summary.stations;
  }
  return summary;
}

std::vector<RunSummary> ParallelRunner::run_points(
    const std::vector<RunSpec>& specs, const RunObservability& obs) {
  PROF_SCOPE("sim.parallel.run_points");
  SimLeg leg(specs, obs);
  run_tasks({&leg}, obs);
  return leg.take_summaries();
}

obs::RunReport ParallelRunner::run_point_report(const RunSpec& spec,
                                                std::string name,
                                                const RunObservability& obs) {
  obs::Registry local_registry;
  RunObservability effective = obs;
  if (effective.registry == nullptr) effective.registry = &local_registry;

  obs::Stopwatch stopwatch;
  const RunSummary summary = run_point(spec, effective);

  obs::RunReport report;
  report.name = std::move(name);
  report.wall_seconds = stopwatch.elapsed_seconds();
  report.simulated_seconds = summary.simulated.seconds();
  report.events = summary.medium_events;
  report.scalars["stations"] = static_cast<double>(spec.stations);
  report.scalars["repetitions"] = static_cast<double>(spec.repetitions);
  report.scalars["collision_probability_mean"] =
      summary.collision_probability.mean();
  report.scalars["collision_probability_stddev"] =
      summary.collision_probability.stddev();
  report.scalars["normalized_throughput_mean"] =
      summary.normalized_throughput.mean();
  report.scalars["normalized_throughput_stddev"] =
      summary.normalized_throughput.stddev();
  report.scalars["jain_index_mean"] = summary.jain_index.mean();
  if (summary.stations) {
    report.scalars["window_jain_mean"] = summary.stations->window_jain.mean();
    report.stations = obs::stations_section_json(
        {{"n" + std::to_string(spec.stations), &*summary.stations}});
  }
  report.metrics = effective.registry->snapshot();
  if (obs::Profiler::enabled()) {
    report.profile = obs::Profiler::instance().snapshot();
  }
  PLC_LOG_DEBUG("sim", "run_point complete")
      .num("stations", spec.stations)
      .num("repetitions", spec.repetitions)
      .num("jobs", jobs())
      .num("medium_events", static_cast<double>(summary.medium_events))
      .num("wall_seconds", report.wall_seconds);
  return report;
}

std::vector<RunSpec> ParallelRunner::seed_grid(std::vector<RunSpec> specs,
                                               std::uint64_t root_seed) {
  for (std::size_t p = 0; p < specs.size(); ++p) {
    specs[p].seed = des::derive_task_seed(root_seed, p, 0);
  }
  return specs;
}

double ParallelRunner::speedup() const {
  if (wall_seconds_ <= 0.0 || serial_equivalent_seconds_ <= 0.0) return 1.0;
  return serial_equivalent_seconds_ / wall_seconds_;
}

}  // namespace plc::sim
