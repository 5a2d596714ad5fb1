// The task engine: the one place that owns a worker pool and runs tasks.
//
// Every leg of an experiment is embarrassingly parallel: each sim
// (point × repetition) pair and each testbed test is an independent
// run. ParallelRunner shards a leg's tasks across a fixed worker pool
// and rejoins at a barrier, with three hard guarantees:
//
//   1. **Bit-identical results for any jobs count, including 1.** Seeds
//      are a pure function of the task's coordinates (for sim, spec seed
//      and repetition index), never of thread identity or schedule
//      order; every task writes into its own pre-allocated slot; and the
//      merge walks slots in task-index order, performing exactly the
//      arithmetic a serial loop would (ordered RunningStats::add calls,
//      not batch merges). Any jobs count therefore produces the same
//      bytes as ParallelRunner(1).
//   2. **Allocation-free observability on the hot path.** Each task gets
//      its own metrics registry (and, for repetition 0 of a sim point,
//      its own trace ring); the runner absorbs the snapshots into the
//      caller's registry and splices the trace rings into the caller's
//      sink at the barrier, in task-index order. Workers name their
//      profiler tracks ("worker N"), so PLC_PROFILE + the Chrome trace
//      export shows per-worker flame charts.
//   3. **Serial-equivalent accounting.** The runner sums each task's wall
//      time; serial_equivalent_seconds() / wall_seconds() is the honest
//      speedup of the last run, which the heavy benches record in their
//      BENCH_*.json.
//
// run_tasks is the leg-agnostic loop behind every leg: run_points (sim
// repetitions), tools::run_testbed_suite (testbed tests) and
// scenario::run_scenario's exact N = 2 chain each hand it a TaskLeg.
// One call may take several legs as one batch: their tasks share one
// pool pass and one barrier, and each leg is then merged on its own, in
// task order, one leg after another.
//
// For dense N×CW×DC grids, seed the points with
// des::derive_task_seed(root, point, rep) (see seed_grid) so adding or
// reordering points never perturbs the streams of the others.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "sim/runner.hpp"
#include "store/result_store.hpp"
#include "util/thread_pool.hpp"

namespace plc::sim {

/// One leg's tasks as ParallelRunner::run_tasks sees them. The engine
/// owns what every leg shares: the cancel check, scheduling stamps, the
/// telemetry task lifecycle, store lookup and publish inside the task, a
/// private metrics registry per task, the ordered absorb, the
/// serial-equivalent sum and the task spans. A leg supplies only what
/// differs: how to key, run, encode and decode one task, and how to fold
/// it into the leg's result. Tasks write only their own slot in the leg.
class TaskLeg {
 public:
  TaskLeg() = default;
  // The engine's workers hold the leg's address while it runs.
  TaskLeg(const TaskLeg&) = delete;
  TaskLeg& operator=(const TaskLeg&) = delete;
  virtual ~TaskLeg() = default;

  /// Number of tasks, indexed 0..size()-1 in merge order.
  virtual std::size_t size() const = 0;
  /// The task's (point, rep) coordinates: the args of its task span.
  virtual std::pair<std::size_t, int> coordinates(std::size_t task) const = 0;
  /// The task's store key; asked only when a store is attached.
  virtual store::Key key(std::size_t task) const = 0;
  /// True when the task must run even if the store holds its entry,
  /// because it produces output the payload does not carry. It still
  /// publishes.
  virtual bool must_run_live(std::size_t /*task*/) const { return false; }
  /// Runs the task into its slot. `metrics` is the task's private
  /// registry, or nullptr when nothing reads the task's metrics.
  virtual void run(std::size_t task, obs::Registry* metrics) = 0;
  /// The store payload of a finished task with metric snapshot `metrics`.
  virtual std::string encode(std::size_t task,
                             const obs::Snapshot& metrics) const = 0;
  /// Inverse of encode: refills the task's slot and `metrics`. False when
  /// the payload does not decode; the engine then runs the task and
  /// re-publishes.
  virtual bool decode(std::size_t task, const obs::JsonValue& payload,
                      obs::Snapshot* metrics) = 0;
  /// Folds the task into the leg's result after the barrier, in task
  /// order.
  virtual void merge(std::size_t /*task*/) {}
};

class ParallelRunner {
 public:
  /// Starts the worker pool; jobs <= 0 means one worker per hardware
  /// thread.
  explicit ParallelRunner(int jobs = 0);

  int jobs() const { return pool_.size(); }

  /// Runs one sweep point: its repetitions are sharded across the pool.
  /// Bit-identical for any jobs count (see the file comment for why).
  RunSummary run_point(const RunSpec& spec,
                       const RunObservability& obs = {});

  /// Runs a whole sweep: every (point × repetition) task is sharded
  /// independently, summaries come back indexed like `specs`. The trace
  /// sink (when attached) receives repetition 0 of every point, spliced
  /// in point order.
  std::vector<RunSummary> run_points(const std::vector<RunSpec>& specs,
                                     const RunObservability& obs = {});

  /// run_point packaged as a RunReport: wall time, simulated-vs-wall
  /// speed, event counts, the summary statistics as scalars, and a metric
  /// snapshot (from `obs.registry` when supplied, otherwise from an
  /// internal registry). It carries no jobs-dependent scalars, so
  /// reports from different --jobs values are byte-identical once the
  /// wall-clock fields are zeroed.
  obs::RunReport run_point_report(const RunSpec& spec, std::string name,
                                  const RunObservability& obs = {});

  /// The engine loop: runs every task of `legs` as one batch across the
  /// pool, submitted leg by leg in task order, and returns after the
  /// barrier and, leg by leg, the ordered absorb and merge. Of `obs` it
  /// reads registry, store, telemetry, cancel, and trace with task_spans;
  /// each leg reads the rest. Rethrows the first task exception,
  /// including plc::Error("sweep cancelled"); no leg is merged then.
  void run_tasks(const std::vector<TaskLeg*>& legs,
                 const RunObservability& obs);

  /// Copies `specs`, overwriting each spec's seed with
  /// des::derive_task_seed(root_seed, point_index, 0) — the documented
  /// scheme for seeding dense grids from one root.
  static std::vector<RunSpec> seed_grid(std::vector<RunSpec> specs,
                                        std::uint64_t root_seed);

  /// Wall-clock seconds of the last run_tasks call (run_point[s] make
  /// one).
  double wall_seconds() const { return wall_seconds_; }
  /// Sum of the per-task wall times of the last run_tasks call, over all
  /// its legs — what a serial loop would have spent on the same work.
  double serial_equivalent_seconds() const {
    return serial_equivalent_seconds_;
  }
  /// serial_equivalent_seconds / wall_seconds of the last call (1.0 when
  /// idle); the scalar the heavy benches record.
  double speedup() const;

 private:
  std::vector<std::string> worker_names_;  ///< "worker 0".."worker N-1".
  util::ThreadPool pool_;
  double wall_seconds_ = 0.0;
  double serial_equivalent_seconds_ = 0.0;
};

}  // namespace plc::sim
