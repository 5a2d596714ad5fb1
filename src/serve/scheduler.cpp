#include "serve/scheduler.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "obs/log.hpp"
#include "obs/telemetry.hpp"
#include "scenario/run.hpp"
#include "store/result_store.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace plc::serve {

Scheduler::Scheduler(Options options)
    : options_(options), runner_(options.jobs) {
  util::check_arg(options_.max_queue >= 1, "max_queue", "must be >= 1");
  dispatch_ = std::thread([this] { dispatch_loop(); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (!running_id_.empty()) {
      records_.at(running_id_).cancel.store(true, std::memory_order_relaxed);
    }
  }
  wake_.notify_all();
  if (dispatch_.joinable()) dispatch_.join();
}

std::int64_t Scheduler::estimate_tasks(const scenario::Spec& spec) {
  std::int64_t tasks = 0;
  const auto variants = static_cast<std::int64_t>(spec.macs.size());
  const auto points = static_cast<std::int64_t>(spec.stations.size());
  if (spec.legs.sim) tasks += variants * points * spec.repetitions;
  if (spec.legs.testbed) tasks += points * spec.testbed_tests;
  // The exact-pair leg: one task per 1901-family variant at N = 2.
  if (spec.legs.exact_pair && std::find(spec.stations.begin(),
                                        spec.stations.end(),
                                        2) != spec.stations.end()) {
    for (const scenario::MacVariant& variant : spec.macs) {
      if (variant.mac.backoff_config() != nullptr) ++tasks;
    }
  }
  return tasks;
}

Scheduler::Admission Scheduler::submit(scenario::Spec spec) {
  // The coalescing key: canonical JSON (sorted members) of the spec,
  // hashed with the same function the store keys use. to_json() already
  // has a fixed field order, but sorting makes the hash independent of
  // that ordering contract.
  const std::string hash =
      util::hash128(store::canonical_json(spec.to_json())).to_hex();

  std::lock_guard<std::mutex> lock(mutex_);
  Admission admission;
  if (draining_ || stopping_) {
    ++rejected_;
    return admission;  // kRejected; the server answers 503 when draining.
  }
  if (const auto it = in_flight_.find(hash); it != in_flight_.end()) {
    ++coalesced_;
    admission.outcome = Outcome::kCoalesced;
    admission.id = it->second;
    return admission;
  }
  if (static_cast<std::int64_t>(queue_.size()) >= options_.max_queue) {
    ++rejected_;
    return admission;  // kRejected (HTTP 429).
  }

  const std::string id = "j" + std::to_string(++next_seq_);
  Record& record = records_[id];
  record.info.id = id;
  record.info.state = JobState::kQueued;
  record.info.spec_hash = hash;
  record.info.submitted_seq = next_seq_;
  record.info.tasks_total = estimate_tasks(spec);
  record.info.spec = std::move(spec);
  record.submit_seconds = stopwatch_.elapsed_seconds();
  queue_.push_back(id);
  in_flight_[hash] = id;
  refresh_gauges_locked();
  wake_.notify_one();
  admission.outcome = Outcome::kAccepted;
  admission.id = id;
  return admission;
}

void Scheduler::dispatch_loop() {
  while (true) {
    Record* record = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] {
        return stopping_ || draining_ || !queue_.empty();
      });
      // Drain leaves the queue untouched: those jobs are the
      // persistence payload, not work to finish.
      if (stopping_ || draining_) return;
      const std::string id = queue_.front();
      queue_.pop_front();
      record = &records_.at(id);
      record->info.state = JobState::kRunning;
      running_id_ = id;
      refresh_gauges_locked();
      if (options_.telemetry != nullptr) {
        const obs::TelemetryHub::Progress progress =
            options_.telemetry->progress();
        record->base_tasks_total = progress.tasks_total;
        record->base_tasks_completed = progress.tasks_completed;
      }
    }
    run_job(*record);
  }
}

void Scheduler::run_job(Record& record) {
  scenario::RunOptions options;
  options.jobs = options_.jobs;
  options.out = nullptr;
  options.store = options_.store;
  options.telemetry = options_.telemetry;
  options.runner = &runner_;
  options.cancel = &record.cancel;

  store::Counters before;
  if (options_.store != nullptr) before = options_.store->counters();

  obs::Stopwatch wall;
  std::string report_bytes;
  std::string error;
  try {
    const scenario::RunOutcome outcome =
        scenario::run_scenario(record.info.spec, options);
    std::ostringstream bytes;
    outcome.report.write_json(bytes);
    report_bytes = bytes.str();
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  running_id_.clear();
  record.info.wall_seconds += wall.elapsed_seconds();
  if (options_.store != nullptr) {
    const store::Counters after = options_.store->counters();
    record.info.store_hits += after.hits - before.hits;
    record.info.store_misses += after.misses - before.misses;
  }
  if (options_.telemetry != nullptr) {
    const obs::TelemetryHub::Progress progress =
        options_.telemetry->progress();
    record.info.tasks_completed =
        progress.tasks_completed - record.base_tasks_completed;
    const std::int64_t announced =
        progress.tasks_total - record.base_tasks_total;
    if (announced > record.info.tasks_total) {
      record.info.tasks_total = announced;
    }
  }

  if (error.empty()) {
    record.info.state = JobState::kDone;
    record.report_bytes = std::move(report_bytes);
    if (options_.telemetry == nullptr) {
      record.info.tasks_completed = record.info.tasks_total;
    }
    ++completed_;
    latency_.add(stopwatch_.elapsed_seconds() - record.submit_seconds);
    in_flight_.erase(record.info.spec_hash);
    refresh_gauges_locked();
    PLC_LOG_INFO("serve", "job done")
        .str("id", record.info.id)
        .num("wall_seconds", record.info.wall_seconds)
        .num("store_hits", static_cast<double>(record.info.store_hits));
    return;
  }

  if (draining_ && !record.user_cancelled) {
    // Drain interrupted the job mid-run: it goes back to the front of
    // the queue so the persistence payload (and a restarted server)
    // still owes it. Finished tasks are in the store already.
    record.cancel.store(false, std::memory_order_relaxed);
    record.info.state = JobState::kQueued;
    record.info.tasks_completed = 0;
    queue_.push_front(record.info.id);
    refresh_gauges_locked();
    PLC_LOG_INFO("serve", "job interrupted by drain")
        .str("id", record.info.id);
    return;
  }

  record.info.state =
      record.user_cancelled ? JobState::kCancelled : JobState::kFailed;
  if (record.info.state == JobState::kFailed) record.info.error = error;
  in_flight_.erase(record.info.spec_hash);
  refresh_gauges_locked();
  PLC_LOG_INFO("serve", "job finished without report")
      .str("id", record.info.id)
      .str("state", job_state_name(record.info.state))
      .str("detail", error);
}

JobInfo Scheduler::snapshot_locked(const Record& record) const {
  JobInfo info = record.info;
  if (info.state == JobState::kRunning && options_.telemetry != nullptr) {
    // Live task deltas against the hub baselines captured at job start
    // (jobs run one at a time, so the delta is all this job's).
    const obs::TelemetryHub::Progress progress =
        options_.telemetry->progress();
    info.tasks_completed =
        progress.tasks_completed - record.base_tasks_completed;
    const std::int64_t announced =
        progress.tasks_total - record.base_tasks_total;
    if (announced > info.tasks_total) info.tasks_total = announced;
  }
  return info;
}

std::optional<JobInfo> Scheduler::job(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return snapshot_locked(it->second);
}

std::vector<JobInfo> Scheduler::jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(snapshot_locked(record));
  // records_ is keyed by id ("j1" < "j10" < "j2" lexically); admission
  // order is the useful listing order.
  std::sort(out.begin(), out.end(), [](const JobInfo& a, const JobInfo& b) {
    return a.submitted_seq < b.submitted_seq;
  });
  return out;
}

Scheduler::CancelResult Scheduler::cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return CancelResult::kUnknown;
  Record& record = it->second;
  if (job_state_terminal(record.info.state)) return CancelResult::kTerminal;
  record.user_cancelled = true;
  if (record.info.state == JobState::kQueued) {
    for (auto queued = queue_.begin(); queued != queue_.end(); ++queued) {
      if (*queued == id) {
        queue_.erase(queued);
        break;
      }
    }
    record.info.state = JobState::kCancelled;
    in_flight_.erase(record.info.spec_hash);
    refresh_gauges_locked();
    return CancelResult::kAccepted;
  }
  // Running: raise the flag; tasks that have not started bail out and
  // the dispatch thread finalizes the state.
  record.cancel.store(true, std::memory_order_relaxed);
  return CancelResult::kAccepted;
}

std::optional<std::string> Scheduler::report(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.info.state != JobState::kDone) {
    return std::nullopt;
  }
  return it->second.report_bytes;
}

void Scheduler::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!draining_) {
      draining_ = true;
      if (!running_id_.empty()) {
        records_.at(running_id_).cancel.store(true,
                                              std::memory_order_relaxed);
      }
    }
  }
  wake_.notify_all();
  if (dispatch_.joinable()) dispatch_.join();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::vector<JobInfo> Scheduler::pending_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobInfo> out;
  out.reserve(queue_.size());
  for (const std::string& id : queue_) {
    out.push_back(records_.at(id).info);
  }
  return out;
}

// The gauge getters are deliberately lock-free (see the header note on
// the hub/scheduler lock-order cycle): they read the atomic mirrors
// that refresh_gauges_locked keeps in step with the locked state.
void Scheduler::refresh_gauges_locked() {
  gauge_queue_depth_.store(static_cast<std::int64_t>(queue_.size()),
                           std::memory_order_relaxed);
  gauge_active_jobs_.store(running_id_.empty() ? 0 : 1,
                           std::memory_order_relaxed);
  gauge_mean_latency_.store(latency_.count() > 0 ? latency_.mean() : 0.0,
                            std::memory_order_relaxed);
}

std::int64_t Scheduler::queue_depth() const {
  return gauge_queue_depth_.load(std::memory_order_relaxed);
}

std::int64_t Scheduler::active_jobs() const {
  return gauge_active_jobs_.load(std::memory_order_relaxed);
}

std::int64_t Scheduler::jobs_submitted() const {
  return next_seq_.load(std::memory_order_relaxed);
}

std::int64_t Scheduler::jobs_completed() const {
  return completed_.load(std::memory_order_relaxed);
}

std::int64_t Scheduler::jobs_coalesced() const {
  return coalesced_.load(std::memory_order_relaxed);
}

std::int64_t Scheduler::jobs_rejected() const {
  return rejected_.load(std::memory_order_relaxed);
}

double Scheduler::mean_latency_seconds() const {
  return gauge_mean_latency_.load(std::memory_order_relaxed);
}

}  // namespace plc::serve
