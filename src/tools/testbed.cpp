#include "tools/testbed.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel_runner.hpp"
#include "store/result_store.hpp"
#include "tools/ampstat.hpp"
#include "util/error.hpp"

namespace plc::tools {

namespace {

/// How much simulated time a testbed runs between two hub updates.
constexpr des::SimTime kCheckpoint = des::SimTime::from_seconds(1.0);

}  // namespace

TestbedResult run_saturated_testbed(const TestbedConfig& config) {
  PROF_SCOPE("testbed.run");
  util::check_arg(config.stations >= 1, "stations", "must be >= 1");
  util::check_arg(config.duration > des::SimTime::zero(), "duration",
                  "must be positive");

  emu::Network network(config.seed, config.timing);
  std::vector<emu::HpavDevice*> stations;
  stations.reserve(static_cast<std::size_t>(config.stations));
  for (int i = 0; i < config.stations; ++i) {
    stations.push_back(&network.add_device(config.device));
  }
  emu::HpavDevice& destination = network.add_device(config.device);

  // Optional management chatter (MME-overhead methodology, §3.3).
  if (config.mme_interval > des::SimTime::zero()) {
    for (emu::HpavDevice* station : stations) {
      station->start_periodic_mme(config.mme_interval, destination.mac(),
                                  frames::Priority::kCa2,
                                  config.mme_payload_bytes);
    }
  }

  // One ampstat client per station, like one shell per testbed host.
  std::vector<std::unique_ptr<AmpStat>> ampstats;
  for (emu::HpavDevice* station : stations) {
    ampstats.push_back(std::make_unique<AmpStat>(*station));
  }
  std::unique_ptr<Faifa> faifa;
  if (config.sniff_at_destination) {
    faifa = std::make_unique<Faifa>(destination);
  }

  if (config.registry != nullptr) {
    network.bind_metrics(*config.registry);
  }
  if (config.trace != nullptr) {
    network.domain().set_trace_sink(config.trace);
  }
  // Runs `span` from now in checkpoints of kCheckpoint and hands each,
  // with the medium events it took, to the hub. Nothing is scheduled
  // between two checkpoints, so this simulates the same medium events as
  // one run_for(span); the first checkpoint always runs, so a zero span
  // still fires the events due now.
  des::Scheduler& scheduler = network.scheduler();
  const medium::ContentionDomain& domain = network.domain();
  const auto run_in_checkpoints = [&](des::SimTime span) {
    const des::SimTime end = scheduler.now() + span;
    do {
      const des::SimTime step = std::min(kCheckpoint, end - scheduler.now());
      const std::int64_t events = domain.medium_events();
      network.run_for(step);
      if (config.telemetry != nullptr) {
        config.telemetry->add_sim(step.seconds(),
                                  domain.medium_events() - events);
      }
    } while (scheduler.now() < end);
  };

  PLC_LOG_DEBUG("testbed", "starting saturated run")
      .num("stations", config.stations)
      .num("duration_s", config.duration.seconds())
      .num("warmup_s", config.warmup.seconds());
  // Saturating hosts, one per station, all towards D (§3).
  for (emu::HpavDevice* station : stations) {
    station->saturate(destination.mac());
  }
  network.start();
  run_in_checkpoints(config.warmup);

  // "We reset the statistics of the frames transmitted at all the
  // stations at the beginning of each test."
  for (std::size_t i = 0; i < ampstats.size(); ++i) {
    ampstats[i]->reset(destination.mac(), emu::kDataPriority);
    if (config.mme_interval > des::SimTime::zero()) {
      ampstats[i]->reset(destination.mac(), frames::Priority::kCa2);
    }
  }
  network.domain().reset_stats();
  if (faifa) {
    faifa->enable_sniffer();
    faifa->clear_captures();
  }

  run_in_checkpoints(config.duration);

  TestbedResult result;
  result.acknowledged.reserve(ampstats.size());
  result.collided.reserve(ampstats.size());
  for (std::size_t i = 0; i < ampstats.size(); ++i) {
    const mme::AmpStatConfirm confirm =
        ampstats[i]->query(destination.mac(), emu::kDataPriority);
    result.acknowledged.push_back(confirm.acknowledged);
    result.collided.push_back(confirm.collided);
    result.total_acknowledged += confirm.acknowledged;
    result.total_collided += confirm.collided;
  }
  result.collision_probability =
      result.total_acknowledged == 0
          ? 0.0
          : static_cast<double>(result.total_collided) /
                static_cast<double>(result.total_acknowledged);
  result.domain = network.domain().stats();
  result.frames_delivered_to_destination =
      destination.host_frames_delivered();
  if (faifa) {
    faifa->disable_sniffer();
    result.mme_overhead = faifa->mme_overhead();
    result.data_burst_sources = faifa->data_burst_sources();
    result.captures = faifa->captures();
  }
  return result;
}

namespace {

/// Version of what a testbed entry stores for given inputs; bumping it
/// makes every earlier testbed entry miss. Version 2 stored
/// des.events_dispatched and des.pending_high_water without source
/// polls; since version 3 the snapshot carries no des.* metric.
constexpr std::int64_t kTestbedPointVersion = 3;

}  // namespace

std::string testbed_point_json(const TestbedConfig& config) {
  char seed_hex[24];
  std::snprintf(seed_hex, sizeof(seed_hex), "0x%llx",
                static_cast<unsigned long long>(config.seed));
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.field("version", kTestbedPointVersion);
  json.field("stations", config.stations);
  json.field("warmup_ns", config.warmup.ns());
  json.field("duration_ns", config.duration.ns());
  json.field("seed", seed_hex);
  json.key("timing").begin_object();
  json.field("slot_ns", config.timing.slot.ns());
  json.field("success_overhead_ns", config.timing.success_overhead.ns());
  json.field("collision_overhead_ns", config.timing.collision_overhead.ns());
  json.field("burst_gap_ns", config.timing.burst_gap.ns());
  json.end_object();
  json.field("sniff", config.sniff_at_destination);
  json.field("mme_interval_ns", config.mme_interval.ns());
  json.field("mme_payload_bytes", config.mme_payload_bytes);
  json.end_object();
  return out.str();
}

namespace {

/// Serializes what a warm run needs from one testbed test: the counter
/// vectors, the paper's estimator, and the test's metric snapshot.
/// Sniffer artifacts (captures, burst sources) are not cached — the
/// scenario testbed leg never enables the sniffer.
std::string testbed_payload_json(const TestbedResult& run,
                                 const obs::Snapshot& metrics) {
  std::ostringstream out;
  obs::JsonWriter json(out);
  json.begin_object();
  json.key("acknowledged").begin_array();
  for (const std::uint64_t a : run.acknowledged) {
    json.value(static_cast<std::int64_t>(a));
  }
  json.end_array();
  json.key("collided").begin_array();
  for (const std::uint64_t c : run.collided) {
    json.value(static_cast<std::int64_t>(c));
  }
  json.end_array();
  json.field("total_acknowledged",
             static_cast<std::int64_t>(run.total_acknowledged));
  json.field("total_collided", static_cast<std::int64_t>(run.total_collided));
  json.field("collision_probability", run.collision_probability);
  json.field("frames_delivered", run.frames_delivered_to_destination);
  json.key("metrics");
  store::write_metrics_payload(json, metrics);
  json.end_object();
  return out.str();
}

/// Inverse of testbed_payload_json; false on a shape mismatch or an
/// invalid count (the caller then re-runs the test).
bool testbed_result_from_payload(const obs::JsonValue& payload,
                                 TestbedResult* run, obs::Snapshot* metrics) {
  try {
    const obs::JsonValue* acknowledged = payload.find("acknowledged");
    const obs::JsonValue* collided = payload.find("collided");
    const obs::JsonValue* total_acknowledged =
        payload.find("total_acknowledged");
    const obs::JsonValue* total_collided = payload.find("total_collided");
    const obs::JsonValue* collision = payload.find("collision_probability");
    const obs::JsonValue* delivered = payload.find("frames_delivered");
    const obs::JsonValue* metric_samples = payload.find("metrics");
    if (acknowledged == nullptr || !acknowledged->is_array() ||
        collided == nullptr || !collided->is_array() ||
        total_acknowledged == nullptr || total_collided == nullptr ||
        collision == nullptr || !collision->is_number() ||
        delivered == nullptr || metric_samples == nullptr) {
      return false;
    }
    TestbedResult decoded;
    for (const obs::JsonValue& item : acknowledged->items) {
      decoded.acknowledged.push_back(
          static_cast<std::uint64_t>(store::read_count(item)));
    }
    for (const obs::JsonValue& item : collided->items) {
      decoded.collided.push_back(
          static_cast<std::uint64_t>(store::read_count(item)));
    }
    decoded.total_acknowledged =
        static_cast<std::uint64_t>(store::read_count(*total_acknowledged));
    decoded.total_collided =
        static_cast<std::uint64_t>(store::read_count(*total_collided));
    decoded.collision_probability = collision->number;
    decoded.frames_delivered_to_destination = store::read_count(*delivered);
    *metrics = store::read_metrics_payload(*metric_samples);
    *run = std::move(decoded);
    return true;
  } catch (const Error&) {
    return false;
  }
}

}  // namespace

TestbedLeg::TestbedLeg(const std::vector<TestbedConfig>& configs,
                       int tests_per_point, const sim::RunObservability& obs,
                       std::vector<TestbedResult>* runs)
    : configs_(configs),
      tests_(static_cast<std::size_t>(tests_per_point)),
      obs_(obs),
      runs_(runs) {
  util::check_arg(tests_per_point >= 1 && configs.size() % tests_ == 0,
                  "tests_per_point",
                  "must be >= 1 and divide the config count");
  for (const TestbedConfig& config : configs) {
    util::check_arg(config.trace == nullptr, "configs",
                    "suite runs cannot share a trace sink");
  }
  util::check_arg(obs.store == nullptr ||
                      (obs.store_legs != nullptr &&
                       obs.store_legs->size() == configs.size() / tests_),
                  "store_legs",
                  "must carry one leg label per point when store is set");
  runs_->resize(configs.size());
}

std::pair<std::size_t, int> TestbedLeg::coordinates(std::size_t task) const {
  return {task / tests_, static_cast<int>(task % tests_)};
}

store::Key TestbedLeg::key(std::size_t task) const {
  return store::make_key((*obs_.store_legs)[task / tests_],
                         testbed_point_json(configs_[task]),
                         static_cast<std::int64_t>(task % tests_));
}

void TestbedLeg::run(std::size_t task, obs::Registry* metrics) {
  TestbedConfig config = configs_[task];
  config.registry = metrics;
  config.telemetry = obs_.telemetry;
  (*runs_)[task] = run_saturated_testbed(config);
}

std::string TestbedLeg::encode(std::size_t task,
                               const obs::Snapshot& metrics) const {
  return testbed_payload_json((*runs_)[task], metrics);
}

bool TestbedLeg::decode(std::size_t task, const obs::JsonValue& payload,
                        obs::Snapshot* metrics) {
  return testbed_result_from_payload(payload, &(*runs_)[task], metrics);
}

TestbedSuiteResult run_testbed_suite(sim::ParallelRunner& runner,
                                     const std::vector<TestbedConfig>& configs,
                                     int tests_per_point,
                                     const sim::RunObservability& obs) {
  PROF_SCOPE("testbed.suite");
  TestbedSuiteResult suite;
  TestbedLeg leg(configs, tests_per_point, obs, &suite.runs);
  runner.run_tasks({&leg}, obs);
  suite.serial_equivalent_seconds = runner.serial_equivalent_seconds();
  return suite;
}

TestbedSuiteResult run_testbed_suite(const std::vector<TestbedConfig>& configs,
                                     int jobs) {
  sim::RunObservability attach;
  if (!configs.empty()) attach.registry = configs.front().registry;
  for (const TestbedConfig& config : configs) {
    util::check_arg(config.registry == attach.registry, "configs",
                    "must share one registry (or none)");
  }
  sim::ParallelRunner runner(jobs);
  return run_testbed_suite(
      runner, configs, std::max<int>(1, static_cast<int>(configs.size())),
      attach);
}

}  // namespace plc::tools
