// The IEEE 1901 CSMA/CA device def: Table 1 stage schedules (CW/DC
// vectors) on the deferral-counter FSM, with the decoupled fixed-point
// model as its analysis solver.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/model_1901.hpp"
#include "macdef/registry.hpp"
#include "macdef/spec_json.hpp"

namespace plc::mac {

namespace {

using specjson::check_keys;
using specjson::fail;
using specjson::int_array;
using specjson::require_member;
using specjson::string_field;

const BackoffConfig& as_1901(const void* config) {
  return *static_cast<const BackoffConfig*>(config);
}

std::shared_ptr<const void> default_1901() {
  return std::make_shared<const BackoffConfig>(BackoffConfig::ca0_ca1());
}

std::shared_ptr<const void> parse_1901(const obs::JsonValue& value,
                                       const std::string& where,
                                       const std::string& label) {
  check_keys(value, where, {"label", "type", "name", "preset", "cw", "dc"});
  BackoffConfig config;
  if (const obs::JsonValue* preset = value.find("preset")) {
    if (value.find("cw") != nullptr || value.find("dc") != nullptr) {
      fail(where + ": \"preset\" excludes explicit \"cw\"/\"dc\"");
    }
    const std::string name = string_field(*preset, where + ".preset");
    if (name == "ca0_ca1") {
      config = BackoffConfig::ca0_ca1();
    } else if (name == "ca2_ca3") {
      config = BackoffConfig::ca2_ca3();
    } else {
      fail(where + ": unknown 1901 preset \"" + name + "\"");
    }
  } else {
    config.cw = int_array(require_member(value, where, "cw"), where + ".cw");
    config.dc = int_array(require_member(value, where, "dc"), where + ".dc");
    config.name = label;
  }
  if (const obs::JsonValue* name = value.find("name")) {
    config.name = string_field(*name, where + ".name");
  }
  return std::make_shared<const BackoffConfig>(std::move(config));
}

void validate_1901(const void* config) { as_1901(config).validate(); }

void write_spec_1901(obs::JsonWriter& json, const void* config) {
  const BackoffConfig& c = as_1901(config);
  json.field("name", c.name);
  json.key("cw").begin_array();
  for (const int w : c.cw) json.value(w);
  json.end_array();
  json.key("dc").begin_array();
  for (const int d : c.dc) json.value(d);
  json.end_array();
}

void write_canonical_1901(obs::JsonWriter& json, const void* config) {
  // config.name is a cosmetic label; two configs differing only in name
  // produce identical results and must share a cache key.
  const BackoffConfig& c = as_1901(config);
  json.key("cw").begin_array();
  for (const int w : c.cw) json.value(w);
  json.end_array();
  json.key("dc").begin_array();
  for (const int d : c.dc) json.value(d);
  json.end_array();
}

std::unique_ptr<BackoffEntity> entity_1901(const void* config, int /*station*/,
                                           des::RandomStream rng) {
  return std::make_unique<Backoff1901>(as_1901(config), std::move(rng));
}

/// The event-path transitions of Backoff1901 over SoA lanes. redraw()
/// mirrors Backoff1901::redraw exactly: stage = min(BPC, m-1), one
/// draw_backoff(CW_stage) from the station's stream, DC = d_stage,
/// BPC += 1 (the entity advances BPC inside redraw).
class Event1901 final : public EventMac {
 public:
  explicit Event1901(const BackoffConfig& config)
      : cw_by_stage_(config.cw), dc_by_stage_(config.dc) {
    config.validate();
  }

  void init_station(EventLanes& lanes, std::size_t station) const override {
    // start_new_frame: BPC = 0 plus one initial redraw (one draw).
    lanes.bpc[station] = 0;
    redraw(lanes, station);
  }

  void on_transmitted(EventLanes& lanes, std::size_t station,
                      bool success) const override {
    if (success) lanes.bpc[station] = 0;  // Restart the ladder.
    redraw(lanes, station);
  }

  void on_busy(EventLanes& lanes, std::size_t station) const override {
    if (lanes.dc[station] == 0) {
      redraw(lanes, station);  // Deferral expired: jump without attempting.
    } else {
      --lanes.dc[station];
      --lanes.bc[station];
    }
  }

  int stage_count() const override {
    return static_cast<int>(cw_by_stage_.size());
  }

 private:
  void redraw(EventLanes& lanes, std::size_t station) const {
    const int stages = static_cast<int>(cw_by_stage_.size());
    const int stage = std::min(lanes.bpc[station], stages - 1);
    lanes.stage[station] = stage;
    lanes.bc[station] = lanes.rngs[station].draw_backoff(
        cw_by_stage_[static_cast<std::size_t>(stage)]);
    lanes.dc[station] = dc_by_stage_[static_cast<std::size_t>(stage)];
    ++lanes.bpc[station];
  }

  std::vector<int> cw_by_stage_;
  std::vector<int> dc_by_stage_;
};

std::unique_ptr<EventMac> event_1901(const void* config) {
  return std::make_unique<Event1901>(as_1901(config));
}

MacModelResult solve_1901_def(const void* config, int stations,
                              const phy::TimingConfig& timing,
                              des::SimTime frame_length) {
  const analysis::Model1901Result model =
      analysis::solve_1901(stations, as_1901(config));
  MacModelResult result;
  result.collision_probability = model.gamma;
  result.throughput = model.normalized_throughput(timing, frame_length);
  result.stage_attempt_probability.reserve(model.stages.size());
  for (const analysis::StageMetrics& stage : model.stages) {
    result.stage_attempt_probability.push_back(stage.attempt_probability);
  }
  return result;
}

const BackoffConfig* backoff_1901(const void* config) {
  return &as_1901(config);
}

constexpr const char* kAliases[] = {"homeplug-av"};
constexpr MacPresetInfo kPresets[] = {
    {"ca0_ca1", "CA0/CA1 best-effort defaults: CW {8,16,32,64}, d {0,1,3,15}"},
    {"ca2_ca3", "CA2/CA3 delay-sensitive: CW {8,16,16,32}, d {0,1,3,15}"},
};
constexpr MacCounterInfo kCounters[] = {
    {"bc", "backoff counter: idle slots left before transmitting"},
    {"dc", "deferral counter: busy events tolerated before a stage jump"},
    {"bpc", "backoff procedure counter: redraws since the last success"},
};

}  // namespace

std::unique_ptr<EventMac> make_event_mac_1901(const BackoffConfig& config) {
  return std::make_unique<Event1901>(config);
}

const MacDef kMacDef1901 = {
    .name = "1901",
    .aliases = kAliases,
    .alias_count = std::size(kAliases),
    .summary =
        "IEEE 1901 CSMA/CA: per-stage CW with the deferral counter "
        "reacting to congestion before collisions (Table 1)",
    .presets = kPresets,
    .preset_count = std::size(kPresets),
    .counters = kCounters,
    .counter_count = std::size(kCounters),
    .default_config = default_1901,
    .parse = parse_1901,
    .validate = validate_1901,
    .write_spec_fields = write_spec_1901,
    .write_canonical_fields = write_canonical_1901,
    .make_entity = entity_1901,
    .make_event_mac = event_1901,
    .solve = solve_1901_def,
    .backoff_config = backoff_1901,
};

}  // namespace plc::mac
