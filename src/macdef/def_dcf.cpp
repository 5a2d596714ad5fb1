// The 802.11 DCF device def: binary exponential backoff with the BC
// frozen through busy events, the paper's contrast to 1901's
// deferral-counter design.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/model_dcf.hpp"
#include "dcf/dcf.hpp"
#include "macdef/registry.hpp"
#include "macdef/spec_json.hpp"
#include "util/error.hpp"

namespace plc::mac {

namespace {

using specjson::check_keys;
using specjson::fail;
using specjson::int_field;
using specjson::require_member;
using specjson::string_field;

const dcf::DcfConfig& as_dcf(const void* config) {
  return *static_cast<const dcf::DcfConfig*>(config);
}

std::shared_ptr<const void> default_dcf() {
  return std::make_shared<const dcf::DcfConfig>();
}

std::shared_ptr<const void> parse_dcf(const obs::JsonValue& value,
                                      const std::string& where,
                                      const std::string& /*label*/) {
  check_keys(value, where, {"label", "type", "preset", "cw_min", "cw_max"});
  dcf::DcfConfig config;
  if (const obs::JsonValue* preset = value.find("preset")) {
    if (value.find("cw_min") != nullptr || value.find("cw_max") != nullptr) {
      fail(where + ": \"preset\" excludes explicit \"cw_min\"/\"cw_max\"");
    }
    const std::string name = string_field(*preset, where + ".preset");
    if (name == "ieee80211ag") {
      config = dcf::DcfConfig::ieee80211ag();
    } else if (name == "ieee80211b") {
      config = dcf::DcfConfig::ieee80211b();
    } else if (name == "plc_window_no_deferral") {
      config = dcf::DcfConfig::plc_window_no_deferral();
    } else {
      fail(where + ": unknown dcf preset \"" + name + "\"");
    }
  } else {
    config.cw_min = static_cast<int>(
        int_field(require_member(value, where, "cw_min"), where + ".cw_min"));
    config.cw_max = static_cast<int>(
        int_field(require_member(value, where, "cw_max"), where + ".cw_max"));
  }
  return std::make_shared<const dcf::DcfConfig>(config);
}

void validate_dcf(const void* config) {
  const dcf::DcfConfig& c = as_dcf(config);
  util::require(c.cw_min >= 1, "scenario: dcf cw_min must be >= 1");
  util::require(c.cw_max >= c.cw_min, "scenario: dcf cw_max must be >= cw_min");
}

void write_spec_dcf(obs::JsonWriter& json, const void* config) {
  const dcf::DcfConfig& c = as_dcf(config);
  json.field("cw_min", c.cw_min);
  json.field("cw_max", c.cw_max);
}

std::unique_ptr<BackoffEntity> entity_dcf(const void* config, int /*station*/,
                                          des::RandomStream rng) {
  const dcf::DcfConfig& c = as_dcf(config);
  return std::make_unique<BackoffDcf>(c.cw_min, c.cw_max, std::move(rng));
}

/// The event-path transitions of BackoffDcf over SoA lanes: the "BPC"
/// lane holds the retry count, the CW ladder is resolved once at
/// construction, and busy events without a transmission freeze BC.
class EventDcf final : public EventMac {
 public:
  explicit EventDcf(const dcf::DcfConfig& config) {
    util::check_arg(config.cw_min >= 1, "cw_min", "must be >= 1");
    util::check_arg(config.cw_max >= config.cw_min, "cw_max",
                    "must be >= cw_min");
    // The binary-exponential ladder BackoffDcf::redraw walks per call,
    // resolved once: cw_by_stage_[r] is the window after r failed tries.
    cw_by_stage_.push_back(config.cw_min);
    for (int cw = config.cw_min; cw < config.cw_max;) {
      cw = std::min(cw * 2, config.cw_max);
      cw_by_stage_.push_back(cw);
    }
  }

  void init_station(EventLanes& lanes, std::size_t station) const override {
    lanes.bpc[station] = 0;
    redraw(lanes, station);
  }

  void on_transmitted(EventLanes& lanes, std::size_t station,
                      bool success) const override {
    if (success) {
      lanes.bpc[station] = 0;
    } else {
      ++lanes.bpc[station];  // One more failed try.
    }
    redraw(lanes, station);
  }

  void on_busy(EventLanes& /*lanes*/, std::size_t /*station*/) const override {
    // 802.11 freezes the backoff counter through busy periods.
  }

  int deferral_counter(const EventLanes& /*lanes*/,
                       std::size_t /*station*/) const override {
    return kDeferralDisabled;
  }

  int stage(const EventLanes& lanes, std::size_t station) const override {
    // BackoffDcf::stage reports the raw retry count (unclamped).
    return lanes.bpc[station];
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
  }

  std::vector<int> cw_by_stage_;
};

std::unique_ptr<EventMac> event_dcf(const void* config) {
  return std::make_unique<EventDcf>(as_dcf(config));
}

MacModelResult solve_dcf_def(const void* config, int stations,
                             const phy::TimingConfig& timing,
                             des::SimTime frame_length) {
  const dcf::DcfConfig& c = as_dcf(config);
  const analysis::ModelDcfResult model =
      analysis::solve_dcf(stations, c.cw_min, c.cw_max);
  MacModelResult result;
  result.collision_probability = model.gamma;
  result.throughput = model.normalized_throughput(timing, frame_length);
  // No per-stage attempt predictions: the DCF model solves the ladder as
  // a whole, so the observatory reports empirical frequencies only.
  return result;
}

constexpr const char* kAliases[] = {"802.11"};
constexpr MacPresetInfo kPresets[] = {
    {"ieee80211ag", "802.11a/g/n defaults: CW 16..1024"},
    {"ieee80211b", "legacy 802.11b (DSSS): CW 32..1024"},
    {"plc_window_no_deferral",
     "1901's CW range (8..64) without the deferral counter — the ablation"},
};
constexpr MacCounterInfo kCounters[] = {
    {"bc", "backoff counter: idle slots left, frozen through busy events"},
    {"retries", "failed tries since the last success (the CW ladder index)"},
};

}  // namespace

const MacDef kMacDefDcf = {
    .name = "dcf",
    .aliases = kAliases,
    .alias_count = std::size(kAliases),
    .summary =
        "802.11 DCF: binary exponential backoff CWmin..CWmax, backoff "
        "counter frozen while the medium is busy",
    .presets = kPresets,
    .preset_count = std::size(kPresets),
    .counters = kCounters,
    .counter_count = std::size(kCounters),
    .default_config = default_dcf,
    .parse = parse_dcf,
    .validate = validate_dcf,
    .write_spec_fields = write_spec_dcf,
    .write_canonical_fields = write_spec_dcf,  // No cosmetic fields to drop.
    .make_entity = entity_dcf,
    .make_event_mac = event_dcf,
    .solve = solve_dcf_def,
    .backoff_config = nullptr,
};

}  // namespace plc::mac
