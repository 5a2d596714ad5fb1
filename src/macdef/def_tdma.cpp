// The TDMA hybrid device def (extended experiment E15): a deterministic
// round-robin schedule expressed on the contention ABI — station i
// starts at slot offset i mod R and rewinds to R-1 after every own
// transmission. With R >= N the rotation is collision-free (R > N
// leaves R - N idle slots per round, which the event kernel batches);
// with R < N stations i and i+R share a phase and collide
// deterministically forever — the misconfiguration is visible, not
// hidden. Consumes no randomness at all, which also makes it a sharp
// test of the kernels' draw-order discipline (zero draws must stay zero
// draws on both paths).
#include <memory>
#include <string>

#include "macdef/registry.hpp"
#include "macdef/spec_json.hpp"
#include "util/error.hpp"

namespace plc::mac {

namespace {

using specjson::check_keys;
using specjson::fail;
using specjson::int_field;
using specjson::require_member;

/// The parsed config: the round length R in slots.
struct TdmaConfig {
  int round = 8;
};

const TdmaConfig& as_tdma(const void* config) {
  return *static_cast<const TdmaConfig*>(config);
}

std::shared_ptr<const void> default_tdma() {
  return std::make_shared<const TdmaConfig>();
}

std::shared_ptr<const void> parse_tdma(const obs::JsonValue& value,
                                       const std::string& where,
                                       const std::string& /*label*/) {
  check_keys(value, where, {"label", "type", "round"});
  TdmaConfig config;
  config.round = static_cast<int>(
      int_field(require_member(value, where, "round"), where + ".round"));
  if (config.round < 1) fail(where + ".round: must be >= 1");
  return std::make_shared<const TdmaConfig>(config);
}

void validate_tdma(const void* config) {
  util::require(as_tdma(config).round >= 1,
                "scenario: tdma round must be >= 1");
}

void write_tdma(obs::JsonWriter& json, const void* config) {
  json.field("round", as_tdma(config).round);
}

/// The slot-path station: BC is the slot offset inside the round.
class TdmaEntity final : public BackoffEntity {
 public:
  TdmaEntity(int round, int station) : round_(round), station_(station) {
    util::check_arg(round >= 1, "round", "must be >= 1");
    util::check_arg(station >= 0, "station", "must be non-negative");
    start_new_frame();
  }

  void start_new_frame() override { bc_ = station_ % round_; }
  bool ready_to_transmit() const override { return bc_ == 0; }

  void on_idle_slot() override {
    util::require(bc_ > 0,
                  "TdmaEntity::on_idle_slot: entity was ready to transmit");
    if (tally_) ++tally_->idle[0];
    --bc_;
  }

  void on_busy(bool transmitted, bool success) override {
    if (transmitted) {
      util::require(bc_ == 0, "TdmaEntity::on_busy: transmitted with BC != 0");
      if (tally_) {
        auto& rows = success ? tally_->tx_success : tally_->tx_collision;
        ++rows[0];
      }
      bc_ = round_ - 1;  // Next turn one full round later.
      return;
    }
    // Another station's turn still consumes one slot of the round.
    if (tally_) ++tally_->defers[0];
    --bc_;
  }

  int backoff_counter() const override { return bc_; }
  int deferral_counter() const override { return kDeferralDisabled; }
  int backoff_procedure_counter() const override { return 0; }
  int contention_window() const override { return round_; }
  int stage() const override { return 0; }
  int stage_count() const override { return 1; }

 private:
  int round_;
  int station_;
  int bc_ = 0;
};

std::unique_ptr<BackoffEntity> entity_tdma(const void* config, int station,
                                           des::RandomStream /*rng*/) {
  return std::make_unique<TdmaEntity>(as_tdma(config).round, station);
}

/// The event-path transitions: identical arithmetic, no draws ever.
class EventTdma final : public EventMac {
 public:
  explicit EventTdma(int round) : round_(round) {
    util::check_arg(round >= 1, "round", "must be >= 1");
  }

  void init_station(EventLanes& lanes, std::size_t station) const override {
    lanes.bc[station] = static_cast<int>(station) % round_;
  }

  void on_transmitted(EventLanes& lanes, std::size_t station,
                      bool /*success*/) const override {
    lanes.bc[station] = round_ - 1;
  }

  void on_busy(EventLanes& lanes, std::size_t station) const override {
    --lanes.bc[station];
  }

  int deferral_counter(const EventLanes& /*lanes*/,
                       std::size_t /*station*/) const override {
    return kDeferralDisabled;
  }

  int stage_count() const override { return 1; }

 private:
  int round_;
};

std::unique_ptr<EventMac> event_tdma(const void* config) {
  return std::make_unique<EventTdma>(as_tdma(config).round);
}

constexpr MacCounterInfo kCounters[] = {
    {"bc", "slots until this station's turn in the round"},
};

}  // namespace

const MacDef kMacDefTdma = {
    .name = "tdma",
    .aliases = nullptr,
    .alias_count = 0,
    .summary =
        "deterministic round-robin: station i transmits every `round` "
        "slots starting at offset i (collision-free when round >= N)",
    .presets = nullptr,
    .preset_count = 0,
    .counters = kCounters,
    .counter_count = std::size(kCounters),
    .default_config = default_tdma,
    .parse = parse_tdma,
    .validate = validate_tdma,
    .write_spec_fields = write_tdma,
    .write_canonical_fields = write_tdma,
    .make_entity = entity_tdma,
    .make_event_mac = event_tdma,
    .solve = nullptr,  // No decoupled model: the schedule is deterministic.
    .backoff_config = nullptr,
};

}  // namespace plc::mac
