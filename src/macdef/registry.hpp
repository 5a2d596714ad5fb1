// The pluggable MAC device ABI: a registry of MacDef descriptors that
// every layer — the slot simulator, the event kernel, the analysis leg,
// the plc-scenario/1 parser and the CLI — discovers uniformly.
//
// Borrowed from the device-definition-table idiom of sound-chip
// emulators (one constant-initialized struct of function pointers plus
// metadata per device, collected in a central table): a MacDef bundles
//
//   - identity: a stable type name ("1901"), aliases, a summary line;
//   - config plumbing: parse/validate hooks for the scenario dialect's
//     mac-variant objects, plus two serializers — the spec form (what
//     Spec::to_json emits, cosmetic names included) and the canonical
//     form (store cache-key material, cosmetic names excluded);
//   - execution: a per-station BackoffEntity factory for the
//     slot-stepped oracle and an EventMac factory for the event-driven
//     kernel (both consuming the same per-station RNG streams in the
//     same order, so the two kernels stay byte-identical);
//   - analysis: an optional decoupled-model solver the model leg and
//     the observatory's per-stage predictions dispatch through, and an
//     optional 1901-family stage-schedule view (exact-pair / drift
//     machinery requires it);
//   - metadata: presets and exposed FSM counters, driving
//     `plcsim mac list|describe`.
//
// Adding a MAC variant means one new translation unit defining its
// `const MacDef` plus one registration line in registry.cpp's builtin
// table — no edits to kernels, parser, runner or CLI dispatch
// (def_boosted_cw.cpp is the proof).
//
// ABI contracts every def must honor:
//   - Configs are immutable once parsed; MacSpec shares them by
//     shared_ptr across threads, so hooks must treat them as const.
//   - An idle medium slot decrements every station's backoff counter by
//     one. The event kernel batches whole idle gaps as `bc -= gap`, so
//     a MAC whose idle transition is anything else cannot use it.
//     (DCF's freeze applies to *busy* events only, which stay per-event.)
//   - RNG discipline: a station consumes draws only inside its own
//     init/transition hooks, in station-ascending order per medium
//     event. Both kernels derive one stream per station with the
//     "station-<i>" labels before any hook runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dcf/dcf.hpp"
#include "des/random.hpp"
#include "des/time.hpp"
#include "mac/backoff.hpp"
#include "mac/config.hpp"
#include "obs/json.hpp"
#include "phy/timing.hpp"

namespace plc::mac {

/// One preset a def's parse hook accepts ("preset": "<name>").
struct MacPresetInfo {
  const char* name;
  const char* summary;
};

/// One FSM counter a def's stations expose (trace/observatory surface).
struct MacCounterInfo {
  const char* name;
  const char* summary;
};

/// What a def's analysis solver returns for one (config, N) point.
struct MacModelResult {
  double collision_probability = 0.0;
  double throughput = 0.0;
  /// Per-stage attempt probabilities x_i from the decoupled model —
  /// feeds the observatory's "attempt_model" drift scalars. Empty when
  /// the def has no per-stage analysis (DCF, TDMA).
  std::vector<double> stage_attempt_probability;
};

/// SoA per-station FSM state shared by every EventMac: the event kernel
/// owns the arrays, the EventMac owns the transition rules. The lanes
/// carry the superset of counters the built-in MACs need (BC/DC/BPC/
/// stage plus the per-station RNG streams); a def uses the subset its
/// FSM defines and leaves the rest at zero.
struct EventLanes {
  std::vector<int> bc;    ///< Backoff counters (slots to transmission).
  std::vector<int> dc;    ///< Deferral counters (1901 family).
  std::vector<int> bpc;   ///< Backoff procedure / retry counters.
  std::vector<int> stage; ///< Stage whose parameters are in force.
  std::vector<des::RandomStream> rngs;  ///< One derived stream per station.

  std::size_t size() const { return bc.size(); }
};

/// The event-driven kernel's view of a MAC: per-station transition
/// rules over EventLanes. Implementations hold only config-derived
/// tables (no per-station state), so one instance serves a whole run.
///
/// The kernel guarantees: all streams in `lanes.rngs` are derived
/// before the first init_station call; init and busy-resolution hooks
/// run in station-ascending order; idle gaps are applied by the kernel
/// itself as a batched `bc -= gap` (see the ABI contract above).
class EventMac {
 public:
  virtual ~EventMac() = default;

  /// Initial state for one station (the entity ctor / start_new_frame
  /// equivalent). May consume draws from the station's stream.
  virtual void init_station(EventLanes& lanes, std::size_t station) const = 0;

  /// The station's own transmission just resolved (success/collision).
  virtual void on_transmitted(EventLanes& lanes, std::size_t station,
                              bool success) const = 0;

  /// The station sensed a busy medium event without transmitting.
  virtual void on_busy(EventLanes& lanes, std::size_t station) const = 0;

  /// Distinct stages a station can occupy (the BackoffEntity's
  /// stage_count()): the rows of an observatory's stage tallies.
  virtual int stage_count() const = 0;

  /// Accessor semantics, mirroring the def's BackoffEntity quirks. The
  /// defaults read the lanes directly; DCF overrides deferral_counter
  /// (disabled) and stage (raw retry count).
  virtual int deferral_counter(const EventLanes& lanes,
                               std::size_t station) const;
  virtual int stage(const EventLanes& lanes, std::size_t station) const;
};

/// One MAC device definition. Constant-initializable: identity and
/// metadata are string literals / constexpr tables, behavior is plain
/// function pointers — so the builtin table needs no dynamic
/// initialization and self-registration order can never bite.
struct MacDef {
  /// Stable type name — the "type" value in scenario mac objects, the
  /// canonical-JSON discriminator, and the `plcsim mac` key.
  const char* name = nullptr;
  const char* const* aliases = nullptr;  ///< Accepted "type" synonyms.
  std::size_t alias_count = 0;
  const char* summary = "";

  const MacPresetInfo* presets = nullptr;
  std::size_t preset_count = 0;
  const MacCounterInfo* counters = nullptr;
  std::size_t counter_count = 0;

  /// The def's default configuration (used by MacSpec's default state).
  std::shared_ptr<const void> (*default_config)() = nullptr;

  /// Parses one scenario mac-variant object (strict keys, including the
  /// caller-consumed "label"/"type"). `label` is the variant label, the
  /// conventional fallback for cosmetic config names. Throws plc::Error
  /// with "scenario: <where>: ..." messages (see specjson helpers).
  std::shared_ptr<const void> (*parse)(const obs::JsonValue& object,
                                       const std::string& where,
                                       const std::string& label) = nullptr;

  /// Throws plc::Error when the config violates the def's invariants.
  void (*validate)(const void* config) = nullptr;

  /// Spec-form fields (everything after "label" and "type" in
  /// Spec::to_json's mac objects — cosmetic names included). Must
  /// round-trip through `parse` to an equivalent config.
  void (*write_spec_fields)(obs::JsonWriter& json, const void* config) =
      nullptr;

  /// Canonical-form fields (everything after "type" in the store cache
  /// key's mac object). Result-determining parameters only: two configs
  /// that simulate identically must serialize identically here.
  void (*write_canonical_fields)(obs::JsonWriter& json, const void* config) =
      nullptr;

  /// One slot-path station. `station` is the station index (TDMA-style
  /// deterministic MACs key their initial state on it); `rng` is the
  /// station's derived stream.
  std::unique_ptr<BackoffEntity> (*make_entity)(const void* config,
                                                int station,
                                                des::RandomStream rng) =
      nullptr;

  /// The event-path transition rules for this config (validates first).
  std::unique_ptr<EventMac> (*make_event_mac)(const void* config) = nullptr;

  /// Optional decoupled-model solver (nullptr: the model leg prints "-"
  /// and the observatory emits empirical frequencies only).
  MacModelResult (*solve)(const void* config, int stations,
                          const phy::TimingConfig& timing,
                          des::SimTime frame_length) = nullptr;

  /// Optional 1901-family view: the stage schedule actually simulated,
  /// for machinery that is specific to the deferral-counter FSM (exact
  /// N=2 chain, drift analysis). nullptr for non-1901 MACs.
  const BackoffConfig* (*backoff_config)(const void* config) = nullptr;
};

/// A (def, config) pair — the type-erased successor of the old
/// std::variant<BackoffConfig, DcfConfig>. Cheap to copy (the config is
/// shared and immutable) and safe to share across runner threads.
class MacSpec {
 public:
  /// The registry default: the "1901" def with its CA0/CA1 default
  /// config — the single source of truth every layer's default MAC
  /// (sim::RunSpec, scenario::MacVariant) now derives from.
  MacSpec();

  /// Wraps an already-parsed config of `def`.
  MacSpec(const MacDef& def, std::shared_ptr<const void> config);

  /// Implicit lifts from the concrete config structs, so pre-registry
  /// call sites (`spec.mac = mac::BackoffConfig::ca0_ca1()`,
  /// `MacVariant{"DCF", dcf::DcfConfig{16, 1024}}`) keep compiling.
  MacSpec(BackoffConfig config);          // NOLINT(google-explicit-constructor)
  MacSpec(const dcf::DcfConfig& config);  // NOLINT(google-explicit-constructor)

  const MacDef& def() const { return *def_; }
  const void* config() const { return config_.get(); }

  /// The 1901-family stage schedule (see MacDef::backoff_config);
  /// nullptr for MACs outside the family.
  const BackoffConfig* backoff_config() const;

  /// The DCF window pair when this is the "dcf" def, else nullptr.
  const dcf::DcfConfig* dcf_config() const;

 private:
  const MacDef* def_;
  std::shared_ptr<const void> config_;
};

/// A MacDef table. Instantiable (tests register private defs); the
/// process-wide builtin set lives in builtin_registry().
class Registry {
 public:
  /// Registers a def (non-owning; the def must outlive the registry).
  /// Throws plc::Error when its name or an alias is already taken.
  void add(const MacDef* def);

  /// Lookup by name or alias; nullptr when unknown.
  const MacDef* find(std::string_view name) const;

  /// Lookup by name or alias; throws plc::Error listing the registered
  /// names when unknown.
  const MacDef& get(std::string_view name) const;

  /// Registration order (the `plcsim mac list` order).
  const std::vector<const MacDef*>& defs() const { return defs_; }

  /// Sorted canonical names, quoted and comma-joined — the "(known:
  /// ...)" tail of unknown-name errors.
  std::string known_names() const;

 private:
  std::vector<const MacDef*> defs_;
};

/// The built-in defs (1901, dcf, tdma, boosted-cw), registered once in
/// a fixed order. Thread-safe (magic static).
const Registry& builtin_registry();

/// The def behind default-constructed MacSpecs ("1901").
const MacDef& default_def();

/// Shared 1901-family EventMac factory: the event-path transition rules
/// for an arbitrary stage schedule. Exported so 1901-derived defs
/// (boosted-cw) reuse the exact transition code instead of cloning it.
std::unique_ptr<EventMac> make_event_mac_1901(const BackoffConfig& config);

// The built-in defs, one per translation unit. A new MAC adds its
// extern here and one line to the builtin table in registry.cpp.
extern const MacDef kMacDef1901;       // def_1901.cpp
extern const MacDef kMacDefDcf;        // def_dcf.cpp
extern const MacDef kMacDefTdma;       // def_tdma.cpp
extern const MacDef kMacDefBoostedCw;  // def_boosted_cw.cpp

}  // namespace plc::mac
