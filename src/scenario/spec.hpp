// Declarative experiment specifications — the paper's "same
// configuration, three legs" methodology as data.
//
// Every result in the paper pairs a simulator run, an analytical fixed
// point, and a testbed measurement over identical N / CW / DC / timing
// parameters. scenario::Spec is the single description of such an
// experiment: MAC variants (1901 presets, DCF flavours, or custom CW+DC
// vectors), a station sweep, the phy::TimingConfig, frame length,
// duration, repetitions and seed, plus which legs to run. Specs
// serialize to JSON ("plc-scenario/1") via obs::json, parse back with
// strict validation (unknown keys are rejected at every level, MAC
// objects dispatch through the mac::MacDef registry), and bridge to the
// execution layers through sim::RunSpec and tools::TestbedConfig — so
// sim, model and emu provably consume the same parameters, and "new
// scenario" is a JSON file instead of a C++ change.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "des/time.hpp"
#include "phy/timing.hpp"
#include "sim/runner.hpp"
#include "tools/testbed.hpp"

namespace plc::scenario {

/// One MAC configuration under test, with its table/scalar label.
struct MacVariant {
  std::string label;  ///< Column label and scalar prefix, e.g. "CA1".
  /// Defaults to the registry default def (see mac::default_def()).
  sim::MacSpec mac;
};

/// Which legs of the methodology a scenario runs.
struct Legs {
  bool sim = true;         ///< Slot-level simulation (sim::RunSpec).
  bool model = true;       ///< Analytical fixed point (decoupling).
  bool testbed = false;    ///< Emulated HomePlug AV testbed (§3).
  bool exact_pair = false; ///< Exact N=2 chain (1901 variants only).
};

/// The declarative experiment description.
struct Spec {
  static constexpr const char* kSchema = "plc-scenario/1";

  std::string name;   ///< Registry key / report name (non-empty).
  std::string title;  ///< Human heading printed above the tables.

  std::vector<MacVariant> macs = {MacVariant{}};
  std::vector<int> stations = {2};

  phy::TimingConfig timing = phy::TimingConfig::paper_default();
  des::SimTime frame_length = sim::default_frame_length();

  /// Simulation leg: per-repetition duration, repetition count, and the
  /// root seed every per-task seed is derived from.
  des::SimTime duration = des::SimTime::from_seconds(50.0);
  int repetitions = 10;
  std::uint64_t seed = 0x1901;

  /// Contention-kernel selection for the sim leg ("kernel" key: "event"
  /// or "slot", with "auto" read as "event"; see sim::Kernel). Both
  /// kernels produce byte-identical reports, so to_json() deliberately
  /// never emits the field: the report's embedded spec — and the store
  /// cache key — stay the same bytes whichever kernel ran (the fixture
  /// round-trip and kernel-equivalence CI contracts).
  sim::Kernel kernel = sim::Kernel::kEvent;

  Legs legs;

  /// Testbed leg: independent tests per station count and per-test
  /// measurement duration (the paper's §3.2 runs 240 s tests).
  int testbed_tests = 1;
  des::SimTime testbed_duration = des::SimTime::from_seconds(240.0);

  /// MAC-state observatory (per-station backoff trajectories, drift
  /// estimation, short-term fairness). Off by default: enabling it adds
  /// a "stations" section to the run report and per-stage drift scalars,
  /// so toggling it changes report bytes by design.
  bool observatory = false;
  /// Sliding fairness window (successes) for the short-term Jain index.
  int observatory_window = 50;
  /// Trajectory ring capacity per repetition (0 disables trajectories).
  int observatory_trajectory = 256;

  /// Published reference series (e.g. the paper's measured values), one
  /// vector per label, aligned with `stations`. Printed as extra table
  /// columns and recorded as "<key>" scalars.
  std::map<std::string, std::vector<double>> reference;

  /// Throws plc::Error when any invariant is violated (empty sweeps,
  /// invalid CW/DC shapes, non-positive durations, reference series not
  /// aligned with the station sweep, ...).
  void validate() const;

  /// Canonical JSON serialization (stable field order; times in integer
  /// nanoseconds; the seed as a lossless hex string).
  std::string to_json() const;

  /// Parses and validates a spec document. Unknown keys anywhere in the
  /// document throw plc::Error.
  static Spec from_json(std::string_view text);

  /// Reads and parses a spec file; throws plc::Error on I/O failure.
  static Spec from_file(const std::string& path);

  /// Bridge to the simulation leg: the RunSpec for one station count and
  /// MAC variant (equivalent to sim::RunSpec(*this, stations, variant)).
  sim::RunSpec to_run_spec(int stations, std::size_t variant = 0) const;

  /// Bridge to the testbed leg: the config of one test. Seeds derive
  /// from the spec seed, the variant label, the station count and the
  /// test index, so suites are reproducible and order-independent.
  tools::TestbedConfig to_testbed_config(int stations, int test_index,
                                         std::size_t variant = 0) const;
};

}  // namespace plc::scenario
