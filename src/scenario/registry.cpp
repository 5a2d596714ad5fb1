#include "scenario/registry.hpp"

#include <algorithm>

#include "mac/config.hpp"
#include "util/error.hpp"

namespace plc::scenario {

namespace {

/// E4 / Figure 2: collision probability vs N, three legs side by side —
/// slot simulation, decoupling analysis (exact chain at N = 2), and the
/// emulated HomePlug AV testbed averaged over 10 tests, against the
/// paper's measured markers.
Spec figure2() {
  Spec spec;
  spec.name = "figure2";
  spec.title =
      "Figure 2: collision probability vs N (CA1 defaults) — simulation, "
      "analysis, testbed";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {1, 2, 3, 4, 5, 6, 7};
  spec.duration = des::SimTime::from_seconds(500.0);
  spec.repetitions = 1;
  spec.seed = 0xF16;
  spec.legs.sim = true;
  spec.legs.model = true;
  spec.legs.exact_pair = true;
  spec.legs.testbed = true;
  spec.testbed_tests = 10;
  spec.testbed_duration = des::SimTime::from_seconds(60.0);
  spec.reference["paper_measured"] = {0.0002, 0.0741, 0.1339, 0.1779,
                                      0.2176, 0.2443, 0.2669};
  return spec;
}

/// E3 / Table 2: the testbed leg alone — sum(Ci) and sum(Ai) over one
/// 240 s test per N, the paper's §3.2 measurement procedure end to end.
Spec table2() {
  Spec spec;
  spec.name = "table2";
  spec.title = "Table 2: testbed statistics sum(Ci), sum(Ai), N = 1..7, 240 s";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {1, 2, 3, 4, 5, 6, 7};
  spec.seed = 0x7AB2E;
  spec.legs.sim = false;
  spec.legs.model = false;
  spec.legs.testbed = true;
  spec.testbed_tests = 1;
  spec.testbed_duration = des::SimTime::from_seconds(240.0);
  spec.reference["paper_collided"] = {25,    12012, 21390, 28924,
                                      35990, 41877, 46989};
  spec.reference["paper_acknowledged"] = {162220, 162020, 159780, 162590,
                                          165390, 171440, 176080};
  return spec;
}

/// E6: normalized throughput vs N — 1901 defaults against two DCF
/// flavours, simulation next to the fixed-point models.
Spec e6_throughput_vs_n() {
  Spec spec;
  spec.name = "e6-throughput-vs-n";
  spec.title = "E6: normalized throughput vs N — 1901 vs 802.11 DCF";
  spec.macs = {
      MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()},
      MacVariant{"CA3", mac::BackoffConfig::ca2_ca3()},
      MacVariant{"DCF-16-1024", dcf::DcfConfig{16, 1024}},
      MacVariant{"DCF-8-64", dcf::DcfConfig{8, 64}},
  };
  spec.stations = {1, 2, 3, 5, 7, 10, 15, 20, 30};
  spec.duration = des::SimTime::from_seconds(60.0);
  spec.repetitions = 3;
  spec.seed = 0xE6;
  spec.legs.sim = true;
  spec.legs.model = true;
  return spec;
}

/// E8: the sweep frame of the boosting experiment (station counts, sim
/// duration, seed). The candidate ranking itself stays in the bench —
/// the optimizer's pool is code — but the sweep parameters and the
/// default-config baseline come from here.
Spec e8_boosting() {
  Spec spec;
  spec.name = "e8-boosting";
  spec.title = "E8: boosting — tuned configurations vs the Table 1 default";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {5, 15, 30};
  spec.duration = des::SimTime::from_seconds(60.0);
  spec.repetitions = 1;
  spec.seed = 0xB0057;
  spec.legs.sim = true;
  spec.legs.model = true;
  return spec;
}

/// E9: the deferral-counter ablation — the Table 1 windows with the
/// standard d = [0 1 3 15], with deferral disabled (stages climb only on
/// collisions, as in 802.11), and with the aggressive d = [0 0 1 3].
Spec e9_deferral_ablation() {
  mac::BackoffConfig no_deferral = mac::BackoffConfig::ca0_ca1();
  no_deferral.name = "no deferral";
  no_deferral.dc.assign(no_deferral.dc.size(), mac::kDeferralDisabled);
  mac::BackoffConfig aggressive = mac::BackoffConfig::ca0_ca1();
  aggressive.name = "aggressive";
  aggressive.dc = {0, 0, 1, 3};
  Spec spec;
  spec.name = "e9-deferral-ablation";
  spec.title = "E9: deferral-counter ablation (Table 1 windows)";
  spec.macs = {
      MacVariant{"default", mac::BackoffConfig::ca0_ca1()},
      MacVariant{"no-deferral", no_deferral},
      MacVariant{"aggressive", aggressive},
  };
  spec.stations = {2, 3, 5, 10, 20, 30};
  spec.duration = des::SimTime::from_seconds(60.0);
  spec.repetitions = 1;
  spec.seed = 0xE9;
  spec.legs.sim = true;
  spec.legs.model = true;
  return spec;
}

/// E20: the MAC-state observatory on the CA1 defaults — short-term Jain
/// fairness over a 50-success window shrinking as N grows, and the
/// empirical per-stage attempt frequency drifting away from the
/// decoupled model's x_i (the coupling the mean-field analysis assumes
/// away, strongest at small N and deep stages).
Spec e20_mac_observatory() {
  Spec spec;
  spec.name = "e20-mac-observatory";
  spec.title =
      "E20: MAC observatory — short-term fairness and per-stage drift vs "
      "the decoupled model (CA1)";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {2, 5, 10, 15, 30};
  spec.duration = des::SimTime::from_seconds(30.0);
  spec.repetitions = 3;
  spec.seed = 0x0B5;
  spec.legs.sim = true;
  spec.legs.model = true;
  spec.observatory = true;
  spec.observatory_window = 50;
  spec.observatory_trajectory = 256;
  return spec;
}

/// E21: the boosting recipe as a registered MAC — the model-optimal
/// uniform contention window for a target population (boosted-cw def,
/// tuned for N = 5) against the CA1 default, simulation and models.
/// Matched at the target, the tuned window trades the deferral ladder's
/// robustness for throughput; away from the target the win shrinks.
/// Written as a spec document on purpose: the factory goes through the
/// same plc-scenario/1 parser (and the boosted-cw def's parse hook) as
/// a user-supplied --spec file.
Spec e21_boosted_cw() {
  return Spec::from_json(R"({
    "name": "e21-boosted-cw",
    "title": "E21: boosted CW (tuned for N=5) vs the CA1 default",
    "macs": [
      {"label": "CA1", "type": "1901", "preset": "ca0_ca1"},
      {"label": "BoostedCW-5", "type": "boosted-cw", "target_stations": 5}
    ],
    "stations": [2, 5, 10],
    "duration_ns": 10000000000,
    "repetitions": 3,
    "seed": "0xb0057ed",
    "legs": {"sim": true, "model": true, "testbed": false, "exact_pair": false}
  })");
}

/// Head-to-head: 1901 CA1 against the standard 802.11 DCF window pair,
/// simulation and models, at a few representative network sizes.
Spec dcf_comparison() {
  Spec spec;
  spec.name = "dcf-comparison";
  spec.title = "1901 CA1 vs 802.11 DCF (16..1024): collision and throughput";
  spec.macs = {
      MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()},
      MacVariant{"DCF-16-1024", dcf::DcfConfig{16, 1024}},
  };
  spec.stations = {2, 5, 10, 20};
  spec.duration = des::SimTime::from_seconds(60.0);
  spec.repetitions = 3;
  spec.seed = 0xDCF;
  spec.legs.sim = true;
  spec.legs.model = true;
  return spec;
}

using Factory = Spec (*)();

struct Entry {
  const char* name;
  Factory make;
};

constexpr Entry kEntries[] = {
    {"dcf-comparison", dcf_comparison},
    {"e20-mac-observatory", e20_mac_observatory},
    {"e21-boosted-cw", e21_boosted_cw},
    {"e6-throughput-vs-n", e6_throughput_vs_n},
    {"e8-boosting", e8_boosting},
    {"e9-deferral-ablation", e9_deferral_ablation},
    {"figure2", figure2},
    {"table2", table2},
};

}  // namespace

std::vector<std::string> Registry::names() {
  std::vector<std::string> out;
  for (const Entry& entry : kEntries) out.emplace_back(entry.name);
  std::sort(out.begin(), out.end());
  return out;
}

bool Registry::contains(std::string_view name) {
  for (const Entry& entry : kEntries) {
    if (name == entry.name) return true;
  }
  return false;
}

Spec Registry::get(std::string_view name) {
  for (const Entry& entry : kEntries) {
    if (name == entry.name) {
      Spec spec = entry.make();
      spec.validate();
      return spec;
    }
  }
  std::string known;
  for (const std::string& candidate : names()) {
    if (!known.empty()) known += ", ";
    known += candidate;
  }
  throw Error("scenario: unknown scenario \"" + std::string(name) +
              "\" (known: " + known + ")");
}

}  // namespace plc::scenario
