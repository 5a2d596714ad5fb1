// Seeded workload inputs. The workload seed is the only source of
// variation: it picks the serve traffic (template order and spec seeds)
// and the figure2 spec seed. The program under test only ever sees the
// specs generated here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// The five sim-only registry specs the serve workloads submit.
const std::vector<std::string>& serve_templates();

/// Deterministic 64-bit generator (splitmix64), independent of the
/// program's own RNG so plans stay fixed when the program changes.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, bound) (bound > 0).
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t state_;
};

/// One planned submission: a registry template with a fresh spec seed.
struct PlannedSpec {
  std::string template_name;
  std::uint64_t spec_seed = 0;

  bool operator==(const PlannedSpec& other) const {
    return template_name == other.template_name &&
           spec_seed == other.spec_seed;
  }
};

/// The serve-cold traffic of one seed: `jobs` distinct specs, submitted
/// in order. Templates come in shuffled blocks of five, so every prefix
/// of the plan has a balanced mix whatever the seed.
std::vector<PlannedSpec> make_serve_plan(std::uint64_t seed, std::size_t jobs);

/// The figure2 spec seed for a workload seed; nullopt keeps the
/// registry's 0xf16 (a run without --seed reproduces the paper figure).
std::optional<std::uint64_t> figure2_seed(std::optional<std::uint64_t> seed);

}  // namespace perfbench
