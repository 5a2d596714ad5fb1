#include "core/plan.hpp"

#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

/// Salts keep the figure2 seed and the serve plan from sharing a stream
/// when they are given the same workload seed.
constexpr std::uint64_t kServeSalt = 0xC01Dull;
constexpr std::uint64_t kFigure2Salt = 0xF16ull;

/// One shuffled block of indices 0..n-1.
std::vector<std::size_t> shuffled_block(SeedStream& rng, std::size_t n) {
  std::vector<std::size_t> block(n);
  for (std::size_t i = 0; i < n; ++i) block[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(block[i - 1], block[rng.below(i)]);
  }
  return block;
}

}  // namespace

const std::vector<std::string>& serve_templates() {
  static const std::vector<std::string> templates = {
      "e6-throughput-vs-n", "e8-boosting", "e20-mac-observatory",
      "e21-boosted-cw", "dcf-comparison"};
  return templates;
}

std::uint64_t SeedStream::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t SeedStream::below(std::uint64_t bound) {
  if (bound == 0) throw std::invalid_argument("SeedStream::below(0)");
  // Rejection sampling keeps the draw unbiased.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t draw = next();
  while (draw >= limit) draw = next();
  return draw % bound;
}

std::vector<PlannedSpec> make_serve_plan(std::uint64_t seed, std::size_t jobs) {
  const std::vector<std::string>& templates = serve_templates();
  SeedStream rng(seed ^ kServeSalt);
  std::vector<PlannedSpec> plan;
  while (plan.size() < jobs) {
    for (const std::size_t t : shuffled_block(rng, templates.size())) {
      if (plan.size() == jobs) break;
      // Spec seeds stay below 2^48 so they read well in reports.
      plan.push_back({templates[t], rng.next() >> 16});
    }
  }
  return plan;
}

std::optional<std::uint64_t> figure2_seed(std::optional<std::uint64_t> seed) {
  if (!seed) return std::nullopt;
  SeedStream rng(*seed ^ kFigure2Salt);
  return rng.next() >> 16;
}

}  // namespace perfbench
