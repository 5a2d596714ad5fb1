// Tests of the benchmark's own logic: the percentile and its
// sample-count rule, the interquartile mean, self-time subtraction, plan
// determinism, and the digest check. Plain assertions that survive
// NDEBUG; exits non-zero when any check fails. `python3 perfbench/run.py --selftest` runs it.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/plan.hpp"
#include "core/stats.hpp"
#include "util/hash.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return a - b < 1e-12 && b - a < 1e-12; }

perfbench::Span span(int id, int parent, const char* layer, double start,
                     double end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.op = 0;
  s.layer = layer;
  s.name = layer;
  s.start = start;
  s.end = end;
  return s;
}

void percentile_and_sample_rule() {
  using namespace perfbench;
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT(near(percentile(samples, 0.9), 90.0));
  EXPECT(near(percentile(samples, 0.5), 50.0));
  EXPECT(near(percentile(samples, 1.0), 100.0));
  EXPECT(near(percentile({7.0}, 0.9), 7.0));

  // p90 holds ten samples beyond it from n = 100 on, not before.
  EXPECT(samples_beyond(100, 0.9) == kTailSamples);
  EXPECT(samples_beyond(99, 0.9) < kTailSamples);
  EXPECT(samples_beyond(7, 0.9) < kTailSamples);
  EXPECT(samples_beyond(20, 0.5) == kTailSamples);
  EXPECT(samples_beyond(0, 0.9) == 0);

  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

void interquartile_mean_rule() {
  using namespace perfbench;
  // floor(8 / 4) = 2 samples dropped at each end: the outlier goes.
  EXPECT(near(interquartile_mean({100, 1, 7, 2, 6, 3, 5, 4}), 4.5));
  EXPECT(near(interquartile_mean({2, 4, 9}), 5.0));  // n < 4: plain mean
  EXPECT(near(interquartile_mean({3}), 3.0));

  // A two-mode mix, k fast samples (1.0) and 20 - k slow ones (1.5): each
  // sample that changes mode moves the interquartile mean by at most
  // 0.5 / 10, while the median jumps the whole 0.5 at once.
  double widest_step = 0.0;
  double widest_median_step = 0.0;
  auto mix = [](int fast) {
    std::vector<double> samples(20, 1.5);
    for (int i = 0; i < fast; ++i) samples[static_cast<std::size_t>(i)] = 1.0;
    return samples;
  };
  for (int fast = 0; fast < 20; ++fast) {
    widest_step = std::max(widest_step,
                           interquartile_mean(mix(fast)) -
                               interquartile_mean(mix(fast + 1)));
    widest_median_step =
        std::max(widest_median_step, percentile(mix(fast), 0.5) -
                                         percentile(mix(fast + 1), 0.5));
  }
  EXPECT(widest_step <= 0.05 + 1e-12);
  EXPECT(near(widest_median_step, 0.5));

  bool threw = false;
  try {
    interquartile_mean({});
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
}

void self_time_subtraction() {
  using namespace perfbench;
  // Disjoint children [1,3) and [4,5) of a [0,10) op: 3 s covered.
  EXPECT(near(covered_seconds({{1, 3}, {4, 5}}, 0, 10), 3.0));
  // Overlapping children count once: [1,4) u [2,6) = 5 s.
  EXPECT(near(covered_seconds({{2, 6}, {1, 4}}, 0, 10), 5.0));
  // Children reaching outside the parent are clipped to it.
  EXPECT(near(covered_seconds({{-1, 2}, {9, 12}}, 0, 10), 3.0));
  EXPECT(near(covered_seconds({}, 0, 10), 0.0));

  const std::vector<Span> spans = {
      span(0, -1, "op", 0.0, 10.0),
      span(1, 0, "sim", 1.0, 5.0),
      span(2, 1, "store", 2.0, 3.0),   // inside sim
      span(3, 0, "store", 6.0, 7.0),
      span(4, 3, "store", 6.2, 6.5),   // nested in the same layer
      span(5, 0, "model", 8.0, 9.5),
  };
  const auto times = layer_times(spans);
  EXPECT(near(times.at("op").busy, 10.0));
  EXPECT(near(times.at("op").self, 10.0 - 4.0 - 1.0 - 1.5));
  EXPECT(near(times.at("sim").busy, 4.0));
  EXPECT(near(times.at("sim").self, 3.0));
  // The nested store span adds to count but not again to busy.
  EXPECT(times.at("store").count == 3);
  EXPECT(near(times.at("store").busy, 2.0));
  EXPECT(near(times.at("store").self, 2.0 - 0.3));
  EXPECT(near(times.at("model").self, 1.5));
}

void plan_is_a_function_of_the_seed() {
  using namespace perfbench;
  const std::vector<PlannedSpec> a = make_serve_plan(42, 50);
  const std::vector<PlannedSpec> b = make_serve_plan(42, 50);
  const std::vector<PlannedSpec> c = make_serve_plan(43, 50);
  EXPECT(a == b);
  EXPECT(!(a == c));
  EXPECT(a.size() == 50);
  // A shorter plan is a prefix of a longer one.
  const std::vector<PlannedSpec> head = make_serve_plan(42, 12);
  EXPECT(std::equal(head.begin(), head.end(), a.begin()));

  // Every block of five holds each template once.
  const auto& templates = serve_templates();
  for (std::size_t block = 0; block + 5 <= a.size(); block += 5) {
    for (const std::string& name : templates) {
      int seen = 0;
      for (std::size_t i = block; i < block + 5; ++i) {
        seen += a[i].template_name == name ? 1 : 0;
      }
      EXPECT(seen == 1);
    }
  }

  EXPECT(!figure2_seed(std::nullopt).has_value());
  EXPECT(figure2_seed(5) == figure2_seed(5));
  EXPECT(figure2_seed(5) != figure2_seed(6));
}

void digest_catches_one_flipped_byte() {
  // The digest the output check compares report bytes by.
  const auto digest = [](const std::string& bytes) {
    return plc::util::hash128(bytes).to_hex();
  };
  const std::string report =
      "{\"schema\":\"plc-run-report/1\",\"name\":\"figure2\",\"scalars\":"
      "{\"CA1.n2.sim_collision_probability\":0.0712}}";
  std::string flipped = report;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x01);
  EXPECT(digest(report) == digest(std::string(report)));
  EXPECT(digest(report) != digest(flipped));
  EXPECT(digest(report).size() == 32);
  // Every single-bit flip anywhere in the report is caught.
  for (std::size_t i = 0; i < report.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string one_off = report;
      one_off[i] = static_cast<char>(one_off[i] ^ (1 << bit));
      EXPECT(digest(one_off) != digest(report));
    }
  }
}

}  // namespace

int main() {
  percentile_and_sample_rule();
  interquartile_mean_rule();
  self_time_subtraction();
  plan_is_a_function_of_the_seed();
  digest_catches_one_flipped_byte();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
