// plc::store — the content-addressed result cache, and the util
// primitives underneath it (hash128, atomic file writes, raw-moment
// stats round trips).
//
// The corruption suite is the store's core promise: a damaged entry —
// flipped bit, truncation, stale epoch, renamed file — is always a miss
// plus a quarantine, never a crash and never a stale hit. The property
// tests pin the other promise: the key is a pure function of content,
// invariant under JSON field order, whitespace, and --jobs.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/exact_chain.hpp"
#include "mac/config.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/runner.hpp"
#include "store/result_store.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/hash.hpp"
#include "util/stats.hpp"

namespace {

using namespace plc;
namespace fs = std::filesystem;

/// Fresh directory under the test temp root, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(fs::path(::testing::TempDir()) /
             ("plc_store_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  fs::path path;
};

std::string slurp(const std::string& path) { return util::read_file(path); }

void spill(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// ---------------------------------------------------------------------------
// util::hash128

// Known-answer vectors generated once from this implementation and
// pinned: any platform, compiler, or refactor that changes a digest
// silently orphans every store on disk, so it must fail loudly here.
TEST(Hash128, KnownAnswers) {
  struct Vector {
    const char* input;
    const char* hex;
  };
  const Vector vectors[] = {
      {"", "00000000000000000000000000000000"},
      {"a", "85555565f6597889e6b53a48510e895a"},
      {"hello, world", "342fac623a5ebc8e4cdcbc079642414d"},
      {"plc-store/1\nepoch=1\nleg=sim/CA1\nrep=0\npoint={}\n",
       "d9c64ff29fcb9f799d8138f8839de17b"},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(util::hash128(v.input).to_hex(), v.hex) << v.input;
  }
  // A different seed is a different hash family.
  EXPECT_EQ(util::hash128("hello, world", 0x706c632d63686b73ULL).to_hex(),
            "63c5bca56a644fa17bb9ce4c72310b4d");
}

TEST(Hash128, HexRoundTripAndInequality) {
  const util::Hash128 h = util::hash128("round trip me");
  EXPECT_EQ(util::Hash128::from_hex(h.to_hex()), h);
  EXPECT_THROW(util::Hash128::from_hex("not hex"), plc::Error);
  EXPECT_THROW(util::Hash128::from_hex("abcd"), plc::Error);
  EXPECT_NE(util::hash128("a"), util::hash128("b"));
  EXPECT_NE(util::hash128("ab"), util::hash128("a"));
}

// ---------------------------------------------------------------------------
// util::fs

TEST(AtomicFile, RoundTripAndOverwrite) {
  TempDir dir("fs");
  const std::string path = dir.str() + "/nested/deep/file.txt";
  util::write_file_atomic(path, "first", /*create_dirs=*/true);
  EXPECT_EQ(slurp(path), "first");
  util::write_file_atomic(path, "second");
  EXPECT_EQ(slurp(path), "second");
  // No temp droppings left behind.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.str() + "/nested/deep")) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(AtomicFile, MissingDirsFailWithoutCreateFlag) {
  TempDir dir("fs_nodirs");
  EXPECT_THROW(
      util::write_file_atomic(dir.str() + "/absent/sub/file.txt", "x"),
      plc::Error);
  EXPECT_THROW(util::read_file(dir.str() + "/no_such_file"), plc::Error);
}

// ---------------------------------------------------------------------------
// util::RunningStats raw-moment round trip

TEST(RunningStats, FromMomentsIsBitwiseRoundTrip) {
  util::RunningStats stats;
  for (const double v : {0.25, 1.5, -3.75, 100.0, 0.1}) stats.add(v);
  const util::RunningStats copy = util::RunningStats::from_moments(
      stats.count(), stats.mean(), stats.m2(), stats.min(), stats.max(),
      stats.sum());
  EXPECT_EQ(copy.count(), stats.count());
  EXPECT_EQ(copy.mean(), stats.mean());
  EXPECT_EQ(copy.m2(), stats.m2());
  EXPECT_EQ(copy.min(), stats.min());
  EXPECT_EQ(copy.max(), stats.max());
  EXPECT_EQ(copy.sum(), stats.sum());
  EXPECT_EQ(copy.stddev(), stats.stddev());
}

// ---------------------------------------------------------------------------
// Key derivation

TEST(StoreKey, InvariantUnderFieldOrderAndWhitespace) {
  const store::Key a =
      store::make_key("sim/CA1", R"({"stations": 5,"seed": "0x1901"})", 0);
  const store::Key b =
      store::make_key("sim/CA1", R"({"seed":"0x1901",  "stations":5})", 0);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.point, b.point);  // Both canonicalized to the same bytes.
}

TEST(StoreKey, EveryCoordinateChangesTheDigest) {
  const std::string point = R"({"stations": 5})";
  const store::Key base = store::make_key("sim/CA1", point, 0);
  EXPECT_NE(store::make_key("sim/CA2", point, 0).digest, base.digest);
  EXPECT_NE(store::make_key("sim/CA1", point, 1).digest, base.digest);
  EXPECT_NE(store::make_key("sim/CA1", R"({"stations": 6})", 0).digest,
            base.digest);
}

TEST(StoreKey, RejectsMalformedPointJson) {
  EXPECT_THROW(store::make_key("sim/CA1", "{not json", 0), plc::Error);
}

// ---------------------------------------------------------------------------
// Store round trip

store::Key test_key(int rep = 0) {
  return store::make_key("test/leg", R"({"stations": 3,"duration_ns": 60000000000})", rep);
}

TEST(ResultStore, PublishThenLookupRoundTrips) {
  TempDir dir("roundtrip");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();

  EXPECT_FALSE(store.lookup(key).has_value());  // Cold miss.
  store.publish(key, R"({"throughput": 0.75,"events": 60000000000})");
  const auto payload = store.lookup(key);
  ASSERT_TRUE(payload.has_value());
  EXPECT_DOUBLE_EQ(payload->find("throughput")->number, 0.75);
  EXPECT_DOUBLE_EQ(payload->find("events")->number, 6e10);

  const store::Counters counters = store.counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.publishes, 1);
  EXPECT_EQ(counters.quarantined, 0);
  EXPECT_GT(counters.bytes_written, 0);
  EXPECT_GT(counters.bytes_read, 0);
}

TEST(ResultStore, RepublishIdenticalContentIsIdempotent) {
  TempDir dir("republish");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();
  store.publish(key, R"({"v": 1})");
  const std::string first = slurp(store.entry_path(key));
  store.publish(key, R"({"v": 1})");
  EXPECT_EQ(slurp(store.entry_path(key)), first);  // Last writer, same bytes.
}

TEST(ResultStore, ExportMetricsRegistersCounters) {
  TempDir dir("metrics");
  store::ResultStore store(dir.str());
  store.publish(test_key(), R"({"v": 1})");
  store.lookup(test_key());
  obs::Registry registry;
  store.export_metrics(registry);
  const obs::Snapshot snapshot = registry.snapshot();
  ASSERT_NE(snapshot.find("store.hits"), nullptr);
  EXPECT_DOUBLE_EQ(snapshot.find("store.hits")->value, 1.0);
  EXPECT_DOUBLE_EQ(snapshot.find("store.publishes")->value, 1.0);
  EXPECT_NE(snapshot.find("store.bytes_written"), nullptr);
}

// ---------------------------------------------------------------------------
// Corruption handling: miss + quarantine, never a crash, never a stale hit.

TEST(StoreCorruption, BitFlippedPayloadIsQuarantinedMiss) {
  TempDir dir("bitflip");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();
  store.publish(key, R"({"throughput": 0.75})");

  // Flip one digit inside the payload value.
  std::string text = slurp(store.entry_path(key));
  const auto pos = text.find("0.75");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 2] = '9';
  spill(store.entry_path(key), text);

  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.counters().quarantined, 1);
  EXPECT_FALSE(fs::exists(store.entry_path(key)));  // Moved out of the way.
  EXPECT_TRUE(fs::exists(fs::path(store.quarantine_dir()) /
                         fs::path(store.entry_path(key)).filename()));
  // The next lookup is a clean miss; a re-publish heals the entry.
  EXPECT_FALSE(store.lookup(key).has_value());
  store.publish(key, R"({"throughput": 0.75})");
  EXPECT_TRUE(store.lookup(key).has_value());
}

TEST(StoreCorruption, TruncatedEntryIsQuarantinedMiss) {
  TempDir dir("truncate");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();
  store.publish(key, R"({"throughput": 0.75})");
  const std::string text = slurp(store.entry_path(key));
  spill(store.entry_path(key), text.substr(0, text.size() / 2));
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.counters().quarantined, 1);
  EXPECT_FALSE(fs::exists(store.entry_path(key)));
}

TEST(StoreCorruption, WrongEpochIsQuarantinedMiss) {
  TempDir dir("epoch");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();
  store.publish(key, R"({"throughput": 0.75})");
  std::string text = slurp(store.entry_path(key));
  const std::string needle = "\"epoch\": 1";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"epoch\": 999");
  spill(store.entry_path(key), text);
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.counters().quarantined, 1);
}

TEST(StoreCorruption, TamperedKeyMaterialIsQuarantinedMiss) {
  TempDir dir("tamper");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();
  store.publish(key, R"({"throughput": 0.75})");
  // Re-point the echoed leg: the re-derived digest no longer matches
  // the filename or the echoed key, even though the JSON stays valid.
  std::string text = slurp(store.entry_path(key));
  const std::string needle = "\"leg\": \"test/leg\"";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"leg\": \"test/gel\"");
  spill(store.entry_path(key), text);
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.counters().quarantined, 1);
}

TEST(StoreCorruption, GarbageBytesAreQuarantinedMiss) {
  TempDir dir("garbage");
  store::ResultStore store(dir.str());
  const store::Key key = test_key();
  store.publish(key, R"({"throughput": 0.75})");
  spill(store.entry_path(key), "\x00\xff\x13garbage, not JSON");
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.counters().quarantined, 1);
}

// ---------------------------------------------------------------------------
// verify / scan / gc

TEST(StoreMaintenance, VerifyQuarantinesOnlyBrokenEntries) {
  TempDir dir("verify");
  store::ResultStore store(dir.str());
  for (int rep = 0; rep < 4; ++rep) {
    store.publish(test_key(rep), R"({"v": 1})");
  }
  // Break one of the four.
  const std::string victim = store.entry_path(test_key(2));
  std::string text = slurp(victim);
  text[text.size() - 3] ^= 0x20;
  spill(victim, text);

  const store::VerifyResult result = store.verify();
  EXPECT_EQ(result.checked, 4);
  EXPECT_EQ(result.ok, 3);
  EXPECT_EQ(result.quarantined, 1);
  // A second verify sees only the three healthy entries.
  const store::VerifyResult again = store.verify();
  EXPECT_EQ(again.checked, 3);
  EXPECT_EQ(again.ok, 3);
  EXPECT_EQ(again.quarantined, 0);
}

TEST(StoreMaintenance, ScanTotalsEntriesAndQuarantine) {
  TempDir dir("scan");
  store::ResultStore store(dir.str());
  store.publish(test_key(0), R"({"v": 1})");
  store.publish(test_key(1), R"({"v": 2})");
  store::DiskUsage usage = store.scan();
  EXPECT_EQ(usage.entries, 2);
  EXPECT_GT(usage.bytes, 0);
  EXPECT_EQ(usage.quarantined_entries, 0);

  spill(store.entry_path(test_key(1)), "broken");
  store.lookup(test_key(1));  // Quarantines.
  usage = store.scan();
  EXPECT_EQ(usage.entries, 1);
  EXPECT_EQ(usage.quarantined_entries, 1);
  EXPECT_GT(usage.quarantined_bytes, 0);
}

TEST(StoreMaintenance, GcEvictsOldestUntilUnderCapAndDropsQuarantine) {
  TempDir dir("gc");
  store::ResultStore store(dir.str());
  std::vector<std::string> paths;
  for (int rep = 0; rep < 5; ++rep) {
    store.publish(test_key(rep), R"({"v": 1})");
    paths.push_back(store.entry_path(test_key(rep)));
    // Distinct mtimes so eviction order is by age, oldest first.
    const auto mtime = fs::last_write_time(paths.back());
    fs::last_write_time(paths.back(), mtime + std::chrono::seconds(rep));
  }
  spill(store.entry_path(test_key(4)), "broken");
  store.lookup(test_key(4));  // Move entry 4 into quarantine.

  const std::int64_t entry_bytes = store.scan().bytes;
  ASSERT_GT(entry_bytes, 0);
  // Cap to roughly half: the oldest entries go, the newest stay.
  const store::GcResult result = store.gc(entry_bytes / 2);
  EXPECT_EQ(result.bytes_before, entry_bytes);
  EXPECT_LE(result.bytes_after, entry_bytes / 2);
  EXPECT_GT(result.removed, 0);
  EXPECT_FALSE(fs::exists(paths[0]));  // Oldest evicted first.
  EXPECT_TRUE(fs::exists(paths[3]));   // Newest healthy entry survives.
  // Quarantine emptied unconditionally.
  EXPECT_EQ(store.scan().quarantined_entries, 0);

  const store::GcResult empty = store.gc(0);
  EXPECT_EQ(empty.bytes_after, 0);
  EXPECT_EQ(store.scan().entries, 0);
}

// ---------------------------------------------------------------------------
// Metrics payload round trip

TEST(MetricsPayload, RoundTripsCountersGaugesAndRawMoments) {
  obs::Registry registry;
  registry.counter("c", {{"station", "3"}}).add(42);
  registry.gauge("g").set(2.5);
  auto& histogram = registry.histogram("h");
  for (const double v : {0.1, 0.9, 0.5, 0.30000000000000004}) {
    histogram.observe(v);
  }
  const obs::Snapshot original = registry.snapshot();

  std::ostringstream out;
  obs::JsonWriter json(out);
  store::write_metrics_payload(json, original);
  const obs::Snapshot decoded =
      store::read_metrics_payload(obs::parse_json(out.str()));

  ASSERT_EQ(decoded.samples().size(), original.samples().size());
  for (std::size_t i = 0; i < original.samples().size(); ++i) {
    const obs::MetricSample& a = original.samples()[i];
    const obs::MetricSample& b = decoded.samples()[i];
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.labels, a.labels);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.value, a.value);
    // Raw Welford moments must survive bitwise, or warm reports drift.
    EXPECT_EQ(b.distribution.count(), a.distribution.count());
    EXPECT_EQ(b.distribution.mean(), a.distribution.mean());
    EXPECT_EQ(b.distribution.m2(), a.distribution.m2());
    EXPECT_EQ(b.distribution.min(), a.distribution.min());
    EXPECT_EQ(b.distribution.max(), a.distribution.max());
    EXPECT_EQ(b.distribution.sum(), a.distribution.sum());
  }
  EXPECT_THROW(store::read_metrics_payload(obs::parse_json("{}")),
               plc::Error);
}

// Store entries are untrusted input: a count that is negative,
// fractional or too large for a double to hold exactly must fail the
// decode instead of reaching an integer cast.
TEST(MetricsPayload, RejectsInvalidCounts) {
  for (const char* bad : {"-1", "2.5", "1e300"}) {
    const std::string histogram =
        std::string(R"([{"name":"h","labels":[],"kind":"histogram","count":)") +
        bad + R"(,"mean":0,"m2":0,"min":0,"max":0,"sum":0}])";
    EXPECT_THROW(store::read_metrics_payload(obs::parse_json(histogram)),
                 plc::Error)
        << bad;
    const std::string counter =
        std::string(R"([{"name":"c","labels":[],"kind":"counter","value":)") +
        bad + "}]";
    EXPECT_THROW(store::read_metrics_payload(obs::parse_json(counter)),
                 plc::Error)
        << bad;
    EXPECT_THROW(store::read_count(obs::parse_json(bad)), plc::Error) << bad;
  }
  // Gauges are plain doubles; only counts are checked.
  EXPECT_EQ(store::read_metrics_payload(
                obs::parse_json(
                    R"([{"name":"g","labels":[],"kind":"gauge","value":-2.5}])"))
                .samples()[0]
                .value,
            -2.5);
  EXPECT_EQ(store::read_count(obs::parse_json("9007199254740992")),
            std::int64_t{1} << 53);
  EXPECT_THROW(store::read_count(obs::parse_json("9007199254740994")),
               plc::Error);
  EXPECT_THROW(store::read_count(obs::parse_json("\"7\"")), plc::Error);
}

// ---------------------------------------------------------------------------
// End-to-end: warm scenario runs are byte-identical and 100% hits.

scenario::Spec tiny_sim_spec() {
  scenario::Spec spec;
  spec.name = "store-test-tiny";
  spec.title = "store test";
  spec.macs[0].label = "CA1";
  spec.stations = {2, 3};
  spec.duration = des::SimTime::from_seconds(0.2);
  spec.repetitions = 2;
  spec.legs.model = false;
  spec.legs.testbed = false;
  spec.legs.exact_pair = false;
  spec.validate();
  return spec;
}

std::string run_report_text(const scenario::Spec& spec,
                            store::ResultStore* store, int jobs,
                            const std::string& path) {
  scenario::RunOptions options;
  options.jobs = jobs;
  options.store = store;
  const scenario::RunOutcome outcome = scenario::run_scenario(spec, options);
  outcome.report.save(path);
  return slurp(path);
}

TEST(StoreScenario, WarmRunIsByteIdenticalAndFullHit) {
  TempDir dir("scenario");
  const scenario::Spec spec = tiny_sim_spec();
  const std::string report_dir = dir.str();

  store::ResultStore cold(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cold, 1, report_dir + "/cold.json");
  EXPECT_EQ(cold.counters().hits, 0);
  EXPECT_EQ(cold.counters().misses, 4);  // 2 stations x 2 reps.
  EXPECT_EQ(cold.counters().publishes, 4);

  store::ResultStore warm(dir.str() + "/cache");
  const std::string warm_text =
      run_report_text(spec, &warm, 1, report_dir + "/warm.json");
  EXPECT_EQ(warm.counters().hits, 4);  // 100% hit rate.
  EXPECT_EQ(warm.counters().misses, 0);
  EXPECT_EQ(warm.counters().publishes, 0);
  EXPECT_EQ(warm_text, cold_text);  // Byte-identical report.
}

// The cache key must be a pure function of the spec content — a warm
// run with a different worker count still hits every entry.
TEST(StoreScenario, KeysAreInvariantAcrossJobs) {
  TempDir dir("jobs");
  const scenario::Spec spec = tiny_sim_spec();
  store::ResultStore cold(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cold, 1, dir.str() + "/j1.json");
  store::ResultStore warm(dir.str() + "/cache");
  const std::string warm_text =
      run_report_text(spec, &warm, 3, dir.str() + "/j3.json");
  EXPECT_EQ(warm.counters().hits, 4);
  EXPECT_EQ(warm.counters().misses, 0);
  EXPECT_EQ(warm_text, cold_text);
}

TEST(StoreScenario, TestbedLegCachesAndReproducesReport) {
  TempDir dir("testbed");
  scenario::Spec spec;
  spec.name = "store-test-testbed";
  spec.title = "store testbed test";
  spec.macs[0].label = "CA1";
  spec.stations = {2};
  spec.legs.sim = false;
  spec.legs.model = false;
  spec.legs.testbed = true;
  spec.legs.exact_pair = false;
  spec.testbed_tests = 2;
  spec.testbed_duration = des::SimTime::from_seconds(0.5);
  spec.validate();

  store::ResultStore cold(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cold, 1, dir.str() + "/cold.json");
  EXPECT_EQ(cold.counters().misses, 2);  // 1 station count x 2 tests.
  EXPECT_EQ(cold.counters().publishes, 2);

  store::ResultStore warm(dir.str() + "/cache");
  const std::string warm_text =
      run_report_text(spec, &warm, 1, dir.str() + "/warm.json");
  EXPECT_EQ(warm.counters().hits, 2);
  EXPECT_EQ(warm.counters().misses, 0);
  EXPECT_EQ(warm_text, cold_text);
}

// Hostile payloads that still pass the store's checksum (a hand-made or
// foreign entry): an invalid count in a real sim or testbed entry fails
// the decode, so the task re-runs and heals the entry, and the report
// does not change by a byte.
TEST(StoreScenario, InvalidCountsInPayloadsAreRerunAndRepublished) {
  TempDir dir("counts");
  scenario::Spec spec = tiny_sim_spec();
  spec.stations = {2};
  spec.repetitions = 1;
  spec.legs.testbed = true;
  spec.testbed_tests = 1;
  spec.testbed_duration = des::SimTime::from_seconds(0.5);
  spec.validate();
  store::ResultStore cache(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cache, 1, dir.str() + "/cold.json");

  const store::Key sim_key = store::make_key(
      "sim/CA1", sim::canonical_point_json(spec.to_run_spec(2, 0)), 0);
  const store::Key testbed_key = store::make_key(
      "testbed/CA1", tools::testbed_point_json(spec.to_testbed_config(2, 0)),
      0);
  struct Poison {
    const store::Key* key;
    std::vector<std::string> path;  ///< Member names; "0" = first item.
  };
  const std::vector<Poison> poisons = {
      {&sim_key, {"medium_events"}},
      {&sim_key, {"elapsed_ns"}},
      {&sim_key, {"metrics", "0", "value"}},
      {&testbed_key, {"acknowledged", "0"}},
      {&testbed_key, {"collided", "0"}},
      {&testbed_key, {"total_acknowledged"}},
      {&testbed_key, {"total_collided"}},
      {&testbed_key, {"frames_delivered"}},
  };
  const auto step_into = [](obs::JsonValue* value,
                            const std::string& step) -> obs::JsonValue* {
    if (step == "0") return value->items.empty() ? nullptr : &value->items[0];
    for (auto& [name, member] : value->members) {
      if (name == step) return &member;
    }
    return nullptr;
  };
  for (const Poison& poison : poisons) {
    const std::string healthy = cache.lookup(*poison.key)->dump();
    for (const double bad : {-1.0, 2.5, 1e300}) {
      obs::JsonValue payload = obs::parse_json(healthy);
      obs::JsonValue* field = &payload;
      for (const std::string& step : poison.path) {
        field = step_into(field, step);
        ASSERT_NE(field, nullptr) << step;
      }
      ASSERT_TRUE(field->is_number());
      field->number = bad;
      cache.publish(*poison.key, payload.dump());

      const std::int64_t publishes = cache.counters().publishes;
      const std::string warm_text =
          run_report_text(spec, &cache, 1, dir.str() + "/warm.json");
      EXPECT_EQ(warm_text, cold_text) << poison.path[0] << " = " << bad;
      EXPECT_EQ(cache.counters().publishes, publishes + 1)
          << poison.path[0] << " = " << bad;
      EXPECT_EQ(cache.lookup(*poison.key)->dump(), healthy)
          << poison.path[0] << " = " << bad;
    }
  }
}

// A testbed entry carries its test's metric snapshot. Entries written
// before the point JSON's version field hold des.* values of runs whose
// sources polled every 500 us, and version 2 entries hold des.* metrics
// that reports no longer carry. The version moves testbed keys only: an
// entry published under either earlier point JSON (written out literally
// below) must miss and re-run, while the sim entries in the same store
// still hit.
TEST(StoreScenario, TestbedEntriesOfAnEarlierVersionAreNeverServed) {
  TempDir dir("stale_testbed");
  scenario::Spec spec = tiny_sim_spec();
  spec.stations = {2};
  spec.repetitions = 1;
  spec.legs.testbed = true;
  spec.testbed_tests = 1;
  spec.testbed_duration = des::SimTime::from_seconds(0.5);
  spec.validate();
  store::ResultStore reference(dir.str() + "/reference");
  const std::string cold_text =
      run_report_text(spec, &reference, 1, dir.str() + "/cold.json");

  // The healthy entry, with a marker in place of one medium event count.
  const std::optional<obs::JsonValue> healthy = reference.lookup(
      store::make_key("testbed/CA1",
                      tools::testbed_point_json(spec.to_testbed_config(2, 0)),
                      0));
  ASSERT_TRUE(healthy.has_value());
  obs::JsonValue stale = *healthy;
  bool marked = false;
  for (auto& [name, member] : stale.members) {
    if (name != "metrics") continue;
    for (obs::JsonValue& sample : member.items) {
      const obs::JsonValue* metric = sample.find("name");
      if (marked || metric == nullptr || metric->text != "medium.events") {
        continue;
      }
      for (auto& [field, value] : sample.members) {
        if (field == "value") {
          value.number = 4242.0;
          marked = true;
        }
      }
    }
  }
  ASSERT_TRUE(marked);

  // A store with the spec's sim entry and the marked entry under the
  // point JSONs this test had before the version field and at version 2.
  const std::string point_fields =
      "\"stations\": 2,\"warmup_ns\": 2000000000,"
      "\"duration_ns\": 500000000,\"seed\": \"0x46acdea729036836\","
      "\"timing\": {\"slot_ns\": 35840,\"success_overhead_ns\": 492640,"
      "\"collision_overhead_ns\": 870640,\"burst_gap_ns\": 0},"
      "\"sniff\": false,\"mme_interval_ns\": 0,\"mme_payload_bytes\": 100}";
  {
    scenario::Spec sim_only = spec;
    sim_only.legs.testbed = false;
    sim_only.validate();
    store::ResultStore cache(dir.str() + "/cache");
    run_report_text(sim_only, &cache, 1, dir.str() + "/sim.json");
    for (const std::string& earlier_point :
         {"{" + point_fields, "{\"version\": 2," + point_fields}) {
      cache.publish(store::make_key("testbed/CA1", earlier_point, 0),
                    stale.dump());
    }
  }

  store::ResultStore warm(dir.str() + "/cache");
  const std::string warm_text =
      run_report_text(spec, &warm, 1, dir.str() + "/warm.json");
  EXPECT_EQ(warm.counters().hits, 1);    // The sim task.
  EXPECT_EQ(warm.counters().misses, 1);  // The testbed task re-runs.
  EXPECT_EQ(warm.counters().publishes, 1);
  EXPECT_EQ(warm_text, cold_text);
}

// The testbed leg runs on the engine, so an attached hub sees its tasks
// and their store traffic like the sim leg's.
TEST(StoreScenario, TelemetryCountsTestbedTasksAndStoreTraffic) {
  TempDir dir("telemetry");
  scenario::Spec spec = tiny_sim_spec();
  spec.legs.sim = false;
  spec.legs.testbed = true;
  spec.testbed_tests = 2;
  spec.testbed_duration = des::SimTime::from_seconds(0.5);
  spec.validate();
  store::ResultStore cache(dir.str() + "/cache");
  for (const bool warm : {false, true}) {
    obs::TelemetryHub hub;
    scenario::RunOptions options;
    options.jobs = 2;
    options.store = &cache;
    options.telemetry = &hub;
    scenario::run_scenario(spec, options);
    const obs::TelemetryHub::Progress progress = hub.progress();
    EXPECT_EQ(progress.tasks_total, 4) << warm;  // 2 station counts x 2.
    EXPECT_EQ(progress.tasks_completed, 4) << warm;
    EXPECT_EQ(progress.tasks_in_flight, 0) << warm;
    EXPECT_EQ(progress.store_hits, warm ? 4 : 0);
    EXPECT_EQ(progress.store_misses, warm ? 0 : 4);
    // Cold tasks feed their testbed metrics to the live view too.
    EXPECT_GT(hub.metrics_snapshot().total("medium.events"), 0.0);
  }
}

// ---------------------------------------------------------------------------
// The exact-pair leg: the N = 2 chain is one store-backed engine task.

/// CW {4, 8}, DC {0, 1}: 4 + 8 * 2 = 20 states per station, so the
/// exact chain solves in milliseconds.
const mac::BackoffConfig kTinyChain{"tiny", {4, 8}, {0, 1}};

scenario::Spec tiny_exact_spec() {
  scenario::Spec spec;
  spec.name = "store-test-exact";
  spec.title = "store exact-pair test";
  spec.macs = {scenario::MacVariant{"TINY", kTinyChain}};
  spec.stations = {2};
  spec.legs.sim = false;
  spec.legs.model = false;
  spec.legs.exact_pair = true;
  spec.validate();
  return spec;
}

TEST(StoreExactPair, WarmRunReadsTheOneEntry) {
  TempDir dir("exact");
  const scenario::Spec spec = tiny_exact_spec();
  store::ResultStore cold(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cold, 1, dir.str() + "/cold.json");
  EXPECT_EQ(cold.counters().hits, 0);
  EXPECT_EQ(cold.counters().misses, 1);
  EXPECT_EQ(cold.counters().publishes, 1);

  store::ResultStore warm(dir.str() + "/cache");
  scenario::RunOptions options;
  options.jobs = 1;
  options.store = &warm;
  const obs::RunReport warm_report =
      scenario::run_scenario(spec, options).report;
  warm_report.save(dir.str() + "/warm.json");
  EXPECT_EQ(warm.counters().hits, 1);
  EXPECT_EQ(warm.counters().misses, 0);
  EXPECT_EQ(warm.counters().publishes, 0);
  EXPECT_EQ(slurp(dir.str() + "/warm.json"), cold_text);
  // The entry carries the solver's value bit for bit.
  EXPECT_EQ(warm_report.scalars.at("TINY.n2.exact_collision_probability"),
            analysis::solve_exact_pair(kTinyChain, 3000, 1e-10)
                .collision_probability);
}

// The key is the chain's input (CW, DC, iteration cap, tolerance), not
// the variant's label or display name.
TEST(StoreExactPair, RelabelledVariantHitsAndChangedChainMisses) {
  TempDir dir("exact_key");
  const scenario::Spec spec = tiny_exact_spec();
  store::ResultStore cache(dir.str() + "/cache");
  run_report_text(spec, &cache, 1, dir.str() + "/cold.json");

  scenario::Spec relabelled = spec;
  relabelled.macs[0].label = "OTHER";
  relabelled.macs[0].mac = mac::BackoffConfig{"renamed", {4, 8}, {0, 1}};
  store::ResultStore relabelled_store(dir.str() + "/cache");
  run_report_text(relabelled, &relabelled_store, 1,
                  dir.str() + "/relabelled.json");
  EXPECT_EQ(relabelled_store.counters().hits, 1);
  EXPECT_EQ(relabelled_store.counters().misses, 0);

  scenario::Spec changed = spec;
  changed.macs[0].mac = mac::BackoffConfig{"tiny", {4, 16}, {0, 1}};
  store::ResultStore changed_store(dir.str() + "/cache");
  run_report_text(changed, &changed_store, 1, dir.str() + "/changed.json");
  EXPECT_EQ(changed_store.counters().hits, 0);
  EXPECT_EQ(changed_store.counters().misses, 1);
  EXPECT_EQ(changed_store.counters().publishes, 1);
}

// A payload that passes the store's checksum but is not a probability
// is re-solved and re-published; the report does not change.
TEST(StoreExactPair, HostilePayloadsAreResolvedAndRepublished) {
  TempDir dir("exact_hostile");
  const scenario::Spec spec = tiny_exact_spec();
  store::ResultStore cache(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cache, 1, dir.str() + "/cold.json");

  const store::Key key = store::make_key(
      "exact_pair",
      R"({"cw": [4, 8], "dc": [0, 1], "max_iterations": 3000, )"
      R"("solver": "post-event", "tolerance": 1e-10})",
      0);
  const std::optional<obs::JsonValue> stored = cache.lookup(key);
  ASSERT_TRUE(stored.has_value());
  const std::string healthy = stored->dump();
  for (const std::string poison :
       {R"({"collision_probability": -0.5})",
        R"({"collision_probability": 2.0})",
        R"({"collision_probability": 1e300})",
        R"({"collision_probability": "0.08"})", R"({"other": 0.08})"}) {
    cache.publish(key, poison);
    const std::int64_t publishes = cache.counters().publishes;
    const std::string warm_text =
        run_report_text(spec, &cache, 1, dir.str() + "/warm.json");
    EXPECT_EQ(warm_text, cold_text) << poison;
    EXPECT_EQ(cache.counters().publishes, publishes + 1) << poison;
    EXPECT_EQ(cache.lookup(key)->dump(), healthy) << poison;
  }
}

// An entry solved on the full joint chain, under the key it had before
// the solver field, is never served: the run misses, re-solves on the
// post-event chain, publishes and writes the cold report.
TEST(StoreExactPair, FullChainEntriesAreNeverServed) {
  TempDir dir("exact_full_chain");
  const scenario::Spec spec = tiny_exact_spec();
  store::ResultStore reference(dir.str() + "/reference");
  const std::string cold_text =
      run_report_text(spec, &reference, 1, dir.str() + "/cold.json");

  const store::Key full_chain_key = store::make_key(
      "exact_pair",
      R"({"cw": [4, 8], "dc": [0, 1], "max_iterations": 3000, )"
      R"("tolerance": 1e-10})",
      0);
  {
    store::ResultStore cache(dir.str() + "/cache");
    cache.publish(full_chain_key, R"({"collision_probability": 0.4242})");
  }
  store::ResultStore warm(dir.str() + "/cache");
  const std::string warm_text =
      run_report_text(spec, &warm, 1, dir.str() + "/warm.json");
  EXPECT_EQ(warm.counters().hits, 0);
  EXPECT_EQ(warm.counters().misses, 1);
  EXPECT_EQ(warm.counters().publishes, 1);
  EXPECT_EQ(warm_text, cold_text);
}

// The solver's state-space guard still fails the run, now from a worker
// task, and a failed solve publishes nothing.
TEST(StoreExactPair, StateSpaceGuardFailsTheRunAndPublishesNothing) {
  TempDir dir("exact_guard");
  scenario::Spec spec = tiny_exact_spec();
  // 1024 * 4 + 1024 * 4 = 8192 states per station, over the 4096 cap.
  spec.macs[0].mac = mac::BackoffConfig{"huge", {1024, 1024}, {3, 3}};
  spec.validate();
  store::ResultStore cache(dir.str() + "/cache");
  scenario::RunOptions options;
  options.store = &cache;
  EXPECT_THROW(scenario::run_scenario(spec, options), plc::Error);
  EXPECT_EQ(cache.counters().misses, 1);
  EXPECT_EQ(cache.counters().publishes, 0);
}

// The exact task runs on the engine, so an attached hub counts it with
// the sim tasks, store traffic included.
TEST(StoreExactPair, TelemetryCountsTheExactTask) {
  TempDir dir("exact_telemetry");
  scenario::Spec spec = tiny_exact_spec();
  spec.legs.sim = true;
  spec.duration = des::SimTime::from_seconds(0.2);
  spec.repetitions = 2;
  spec.validate();
  store::ResultStore cache(dir.str() + "/cache");
  for (const bool warm : {false, true}) {
    obs::TelemetryHub hub;
    scenario::RunOptions options;
    options.jobs = 2;
    options.store = &cache;
    options.telemetry = &hub;
    scenario::run_scenario(spec, options);
    const obs::TelemetryHub::Progress progress = hub.progress();
    EXPECT_EQ(progress.tasks_total, 3) << warm;  // 2 sim reps + 1 exact.
    EXPECT_EQ(progress.tasks_completed, 3) << warm;
    EXPECT_EQ(progress.store_hits, warm ? 3 : 0);
    EXPECT_EQ(progress.store_misses, warm ? 0 : 3);
  }
}

// A corrupted entry mid-sweep degrades to a re-simulation, not a wrong
// number: the warm report still matches even with one entry broken.
TEST(StoreScenario, CorruptedEntryFallsBackToSimulation) {
  TempDir dir("fallback");
  const scenario::Spec spec = tiny_sim_spec();
  store::ResultStore cold(dir.str() + "/cache");
  const std::string cold_text =
      run_report_text(spec, &cold, 1, dir.str() + "/cold.json");

  // Break one of the four entries on disk.
  bool broke = false;
  for (const auto& entry : fs::recursive_directory_iterator(
           dir.str() + "/cache")) {
    if (entry.is_regular_file() && !broke) {
      std::string text = slurp(entry.path().string());
      text[text.size() / 2] ^= 0x01;
      spill(entry.path().string(), text);
      broke = true;
    }
  }
  ASSERT_TRUE(broke);

  store::ResultStore warm(dir.str() + "/cache");
  const std::string warm_text =
      run_report_text(spec, &warm, 1, dir.str() + "/warm.json");
  EXPECT_EQ(warm.counters().hits, 3);
  EXPECT_EQ(warm.counters().misses, 1);
  EXPECT_EQ(warm.counters().quarantined, 1);
  EXPECT_EQ(warm.counters().publishes, 1);  // Healed by the re-run.
  EXPECT_EQ(warm_text, cold_text);
}

}  // namespace
