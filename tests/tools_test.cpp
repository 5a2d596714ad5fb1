#include <sstream>

#include <gtest/gtest.h>

#include "emu/network.hpp"
#include "obs/telemetry.hpp"
#include "tools/ampstat.hpp"
#include "tools/benchdiff.hpp"
#include "tools/capture.hpp"
#include "tools/faifa.hpp"
#include "tools/testbed.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace plc::tools {
namespace {

// --- AmpStat -----------------------------------------------------------------------

TEST(AmpStatTool, ReadsCountersThroughTheMmePath) {
  emu::Network network(1);
  emu::HpavDevice& sender = network.add_device();
  emu::HpavDevice& receiver = network.add_device();
  AmpStat ampstat(sender);
  network.start();
  for (int i = 0; i < 32; ++i) {
    frames::EthernetFrame frame;
    frame.destination = receiver.mac();
    frame.source = sender.mac();
    frame.ether_type = frames::kEtherTypeIpv4;
    frame.payload.assign(1400, 0);
    sender.host_send(frame);
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  const mme::AmpStatConfirm confirm =
      ampstat.query(receiver.mac(), frames::Priority::kCa1);
  EXPECT_EQ(confirm.status, 0);
  EXPECT_GT(confirm.acknowledged, 0u);
  EXPECT_EQ(confirm.collided, 0u);  // Single sender: no collisions.
  // The MME-reported value equals the firmware's internal counter.
  EXPECT_EQ(confirm.acknowledged,
            sender.counters()
                .read(receiver.mac(), frames::Priority::kCa1,
                      mme::StatDirection::kTx)
                .acknowledged);
}

TEST(AmpStatTool, ResetZeroesCounters) {
  emu::Network network(2);
  emu::HpavDevice& sender = network.add_device();
  emu::HpavDevice& receiver = network.add_device();
  AmpStat ampstat(sender);
  network.start();
  frames::EthernetFrame frame;
  frame.destination = receiver.mac();
  frame.source = sender.mac();
  frame.ether_type = frames::kEtherTypeIpv4;
  frame.payload.assign(1400, 0);
  for (int i = 0; i < 8; ++i) sender.host_send(frame);
  network.run_for(des::SimTime::from_seconds(1.0));
  EXPECT_GT(ampstat.query(receiver.mac(), frames::Priority::kCa1)
                .acknowledged, 0u);
  const mme::AmpStatConfirm after_reset =
      ampstat.reset(receiver.mac(), frames::Priority::kCa1);
  EXPECT_EQ(after_reset.acknowledged, 0u);
  EXPECT_EQ(after_reset.collided, 0u);
}

// --- Faifa -------------------------------------------------------------------------

TEST(FaifaTool, EnableDisableThroughTheMmePath) {
  emu::Network network(3);
  emu::HpavDevice& device = network.add_device();
  Faifa faifa(device);
  EXPECT_FALSE(device.sniffer_enabled());
  faifa.enable_sniffer();
  EXPECT_TRUE(device.sniffer_enabled());
  EXPECT_TRUE(faifa.sniffer_enabled());
  faifa.disable_sniffer();
  EXPECT_FALSE(device.sniffer_enabled());
}

TEST(FaifaTool, SegmentsBurstsByMpduCnt) {
  emu::Network network(4);
  emu::HpavDevice& sender = network.add_device();
  emu::HpavDevice& destination = network.add_device();
  Faifa faifa(destination);
  faifa.enable_sniffer();
  network.start();
  for (int i = 0; i < 64; ++i) {
    frames::EthernetFrame frame;
    frame.destination = destination.mac();
    frame.source = sender.mac();
    frame.ether_type = frames::kEtherTypeIpv4;
    frame.payload.assign(1400, 0);
    sender.host_send(frame);
  }
  network.run_for(des::SimTime::from_seconds(1.0));
  const auto bursts = faifa.bursts();
  ASSERT_GT(bursts.size(), 0u);
  const auto& stats = network.domain().stats();
  EXPECT_EQ(static_cast<std::int64_t>(bursts.size()),
            stats.successes + stats.collision_events);
  for (const Faifa::BurstInfo& burst : bursts) {
    EXPECT_EQ(burst.src_tei, sender.tei());
    EXPECT_EQ(burst.priority, frames::Priority::kCa1);
    EXPECT_FALSE(burst.mme);
    EXPECT_GE(burst.mpdu_count, 1);
    EXPECT_LE(burst.mpdu_count, 2);
  }
}

TEST(FaifaTool, FormatCaptureIsHumanReadable) {
  mme::SnifferIndication indication;
  indication.sof.src_tei = 3;
  indication.sof.dst_tei = 4;
  indication.sof.link_id = static_cast<std::uint8_t>(frames::Priority::kCa1);
  indication.sof.mpdu_cnt = 1;
  indication.sof.pb_count = 16;
  const std::string line = Faifa::format_capture(indication);
  EXPECT_NE(line.find("stei=3"), std::string::npos);
  EXPECT_NE(line.find("dtei=4"), std::string::npos);
  EXPECT_NE(line.find("lid=CA1"), std::string::npos);
  EXPECT_NE(line.find("mpducnt=1"), std::string::npos);
}

// --- Capture files --------------------------------------------------------------------

std::vector<mme::SnifferIndication> sample_captures(int count) {
  std::vector<mme::SnifferIndication> captures;
  for (int i = 0; i < count; ++i) {
    mme::SnifferIndication capture;
    capture.timestamp_10ns = static_cast<std::uint64_t>(i) * 100;
    capture.sof.src_tei = static_cast<std::uint8_t>(1 + i % 3);
    capture.sof.dst_tei = 9;
    capture.sof.link_id =
        static_cast<std::uint8_t>(i % 5 == 0 ? frames::Priority::kCa2
                                             : frames::Priority::kCa1);
    capture.sof.mme_flag = i % 5 == 0;
    capture.sof.mpdu_cnt = static_cast<std::uint8_t>(i % 2);
    capture.sof.set_frame_duration(des::SimTime::from_us(1025.0));
    captures.push_back(capture);
  }
  return captures;
}

TEST(CaptureFile, RoundTripPreservesEverything) {
  const auto original = sample_captures(37);
  std::stringstream buffer;
  write_capture_file(buffer, original);
  const auto parsed = read_capture_file(buffer);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].timestamp_10ns, original[i].timestamp_10ns);
    EXPECT_EQ(parsed[i].sof.src_tei, original[i].sof.src_tei);
    EXPECT_EQ(parsed[i].sof.mme_flag, original[i].sof.mme_flag);
    EXPECT_EQ(parsed[i].sof.mpdu_cnt, original[i].sof.mpdu_cnt);
  }
}

TEST(CaptureFile, EmptyFileRoundTrips) {
  std::stringstream buffer;
  write_capture_file(buffer, {});
  EXPECT_TRUE(read_capture_file(buffer).empty());
}

TEST(CaptureFile, RejectsBadMagicTruncationAndCorruption) {
  {
    std::stringstream buffer("not a capture");
    EXPECT_THROW(read_capture_file(buffer), plc::Error);
  }
  {
    std::stringstream buffer;
    write_capture_file(buffer, sample_captures(5));
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 7);  // Truncate mid-record.
    std::stringstream truncated(bytes);
    EXPECT_THROW(read_capture_file(truncated), plc::Error);
  }
  {
    std::stringstream buffer;
    write_capture_file(buffer, sample_captures(5));
    std::string bytes = buffer.str();
    bytes[bytes.size() - 5] ^= 0x40;  // Corrupt a SoF byte: CRC trips.
    std::stringstream corrupted(bytes);
    EXPECT_THROW(read_capture_file(corrupted), plc::Error);
  }
}

TEST(CaptureFile, ReloadedCapturesAnalyzeIdentically) {
  const auto original = sample_captures(40);
  std::stringstream buffer;
  write_capture_file(buffer, original);
  const auto reloaded = read_capture_file(buffer);
  EXPECT_EQ(Faifa::segment_bursts(original).size(),
            Faifa::segment_bursts(reloaded).size());
  EXPECT_DOUBLE_EQ(Faifa::mme_overhead_of(original),
                   Faifa::mme_overhead_of(reloaded));
  EXPECT_EQ(Faifa::data_burst_sources_of(original),
            Faifa::data_burst_sources_of(reloaded));
}

// --- Testbed harness (the §3 procedure) -----------------------------------------------

TEST(Testbed, AmpstatEstimatorEqualsGroundTruth) {
  TestbedConfig config;
  config.stations = 3;
  config.duration = des::SimTime::from_seconds(10.0);
  const TestbedResult result = run_saturated_testbed(config);
  // The MME-reported estimator must agree exactly with the medium's MPDU
  // accounting: collided/acked == collided_mpdus/(success+collided MPDUs).
  EXPECT_EQ(result.total_collided,
            static_cast<std::uint64_t>(result.domain.collided_mpdus));
  EXPECT_EQ(result.total_acknowledged,
            static_cast<std::uint64_t>(result.domain.success_mpdus +
                                       result.domain.collided_mpdus));
  EXPECT_GT(result.collision_probability, 0.05);
  EXPECT_LT(result.collision_probability, 0.25);
}

TEST(Testbed, AcknowledgedFramesGrowWithN) {
  // The paper's §3.2 observation on real hardware: sum(Ai) *increases*
  // with N because collided frames are acknowledged too and less total
  // time is spent in backoff.
  TestbedConfig config;
  config.duration = des::SimTime::from_seconds(10.0);
  config.stations = 1;
  const std::uint64_t a1 =
      run_saturated_testbed(config).total_acknowledged;
  config.stations = 4;
  const std::uint64_t a4 =
      run_saturated_testbed(config).total_acknowledged;
  EXPECT_GT(a4, a1);
}

TEST(Testbed, PerStationCountersRoughlyBalanced) {
  TestbedConfig config;
  config.stations = 3;
  config.duration = des::SimTime::from_seconds(20.0);
  const TestbedResult result = run_saturated_testbed(config);
  ASSERT_EQ(result.acknowledged.size(), 3u);
  for (const std::uint64_t acked : result.acknowledged) {
    const double share = static_cast<double>(acked) /
                         static_cast<double>(result.total_acknowledged);
    EXPECT_NEAR(share, 1.0 / 3.0, 0.08);  // Long-term fairness.
  }
}

TEST(Testbed, SnifferTraceCoversDataBursts) {
  TestbedConfig config;
  config.stations = 2;
  config.duration = des::SimTime::from_seconds(5.0);
  config.sniff_at_destination = true;
  const TestbedResult result = run_saturated_testbed(config);
  EXPECT_FALSE(result.data_burst_sources.empty());
  for (const int tei : result.data_burst_sources) {
    EXPECT_GE(tei, 1);
    EXPECT_LE(tei, 2);
  }
  EXPECT_DOUBLE_EQ(result.mme_overhead, 0.0);  // No MME chatter enabled.
}

TEST(Testbed, MmeChatterShowsUpAsOverhead) {
  TestbedConfig config;
  config.stations = 2;
  config.duration = des::SimTime::from_seconds(5.0);
  config.sniff_at_destination = true;
  config.mme_interval = des::SimTime::from_us(50'000.0);  // 20 MME/s.
  const TestbedResult result = run_saturated_testbed(config);
  EXPECT_GT(result.mme_overhead, 0.0);
  EXPECT_LT(result.mme_overhead, 0.5);
}

TEST(Testbed, DataKeepsFlowingToDestination) {
  TestbedConfig config;
  config.stations = 2;
  config.duration = des::SimTime::from_seconds(5.0);
  const TestbedResult result = run_saturated_testbed(config);
  EXPECT_GT(result.frames_delivered_to_destination, 1000);
}

TEST(Testbed, ProgressMeterLeavesTheRunUnchanged) {
  // --progress reads the telemetry hub, which a run feeds at each
  // one-second checkpoint. The hub only reads: with MME timers pending,
  // a registry and a trace attached, a run that feeds a hub has the same
  // counters, metric snapshot and trace bytes as one that does not.
  struct Observed {
    TestbedResult result;
    std::string metrics;
    std::string trace;
  };
  const auto observe = [](obs::TelemetryHub* hub) {
    TestbedConfig config;
    config.stations = 3;
    config.mme_interval = des::SimTime::from_us(50'000.0);
    config.warmup = des::SimTime::from_seconds(0.5);
    config.duration = des::SimTime::from_seconds(3.5);
    obs::Registry registry;
    obs::TraceSink trace;
    config.registry = &registry;
    config.trace = &trace;
    config.telemetry = hub;
    Observed observed;
    observed.result = run_saturated_testbed(config);
    std::ostringstream metrics;
    registry.snapshot().write_json(metrics);
    observed.metrics = metrics.str();
    std::ostringstream trace_bytes;
    trace.write_jsonl(trace_bytes);
    observed.trace = trace_bytes.str();
    return observed;
  };
  obs::TelemetryHub hub;
  const Observed with_hub = observe(&hub);
  const Observed without = observe(nullptr);
  EXPECT_EQ(with_hub.result.acknowledged, without.result.acknowledged);
  EXPECT_EQ(with_hub.result.collided, without.result.collided);
  EXPECT_EQ(with_hub.result.frames_delivered_to_destination,
            without.result.frames_delivered_to_destination);
  EXPECT_EQ(with_hub.result.domain.idle_slots,
            without.result.domain.idle_slots);
  EXPECT_EQ(with_hub.result.domain.successes,
            without.result.domain.successes);
  EXPECT_EQ(with_hub.result.domain.collision_events,
            without.result.domain.collision_events);
  EXPECT_EQ(with_hub.metrics, without.metrics);
  EXPECT_EQ(with_hub.trace, without.trace);
  EXPECT_GT(without.trace.size(), 0u);

  // The hub gets the run's 0.5 s of warm-up and 3.5 s measured.
  EXPECT_EQ(hub.progress().sim_seconds, 4.0);
}

TEST(Testbed, ProgressMeterIsFedTheRunsMediumEvents) {
  // The hub's events, which --progress prints, are the run's medium
  // events (idle slots, exchanges and beacons), as in the sim leg, not
  // the scheduler's dispatches: with idle gaps and MME timers the two
  // differ.
  TestbedConfig config;
  config.stations = 3;
  config.mme_interval = des::SimTime::from_us(50'000.0);
  config.warmup = des::SimTime::from_seconds(0.5);
  config.duration = des::SimTime::from_seconds(2.5);
  obs::Registry registry;
  config.registry = &registry;
  obs::TelemetryHub hub;
  config.telemetry = &hub;
  run_saturated_testbed(config);
  const double medium_events = registry.snapshot().total("medium.events");
  EXPECT_GT(medium_events, 0.0);
  EXPECT_EQ(static_cast<double>(hub.progress().events), medium_events);
}

TEST(Testbed, RejectsBadConfig) {
  TestbedConfig config;
  config.stations = 0;
  EXPECT_THROW(run_saturated_testbed(config), plc::Error);
  config.stations = 1;
  config.duration = des::SimTime::zero();
  EXPECT_THROW(run_saturated_testbed(config), plc::Error);
}

// --- Golden pins: the testbed's output, exactly -------------------------------------
//
// Reports carry the testbed's counters and medium.events, so the data
// plane (sources, segmenter, receive path) may get cheaper but must not
// change a single medium event or RNG draw. These values were recorded
// from the per-byte deque segmenter and the push-then-read saturated
// source; the capture digest from the map-backed scheduler and the
// per-slot MediumEventRecord. The medium.events totals were recorded
// while reports still carried the scheduler's dispatch count, which
// they equal except for the two MME cases' timer events.

struct TestbedPin {
  std::vector<std::uint64_t> acknowledged;
  std::vector<std::uint64_t> collided;
  std::int64_t frames_delivered = 0;
  std::int64_t idle_slots = 0;
  std::int64_t successes = 0;
  std::int64_t collision_events = 0;
  /// The registry's medium.events total, warm-up included.
  std::int64_t medium_events = 0;
  std::size_t captures = 0;
  /// hash128 (hex) over every capture's timestamp and encoded SoF.
  std::string capture_digest;
};

std::string capture_digest(
    const std::vector<mme::SnifferIndication>& captures) {
  std::string bytes;
  for (const mme::SnifferIndication& capture : captures) {
    for (int shift = 0; shift < 64; shift += 8) {
      bytes.push_back(static_cast<char>(capture.timestamp_10ns >> shift));
    }
    for (const std::uint8_t byte : capture.sof.encode()) {
      bytes.push_back(static_cast<char>(byte));
    }
  }
  return util::hash128(bytes).to_hex();
}

/// The digest of no captures.
const std::string kNoCaptures = util::hash128("").to_hex();

TestbedPin observe_testbed(TestbedConfig config) {
  obs::Registry registry;
  config.registry = &registry;
  config.duration = des::SimTime::from_seconds(5.0);
  const TestbedResult result = run_saturated_testbed(config);
  TestbedPin pin;
  pin.acknowledged = result.acknowledged;
  pin.collided = result.collided;
  pin.frames_delivered = result.frames_delivered_to_destination;
  pin.idle_slots = result.domain.idle_slots;
  pin.successes = result.domain.successes;
  pin.collision_events = result.domain.collision_events;
  pin.medium_events = static_cast<std::int64_t>(
      registry.snapshot().total("medium.events"));
  pin.captures = result.captures.size();
  pin.capture_digest = capture_digest(result.captures);
  return pin;
}

void expect_pin(const TestbedPin& actual, const TestbedPin& expected) {
  EXPECT_EQ(actual.acknowledged, expected.acknowledged);
  EXPECT_EQ(actual.collided, expected.collided);
  EXPECT_EQ(actual.frames_delivered, expected.frames_delivered);
  EXPECT_EQ(actual.idle_slots, expected.idle_slots);
  EXPECT_EQ(actual.successes, expected.successes);
  EXPECT_EQ(actual.collision_events, expected.collision_events);
  EXPECT_EQ(actual.medium_events, expected.medium_events);
  EXPECT_EQ(actual.captures, expected.captures);
  EXPECT_EQ(actual.capture_digest, expected.capture_digest);
}

TEST(TestbedGolden, OneStation) {
  TestbedConfig config;
  config.stations = 1;
  expect_pin(observe_testbed(config),
             {{3746}, {0}, 28886, 6576, 1873, 0, 11976, 0, kNoCaptures});
}

TEST(TestbedGolden, ThreeStations) {
  TestbedConfig config;
  config.stations = 3;
  expect_pin(observe_testbed(config), {{1296, 1250, 1442},
                                       {140, 178, 166},
                                       26869, 5431, 1752, 120, 10324, 0,
                                       kNoCaptures});
}

TEST(TestbedGolden, SevenStations) {
  TestbedConfig config;
  config.stations = 7;
  expect_pin(observe_testbed(config),
             {{468, 646, 720, 570, 552, 684, 642},
              {120, 184, 150, 138, 128, 146, 166},
              24749, 4004, 1626, 247, 8219, 0, kNoCaptures});
}

TEST(TestbedGolden, PbErrorsWithToneMapAdaptation) {
  // Bad PBs leave holes that later PBs overtake (the receiver's
  // out-of-order path), and the error EWMA drives tone-map update MMEs
  // from D back to the stations.
  TestbedConfig config;
  config.stations = 3;
  config.device.pb_error_rate = 0.12;
  config.device.adaptation.enabled = true;
  expect_pin(observe_testbed(config), {{1196, 1158, 1382},
                                       {132, 170, 162},
                                       1940, 5090, 1636, 115, 9669, 0,
                                       kNoCaptures});
}

TEST(TestbedGolden, CollidedMmeRunsOutgrowARobustProfile) {
  // Three-PB management frames from every station collide at CA2, and
  // D's tone-map updates can move a station's CA2 link to a profile
  // that fits fewer PBs per MPDU before its retry: the retry re-splits
  // the collided MPDUs' blocks across the smaller MPDUs.
  TestbedConfig config;
  config.stations = 3;
  config.device.pb_error_rate = 0.1;
  config.device.adaptation.enabled = true;
  config.mme_interval = des::SimTime::from_us(25'000.0);
  config.mme_payload_bytes = 1400;
  expect_pin(observe_testbed(config), {{440, 450, 488},
                                       {98, 122, 116},
                                       2572, 5816, 1750, 196, 11353, 0,
                                       kNoCaptures});
}

TEST(TestbedGolden, MmeChatterWithSniffer) {
  TestbedConfig config;
  config.stations = 2;
  config.mme_interval = des::SimTime::from_us(50'000.0);
  config.sniff_at_destination = true;
  expect_pin(observe_testbed(config), {{1784, 1862}, {184, 184},
                                       25616, 6537, 1839, 105, 11800, 3872,
                                       "efdc84cdb61556ee444a240b1b69199e"});
}

TEST(TestbedGolden, MmeChatterTraceAndMetrics) {
  // The per-slot record of a run whose idle runs end at MME timers, at
  // checkpoint horizons (the warm-up reset among them) and at
  // exchanges: every idle slot is a trace span at its own start time.
  TestbedConfig config;
  config.stations = 3;
  config.mme_interval = des::SimTime::from_us(50'000.0);
  config.warmup = des::SimTime::from_seconds(0.5);
  config.duration = des::SimTime::from_seconds(3.0);
  obs::Registry registry;
  obs::TraceSink trace;
  config.registry = &registry;
  config.trace = &trace;
  const TestbedResult result = run_saturated_testbed(config);
  EXPECT_EQ(result.acknowledged, (std::vector<std::uint64_t>{668, 762, 716}));
  EXPECT_EQ(result.domain.idle_slots, 3564);
  EXPECT_EQ(result.domain.successes, 1102);
  EXPECT_EQ(result.domain.collision_events, 94);
  std::ostringstream metrics;
  registry.snapshot().write_json(metrics);
  std::ostringstream trace_bytes;
  trace.write_jsonl(trace_bytes);
  EXPECT_EQ(trace.dropped(), 0);
  EXPECT_EQ(util::hash128(trace_bytes.str()).to_hex(),
            "4005952c6347b36ada97ae07f9896305");
  EXPECT_EQ(util::hash128(metrics.str()).to_hex(),
            "815dd6e80d72152ef26c29d21543dcbd");
}

// --- benchdiff: JSON parsing -------------------------------------------------

TEST(BenchDiffJson, ParsesScalarsArraysAndEscapes) {
  const JsonValue value = parse_json(
      "{\"name\": \"a\\\"b\", \"n\": -1.5e2, \"ok\": true,"
      " \"none\": null, \"list\": [1, \"two\", false]}");
  ASSERT_TRUE(value.is_object());
  ASSERT_NE(value.find("name"), nullptr);
  EXPECT_EQ(value.find("name")->text, "a\"b");
  EXPECT_DOUBLE_EQ(value.find("n")->number, -150.0);
  EXPECT_TRUE(value.find("ok")->boolean);
  EXPECT_EQ(value.find("none")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(value.find("list")->items.size(), 3u);
  EXPECT_DOUBLE_EQ(value.find("list")->items[0].number, 1.0);
  EXPECT_EQ(value.find("list")->items[1].text, "two");
}

TEST(BenchDiffJson, UnicodeEscapesDecodeToUtf8) {
  const JsonValue value = parse_json("{\"s\": \"\\u00e9\\u0041\"}");
  EXPECT_EQ(value.find("s")->text, "\xc3\xa9"
                                   "A");
}

TEST(BenchDiffJson, RejectsMalformedInput) {
  EXPECT_THROW(parse_json("{\"a\": }"), plc::Error);
  EXPECT_THROW(parse_json("[1, 2"), plc::Error);
  EXPECT_THROW(parse_json("{} trailing"), plc::Error);
  EXPECT_THROW(parse_json(""), plc::Error);
}

// --- benchdiff: report flattening --------------------------------------------

constexpr const char* kReportText =
    "{\"schema\": \"plc-run-report/1\", \"name\": \"unit\","
    " \"wall_seconds\": 2.0, \"events\": 1000,"
    " \"events_per_second\": 500.0,"
    " \"scalars\": {\"x.items_per_second\": 100.0, \"stations\": 3},"
    " \"metrics\": [{\"name\": \"des.events_dispatched\","
    " \"kind\": \"counter\", \"labels\": {}, \"value\": 42}]}";

TEST(BenchDiffReport, FlattensTopLevelScalarsAndMetrics) {
  const BenchReport report = BenchReport::parse(kReportText);
  EXPECT_EQ(report.name, "unit");
  EXPECT_DOUBLE_EQ(report.values.at("wall_seconds"), 2.0);
  EXPECT_DOUBLE_EQ(report.values.at("events"), 1000.0);
  EXPECT_DOUBLE_EQ(report.values.at("scalars.x.items_per_second"), 100.0);
  EXPECT_DOUBLE_EQ(report.values.at("scalars.stations"), 3.0);
  EXPECT_DOUBLE_EQ(report.values.at("metrics.des.events_dispatched"), 42.0);
}

// --- benchdiff: the gate -----------------------------------------------------

BenchReport report_with(double items_per_second, double stations) {
  BenchReport report;
  report.name = "unit";
  report.values["scalars.x.items_per_second"] = items_per_second;
  report.values["scalars.stations"] = stations;
  return report;
}

TEST(BenchDiff, IdenticalReportsPass) {
  const BenchReport report = report_with(100.0, 3.0);
  const DiffResult diff = diff_reports(report, report);
  EXPECT_EQ(diff.regressions, 0);
  for (const ScalarDelta& delta : diff.deltas) {
    EXPECT_FALSE(delta.regression);
    EXPECT_DOUBLE_EQ(delta.delta_pct, 0.0);
  }
}

TEST(BenchDiff, GatedDropBeyondThresholdRegresses) {
  const DiffResult diff =
      diff_reports(report_with(100.0, 3.0), report_with(94.0, 3.0));
  EXPECT_EQ(diff.regressions, 1);
  bool found = false;
  for (const ScalarDelta& delta : diff.deltas) {
    if (delta.key == "scalars.x.items_per_second") {
      found = true;
      EXPECT_TRUE(delta.gated);
      EXPECT_TRUE(delta.regression);
      EXPECT_NEAR(delta.delta_pct, -6.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchDiff, GatedDropWithinThresholdPasses) {
  const DiffResult diff =
      diff_reports(report_with(100.0, 3.0), report_with(96.0, 3.0));
  EXPECT_EQ(diff.regressions, 0);
}

TEST(BenchDiff, UngatedDropDoesNotRegress) {
  // `stations` halves but matches no gate pattern.
  const DiffResult diff =
      diff_reports(report_with(100.0, 6.0), report_with(100.0, 3.0));
  EXPECT_EQ(diff.regressions, 0);
}

TEST(BenchDiff, MissingGatedValueInCandidateRegresses) {
  BenchReport candidate = report_with(100.0, 3.0);
  candidate.values.erase("scalars.x.items_per_second");
  const DiffResult diff = diff_reports(report_with(100.0, 3.0), candidate);
  EXPECT_EQ(diff.regressions, 1);
}

TEST(BenchDiff, GateImprovementAndNewValuesPass) {
  BenchReport candidate = report_with(120.0, 3.0);
  candidate.values["scalars.fresh"] = 1.0;
  const DiffResult diff = diff_reports(report_with(100.0, 3.0), candidate);
  EXPECT_EQ(diff.regressions, 0);
  bool saw_new = false;
  for (const ScalarDelta& delta : diff.deltas) {
    if (delta.key == "scalars.fresh") saw_new = delta.missing_in_baseline;
  }
  EXPECT_TRUE(saw_new);
}

TEST(BenchDiff, CustomGatePatternsAndThreshold) {
  DiffOptions options;
  options.gate_patterns = {"stations"};
  options.threshold_pct = 10.0;
  // items_per_second no longer gated; stations drops 50% and is.
  const DiffResult diff = diff_reports(report_with(100.0, 6.0),
                                       report_with(50.0, 3.0), options);
  EXPECT_EQ(diff.regressions, 1);
  for (const ScalarDelta& delta : diff.deltas) {
    if (delta.key == "scalars.stations") {
      EXPECT_TRUE(delta.regression);
    }
    if (delta.key == "scalars.x.items_per_second") {
      EXPECT_FALSE(delta.gated);
    }
  }
}

}  // namespace
}  // namespace plc::tools
