#include <algorithm>
#include <deque>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "frames/ethernet.hpp"
#include "frames/mac_address.hpp"
#include "frames/mpdu.hpp"
#include "frames/pb.hpp"
#include "frames/sack.hpp"
#include "util/error.hpp"

namespace plc::frames {
namespace {

EthernetFrame make_frame(int payload_bytes, std::uint8_t fill = 0xAB) {
  EthernetFrame frame;
  frame.destination = MacAddress::for_station(2);
  frame.source = MacAddress::for_station(1);
  frame.ether_type = kEtherTypeIpv4;
  frame.payload.assign(static_cast<std::size_t>(payload_bytes), fill);
  return frame;
}

// --- MacAddress -----------------------------------------------------------------

TEST(MacAddress, ParseFormatRoundTrip) {
  const MacAddress mac = MacAddress::parse("02:19:01:aa:BB:cc");
  EXPECT_EQ(mac.to_string(), "02:19:01:aa:bb:cc");
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_THROW(MacAddress::parse("0219:01:aa:bb:cc"), plc::Error);
  EXPECT_THROW(MacAddress::parse("02:19:01:aa:bb"), plc::Error);
  EXPECT_THROW(MacAddress::parse("02:19:01:aa:bb:cg"), plc::Error);
}

TEST(MacAddress, Broadcast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::for_station(1).is_broadcast());
}

TEST(MacAddress, ForStationIsUniqueAndLocal) {
  const MacAddress a = MacAddress::for_station(1);
  const MacAddress b = MacAddress::for_station(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.bytes()[0] & 0x02, 0x02);  // Locally administered bit.
  EXPECT_THROW(MacAddress::for_station(-1), plc::Error);
  EXPECT_THROW(MacAddress::for_station(256), plc::Error);
}

TEST(MacAddress, WriteReadRoundTrip) {
  const MacAddress mac = MacAddress::parse("12:34:56:78:9a:bc");
  std::uint8_t buffer[6];
  mac.write_to(buffer);
  EXPECT_EQ(MacAddress::read_from(buffer), mac);
}

// --- EthernetFrame -------------------------------------------------------------

TEST(Ethernet, SerializeDeserializeRoundTrip) {
  const EthernetFrame frame = make_frame(300, 0x5C);
  const std::vector<std::uint8_t> bytes = frame.serialize();
  const EthernetFrame parsed = EthernetFrame::deserialize(bytes);
  EXPECT_EQ(parsed.destination, frame.destination);
  EXPECT_EQ(parsed.source, frame.source);
  EXPECT_EQ(parsed.ether_type, frame.ether_type);
  EXPECT_EQ(parsed.payload, frame.payload);
  EXPECT_EQ(EthernetFrame::ether_type_of(bytes), frame.ether_type);
}

TEST(Ethernet, ShortPayloadIsPadded) {
  const EthernetFrame frame = make_frame(10);
  EXPECT_EQ(frame.wire_size(), 14 + kMinEthernetPayload);
  const auto bytes = frame.serialize();
  EXPECT_EQ(bytes.size(), 14 + kMinEthernetPayload);
  // Padding bytes are zero.
  for (std::size_t i = 14 + 10; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[i], 0);
  }
}

TEST(Ethernet, RejectsOversizedPayload) {
  const EthernetFrame frame = make_frame(1501);
  EXPECT_THROW(frame.serialize(), plc::Error);
}

TEST(Ethernet, DeserializeRejectsTruncated) {
  const std::vector<std::uint8_t> tiny(13, 0);
  EXPECT_THROW(EthernetFrame::deserialize(tiny), plc::Error);
  EXPECT_THROW(EthernetFrame::ether_type_of(tiny), plc::Error);
}

// --- Segmenter / Reassembler -----------------------------------------------------

/// Feeds `pb` and appends the frames it completes, parsed, to `received`.
void feed_pb(Reassembler& reassembler, const PhysicalBlock& pb,
             std::vector<EthernetFrame>& received) {
  for (const std::span<const std::uint8_t> bytes : reassembler.push_pb(pb)) {
    received.push_back(EthernetFrame::deserialize(bytes));
  }
}

TEST(Segmentation, FramesSurviveTheConvergenceLayer) {
  Segmenter segmenter;
  Reassembler reassembler(segmenter);
  std::vector<EthernetFrame> sent;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(make_frame(100 + i * 37,
                              static_cast<std::uint8_t>(i)));
    segmenter.push_frame(sent.back());
  }
  std::vector<PhysicalBlock> pbs;
  segmenter.pop_pbs(1000, /*flush=*/true, pbs);
  std::vector<EthernetFrame> received;
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].payload, sent[i].payload) << "frame " << i;
    EXPECT_EQ(received[i].source, sent[i].source);
  }
  EXPECT_EQ(reassembler.frames_delivered(), 20);
  EXPECT_EQ(reassembler.frames_dropped(), 0);
}

TEST(Segmentation, PbsAreFixedSizeWithSequentialSsns) {
  Segmenter segmenter;
  for (int i = 0; i < 10; ++i) segmenter.push_frame(make_frame(1400));
  std::vector<PhysicalBlock> pbs;
  const int popped = segmenter.pop_pbs(1000, false, pbs);
  EXPECT_EQ(popped, static_cast<int>(pbs.size()));
  ASSERT_GT(pbs.size(), 2u);
  for (std::size_t i = 0; i < pbs.size(); ++i) {
    EXPECT_EQ(pbs[i].ssn, static_cast<std::uint16_t>(i));
    EXPECT_EQ(pbs[i].used, kPbBytes);
  }
}

TEST(Segmentation, WithoutFlushKeepsPartialTail) {
  Segmenter segmenter;
  segmenter.push_frame(make_frame(100));  // ~116 bytes < 512.
  EXPECT_EQ(segmenter.complete_pb_count(), 0);
  EXPECT_TRUE(segmenter.has_pending_bytes());
  std::vector<PhysicalBlock> flushed;
  EXPECT_EQ(segmenter.pop_pbs(10, false, flushed), 0);
  EXPECT_TRUE(flushed.empty());
  EXPECT_EQ(segmenter.pop_pbs(10, true, flushed), 1);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_LT(flushed[0].used, kPbBytes);
  EXPECT_FALSE(segmenter.has_pending_bytes());
}

TEST(Segmentation, PopRespectsMaxCount) {
  Segmenter segmenter;
  for (int i = 0; i < 20; ++i) segmenter.push_frame(make_frame(1400));
  const int total = segmenter.complete_pb_count();
  std::vector<PhysicalBlock> first;
  EXPECT_EQ(segmenter.pop_pbs(3, false, first), 3);
  EXPECT_EQ(first.size(), 3u);
  EXPECT_EQ(segmenter.complete_pb_count(), total - 3);
}

TEST(Segmentation, CorruptPbDropsOnlyOverlappingFrames) {
  Segmenter segmenter;
  std::vector<EthernetFrame> sent;
  for (int i = 0; i < 12; ++i) {
    sent.push_back(make_frame(400, static_cast<std::uint8_t>(0x10 + i)));
    segmenter.push_frame(sent.back());
  }
  std::vector<PhysicalBlock> pbs;
  segmenter.pop_pbs(1000, true, pbs);
  ASSERT_GE(pbs.size(), 3u);
  pbs[1].received_ok = false;  // Corrupt the second physical block.
  Reassembler reassembler(segmenter);
  std::vector<EthernetFrame> received;
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  EXPECT_GT(reassembler.frames_dropped(), 0);
  EXPECT_EQ(reassembler.frames_delivered() + reassembler.frames_dropped(),
            static_cast<std::int64_t>(sent.size()));
  // Delivered frames are intact copies of some sent frames.
  for (const EthernetFrame& frame : received) {
    bool found = false;
    for (const EthernetFrame& original : sent) {
      if (original.payload == frame.payload) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(Segmentation, CorruptRangeSurvivesCompaction) {
  // Bad PB 16's last byte starts the next frame's length prefix. Once the
  // frames before it are released, that frame is the only live data, and
  // it must still be dropped for its one bad byte.
  constexpr std::size_t kSpanBytes = 8192;  // The stream before bad PB 16.
  const std::size_t bad_pb = kSpanBytes / kPbBytes;
  const std::size_t prefix_end = (bad_pb + 1) * kPbBytes - 1;
  constexpr std::size_t kFullFrame = 2 + 14 + 1500;  // Stream bytes.
  Segmenter segmenter;
  std::vector<EthernetFrame> sent;
  std::size_t filled = 0;
  while (prefix_end - filled > 2 * kFullFrame) {
    sent.push_back(make_frame(1500, static_cast<std::uint8_t>(sent.size())));
    filled += kFullFrame;
  }
  const std::size_t rest = prefix_end - filled;  // Two frames fill it.
  for (const std::size_t stream_bytes : {rest / 2, rest - rest / 2}) {
    sent.push_back(make_frame(static_cast<int>(stream_bytes - 16),
                              static_cast<std::uint8_t>(sent.size())));
  }
  sent.push_back(make_frame(100, 0xE1));  // Starts on PB 16's last byte.
  sent.push_back(make_frame(100, 0xE2));
  for (const EthernetFrame& frame : sent) segmenter.push_frame(frame);
  std::vector<PhysicalBlock> pbs;
  segmenter.pop_pbs(1000, true, pbs);
  ASSERT_GT(pbs.size(), bad_pb + 1);
  pbs[bad_pb].received_ok = false;

  Reassembler reassembler(segmenter);
  std::vector<EthernetFrame> received;
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  // Dropped: the frame that runs into PB 16 and the one starting on its
  // last byte.
  std::vector<EthernetFrame> expected = sent;
  expected.erase(expected.end() - 3, expected.end() - 1);
  ASSERT_EQ(received.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(received[i].payload, expected[i].payload) << "frame " << i;
  }
  EXPECT_EQ(reassembler.frames_dropped(), 2);
}

// One long stream through both ends: 46..1500-byte payloads, pops of 0 to
// 40 PBs with and without flush, PB errors, and alternating fill/drain
// phases that swing the segmenter between empty and well past 8 KiB (its
// ring grows, and wraps thousands of times), for more than 2^16 PBs so the
// SSNs wrap. Exactly the frames that overlap no bad PB must come out,
// intact and in order.
class SegmentationStream : public ::testing::TestWithParam<double> {};

TEST_P(SegmentationStream, DeliversExactlyTheFramesClearOfBadPbs) {
  const double pb_error_rate = GetParam();
  std::mt19937_64 rng(static_cast<std::uint64_t>(1 + 1000 * pb_error_rate));
  const auto chance = [&rng](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  struct Sent {
    EthernetFrame frame;
    std::uint64_t begin = 0;  ///< Stream offset of the length prefix.
    std::uint64_t end = 0;
  };
  // The fill phases take the buffered bytes past 4 x 8 KiB, so the ring
  // grows several times before the drain phases empty it.
  constexpr std::size_t kSpanBytes = 8192;
  Segmenter segmenter;
  Reassembler reassembler(segmenter);
  std::deque<Sent> unresolved;  // Pushed, not yet fully fed.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bad_ranges;
  std::uint64_t pushed_bytes = 0;
  std::uint64_t fed_bytes = 0;
  std::uint16_t next_ssn = 0;
  std::int64_t pbs_fed = 0;
  std::int64_t frames_pushed = 0;
  std::int64_t expect_delivered = 0;
  std::int64_t expect_dropped = 0;
  std::size_t most_buffered = 0;
  int times_emptied = 0;

  const auto feed = [&](PhysicalBlock pb) {
    ASSERT_EQ(pb.ssn, next_ssn++);
    pb.received_ok = !chance(pb_error_rate);
    if (!pb.received_ok) {
      bad_ranges.emplace_back(fed_bytes, fed_bytes + pb.used);
    }
    fed_bytes += pb.used;
    ++pbs_fed;
    const auto delivered = reassembler.push_pb(pb);
    std::size_t next = 0;
    while (!unresolved.empty() && unresolved.front().end <= fed_bytes) {
      const Sent& sent = unresolved.front();
      const bool hit = std::any_of(
          bad_ranges.begin(), bad_ranges.end(), [&sent](const auto& range) {
            return range.first < sent.end && sent.begin < range.second;
          });
      if (hit) {
        ++expect_dropped;
      } else {
        ++expect_delivered;
        ASSERT_LT(next, delivered.size()) << "clean frame not delivered";
        const EthernetFrame frame = EthernetFrame::deserialize(delivered[next]);
        EXPECT_EQ(frame.payload, sent.frame.payload);
        EXPECT_EQ(frame.source, sent.frame.source);
        ++next;
      }
      std::erase_if(bad_ranges, [&sent](const auto& range) {
        return range.second <= sent.end;
      });
      unresolved.pop_front();
    }
    EXPECT_EQ(next, delivered.size()) << "delivered a frame it should not";
  };

  std::vector<PhysicalBlock> pbs;
  for (int step = 0; pbs_fed <= 70'000; ++step) {
    const bool filling = (step / 256) % 2 == 0;
    if (chance(filling ? 0.97 : 0.25)) {
      Sent sent;
      sent.frame.destination = MacAddress::for_station(2);
      sent.frame.source = MacAddress::for_station(
          1 + static_cast<int>(frames_pushed % 7));
      sent.frame.ether_type = kEtherTypeIpv4;
      sent.frame.payload.resize(static_cast<std::size_t>(
          std::uniform_int_distribution<int>(46, 1500)(rng)));
      for (auto& byte : sent.frame.payload) {
        byte = static_cast<std::uint8_t>(rng());
      }
      sent.begin = pushed_bytes;
      sent.end = pushed_bytes + 2 + sent.frame.wire_size();
      pushed_bytes = sent.end;
      segmenter.push_frame(sent.frame);
      unresolved.push_back(std::move(sent));
      ++frames_pushed;
    } else {
      const int max_pbs = std::uniform_int_distribution<int>(0, 40)(rng);
      const bool flush = chance(0.3);
      pbs.clear();
      const int popped = segmenter.pop_pbs(max_pbs, flush, pbs);
      ASSERT_EQ(popped, static_cast<int>(pbs.size()));
      ASSERT_LE(pbs.size(), static_cast<std::size_t>(max_pbs));
      for (const PhysicalBlock& pb : pbs) {
        if (!flush) {
          ASSERT_EQ(pb.used, kPbBytes);
        }
        feed(pb);
        if (HasFatalFailure()) return;
      }
    }
    ASSERT_EQ(segmenter.buffered_bytes(), pushed_bytes - fed_bytes);
    most_buffered = std::max(most_buffered, segmenter.buffered_bytes());
    if (!segmenter.has_pending_bytes()) ++times_emptied;
  }
  pbs.clear();
  segmenter.pop_pbs(1 << 30, /*flush=*/true, pbs);
  for (const PhysicalBlock& pb : pbs) {
    feed(pb);
    if (HasFatalFailure()) return;
  }

  EXPECT_GT(pbs_fed, 65'536);  // The SSNs wrapped.
  // The phases swung the buffered bytes past 32 KiB and back to empty.
  EXPECT_GT(most_buffered, 4 * kSpanBytes);
  EXPECT_GT(times_emptied, 100);
  EXPECT_TRUE(unresolved.empty());
  EXPECT_FALSE(segmenter.has_pending_bytes());
  EXPECT_EQ(reassembler.frames_delivered(), expect_delivered);
  EXPECT_EQ(reassembler.frames_dropped(), expect_dropped);
  EXPECT_EQ(expect_delivered + expect_dropped, frames_pushed);
  if (pb_error_rate > 0.0) {
    EXPECT_GT(expect_dropped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, SegmentationStream,
                         ::testing::Values(0.0, 0.002, 0.02));

// --- The stream contract: a ring read in place -----------------------------------

// A full-size frame's bytes in the stream: length prefix + header + payload.
constexpr std::uint64_t kFullFrameBytes = 2 + 14 + 1500;

TEST(SegmentationRing, FrameStraddlingTheRingEndArrivesIntact) {
  Segmenter segmenter;
  Reassembler reassembler(segmenter);
  std::vector<EthernetFrame> sent;
  std::vector<EthernetFrame> received;
  std::vector<PhysicalBlock> pbs;
  int straddled = 0;
  // The reader keeps up, so the ring keeps its first size and frame k
  // occupies [k, k + 1) * kFullFrameBytes: frames 2 and 5 cross its end.
  for (int i = 0; i < 6; ++i) {
    sent.push_back(make_frame(1500, static_cast<std::uint8_t>(0x40 + i)));
    sent.back().payload[0] = static_cast<std::uint8_t>(i);
    segmenter.push_frame(sent.back());
    const std::uint64_t begin = static_cast<std::uint64_t>(i) * kFullFrameBytes;
    if (begin / segmenter.capacity() !=
        (begin + kFullFrameBytes - 1) / segmenter.capacity()) {
      ++straddled;
    }
    pbs.clear();
    segmenter.pop_pbs(1000, /*flush=*/true, pbs);
    for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  }
  EXPECT_EQ(segmenter.capacity(), 4096u);
  EXPECT_EQ(straddled, 2);
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].payload, sent[i].payload) << "frame " << i;
  }
}

TEST(SegmentationRing, BadPbAcrossTheWrapDropsOnlyItsFrames) {
  Segmenter segmenter;
  Reassembler reassembler(segmenter);
  std::vector<EthernetFrame> received;
  std::vector<PhysicalBlock> pbs;
  // One full frame, flushed, shifts the PB grid off the ring's: PBs now
  // start at kFullFrameBytes + 512 k, and the sixth of them crosses 4096.
  segmenter.push_frame(make_frame(1500));
  segmenter.pop_pbs(1000, /*flush=*/true, pbs);
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  ASSERT_EQ(received.size(), 1u);
  received.clear();

  struct Sent {
    EthernetFrame frame;
    std::uint64_t begin;
    std::uint64_t end;
  };
  std::vector<Sent> sent;
  std::uint64_t offset = kFullFrameBytes;
  for (int i = 0; i < 30; ++i) {
    EthernetFrame frame = make_frame(100, static_cast<std::uint8_t>(i));
    const std::uint64_t end = offset + 2 + frame.wire_size();
    segmenter.push_frame(frame);
    sent.push_back({std::move(frame), offset, end});
    offset = end;
  }
  pbs.clear();
  segmenter.pop_pbs(1000, /*flush=*/true, pbs);
  const auto bad = std::find_if(pbs.begin(), pbs.end(), [&](const auto& pb) {
    return pb.offset < 4096 && pb.offset + pb.used > 4096;
  });
  ASSERT_NE(bad, pbs.end());
  ASSERT_EQ(segmenter.capacity(), 4096u);
  bad->received_ok = false;
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);

  std::vector<EthernetFrame> expected;
  for (const Sent& frame : sent) {
    if (frame.end <= bad->offset || frame.begin >= bad->offset + bad->used) {
      expected.push_back(frame.frame);
    }
  }
  ASSERT_EQ(received.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(received[i].payload, expected[i].payload) << "frame " << i;
  }
  EXPECT_EQ(reassembler.frames_dropped(),
            static_cast<std::int64_t>(sent.size() - expected.size()));
  EXPECT_GE(reassembler.frames_dropped(), 5);  // A PB holds > 4 such frames.
}

TEST(SegmentationRing, GrowsWhileTheReaderLagsAndKeepsUnfedPbsReadable) {
  Segmenter segmenter;
  Reassembler reassembler(segmenter);
  std::vector<EthernetFrame> sent;
  std::vector<EthernetFrame> received;
  std::vector<PhysicalBlock> pbs;
  const auto push = [&](int i) {
    sent.push_back(make_frame(1500, static_cast<std::uint8_t>(i)));
    segmenter.push_frame(sent.back());
  };
  // Move the release point off zero, so that the retained bytes wrap
  // around the ring's end when it has to grow.
  push(0);
  push(1);
  segmenter.pop_pbs(1000, /*flush=*/true, pbs);
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  ASSERT_EQ(segmenter.released(), 2 * kFullFrameBytes);
  ASSERT_EQ(segmenter.capacity(), 4096u);

  // Pop, but do not feed: the ring must keep every popped byte.
  std::vector<PhysicalBlock> unfed;
  for (int i = 2; i < 12; ++i) {
    push(i);
    segmenter.pop_pbs(2, /*flush=*/false, unfed);
  }
  segmenter.pop_pbs(1000, /*flush=*/true, unfed);
  EXPECT_EQ(segmenter.released(), 2 * kFullFrameBytes);
  EXPECT_EQ(segmenter.capacity(), 16384u);  // 10 frames behind the reader.
  for (const PhysicalBlock& pb : unfed) feed_pb(reassembler, pb, received);
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].payload, sent[i].payload) << "frame " << i;
  }
  EXPECT_EQ(segmenter.released(), 12 * kFullFrameBytes);
}

TEST(SegmentationRing, ReadingAReleasedRangeThrows) {
  Segmenter segmenter;
  Reassembler reassembler(segmenter);
  for (int i = 0; i < 4; ++i) segmenter.push_frame(make_frame(1000));
  std::vector<PhysicalBlock> pbs;
  segmenter.pop_pbs(1000, /*flush=*/true, pbs);
  std::vector<EthernetFrame> received;
  // Out of stream order is rejected before anything is read.
  EXPECT_THROW(reassembler.push_pb(pbs[1]), plc::Error);
  for (const PhysicalBlock& pb : pbs) feed_pb(reassembler, pb, received);
  ASSERT_EQ(received.size(), 4u);
  ASSERT_EQ(segmenter.released(), 4u * (2 + 14 + 1000));

  std::vector<std::uint8_t> scratch;
  EXPECT_THROW(segmenter.read(0, 16, scratch), plc::Error);
  EXPECT_THROW(segmenter.read(segmenter.released() - 1, 1, scratch),
               plc::Error);
  EXPECT_THROW(segmenter.at(0), plc::Error);
  EXPECT_THROW(segmenter.at(segmenter.released()), plc::Error);  // Past end.
  // A PB the reader has already consumed cannot be fed again...
  EXPECT_THROW(reassembler.push_pb(pbs.front()), plc::Error);
  // ... and the release point moves neither back nor past the popped PBs.
  EXPECT_THROW(segmenter.release(0), plc::Error);
  segmenter.push_frame(make_frame(100));
  EXPECT_THROW(segmenter.release(segmenter.released() + 1), plc::Error);
}

// --- SoF delimiter ----------------------------------------------------------------

TEST(Sof, EncodeDecodeRoundTrip) {
  SofDelimiter sof;
  sof.src_tei = 3;
  sof.dst_tei = 8;
  sof.link_id = static_cast<std::uint8_t>(Priority::kCa2);
  sof.mpdu_cnt = 1;
  sof.pb_count = 16;
  sof.sack_requested = true;
  sof.mme_flag = true;
  sof.set_frame_duration(des::SimTime::from_us(1025.0));
  const SofDelimiter parsed = SofDelimiter::decode(sof.encode());
  EXPECT_EQ(parsed.src_tei, 3);
  EXPECT_EQ(parsed.dst_tei, 8);
  EXPECT_EQ(parsed.priority(), Priority::kCa2);
  EXPECT_EQ(parsed.mpdu_cnt, 1);
  EXPECT_EQ(parsed.pb_count, 16);
  EXPECT_TRUE(parsed.sack_requested);
  EXPECT_TRUE(parsed.mme_flag);
  EXPECT_EQ(parsed.frame_length_units, sof.frame_length_units);
}

TEST(Sof, FrameDurationQuantizedToUnits) {
  SofDelimiter sof;
  sof.set_frame_duration(des::SimTime::from_us(2050.0));
  // 2050 us / 1.28 us per unit = 1601.56... -> rounds up to 1602 units.
  EXPECT_EQ(sof.frame_length_units, 1602);
  EXPECT_GE(sof.frame_duration(), des::SimTime::from_us(2050.0));
}

TEST(Sof, DecodeRejectsCorruptedCrc) {
  SofDelimiter sof;
  sof.src_tei = 1;
  auto bytes = sof.encode();
  bytes[1] ^= 0xFF;
  EXPECT_THROW(SofDelimiter::decode(bytes), plc::Error);
}

TEST(Sof, DecodeRejectsWrongLengthOrType) {
  SofDelimiter sof;
  auto bytes = sof.encode();
  bytes.push_back(0);
  EXPECT_THROW(SofDelimiter::decode(bytes), plc::Error);
  auto wrong_type = sof.encode();
  wrong_type[0] = static_cast<std::uint8_t>(DelimiterType::kSack);
  wrong_type[15] = crc8(std::span(wrong_type).first(15));
  EXPECT_THROW(SofDelimiter::decode(wrong_type), plc::Error);
}

TEST(Sof, PriorityNames) {
  EXPECT_STREQ(to_string(Priority::kCa0), "CA0");
  EXPECT_STREQ(to_string(Priority::kCa3), "CA3");
  EXPECT_EQ(priority_bits(Priority::kCa3), 3);
  EXPECT_EQ(priority_bits(Priority::kCa1), 1);
}

// --- SACK -----------------------------------------------------------------------------

TEST(Sack, FromOutcomesClassifies) {
  EXPECT_EQ(SackDelimiter::from_outcomes(1, 2, {true, true}).result,
            SackResult::kAllGood);
  EXPECT_EQ(SackDelimiter::from_outcomes(1, 2, {false, false}).result,
            SackResult::kAllBad);
  EXPECT_EQ(SackDelimiter::from_outcomes(1, 2, {true, false}).result,
            SackResult::kPartial);
}

TEST(Sack, EncodeDecodeRoundTrip) {
  std::vector<bool> pb_ok;
  for (int i = 0; i < 19; ++i) pb_ok.push_back(i % 3 != 0);
  const SackDelimiter sack = SackDelimiter::from_outcomes(7, 9, pb_ok);
  const SackDelimiter parsed = SackDelimiter::decode(sack.encode());
  EXPECT_EQ(parsed.src_tei, 7);
  EXPECT_EQ(parsed.dst_tei, 9);
  EXPECT_EQ(parsed.result, SackResult::kPartial);
  EXPECT_EQ(parsed.pb_ok, pb_ok);
  EXPECT_EQ(parsed.good_count(), sack.good_count());
  EXPECT_EQ(parsed.bad_count(), sack.bad_count());
}

TEST(Sack, DecodeRejectsCorruption) {
  const SackDelimiter sack =
      SackDelimiter::from_outcomes(1, 2, {true, false, true});
  auto bytes = sack.encode();
  bytes[2] ^= 0x01;
  EXPECT_THROW(SackDelimiter::decode(bytes), plc::Error);
}

TEST(Sack, EmptyBitmapRoundTrips) {
  const SackDelimiter sack = SackDelimiter::from_outcomes(1, 2, {});
  const SackDelimiter parsed = SackDelimiter::decode(sack.encode());
  EXPECT_TRUE(parsed.pb_ok.empty());
  EXPECT_EQ(parsed.result, SackResult::kAllGood);
}

// --- CRC-8 -----------------------------------------------------------------------------

TEST(Crc8, KnownProperties) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(crc8(empty), 0);
  const std::vector<std::uint8_t> a = {0x01, 0x02, 0x03};
  std::vector<std::uint8_t> b = a;
  b[1] ^= 0x10;
  EXPECT_NE(crc8(a), crc8(b));
}

}  // namespace
}  // namespace plc::frames
