// Physical blocks (PBs) and the Ethernet-frame <-> PB-stream convergence
// layer.
//
// IEEE 1901 aggregates Ethernet frames into a byte stream that is chopped
// into fixed 512-byte physical blocks; PBs are the unit of forward error
// correction, selective acknowledgment and retransmission (paper §3.1).
// The Segmenter implements a simple, documented convergence format
// (2-byte big-endian length prefix per frame) — the standard's MAC frame
// stream is more elaborate, but only segmentation/reassembly fidelity and
// PB accounting matter to the reproduced experiments.
//
// A PB is a layout, not a copy: a 16-byte descriptor of which bytes of its
// link's convergence stream it carries. The stream itself lives once, in
// the sending link's Segmenter, as a byte ring indexed by absolute stream
// offset. The receiving end's Reassembler is bound to that Segmenter: it
// takes PBs in stream order, parses frames in place, and releases the
// bytes it has consumed, which is the only thing that lets the ring drop
// them. Each payload byte is therefore written once (serialized into the
// ring) and read once by whatever builds a frame from it.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "frames/ethernet.hpp"

namespace plc::frames {

/// Payload bytes per physical block.
inline constexpr std::size_t kPbBytes = 512;

/// One physical block: which stream bytes it carries, under which
/// segment sequence number.
struct PhysicalBlock {
  /// Absolute offset of the block's first byte in its link's convergence
  /// stream. 64-bit: a long run would wrap a 32-bit offset.
  std::uint64_t offset = 0;
  /// Segment sequence number within the sender's stream (wraps at 2^16).
  std::uint16_t ssn = 0;
  /// Stream bytes the block carries (kPbBytes, or fewer for the partly
  /// filled tail block of a burst-closing MPDU).
  std::uint16_t used = 0;
  /// Set by the channel: whether the receiver decoded this PB correctly.
  bool received_ok = true;
};
static_assert(sizeof(PhysicalBlock) == 16);

/// Chops a sequence of Ethernet frames into physical blocks, and owns the
/// link's convergence stream that those blocks describe.
///
/// The stream is a byte ring whose size is a power of two. It keeps every
/// byte from the reader's release point (`release`) to its end, and grows
/// by doubling when a frame would not fit; nothing is dropped before the
/// reader releases it.
class Segmenter {
 public:
  Segmenter() = default;
  /// A bound Reassembler holds the segmenter's address.
  Segmenter(const Segmenter&) = delete;
  Segmenter& operator=(const Segmenter&) = delete;

  /// Appends a frame to the convergence stream.
  void push_frame(const EthernetFrame& frame);

  /// Number of *complete* (full 512-byte) PBs available right now.
  int complete_pb_count() const {
    return static_cast<int>(buffered_bytes() / kPbBytes);
  }

  /// True when any buffered bytes exist (even less than one full PB).
  bool has_pending_bytes() const { return popped_ < end_; }

  /// Appends up to `max_pbs` physical blocks to `out` and returns how many
  /// it appended. When `flush` is true, a final partly-filled PB is
  /// emitted for the stream tail. Copies no stream bytes.
  int pop_pbs(int max_pbs, bool flush, std::vector<PhysicalBlock>& out);

  /// Stream bytes not yet handed out in a PB.
  std::size_t buffered_bytes() const {
    return static_cast<std::size_t>(end_ - popped_);
  }

  // --- Reader side ----------------------------------------------------------
  /// Lets the ring drop the stream bytes before `offset`. The release
  /// point never moves back, and never past the bytes handed out in PBs.
  void release(std::uint64_t offset);
  /// The release point: the first stream byte still retained.
  std::uint64_t released() const { return released_; }

  /// The stream byte at `offset`. Throws plc::Error unless it is retained.
  std::uint8_t at(std::uint64_t offset) const;

  /// Stream bytes [begin, begin + size): a span into the ring, or, when
  /// the range straddles the ring's end, into `scratch`, which receives a
  /// copy. Throws plc::Error unless the whole range is retained. A ring
  /// span is valid until the next push_frame.
  std::span<const std::uint8_t> read(std::uint64_t begin, std::size_t size,
                                     std::vector<std::uint8_t>& scratch) const;

  /// Ring size in bytes (0 before the first frame).
  std::size_t capacity() const { return ring_.size(); }

 private:
  /// The retained range [begin, begin + size) as the ring's (up to) two
  /// contiguous pieces.
  std::pair<std::span<const std::uint8_t>, std::span<const std::uint8_t>>
  pieces(std::uint64_t begin, std::size_t size) const;
  /// Doubles the ring until `bytes` more fit behind the retained ones.
  void grow(std::size_t bytes);

  std::vector<std::uint8_t> ring_;
  std::uint64_t released_ = 0;  ///< First retained stream byte.
  std::uint64_t popped_ = 0;    ///< First byte not yet in a PB.
  std::uint64_t end_ = 0;       ///< One past the last stream byte.
  std::uint16_t next_ssn_ = 0;
};

/// Rebuilds Ethernet frames from the physical blocks of one Segmenter's
/// stream, read in place.
///
/// Blocks whose `received_ok` is false corrupt the frames they overlap;
/// such frames are dropped and counted.
class Reassembler {
 public:
  /// Binds to `source`'s stream from its current release point on.
  explicit Reassembler(Segmenter& source);

  /// Feeds the next PBs, consecutive in stream order (plc::Error for any
  /// other), and returns the frames they complete, exactly as feeding
  /// them one by one would: each as its serialized bytes (no length
  /// prefix; EthernetFrame::deserialize parses them). The spans stay
  /// valid until the next push or the source's next push_frame. Releases
  /// the consumed stream prefix on the way out.
  std::span<const std::span<const std::uint8_t>> push_pbs(
      std::span<const PhysicalBlock> pbs);
  /// push_pbs of one PB.
  std::span<const std::span<const std::uint8_t>> push_pb(
      const PhysicalBlock& pb) {
    return push_pbs({&pb, 1});
  }

  const Segmenter& source() const { return *source_; }
  std::int64_t frames_delivered() const { return frames_delivered_; }
  std::int64_t frames_dropped() const { return frames_dropped_; }

 private:
  bool range_corrupt(std::uint64_t begin, std::uint64_t end) const;

  Segmenter* source_;
  /// Stream offset one past the last byte fed.
  std::uint64_t fed_;
  /// Stream offset of the next frame's length prefix.
  std::uint64_t consumed_;
  /// Absolute stream ranges known to be corrupt, in stream order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> corrupt_ranges_;
  /// The last push's frames.
  std::vector<std::span<const std::uint8_t>> completed_;
  /// Copy of the one completed frame that straddles the ring's end. One
  /// is enough: a push's frames lie in the retained range, which is
  /// never longer than the ring, so at most one crosses its end.
  std::vector<std::uint8_t> straddle_;
  std::int64_t frames_delivered_ = 0;
  std::int64_t frames_dropped_ = 0;
};

}  // namespace plc::frames
