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
// Both ends keep the stream in one contiguous byte buffer with a read
// offset: PB bodies are filled and frames parsed with block copies, and
// the consumed prefix is reclaimed in batches (once it reaches
// kCompactBytes and outgrows the live bytes behind it), so every byte is
// moved O(1) times on average.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "frames/ethernet.hpp"

namespace plc::frames {

/// Payload bytes per physical block.
inline constexpr std::size_t kPbBytes = 512;

/// One physical block: a segment sequence number plus 512 payload bytes.
struct PhysicalBlock {
  /// Segment sequence number within the sender's stream (wraps at 2^16).
  std::uint16_t ssn = 0;
  /// True when the block carries stream bytes up to `used` (a partly
  /// filled tail block of a burst-closing MPDU).
  std::uint16_t used = 0;
  std::array<std::uint8_t, kPbBytes> body{};
  /// Set by the channel: whether the receiver decoded this PB correctly.
  bool received_ok = true;
};

/// A stream buffer drops its consumed prefix only once the prefix is at
/// least this long and longer than the live bytes behind it.
inline constexpr std::size_t kCompactBytes = 16 * kPbBytes;

/// Chops a sequence of Ethernet frames into physical blocks.
class Segmenter {
 public:
  /// Appends a frame to the convergence stream.
  void push_frame(const EthernetFrame& frame);

  /// Number of *complete* (full 512-byte) PBs available right now.
  int complete_pb_count() const {
    return static_cast<int>(buffered_bytes() / kPbBytes);
  }

  /// True when any buffered bytes exist (even less than one full PB).
  bool has_pending_bytes() const { return read_ < stream_.size(); }

  /// Appends up to `max_pbs` physical blocks to `out` and returns how many
  /// it appended. When `flush` is true, a final partly-filled PB is
  /// emitted for the stream tail (zero-padded).
  int pop_pbs(int max_pbs, bool flush, std::vector<PhysicalBlock>& out);

  /// Total bytes currently buffered.
  std::size_t buffered_bytes() const { return stream_.size() - read_; }

 private:
  /// Stream bytes; [read_, size) are still buffered.
  std::vector<std::uint8_t> stream_;
  std::size_t read_ = 0;
  std::uint16_t next_ssn_ = 0;
};

/// Rebuilds Ethernet frames from a stream of (in-order) physical blocks.
///
/// Blocks whose `received_ok` is false corrupt the frames they overlap;
/// such frames are dropped and counted.
class Reassembler {
 public:
  /// Feeds one PB; writes the frames it completes to frames[0, n) and
  /// returns n. `frames` grows as needed and is never shrunk: elements
  /// past n keep their contents, so a vector reused from call to call
  /// keeps each element's payload capacity.
  std::size_t push_pb(const PhysicalBlock& pb,
                      std::vector<EthernetFrame>& frames);

  std::int64_t frames_delivered() const { return frames_delivered_; }
  std::int64_t frames_dropped() const { return frames_dropped_; }

 private:
  /// Stream bytes; [consumed_, size) are not yet parsed into frames.
  std::vector<std::uint8_t> stream_;
  /// Byte ranges of `stream_` known to be corrupt, in stream order.
  std::vector<std::pair<std::size_t, std::size_t>> corrupt_ranges_;
  std::size_t consumed_ = 0;
  std::int64_t frames_delivered_ = 0;
  std::int64_t frames_dropped_ = 0;

  bool range_corrupt(std::size_t begin, std::size_t end) const;
  void compact();
};

}  // namespace plc::frames
