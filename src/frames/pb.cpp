#include "frames/pb.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace plc::frames {

namespace {

/// The smallest ring a segmenter allocates.
constexpr std::size_t kMinRingBytes = 4096;

/// Copies `bytes` into `ring` (a power-of-two size) at stream offset
/// `offset`, wrapping at its end.
void ring_write(std::vector<std::uint8_t>& ring, std::uint64_t offset,
                std::span<const std::uint8_t> bytes) {
  const std::size_t at = static_cast<std::size_t>(offset) & (ring.size() - 1);
  const std::size_t first = std::min(bytes.size(), ring.size() - at);
  std::copy_n(bytes.data(), first, ring.data() + at);
  std::copy_n(bytes.data() + first, bytes.size() - first, ring.data());
}

}  // namespace

void Segmenter::grow(std::size_t bytes) {
  const std::uint64_t live = end_ - released_;
  std::size_t capacity = std::max(ring_.size(), kMinRingBytes);
  while (capacity < live + bytes) capacity *= 2;
  // Relinearize: every retained byte moves to its offset's slot in the
  // larger ring.
  std::vector<std::uint8_t> grown(capacity);
  const auto [first, second] = pieces(released_, live);
  ring_write(grown, released_, first);
  ring_write(grown, released_ + first.size(), second);
  ring_ = std::move(grown);
}

void Segmenter::push_frame(const EthernetFrame& frame) {
  util::require(frame.payload.size() <= kMaxEthernetPayload,
                "Segmenter: frame payload exceeds 1500 bytes");
  const std::size_t wire = frame.wire_size();
  const std::size_t size = 2 + wire;
  if (end_ - released_ + size > ring_.size()) grow(size);
  const std::size_t at = static_cast<std::size_t>(end_) & (ring_.size() - 1);
  const auto write = [&frame, wire](std::span<std::uint8_t> out) {
    out[0] = static_cast<std::uint8_t>(wire >> 8);
    out[1] = static_cast<std::uint8_t>(wire & 0xFF);
    frame.serialize_to(out.subspan(2, wire));
  };
  if (at + size <= ring_.size()) {
    write(std::span(ring_).subspan(at, size));
  } else {
    // The frame straddles the ring's end: serialize it aside first.
    std::array<std::uint8_t, 2 + 14 + kMaxEthernetPayload> staging;
    write(std::span(staging).first(size));
    ring_write(ring_, end_, std::span(staging).first(size));
  }
  end_ += size;
}

int Segmenter::pop_pbs(int max_pbs, bool flush,
                       std::vector<PhysicalBlock>& out) {
  util::check_arg(max_pbs >= 0, "max_pbs", "must be non-negative");
  int popped = 0;
  for (; popped < max_pbs; ++popped) {
    const std::size_t available = buffered_bytes();
    if (available == 0) break;
    if (available < kPbBytes && !flush) break;
    const auto take =
        static_cast<std::uint16_t>(std::min(available, kPbBytes));
    out.push_back(PhysicalBlock{popped_, next_ssn_++, take, true});
    popped_ += take;
  }
  return popped;
}

void Segmenter::release(std::uint64_t offset) {
  util::require(offset >= released_ && offset <= popped_,
                "Segmenter::release: outside the PBs handed out");
  released_ = offset;
}

std::pair<std::span<const std::uint8_t>, std::span<const std::uint8_t>>
Segmenter::pieces(std::uint64_t begin, std::size_t size) const {
  if (size == 0) return {};
  const std::size_t at = static_cast<std::size_t>(begin) & (ring_.size() - 1);
  const std::size_t first = std::min(size, ring_.size() - at);
  return {std::span(ring_).subspan(at, first),
          std::span(ring_).first(size - first)};
}

std::uint8_t Segmenter::at(std::uint64_t offset) const {
  util::require(offset >= released_ && offset < end_,
                "Segmenter: read outside the retained stream");
  return ring_[static_cast<std::size_t>(offset) & (ring_.size() - 1)];
}

std::span<const std::uint8_t> Segmenter::read(
    std::uint64_t begin, std::size_t size,
    std::vector<std::uint8_t>& scratch) const {
  util::require(begin >= released_ && begin <= end_ && size <= end_ - begin,
                "Segmenter: read outside the retained stream");
  const auto [first, second] = pieces(begin, size);
  if (second.empty()) return first;
  scratch.assign(first.begin(), first.end());
  scratch.insert(scratch.end(), second.begin(), second.end());
  return scratch;
}

Reassembler::Reassembler(Segmenter& source)
    : source_(&source),
      fed_(source.released()),
      consumed_(source.released()) {}

bool Reassembler::range_corrupt(std::uint64_t begin, std::uint64_t end) const {
  for (const auto& [c_begin, c_end] : corrupt_ranges_) {
    if (begin < c_end && c_begin < end) return true;
  }
  return false;
}

std::span<const std::span<const std::uint8_t>> Reassembler::push_pbs(
    std::span<const PhysicalBlock> pbs) {
  // A frame completes only once every PB it overlaps has been fed, and a
  // later PB starts past its end: taking the frames after the last PB
  // drops exactly the ones that feeding PB by PB drops.
  for (const PhysicalBlock& pb : pbs) {
    util::require(pb.offset == fed_,
                  "Reassembler::push_pbs: PB out of stream order");
    fed_ += pb.used;
    if (!pb.received_ok) corrupt_ranges_.emplace_back(pb.offset, fed_);
  }

  completed_.clear();
  // Extract complete length-prefixed frames from the head of the stream.
  while (fed_ - consumed_ >= 2) {
    const std::size_t length =
        static_cast<std::size_t>(source_->at(consumed_)) << 8 |
        source_->at(consumed_ + 1);
    if (fed_ - consumed_ - 2 < length) break;
    const std::uint64_t frame_end = consumed_ + 2 + length;
    if (range_corrupt(consumed_, frame_end)) {
      ++frames_dropped_;
    } else {
      completed_.push_back(source_->read(consumed_ + 2, length, straddle_));
      ++frames_delivered_;
    }
    consumed_ = frame_end;
  }
  // Ranges before the next frame can no longer overlap one.
  std::erase_if(corrupt_ranges_, [this](const auto& range) {
    return range.second <= consumed_;
  });
  source_->release(consumed_);
  return completed_;
}

}  // namespace plc::frames
