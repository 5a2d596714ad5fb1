#include "frames/pb.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace plc::frames {

namespace {

/// Drops the consumed prefix [0, consumed) of `stream` once it reaches
/// kCompactBytes and outgrows the live bytes behind it (or when nothing
/// is live, which costs no copy). Returns true when it dropped it.
bool compact_prefix(std::vector<std::uint8_t>& stream, std::size_t consumed) {
  const std::size_t live = stream.size() - consumed;
  if (live == 0) {
    stream.clear();
    return true;
  }
  if (consumed < kCompactBytes || consumed < live) return false;
  stream.erase(stream.begin(),
               stream.begin() + static_cast<std::ptrdiff_t>(consumed));
  return true;
}

}  // namespace

void Segmenter::push_frame(const EthernetFrame& frame) {
  util::require(frame.payload.size() <= kMaxEthernetPayload,
                "Segmenter: frame payload exceeds 1500 bytes");
  if (compact_prefix(stream_, read_)) read_ = 0;
  const std::size_t size = frame.wire_size();
  stream_.push_back(static_cast<std::uint8_t>(size >> 8));
  stream_.push_back(static_cast<std::uint8_t>(size & 0xFF));
  frame.serialize_into(stream_);
}

int Segmenter::pop_pbs(int max_pbs, bool flush,
                       std::vector<PhysicalBlock>& out) {
  util::check_arg(max_pbs >= 0, "max_pbs", "must be non-negative");
  int popped = 0;
  for (; popped < max_pbs; ++popped) {
    const std::size_t available = buffered_bytes();
    if (available == 0) break;
    if (available < kPbBytes && !flush) break;
    const std::size_t take = std::min(available, kPbBytes);
    PhysicalBlock& pb = out.emplace_back();
    pb.ssn = next_ssn_++;
    pb.used = static_cast<std::uint16_t>(take);
    std::copy_n(stream_.begin() + static_cast<std::ptrdiff_t>(read_), take,
                pb.body.begin());
    read_ += take;
  }
  return popped;
}

bool Reassembler::range_corrupt(std::size_t begin, std::size_t end) const {
  for (const auto& [c_begin, c_end] : corrupt_ranges_) {
    if (begin < c_end && c_begin < end) return true;
  }
  return false;
}

void Reassembler::compact() {
  // Ranges inside the consumed prefix can no longer overlap a frame.
  std::erase_if(corrupt_ranges_, [this](const auto& range) {
    return range.second <= consumed_;
  });
  if (!compact_prefix(stream_, consumed_)) return;
  for (auto& [begin, end] : corrupt_ranges_) {
    begin = begin > consumed_ ? begin - consumed_ : 0;
    end -= consumed_;
  }
  consumed_ = 0;
}

std::size_t Reassembler::push_pb(const PhysicalBlock& pb,
                                 std::vector<EthernetFrame>& frames) {
  const std::size_t begin = stream_.size();
  stream_.insert(stream_.end(), pb.body.begin(), pb.body.begin() + pb.used);
  if (!pb.received_ok) {
    corrupt_ranges_.emplace_back(begin, begin + pb.used);
  }

  std::size_t completed = 0;
  // Extract complete length-prefixed frames from the head of the stream.
  while (stream_.size() - consumed_ >= 2) {
    const std::size_t length =
        static_cast<std::size_t>(stream_[consumed_]) << 8 |
        stream_[consumed_ + 1];
    if (stream_.size() - consumed_ - 2 < length) break;
    const std::size_t frame_begin = consumed_;
    const std::size_t frame_end = consumed_ + 2 + length;
    if (range_corrupt(frame_begin, frame_end)) {
      ++frames_dropped_;
    } else {
      if (completed == frames.size()) frames.emplace_back();
      EthernetFrame::deserialize_into(
          std::span(stream_).subspan(frame_begin + 2, length),
          frames[completed++]);
      ++frames_delivered_;
    }
    consumed_ = frame_end;
  }
  compact();
  return completed;
}

}  // namespace plc::frames
