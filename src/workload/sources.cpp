#include "workload/sources.hpp"

#include <utility>

#include "util/error.hpp"

namespace plc::workload {

frames::EthernetFrame FrameTemplate::make(std::uint32_t sequence) const {
  util::require(payload_bytes <= frames::kMaxEthernetPayload,
                "FrameTemplate: payload exceeds Ethernet maximum");
  frames::EthernetFrame frame;
  frame.destination = destination;
  frame.source = source;
  frame.ether_type = ether_type;
  frame.payload.assign(payload_bytes, 0);
  restamp(frame, sequence);
  return frame;
}

void FrameTemplate::restamp(frames::EthernetFrame& frame,
                            std::uint32_t sequence) {
  // Stamp a sequence number so end-to-end tests can check ordering.
  for (std::size_t i = 0; i < 4 && i < frame.payload.size(); ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(sequence >> (8 * (3 - i)));
  }
}

SaturatedSource::SaturatedSource(FrameTemplate frame_template,
                                 FrameSink sink, BacklogProbe backlog,
                                 std::size_t target_backlog)
    : template_(frame_template),
      sink_(std::move(sink)),
      backlog_(std::move(backlog)),
      target_backlog_(target_backlog) {
  util::check_arg(static_cast<bool>(sink_), "sink", "must not be empty");
  util::check_arg(static_cast<bool>(backlog_), "backlog", "must not be empty");
  util::check_arg(target_backlog >= 1, "target_backlog", "must be >= 1");
  frame_ = template_.make(0);
}

void SaturatedSource::top_up() {
  while (backlog_() < target_backlog_) {
    FrameTemplate::restamp(frame_, sequence_++);
    sink_(frame_);
    ++frames_generated_;
  }
}

PoissonSource::PoissonSource(des::Scheduler& scheduler,
                             FrameTemplate frame_template, FrameSink sink,
                             double rate_fps, des::RandomStream rng)
    : scheduler_(scheduler),
      template_(frame_template),
      sink_(std::move(sink)),
      rate_fps_(rate_fps),
      rng_(std::move(rng)) {
  util::check_arg(static_cast<bool>(sink_), "sink", "must not be empty");
  util::check_arg(rate_fps > 0.0, "rate_fps", "must be positive");
  frame_ = template_.make(0);
}

void PoissonSource::start() {
  running_ = true;
  const double gap_s = rng_.exponential(1.0 / rate_fps_);
  scheduler_.schedule(des::SimTime::from_seconds(gap_s),
                      [this] { arrival(); });
}

void PoissonSource::arrival() {
  if (!running_) return;
  FrameTemplate::restamp(frame_, sequence_++);
  sink_(frame_);
  ++frames_generated_;
  const double gap_s = rng_.exponential(1.0 / rate_fps_);
  scheduler_.schedule(des::SimTime::from_seconds(gap_s),
                      [this] { arrival(); });
}

OnOffSource::OnOffSource(des::Scheduler& scheduler,
                         FrameTemplate frame_template, FrameSink sink,
                         double on_rate_fps, des::SimTime mean_on,
                         des::SimTime mean_off, des::RandomStream rng)
    : scheduler_(scheduler),
      template_(frame_template),
      sink_(std::move(sink)),
      on_rate_fps_(on_rate_fps),
      mean_on_(mean_on),
      mean_off_(mean_off),
      rng_(std::move(rng)) {
  util::check_arg(static_cast<bool>(sink_), "sink", "must not be empty");
  util::check_arg(on_rate_fps > 0.0, "on_rate_fps", "must be positive");
  util::check_arg(mean_on > des::SimTime::zero(), "mean_on",
                  "must be positive");
  util::check_arg(mean_off > des::SimTime::zero(), "mean_off",
                  "must be positive");
  frame_ = template_.make(0);
}

void OnOffSource::start() {
  on_ = false;
  toggle();
}

void OnOffSource::toggle() {
  on_ = !on_;
  const des::SimTime mean = on_ ? mean_on_ : mean_off_;
  const double period_s = rng_.exponential(mean.seconds());
  scheduler_.schedule(des::SimTime::from_seconds(period_s),
                      [this] { toggle(); });
  if (on_) arrival();
}

void OnOffSource::arrival() {
  if (!on_) return;
  FrameTemplate::restamp(frame_, sequence_++);
  sink_(frame_);
  ++frames_generated_;
  scheduler_.schedule(des::SimTime::from_seconds(1.0 / on_rate_fps_),
                      [this] { arrival(); });
}

}  // namespace plc::workload
