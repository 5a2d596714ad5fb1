// Traffic sources feeding Ethernet frames into stations/devices.
//
// The paper's workload is saturated UDP traffic from N stations to one
// destination D at the default CA1 priority. SaturatedSource keeps a
// device's transmit backlog topped up; PoissonSource and OnOffSource
// support the unsaturated and bursty regimes used by the extended
// experiments.
#pragma once

#include <cstdint>
#include <functional>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "frames/ethernet.hpp"

namespace plc::workload {

/// Receives generated frames. The frame is the source's own buffer,
/// restamped for the next frame once the sink returns: copy what must
/// outlive the call.
using FrameSink = std::function<void(const frames::EthernetFrame&)>;

/// Reads a sink's current backlog, in whatever unit the sink queues
/// (frames, physical blocks, ...).
using BacklogProbe = std::function<std::size_t()>;

/// Shape of the generated frames (a UDP-like payload).
struct FrameTemplate {
  frames::MacAddress destination;
  frames::MacAddress source;
  std::uint16_t ether_type = frames::kEtherTypeIpv4;
  std::size_t payload_bytes = 1470;  ///< Typical saturating UDP datagram.

  frames::EthernetFrame make(std::uint32_t sequence) const;
  /// Rewrites the sequence stamp of `frame`, a make() result of this
  /// template, so that it equals make(sequence). A source builds one
  /// frame and restamps it for every frame it generates.
  static void restamp(frames::EthernetFrame& frame, std::uint32_t sequence);
};

/// Keeps the sink backlog at `target_backlog`: top_up() reads the
/// backlog and pushes frames only while it is below target, so the
/// backlog never exceeds target plus one frame however slowly the sink
/// drains. The owner calls top_up() once to fill the sink and then
/// whenever the sink takes frames off its backlog (for an emulated
/// device, from its drain callback), so the backlog is back at target
/// before anything can read it. This models an application-layer
/// iperf-style flood whose socket buffer never empties.
class SaturatedSource {
 public:
  SaturatedSource(FrameTemplate frame_template, FrameSink sink,
                  BacklogProbe backlog, std::size_t target_backlog = 32);

  /// Pushes frames while the backlog is below target.
  void top_up();

  std::int64_t frames_generated() const { return frames_generated_; }

 private:
  FrameTemplate template_;
  FrameSink sink_;
  BacklogProbe backlog_;
  std::size_t target_backlog_;
  std::int64_t frames_generated_ = 0;
  std::uint32_t sequence_ = 0;
  frames::EthernetFrame frame_;  ///< template_.make(), restamped per frame.
};

/// Poisson arrivals at a given mean rate (frames per second).
class PoissonSource {
 public:
  PoissonSource(des::Scheduler& scheduler, FrameTemplate frame_template,
                FrameSink sink, double rate_fps, des::RandomStream rng);

  void start();
  void stop() { running_ = false; }

  std::int64_t frames_generated() const { return frames_generated_; }

 private:
  void arrival();

  des::Scheduler& scheduler_;
  FrameTemplate template_;
  FrameSink sink_;
  double rate_fps_;
  des::RandomStream rng_;
  bool running_ = false;
  std::int64_t frames_generated_ = 0;
  std::uint32_t sequence_ = 0;
  frames::EthernetFrame frame_;  ///< template_.make(), restamped per frame.
};

/// Exponential ON/OFF source: during ON periods, constant-rate arrivals.
class OnOffSource {
 public:
  OnOffSource(des::Scheduler& scheduler, FrameTemplate frame_template,
              FrameSink sink, double on_rate_fps,
              des::SimTime mean_on, des::SimTime mean_off,
              des::RandomStream rng);

  void start();

  std::int64_t frames_generated() const { return frames_generated_; }
  bool is_on() const { return on_; }

 private:
  void toggle();
  void arrival();

  des::Scheduler& scheduler_;
  FrameTemplate template_;
  FrameSink sink_;
  double on_rate_fps_;
  des::SimTime mean_on_;
  des::SimTime mean_off_;
  des::RandomStream rng_;
  bool on_ = false;
  std::int64_t frames_generated_ = 0;
  std::uint32_t sequence_ = 0;
  frames::EthernetFrame frame_;  ///< template_.make(), restamped per frame.
};

}  // namespace plc::workload
