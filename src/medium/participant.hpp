// Interfaces between the contention domain and the stations on it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "des/time.hpp"
#include "frames/mpdu.hpp"

namespace plc::medium {

/// What a station puts on the wire when its backoff counter expires: a
/// burst of one or more MPDUs (§3.1 — bursts contend for the medium, not
/// individual MPDUs). The domain owns one per participant and hands it
/// to every poll, so `sofs` keeps its capacity from burst to burst.
struct TxDescriptor {
  /// On-wire duration of each MPDU's payload.
  des::SimTime mpdu_duration = des::SimTime::zero();
  /// Number of MPDUs in the burst (>= 1, standard allows up to 4).
  int mpdu_count = 1;
  frames::Priority priority = frames::Priority::kCa1;
  /// SoF delimiters, one per MPDU, in transmission order. Delimiters are
  /// robustly modulated: observers (sniffers) and the destination decode
  /// them even when the payload collides. May be empty for pure-MAC
  /// stations that carry no real payload.
  std::vector<frames::SofDelimiter> sofs;

  /// Total payload-on-wire time of the burst (excluding fixed overheads,
  /// which the domain charges from its TimingConfig).
  des::SimTime payload_duration(des::SimTime burst_gap) const {
    return mpdu_count * mpdu_duration + (mpdu_count - 1) * burst_gap;
  }
};

/// A station attached to the contention domain.
///
/// At each boundary the domain dispatches (a slot start, a region start
/// or an exchange's end), it asks every participant pending() exactly
/// once, before any other call, and reads the answer until the next
/// boundary. It then drives each contending participant with exactly one
/// callback: on_idle_slots(count) for an idle gap of `count` backoff
/// slots, on_busy() for a busy period (someone transmitted). Stations
/// that are not backlogged, or that lost priority resolution, receive no
/// callbacks for that event (their counters freeze).
///
/// An idle gap is exact because an idle slot changes nothing but the
/// contenders' backoff counters: between two boundaries, a pending()
/// answer changes only at a scheduler event or at the station's own
/// exchange. A participant whose answer could change with time alone
/// says so through idle_slots_ahead().
class Participant {
 public:
  virtual ~Participant() = default;

  /// The priority class the station contends at when it has a frame
  /// (burst) waiting for the medium; nullopt when it has none.
  virtual std::optional<frames::Priority> pending() = 0;

  /// Polled at each backoff slot boundary (only for stations contending
  /// at the winning priority). When the backoff counter has expired,
  /// fills every field of `burst` with the burst to transmit and returns
  /// true; returns false to keep waiting (`burst` is then unspecified).
  virtual bool poll_transmit(TxDescriptor& burst) = 0;

  /// Asked at a boundary where no contender transmits, of each
  /// contender and of each participant with nothing pending (a
  /// participant pending at a losing class is frozen and not asked). A
  /// contender answers how many idle slots it counts down before it
  /// transmits; one with nothing pending, how many may start before it
  /// could have something pending with no scheduler event to say so.
  /// The domain dispatches at most the smallest answer as one gap. The
  /// default, one slot at a time, is always safe.
  virtual int idle_slots_ahead() { return 1; }

  /// `count` (>= 1) idle backoff slots elapsed.
  virtual void on_idle_slots(int count) = 0;

  /// A busy medium event elapsed. `transmitted` marks this station as one
  /// of the transmitters; `success` is the exchange outcome (meaningful
  /// for transmitters; for observers it distinguishes success from
  /// collision but must not affect their counters).
  virtual void on_busy(bool transmitted, bool success) = 0;

  /// Called on transmitters at the *end* of the busy period, when the
  /// exchange (burst + SACK) completes; full-stack stations deliver their
  /// MPDUs to the destination here.
  virtual void on_transmission_complete(bool success) { (void)success; }

  /// Polled when the station owns the current contention-free (TDMA)
  /// allocation of the beacon period: fill `burst` with the next burst
  /// to send without any backoff and return true, or return false to
  /// leave the allocation idle. Stations that never use TDMA keep the
  /// default.
  virtual bool poll_contention_free(TxDescriptor& burst) {
    (void)burst;
    return false;
  }
};

}  // namespace plc::medium
