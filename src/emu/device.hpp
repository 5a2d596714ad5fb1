// An emulated HomePlug AV station: the device-under-test of the paper's
// testbed, rebuilt in software.
//
// A device has two faces:
//   - a *host* Ethernet interface: data frames enter/leave here, and the
//     host tools (tools::AmpStat, tools::Faifa) talk to the firmware here
//     with vendor MMEs (0xA030 statistics, 0xA034 sniffer);
//   - a *power-line* interface: the device contends on the shared
//     medium::ContentionDomain with the full 1901 CSMA/CA (per-priority
//     backoff, priority resolution via the domain, MPDU bursting,
//     selective acknowledgments, PB retransmission).
//
// Data path: host Ethernet frames are aggregated into 512-byte physical
// blocks per (destination, priority) link; when the backoff expires the
// device assembles a burst of up to kBurstMpdus MPDUs from the link's
// PBs (retransmissions first), in one buffer it keeps for its life. The
// paper measured that its devices use bursts of 2 MPDUs (§3.1).
//
// A PB is a descriptor into its link's convergence stream, which the
// sending link's Segmenter holds once. The receiver's per-source
// Reassembler is bound to that Segmenter and parses frames in place; it
// releases stream bytes only behind the in-order PBs that arrived OK, so
// a PB that is staged, collided or queued for retransmission stays
// readable. A data frame that no host listener reads is counted and never
// built; MMEs are always parsed, since the firmware reads them.
//
// Documented deviations from real silicon (vendor-secret areas, §4.1):
// the aggregation timeout and bit-loading algorithm are unknowns, so the
// frame duration is either pinned (reproduction mode) or derived from a
// static tone map; the aggregation timeout is a fixed 500 us.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "des/random.hpp"
#include "des/scheduler.hpp"
#include "emu/firmware_counters.hpp"
#include "frames/ethernet.hpp"
#include "frames/mpdu.hpp"
#include "frames/pb.hpp"
#include "frames/sack.hpp"
#include "mac/backoff.hpp"
#include "medium/domain.hpp"
#include "medium/participant.hpp"
#include "mme/header.hpp"
#include "obs/metrics.hpp"
#include "phy/tonemap.hpp"

namespace plc::emu {

class Network;

/// MPDUs per burst (the standard allows 1..4; the paper's devices use 2).
inline constexpr int kBurstMpdus = 2;
/// Physical blocks per MPDU at most: small enough that a saturated
/// backlog always fills every MPDU of the burst completely, so bursts
/// have a constant shape (the paper's devices consistently used 2-MPDU
/// bursts in the isolated experiments, §3.1).
inline constexpr int kMaxPbsPerMpdu = 16;
/// Priority of host data frames.
inline constexpr frames::Priority kDataPriority = frames::Priority::kCa1;

/// The settings that vary between experiments; everything else about a
/// device (burst shape, timings, Table 1 backoff, adaptation tuning) is
/// fixed.
struct DeviceConfig {
  /// When set, MPDU durations come from the tone map (duration of the
  /// MPDU's PB payload) instead of the pinned 1,025 us, which makes a
  /// 2-MPDU burst occupy the paper's 2050 us frame_length.
  std::optional<phy::ToneMap> tonemap;
  /// Channel error injection: probability that a delivered PB arrives
  /// corrupted (exercises selective retransmission; 0 = the paper's
  /// ideal-channel setting). Per-link Gilbert-Elliott channels installed
  /// on the Network override this flat rate.
  double pb_error_rate = 0.0;

  /// Tone-map adaptation — our documented model of §4.1's "management
  /// messages exchanged for updating the modulation scheme when the
  /// error rate of the channel changes". The *receiver* tracks an EWMA
  /// of the PB error rate per link and, on threshold crossings, sends a
  /// ToneMapUpdate MME (0xA038) to the transmitter, which switches the
  /// link's modulation profile in the standard ladder
  /// (mini-ROBO / std-ROBO / HS-ROBO / high-rate). MPDU durations then
  /// follow the link's current profile.
  struct AdaptationConfig {
    bool enabled = false;
  } adaptation;
};

/// The modulation-profile ladder used by tone-map adaptation. Index 0 is
/// the most robust (mini-ROBO), index 3 the fastest (high-rate).
inline constexpr int kToneMapProfileCount = 4;
inline constexpr int kDefaultToneMapProfile = 3;
const phy::ToneMap& tonemap_profile(int index);

/// Transmit backlog a saturating host keeps queued (see saturate): two
/// full bursts' worth of PBs, so every burst has the full shape.
inline constexpr std::size_t kSaturatedBacklogPbs =
    4 * kBurstMpdus * kMaxPbsPerMpdu;

/// Callback receiving frames on the device's host interface.
using HostReceiveFn = std::function<void(const frames::EthernetFrame&)>;

/// The emulated station.
class HpavDevice final : public medium::Participant,
                         public medium::MediumObserver {
 public:
  HpavDevice(Network& network, int tei, frames::MacAddress mac,
             DeviceConfig config, std::uint64_t seed);

  // --- Host interface ----------------------------------------------------
  /// Sends a frame from the host into the device. MMEs addressed to the
  /// device itself are served by the firmware; everything else is queued
  /// for power-line transmission.
  void host_send(const frames::EthernetFrame& frame);

  /// Installs the host-side receive callback (delivered data frames, MME
  /// confirms, sniffer indications), replacing any previous listeners.
  void set_host_receive(HostReceiveFn callback);

  /// Adds an additional host-side listener (host tools subscribe here
  /// without displacing the application's callback).
  void add_host_listener(HostReceiveFn callback);

  /// Makes the host a saturating UDP flood to `destination` (§3.1): it
  /// sends 1,470-byte IPv4 frames from this device, the first four
  /// payload bytes a big-endian sequence number from 0, while the
  /// transmit backlog is below kSaturatedBacklogPbs. It fills the backlog
  /// now and again each time the device stages a burst, right after
  /// taking the burst's PBs off its queues, so the backlog is back at
  /// target before anything reads it.
  void saturate(const frames::MacAddress& destination);

  // --- Device-to-device management traffic (§3.3 / E10) ------------------
  /// Starts emitting a management frame of `payload_bytes` to `peer`
  /// every `interval` (the standard leaves rates vendor-defined; this
  /// models tone-map maintenance chatter). Priority must be CA2 or CA3.
  void start_periodic_mme(des::SimTime interval,
                          const frames::MacAddress& peer,
                          frames::Priority priority, int payload_bytes);

  // --- medium::Participant ------------------------------------------------
  /// The staged burst's priority, else the head link's; a new head
  /// priority (re-)arms that class's backoff entity.
  std::optional<frames::Priority> pending() override;
  bool poll_transmit(medium::TxDescriptor& burst) override;
  /// Contending: the class's backoff counter. Nothing pending: no limit,
  /// since a partly filled block turns ready at its aggregation timeout,
  /// where a wake-up event is scheduled.
  int idle_slots_ahead() override;
  void on_idle_slots(int count) override;
  void on_busy(bool transmitted, bool success) override;
  void on_transmission_complete(bool success) override;
  /// Devices serve their staged burst, else their head link, in TDMA
  /// allocations they own, bypassing the backoff entity entirely.
  bool poll_contention_free(medium::TxDescriptor& burst) override;

  // --- medium::MediumObserver (sniffer tap) -------------------------------
  void on_medium_event(const medium::MediumEventRecord& record) override;

  // --- Observability -------------------------------------------------------
  /// Registers this device's firmware-level counters into `registry`
  /// (labels station=<tei>): burst outcomes, host deliveries, tone-map
  /// update traffic.
  void bind_metrics(obs::Registry& registry);

  // --- Introspection -------------------------------------------------------
  int tei() const { return tei_; }
  const frames::MacAddress& mac() const { return mac_; }
  const FirmwareCounters& counters() const { return counters_; }
  bool sniffer_enabled() const { return sniffer_enabled_; }
  /// Tone-map maintenance statistics (adaptation mode).
  std::int64_t tonemap_updates_sent() const { return tonemap_updates_sent_; }
  std::int64_t tonemap_updates_received() const {
    return tonemap_updates_received_;
  }
  /// Current transmit profile for the link to `dst_tei` at `priority`
  /// (kDefaultToneMapProfile if the link does not exist).
  int link_tx_profile(int dst_tei, frames::Priority priority) const;
  /// Transmit backlog in physical blocks (complete PBs + retransmissions).
  std::size_t tx_backlog_pbs() const;
  std::int64_t host_frames_delivered() const { return host_frames_delivered_; }

  /// Called by a transmitting peer: the device receives one MPDU, whose
  /// PBs describe bytes of `stream` (the peer link's Segmenter), and
  /// answers with a selective acknowledgment (success path; the SACK's
  /// airtime lives in the domain's success overhead). The SACK is the
  /// device's own, valid until its next receive_mpdu. The source's first
  /// MPDU binds its receive stream to `stream` for the device's life.
  const frames::SackDelimiter& receive_mpdu(const frames::Mpdu& mpdu,
                                            frames::Segmenter& stream);

  /// Called by a transmitting peer whose MPDU to this device collided:
  /// the delimiter was decodable, the payload was not (all-bad SACK).
  void hear_collided_mpdu(const frames::SofDelimiter& sof);

 private:
  /// One (destination, priority) aggregation link.
  struct Link {
    int dst_tei = 0;
    frames::MacAddress dst_mac;
    frames::Priority priority = frames::Priority::kCa1;
    bool is_mme = false;             ///< Flush immediately (management).
    /// The link's convergence stream; the destination's RxStream reads
    /// it in place (links are never erased, and never move).
    frames::Segmenter segmenter;
    /// PBs awaiting retransmission, as a queue whose head is the back.
    std::vector<frames::PhysicalBlock> retx;
    des::SimTime oldest_arrival = des::SimTime::zero();
    /// Transmit modulation profile (adaptation mode).
    int tx_profile = kDefaultToneMapProfile;
  };

  /// Per-source reassembly state on the receive side.
  struct RxStream {
    /// Bound to the sending link's stream by the source's first MPDU.
    std::optional<frames::Reassembler> reassembler;
    std::uint16_t expected_ssn = 0;
    /// Good PBs that arrived behind a hole (a bad PB awaiting its
    /// retransmission); in-order PBs bypass this map.
    std::map<std::uint16_t, frames::PhysicalBlock> out_of_order;
    /// Receiver-side adaptation state (§4.1 model).
    double ewma_error = 0.0;
    int believed_profile = kDefaultToneMapProfile;
    des::SimTime last_update = des::SimTime::zero();
    bool update_sent = false;
  };

  void handle_local_mme(const mme::Mme& mme);
  void deliver_to_host(const frames::EthernetFrame& frame);
  void enqueue_for_wire(const frames::EthernetFrame& frame,
                        frames::Priority priority, bool is_mme);
  /// Sends saturating frames while the backlog is below target.
  void top_up();
  bool link_ready(const Link& link) const;
  /// Wakes the domain when `link`'s partly filled block passes its
  /// aggregation timeout.
  void wake_at_aggregation_timeout(const Link& link);
  /// The link to `dst_tei` at `priority`, or nullptr.
  Link* find_link(int dst_tei, frames::Priority priority) const;
  /// Highest-priority ready link; the first in links_ order on a tie.
  Link* select_head_link();
  des::SimTime mpdu_duration(const Link& link, int pb_count) const;
  /// Largest PB count allowed per MPDU on this link (profile- and
  /// max-frame-duration-aware in adaptation mode).
  int max_pbs_for(const Link& link) const;
  mac::Backoff1901& entity_for(frames::Priority priority);
  /// Stages a burst from the head link unless one is staged, and
  /// describes the staged burst for the medium in `descriptor` at its
  /// link's priority; returns true.
  bool stage_and_describe(medium::TxDescriptor& descriptor);
  /// The staged MPDUs (empty when nothing is staged).
  std::span<frames::Mpdu> staged() {
    return {burst_.data(), static_cast<std::size_t>(staged_count_)};
  }
  void emit_periodic_mme(std::size_t index);
  /// Feeds the next in-order PBs (SSNs from `expected_ssn` on) to the
  /// stream's reassembler in one call and hands the frames they complete
  /// to the firmware/host, every frame built before any is delivered.
  void reassemble(RxStream& stream,
                  std::span<const frames::PhysicalBlock> run);
  /// Counts one frame delivered on the host interface.
  void count_host_frame();
  /// Receiver-side adaptation step after one MPDU's outcomes.
  void update_rx_adaptation(RxStream& stream, const frames::Mpdu& mpdu,
                            int bad_blocks);
  /// Firmware-level handling of an MME that arrived over the power line;
  /// returns true when consumed (not delivered to the host).
  bool consume_plc_mme(const frames::EthernetFrame& frame);

  Network& network_;
  int tei_;
  frames::MacAddress mac_;
  DeviceConfig config_;
  des::RandomStream rng_;
  std::vector<HostReceiveFn> host_listeners_;
  /// The saturating host's frame (none until saturate()), restamped for
  /// each one it sends.
  std::optional<frames::EthernetFrame> saturating_frame_;
  std::uint32_t saturating_sequence_ = 0;

  /// The device's links in (destination TEI, priority) order. A device
  /// has a handful; each Link stays where it was made, since a receiver
  /// holds its Segmenter's address.
  std::vector<std::unique_ptr<Link>> links_;
  /// Receive-side reassembly, keyed by (source TEI, link id): each link
  /// carries an independent SSN sequence, so streams must not mix.
  std::map<std::pair<int, int>, RxStream> rx_streams_;

  /// Per-priority-class backoff entities (CA0/CA1 share one config, as do
  /// CA2/CA3, but each class keeps its own counters).
  std::unique_ptr<mac::Backoff1901> backoff_ca01_;
  std::unique_ptr<mac::Backoff1901> backoff_ca23_;
  /// Priority class the device is currently contending at.
  std::optional<frames::Priority> contending_;

  /// The burst buffer: the first staged_count_ MPDUs are the burst
  /// staged from staged_link_, awaiting its outcome (none when 0). Each
  /// MPDU's PB vector is refilled in place, so staging allocates nothing
  /// once the vectors have grown.
  std::array<frames::Mpdu, kBurstMpdus> burst_;
  int staged_count_ = 0;
  Link* staged_link_ = nullptr;
  /// Frames built from the last Reassembler::push_pbs (a prefix); the
  /// elements keep their payload capacity.
  std::vector<frames::EthernetFrame> rx_frames_;
  /// The SACK of the last receive_mpdu; its bitmap keeps its capacity.
  frames::SackDelimiter sack_;

  /// Pre-resolved registry instruments (optional; see bind_metrics).
  struct Metrics {
    obs::Counter* bursts_acked = nullptr;
    obs::Counter* bursts_collided = nullptr;
    obs::Counter* host_frames = nullptr;
    obs::Counter* tonemap_sent = nullptr;
    obs::Counter* tonemap_received = nullptr;
  };
  std::optional<Metrics> metrics_;

  FirmwareCounters counters_;
  bool sniffer_enabled_ = false;
  std::int64_t host_frames_delivered_ = 0;
  std::int64_t tonemap_updates_sent_ = 0;
  std::int64_t tonemap_updates_received_ = 0;

  struct PeriodicMme {
    des::SimTime interval;
    frames::MacAddress peer;
    frames::Priority priority;
    int payload_bytes;
    std::uint32_t sequence = 0;
  };
  std::vector<PeriodicMme> periodic_mmes_;
};

}  // namespace plc::emu
