#include "emu/device.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "emu/network.hpp"
#include "mme/ampstat.hpp"
#include "mme/sniffer.hpp"
#include "mme/tonemap_update.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::emu {

namespace {

/// Per-MPDU on-wire payload duration in reproduction mode: a 2-MPDU
/// burst occupies 2050 us of payload — the paper's frame_length — so a
/// successful burst costs exactly Ts = 2542.64 us.
constexpr des::SimTime kPinnedMpduDuration = des::SimTime::from_ns(1'025'000);
/// Aggregation timeout: a partly-filled physical block is shipped once
/// its oldest byte has waited this long (vendor-unknown; documented
/// value).
constexpr des::SimTime kAggregationTimeout = des::SimTime::from_ns(500'000);
/// Payload of a saturating host's frame: a typical saturating UDP
/// datagram.
constexpr std::size_t kSaturatedPayloadBytes = 1470;

// Tone-map adaptation (DeviceConfig::adaptation).
constexpr double kStepDownThreshold = 0.10;  ///< EWMA error to go more robust.
constexpr double kStepUpThreshold = 0.01;    ///< EWMA error to go faster.
constexpr double kEwmaAlpha = 0.05;
/// Hysteresis: minimum spacing between updates for one link (50 ms).
constexpr des::SimTime kMinUpdateInterval = des::SimTime::from_ns(50'000'000);
/// Cap on a single MPDU's on-wire duration (limits PBs per MPDU on robust
/// profiles, as the standard's max frame length does).
constexpr des::SimTime kMaxFrameDuration = des::SimTime::from_ns(2'050'000);

/// Signed distance between 16-bit sequence numbers (wrap-aware).
int ssn_distance(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(a - b));
}

}  // namespace

const phy::ToneMap& tonemap_profile(int index) {
  static const phy::ToneMap kLadder[kToneMapProfileCount] = {
      phy::ToneMap::mini_robo(), phy::ToneMap::std_robo(),
      phy::ToneMap::hs_robo(), phy::ToneMap::high_rate()};
  util::check_arg(index >= 0 && index < kToneMapProfileCount, "index",
                  "profile index out of range");
  return kLadder[index];
}

HpavDevice::HpavDevice(Network& network, int tei, frames::MacAddress mac,
                       DeviceConfig config, std::uint64_t seed)
    : network_(network),
      tei_(tei),
      mac_(mac),
      config_(std::move(config)),
      rng_(seed) {
  util::check_arg(tei >= 1 && tei <= 254, "tei", "must be in [1, 254]");
  util::check_arg(
      config_.pb_error_rate >= 0.0 && config_.pb_error_rate <= 1.0,
      "pb_error_rate", "must be in [0, 1]");
  // Table 1's backoff parameters per priority class.
  backoff_ca01_ = std::make_unique<mac::Backoff1901>(
      mac::BackoffConfig::ca0_ca1(),
      des::RandomStream(rng_.derive_seed("backoff-ca01")));
  backoff_ca23_ = std::make_unique<mac::Backoff1901>(
      mac::BackoffConfig::ca2_ca3(),
      des::RandomStream(rng_.derive_seed("backoff-ca23")));
}

void HpavDevice::bind_metrics(obs::Registry& registry) {
  const obs::Labels station{{"station", std::to_string(tei_)}};
  Metrics metrics;
  metrics.bursts_acked = &registry.counter(
      "emu.bursts", {{"station", std::to_string(tei_)}, {"outcome", "acked"}});
  metrics.bursts_collided = &registry.counter(
      "emu.bursts",
      {{"station", std::to_string(tei_)}, {"outcome", "collided"}});
  metrics.host_frames =
      &registry.counter("emu.host_frames_delivered", station);
  metrics.tonemap_sent = &registry.counter(
      "emu.tonemap_updates",
      {{"station", std::to_string(tei_)}, {"direction", "sent"}});
  metrics.tonemap_received = &registry.counter(
      "emu.tonemap_updates",
      {{"station", std::to_string(tei_)}, {"direction", "received"}});
  metrics_ = metrics;
}

void HpavDevice::set_host_receive(HostReceiveFn callback) {
  host_listeners_.clear();
  add_host_listener(std::move(callback));
}

void HpavDevice::add_host_listener(HostReceiveFn callback) {
  util::check_arg(static_cast<bool>(callback), "callback",
                  "must not be empty");
  host_listeners_.push_back(std::move(callback));
}

void HpavDevice::deliver_to_host(const frames::EthernetFrame& frame) {
  for (const HostReceiveFn& listener : host_listeners_) {
    listener(frame);
  }
}

mac::Backoff1901& HpavDevice::entity_for(frames::Priority priority) {
  return static_cast<int>(priority) >= 2 ? *backoff_ca23_ : *backoff_ca01_;
}

des::SimTime HpavDevice::mpdu_duration(const Link& link,
                                       int pb_count) const {
  if (config_.adaptation.enabled) {
    return tonemap_profile(link.tx_profile).frame_duration(pb_count);
  }
  if (config_.tonemap.has_value()) {
    return config_.tonemap->frame_duration(pb_count);
  }
  return kPinnedMpduDuration;
}

int HpavDevice::max_pbs_for(const Link& link) const {
  if (config_.adaptation.enabled) {
    const int by_duration =
        tonemap_profile(link.tx_profile).max_pb_count(kMaxFrameDuration);
    return std::max(1, std::min(kMaxPbsPerMpdu, by_duration));
  }
  return kMaxPbsPerMpdu;
}

int HpavDevice::link_tx_profile(int dst_tei,
                                frames::Priority priority) const {
  const Link* link = find_link(dst_tei, priority);
  return link == nullptr ? kDefaultToneMapProfile : link->tx_profile;
}

HpavDevice::Link* HpavDevice::find_link(int dst_tei,
                                        frames::Priority priority) const {
  for (const std::unique_ptr<Link>& link : links_) {
    if (link->dst_tei == dst_tei && link->priority == priority) {
      return link.get();
    }
  }
  return nullptr;
}

// --- Host interface ---------------------------------------------------------

void HpavDevice::host_send(const frames::EthernetFrame& frame) {
  if (frame.ether_type == frames::kEtherTypeHomePlugAv &&
      (frame.destination == mac_ || frame.destination.is_broadcast())) {
    handle_local_mme(mme::Mme::from_ethernet(frame));
    return;
  }
  const bool is_mme = frame.ether_type == frames::kEtherTypeHomePlugAv;
  enqueue_for_wire(frame,
                   is_mme ? frames::Priority::kCa2 : kDataPriority,
                   is_mme);
}

void HpavDevice::enqueue_for_wire(const frames::EthernetFrame& frame,
                                  frames::Priority priority, bool is_mme) {
  HpavDevice* destination = network_.device_by_mac(frame.destination);
  util::require(destination != nullptr,
                "HpavDevice: destination MAC not on this network");
  util::require(destination != this,
                "HpavDevice: frame addressed to the sending device");

  Link* found = find_link(destination->tei(), priority);
  if (found == nullptr) {
    const auto key = std::pair(destination->tei(), priority);
    const auto at = std::lower_bound(
        links_.begin(), links_.end(), key,
        [](const std::unique_ptr<Link>& l, const auto& k) {
          return std::pair(l->dst_tei, l->priority) < k;
        });
    found = links_.insert(at, std::make_unique<Link>())->get();
    found->dst_tei = destination->tei();
    found->dst_mac = frame.destination;
    found->priority = priority;
    found->is_mme = is_mme;
  }
  Link& link = *found;
  const bool was_ready = link_ready(link);
  if (!link.segmenter.has_pending_bytes() && link.retx.empty()) {
    link.oldest_arrival = network_.scheduler().now();
  }
  link.segmenter.push_frame(frame);

  if (!was_ready) {
    if (link_ready(link)) {
      network_.domain().notify_pending();
    } else if (!link.is_mme) {
      wake_at_aggregation_timeout(link);
    }
  }
}

void HpavDevice::wake_at_aggregation_timeout(const Link& link) {
  network_.scheduler().schedule_at(
      link.oldest_arrival + kAggregationTimeout,
      [this] { network_.domain().notify_pending(); });
}

void HpavDevice::saturate(const frames::MacAddress& destination) {
  frames::EthernetFrame& frame = saturating_frame_.emplace();
  frame.destination = destination;
  frame.source = mac_;
  frame.ether_type = frames::kEtherTypeIpv4;
  frame.payload.assign(kSaturatedPayloadBytes, 0);
  top_up();
}

void HpavDevice::top_up() {
  frames::EthernetFrame& frame = *saturating_frame_;
  while (tx_backlog_pbs() < kSaturatedBacklogPbs) {
    // Stamp a sequence number so end-to-end tests can check ordering.
    for (std::size_t i = 0; i < 4; ++i) {
      frame.payload[i] =
          static_cast<std::uint8_t>(saturating_sequence_ >> (8 * (3 - i)));
    }
    ++saturating_sequence_;
    enqueue_for_wire(frame, kDataPriority, /*is_mme=*/false);
  }
}

void HpavDevice::handle_local_mme(const mme::Mme& mme) {
  PROF_SCOPE("emu.handle_mme");
  if (const auto request = mme::AmpStatRequest::from_mme(mme)) {
    if (request->action == mme::StatAction::kReset) {
      counters_.reset_all();
    }
    const LinkCounters link = counters_.read(
        request->peer, request->link_priority, request->direction);
    mme::AmpStatConfirm confirm;
    confirm.status = 0;
    confirm.direction = request->direction;
    confirm.acknowledged = link.acknowledged;
    confirm.collided = link.collided;
    confirm.fc_errors = link.fc_errors;
    deliver_to_host(confirm.to_mme(mac_, mme.source).to_ethernet());
    return;
  }
  if (const auto request = mme::SnifferRequest::from_mme(mme)) {
    sniffer_enabled_ = request->enable;
    mme::SnifferConfirm confirm;
    confirm.status = 0;
    confirm.enabled = sniffer_enabled_;
    deliver_to_host(confirm.to_mme(mac_, mme.source).to_ethernet());
    return;
  }
  // Unknown vendor MME: real firmware stays silent.
}

// --- Periodic device-to-device management traffic ---------------------------

void HpavDevice::start_periodic_mme(des::SimTime interval,
                                    const frames::MacAddress& peer,
                                    frames::Priority priority,
                                    int payload_bytes) {
  util::check_arg(interval > des::SimTime::zero(), "interval",
                  "must be positive");
  util::check_arg(static_cast<int>(priority) >= 2, "priority",
                  "management traffic uses CA2 or CA3 (paper §3.3)");
  util::check_arg(payload_bytes >= 8 && payload_bytes <= 1400,
                  "payload_bytes", "must be in [8, 1400]");
  periodic_mmes_.push_back(
      PeriodicMme{interval, peer, priority, payload_bytes, 0});
  emit_periodic_mme(periodic_mmes_.size() - 1);
}

void HpavDevice::emit_periodic_mme(std::size_t index) {
  PeriodicMme& schedule = periodic_mmes_[index];
  frames::EthernetFrame frame;
  frame.destination = schedule.peer;
  frame.source = mac_;
  frame.ether_type = frames::kEtherTypeHomePlugAv;
  frame.payload.assign(static_cast<std::size_t>(schedule.payload_bytes), 0);
  frame.payload[0] = mme::kVendorOui[0];
  frame.payload[1] = mme::kVendorOui[1];
  frame.payload[2] = mme::kVendorOui[2];
  ++schedule.sequence;
  enqueue_for_wire(frame, schedule.priority, /*is_mme=*/true);
  network_.scheduler().schedule(schedule.interval,
                                [this, index] { emit_periodic_mme(index); });
}

// --- Transmit path -----------------------------------------------------------

bool HpavDevice::link_ready(const Link& link) const {
  if (!link.retx.empty()) return true;
  if (link.segmenter.complete_pb_count() > 0) return true;
  if (!link.segmenter.has_pending_bytes()) return false;
  if (link.is_mme) return true;  // Management frames ship immediately.
  return network_.scheduler().now() - link.oldest_arrival >=
         kAggregationTimeout;
}

HpavDevice::Link* HpavDevice::select_head_link() {
  Link* best = nullptr;
  for (const std::unique_ptr<Link>& link : links_) {
    if (!link_ready(*link)) continue;
    if (best == nullptr ||
        static_cast<int>(link->priority) > static_cast<int>(best->priority)) {
      best = link.get();
    }
  }
  return best;
}

std::optional<frames::Priority> HpavDevice::pending() {
  if (staged_count_ > 0) return staged_link_->priority;
  const Link* head = select_head_link();
  if (head == nullptr) return std::nullopt;
  const frames::Priority priority = head->priority;
  // Starting (or switching) contention: (re-)arm the class's backoff
  // entity for the new head frame.
  if (!contending_.has_value() || *contending_ != priority) {
    contending_ = priority;
    entity_for(priority).start_new_frame();
  }
  return priority;
}

bool HpavDevice::poll_transmit(medium::TxDescriptor& burst) {
  util::require(contending_.has_value(),
                "HpavDevice::poll_transmit: not contending");
  if (!entity_for(*contending_).ready_to_transmit()) return false;
  return stage_and_describe(burst);
}

bool HpavDevice::poll_contention_free(medium::TxDescriptor& burst) {
  // TDMA allocation: serve the staged burst, else whatever is at the
  // head; no backoff involved.
  if (staged_count_ == 0 && select_head_link() == nullptr) return false;
  return stage_and_describe(burst);
}

bool HpavDevice::stage_and_describe(medium::TxDescriptor& descriptor) {
  // Assemble (or re-use) the staged burst: a burst whose earlier attempt
  // collided went back to the retransmission queue and is rebuilt here
  // with identical content at the queue head.
  if (staged_count_ == 0) {
    Link* link = select_head_link();
    util::require(link != nullptr,
                  "HpavDevice::poll_transmit: backoff expired with no data");
    staged_link_ = link;
    const int pb_limit = max_pbs_for(*link);
    for (frames::Mpdu& mpdu : burst_) {
      std::vector<frames::PhysicalBlock>& pbs = mpdu.blocks;
      pbs.clear();
      // Retransmissions first, from the head of the queue.
      while (static_cast<int>(pbs.size()) < pb_limit && !link->retx.empty()) {
        pbs.push_back(link->retx.back());
        link->retx.pop_back();
      }
      if (static_cast<int>(pbs.size()) < pb_limit) {
        const bool flush =
            link->is_mme ||
            (link->segmenter.has_pending_bytes() &&
             network_.scheduler().now() - link->oldest_arrival >=
                 kAggregationTimeout);
        link->segmenter.pop_pbs(pb_limit - static_cast<int>(pbs.size()),
                                flush, pbs);
      }
      if (pbs.empty()) break;
      mpdu.sof.src_tei = static_cast<std::uint8_t>(tei_);
      mpdu.sof.dst_tei = static_cast<std::uint8_t>(link->dst_tei);
      mpdu.sof.link_id = static_cast<std::uint8_t>(link->priority);
      mpdu.sof.pb_count = static_cast<std::uint8_t>(pbs.size());
      mpdu.sof.mme_flag = link->is_mme;
      mpdu.sof.set_frame_duration(
          mpdu_duration(*link, static_cast<int>(pbs.size())));
      ++staged_count_;
    }
    util::require(staged_count_ > 0,
                  "HpavDevice::poll_transmit: link ready but yielded no PBs");
    // MPDUCnt counts the MPDUs *remaining* after this one (0 = last).
    int remaining = staged_count_;
    for (frames::Mpdu& mpdu : staged()) {
      mpdu.sof.mpdu_cnt = static_cast<std::uint8_t>(--remaining);
    }
    if (saturating_frame_.has_value()) top_up();
    // A partly filled block left behind turns ready at its aggregation
    // timeout, which no other event may mark.
    if (link->segmenter.has_pending_bytes() && !link_ready(*link)) {
      wake_at_aggregation_timeout(*link);
    }
  }

  descriptor.priority = staged_link_->priority;
  descriptor.mpdu_count = staged_count_;
  // The domain charges one payload duration per MPDU; with heterogeneous
  // MPDU sizes we charge the longest (conservative, only differs when a
  // tail MPDU is short).
  des::SimTime longest = des::SimTime::zero();
  descriptor.sofs.clear();
  for (const frames::Mpdu& mpdu : staged()) {
    longest = std::max(longest, mpdu.sof.frame_duration());
    descriptor.sofs.push_back(mpdu.sof);
  }
  descriptor.mpdu_duration = longest;
  return true;
}

int HpavDevice::idle_slots_ahead() {
  // pending() sets contending_ whenever it answers a class, and only a
  // completed exchange that leaves nothing ready clears it.
  if (contending_.has_value()) {
    return entity_for(*contending_).backoff_counter();
  }
  // Nothing pending: every link with bytes holds a partly filled data
  // block, and a wake-up event marks its aggregation timeout.
  return std::numeric_limits<int>::max();
}

void HpavDevice::on_idle_slots(int count) {
  util::require(contending_.has_value(),
                "HpavDevice::on_idle_slots: not contending");
  mac::Backoff1901& entity = entity_for(*contending_);
  for (int i = 0; i < count; ++i) entity.on_idle_slot();
}

void HpavDevice::on_busy(bool transmitted, bool success) {
  util::require(contending_.has_value(),
                "HpavDevice::on_busy: not contending");
  entity_for(*contending_).on_busy(transmitted, success);
}

void HpavDevice::on_transmission_complete(bool success) {
  util::require(staged_count_ > 0,
                "HpavDevice: transmission completed with nothing staged");
  const std::span<frames::Mpdu> burst = staged();
  staged_count_ = 0;
  Link& link = *staged_link_;
  HpavDevice* destination = network_.device_by_tei(link.dst_tei);
  util::require(destination != nullptr,
                "HpavDevice: staged destination vanished");

  if (!success) {
    // Collision: the destination decodes only the delimiters and answers
    // all-blocks-bad; every PB returns to the head of the retransmission
    // queue, in order.
    counters_.on_tx_collided(link.dst_mac, link.priority, burst.size());
    if (metrics_) metrics_->bursts_collided->add();
    for (auto mpdu_it = burst.rbegin(); mpdu_it != burst.rend(); ++mpdu_it) {
      destination->hear_collided_mpdu(mpdu_it->sof);
      link.retx.insert(link.retx.end(), mpdu_it->blocks.rbegin(),
                       mpdu_it->blocks.rend());
    }
    return;
  }

  // Success: hand each MPDU to the destination, apply its SACK.
  if (metrics_) metrics_->bursts_acked->add();
  const double pb_error_rate =
      network_.link_pb_error_rate(tei_, link.dst_tei, config_.pb_error_rate);
  for (frames::Mpdu& mpdu : burst) {
    // Channel error injection happens on the receiver side of the wire.
    // Every staged PB reads received_ok, and bernoulli(0) draws nothing.
    if (pb_error_rate > 0.0) {
      for (frames::PhysicalBlock& pb : mpdu.blocks) {
        pb.received_ok = !rng_.bernoulli(pb_error_rate);
      }
    }
    const frames::SackDelimiter& sack =
        destination->receive_mpdu(mpdu, link.segmenter);
    util::require(sack.pb_ok.size() == mpdu.blocks.size(),
                  "HpavDevice: SACK bitmap size mismatch");
    counters_.on_tx_acked(link.dst_mac, link.priority, 1);
    if (sack.result == frames::SackResult::kAllGood) continue;
    // Blocks the receiver flagged bad go to the tail of the
    // retransmission queue.
    for (std::size_t i = 0; i < sack.pb_ok.size(); ++i) {
      if (sack.pb_ok[i]) continue;
      frames::PhysicalBlock pb = mpdu.blocks[i];
      pb.received_ok = true;
      link.retx.insert(link.retx.begin(), pb);
    }
  }
  // The frame exchange is over; if the queue drained, stop contending.
  if (select_head_link() == nullptr) {
    contending_.reset();
  }
}

// --- Receive path ------------------------------------------------------------

const frames::SackDelimiter& HpavDevice::receive_mpdu(
    const frames::Mpdu& mpdu, frames::Segmenter& source_stream) {
  util::require(mpdu.sof.dst_tei == tei_,
                "HpavDevice::receive_mpdu: MPDU not addressed to me");
  const int src_tei = mpdu.sof.src_tei;
  RxStream& stream = rx_streams_[{src_tei, mpdu.sof.link_id}];
  if (!stream.reassembler.has_value() && !mpdu.blocks.empty()) {
    stream.reassembler.emplace(source_stream);
    stream.expected_ssn = mpdu.blocks.front().ssn;
  }
  util::require(!stream.reassembler.has_value() ||
                    &stream.reassembler->source() == &source_stream,
                "HpavDevice::receive_mpdu: MPDU from another stream");

  const std::span<const frames::PhysicalBlock> blocks = mpdu.blocks;
  sack_.pb_ok.assign(blocks.size(), true);
  int bad_blocks = 0;
  for (std::size_t i = 0; i < blocks.size();) {
    const frames::PhysicalBlock& pb = blocks[i];
    if (!pb.received_ok) {
      sack_.pb_ok[i++] = false;
      ++bad_blocks;
      continue;
    }
    const int distance = ssn_distance(pb.ssn, stream.expected_ssn);
    if (distance < 0) {
      // Duplicate (already delivered); acknowledge and drop.
      ++i;
      continue;
    }
    if (distance > 0) {
      // A hole precedes it: park it until the hole is repaired.
      stream.out_of_order[pb.ssn] = pb;
      ++i;
      continue;
    }
    // In order. With nothing parked, the whole run of good PBs that
    // continues the sequence goes to the reassembler in one call; then
    // every parked PB this unblocks, in SSN order.
    std::size_t end = i + 1;
    if (stream.out_of_order.empty()) {
      while (end < blocks.size() && blocks[end].received_ok &&
             blocks[end].ssn ==
                 static_cast<std::uint16_t>(blocks[end - 1].ssn + 1)) {
        ++end;
      }
    }
    reassemble(stream, blocks.subspan(i, end - i));
    i = end;
    for (auto it = stream.out_of_order.find(stream.expected_ssn);
         it != stream.out_of_order.end();
         it = stream.out_of_order.find(stream.expected_ssn)) {
      reassemble(stream, std::span(&it->second, 1));
      stream.out_of_order.erase(it);
    }
  }

  if (config_.adaptation.enabled) {
    update_rx_adaptation(stream, mpdu, bad_blocks);
  }

  const frames::Priority priority = mpdu.sof.priority();
  HpavDevice* source = network_.device_by_tei(src_tei);
  const frames::MacAddress src_mac =
      source != nullptr ? source->mac() : frames::MacAddress{};
  counters_.on_rx_acked(src_mac, priority, 1);
  sack_.src_tei = static_cast<std::uint8_t>(tei_);
  sack_.dst_tei = mpdu.sof.src_tei;
  sack_.set_result(bad_blocks);
  return sack_;
}

void HpavDevice::count_host_frame() {
  ++host_frames_delivered_;
  if (metrics_) metrics_->host_frames->add();
}

void HpavDevice::reassemble(RxStream& stream,
                            std::span<const frames::PhysicalBlock> run) {
  // A frame is built only when something reads it: the firmware reads
  // every MME, a host listener every frame. With a listener, the whole
  // batch is built before any frame is delivered: a listener may push
  // into the sender's stream, which ends the spans' validity.
  const bool build_all = !host_listeners_.empty();
  std::size_t built = 0;
  for (const std::span<const std::uint8_t> bytes :
       stream.reassembler->push_pbs(run)) {
    const bool is_mme = frames::EthernetFrame::ether_type_of(bytes) ==
                        frames::kEtherTypeHomePlugAv;
    if (!build_all && !is_mme) {
      count_host_frame();
      continue;
    }
    if (built == rx_frames_.size()) rx_frames_.emplace_back();
    frames::EthernetFrame::deserialize_into(bytes, rx_frames_[built++]);
  }
  for (std::size_t i = 0; i < built; ++i) {
    const frames::EthernetFrame& frame = rx_frames_[i];
    if (consume_plc_mme(frame)) continue;
    count_host_frame();
    deliver_to_host(frame);
  }
  stream.expected_ssn =
      static_cast<std::uint16_t>(stream.expected_ssn + run.size());
}

void HpavDevice::update_rx_adaptation(RxStream& stream,
                                      const frames::Mpdu& mpdu,
                                      int bad_blocks) {
  if (mpdu.blocks.empty()) return;
  const double bad_fraction = static_cast<double>(bad_blocks) /
                              static_cast<double>(mpdu.blocks.size());
  stream.ewma_error = (1.0 - kEwmaAlpha) * stream.ewma_error +
                      kEwmaAlpha * bad_fraction;

  int target = stream.believed_profile;
  if (stream.ewma_error > kStepDownThreshold && target > 0) {
    --target;  // More robust modulation.
  } else if (stream.ewma_error < kStepUpThreshold &&
             target + 1 < kToneMapProfileCount) {
    ++target;  // Faster modulation.
  }
  if (target == stream.believed_profile) return;

  const des::SimTime now = network_.scheduler().now();
  if (stream.update_sent &&
      now - stream.last_update < kMinUpdateInterval) {
    return;  // Hysteresis.
  }
  HpavDevice* transmitter = network_.device_by_tei(mpdu.sof.src_tei);
  if (transmitter == nullptr) return;

  stream.believed_profile = target;
  stream.last_update = now;
  stream.update_sent = true;
  // Nudging the EWMA toward the thresholds' midpoint avoids immediately
  // re-triggering on the very next MPDU.
  stream.ewma_error = 0.5 * (kStepDownThreshold + kStepUpThreshold);

  mme::ToneMapUpdate update;
  update.link_id = mpdu.sof.link_id;
  update.profile = static_cast<std::uint8_t>(target);
  update.error_permille = mme::ToneMapUpdate::to_permille(
      std::min(1.0, std::max(0.0, stream.ewma_error)));
  ++tonemap_updates_sent_;
  if (metrics_) metrics_->tonemap_sent->add();
  // The update itself is a management frame contending at CA2 (§3.3).
  enqueue_for_wire(update.to_mme(mac_, transmitter->mac()).to_ethernet(),
                   frames::Priority::kCa2, /*is_mme=*/true);
}

bool HpavDevice::consume_plc_mme(const frames::EthernetFrame& frame) {
  if (frame.ether_type != frames::kEtherTypeHomePlugAv) return false;
  if (frame.destination != mac_) return false;
  const mme::Mme mme = mme::Mme::from_ethernet(frame);
  if (const auto update = mme::ToneMapUpdate::from_mme(mme)) {
    ++tonemap_updates_received_;
    if (metrics_) metrics_->tonemap_received->add();
    HpavDevice* receiver = network_.device_by_mac(mme.source);
    Link* link = receiver == nullptr
                     ? nullptr
                     : find_link(receiver->tei(), static_cast<frames::Priority>(
                                                      update->link_id & 3));
    if (link != nullptr) {
      link->tx_profile =
          std::min(std::max(0, static_cast<int>(update->profile)),
                   kToneMapProfileCount - 1);
    }
    return true;  // Consumed by the firmware, never reaches the host.
  }
  return false;
}

void HpavDevice::hear_collided_mpdu(const frames::SofDelimiter& sof) {
  util::require(sof.dst_tei == tei_,
                "HpavDevice::hear_collided_mpdu: not addressed to me");
  HpavDevice* source = network_.device_by_tei(sof.src_tei);
  const frames::MacAddress src_mac =
      source != nullptr ? source->mac() : frames::MacAddress{};
  counters_.on_rx_collided(src_mac, sof.priority(), 1);
}

// --- Sniffer tap --------------------------------------------------------------

void HpavDevice::on_medium_event(const medium::MediumEventRecord& record) {
  if (!sniffer_enabled_) return;
  for (const frames::SofDelimiter& sof : record.sofs) {
    mme::SnifferIndication indication;
    indication.timestamp_10ns =
        mme::SnifferIndication::to_timestamp_10ns(record.start);
    indication.sof = sof;
    deliver_to_host(indication.to_mme(mac_, mac_).to_ethernet());
  }
}

// --- Introspection -------------------------------------------------------------

std::size_t HpavDevice::tx_backlog_pbs() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Link>& link : links_) {
    total += static_cast<std::size_t>(link->segmenter.complete_pb_count());
    total += link->retx.size();
  }
  return total;
}

}  // namespace plc::emu
