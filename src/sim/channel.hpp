// Long-haul point-to-point channel model.
//
// Models the inter-datacenter link the paper targets: a dedicated fiber path
// with configurable bandwidth, cable distance (propagation delay), a drop
// model and optional packet reordering. Serialization is modeled with a
// link-busy time (packets queue behind each other at the sender), and
// propagation is a pure delay — the standard LogGP-style decomposition the
// paper's T_INJ / RTT notation assumes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "sim/drop_model.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::sim {

struct ChannelStats {
  std::uint64_t sent_packets{0};
  std::uint64_t sent_bytes{0};
  std::uint64_t dropped_packets{0};
  std::uint64_t queue_drops{0};  // tail drops from a full egress buffer
  std::uint64_t reordered_packets{0};
  std::uint64_t duplicated_packets{0};
  std::uint64_t delivered_packets{0};

  double drop_rate() const {
    return sent_packets
               ? static_cast<double>(dropped_packets) /
                     static_cast<double>(sent_packets)
               : 0.0;
  }
};

/// Unidirectional channel. Deliveries invoke the receiver callback inside
/// the owning Simulator at the packet arrival time.
class Channel {
 public:
  struct Config {
    double bandwidth_bps = 400 * Gbps;
    double distance_km = 3750.0;          // one-way cable length
    double extra_delay_s = 0.0;           // switch/forwarding latency
    double reorder_probability = 0.0;     // chance a packet is held back
    double reorder_extra_delay_s = 0.0;   // additional delay when held back
    double duplicate_probability = 0.0;   // chance a packet arrives twice
    /// Egress buffer (switch queue) capacity in bytes; 0 = unbounded. When
    /// the serializer backlog plus the arriving packet exceed it, the
    /// packet is tail-dropped — the congestion-loss mechanism the paper's
    /// Fig 2 measurement attributes to ISP switch buffers (losses grow
    /// with packet size because bigger packets overflow a nearly full
    /// queue first).
    std::size_t queue_capacity_bytes = 0;
    std::uint64_t seed = 1;
  };

  using DeliverFn = std::function<void(Packet&&)>;

  Channel(Simulator& simulator, Config config,
          std::unique_ptr<DropModel> drop_model);
  ~Channel();

  /// Register the receive callback (exactly one receiver per channel).
  void set_receiver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Enqueue a packet for transmission. Serialization starts when the link
  /// becomes free; the packet arrives one propagation delay after its last
  /// bit leaves. Dropped packets still consume serialization time.
  void send(Packet packet);

  /// Earliest time a newly posted packet would start serializing.
  SimTime next_free() const { return next_free_; }

  /// Bytes currently waiting in the egress buffer (serializer backlog).
  std::size_t queue_backlog_bytes() const;

  SimTime one_way_delay() const { return propagation_; }
  double bandwidth_bps() const { return config_.bandwidth_bps; }
  const ChannelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ChannelStats{}; }

  /// Re-draw trial-level channel state (e.g. congestion intensity).
  void new_trial() { drop_model_->reset(rng_); }

  Rng& rng() { return rng_; }

  /// In-flight packet pool size — bounded by the peak number of packets on
  /// the wire, not by traffic volume. Exposed for regression tests.
  std::size_t pool_size() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // Free-list pool of in-flight packets: send() parks the packet in a slot
  // and schedules an inline {this, slot} delivery closure, so the steady
  // state allocates nothing per packet (the seed design paid a
  // make_shared plus a std::function heap spill each).
  struct PoolSlot {
    Packet pkt;
    std::uint32_t next_free{kNoSlot};
  };

  // Batched in-order delivery: packets that arrive in send order (the
  // common case — serialization start times are monotone and propagation is
  // constant) go through a per-channel FIFO ring drained by a single
  // self-rescheduling simulator event, so the event core sees one pending
  // delivery per channel instead of one per in-flight packet, and each
  // reschedule is a short serialization-scale delta (a level-0/1 wheel
  // link) instead of a propagation-scale one that must cascade down.
  // Reordered packets and duplicate copies arrive out of FIFO order and
  // keep the one-event-per-packet path.
  struct FifoEntry {
    std::uint32_t slot;
    std::int64_t arrival_ns;
  };

  std::uint32_t acquire_slot(Packet&& packet);
  std::uint32_t acquire_slot_copy(std::uint32_t from);
  void deliver_slot(std::uint32_t slot);
  void fifo_push(std::uint32_t slot, SimTime arrival);
  void fifo_grow();
  void drain_fifo();
  void register_metrics();
  void emit_wire(telemetry::EventKind kind, const Packet& packet);

  Simulator& sim_;
  Config config_;
  std::unique_ptr<DropModel> drop_model_;
  DeliverFn deliver_;
  Rng rng_;
  SimTime propagation_;
  SimTime next_free_{SimTime::zero()};
  ChannelStats stats_;
  std::uint64_t next_packet_id_{0};
  std::vector<PoolSlot> pool_;
  std::uint32_t free_head_{kNoSlot};
  std::vector<FifoEntry> fifo_;  // ring buffer, capacity a power of two
  std::size_t fifo_head_{0};
  std::size_t fifo_count_{0};
  EventId drain_event_;
  bool in_drain_{false};
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

/// A bidirectional link: two independent channels sharing a configuration
/// (bandwidth/distance symmetric, independent drop state per direction).
class DuplexLink {
 public:
  DuplexLink(Simulator& simulator, Channel::Config config,
             std::unique_ptr<DropModel> forward_drop,
             std::unique_ptr<DropModel> backward_drop);

  Channel& forward() { return *forward_; }
  Channel& backward() { return *backward_; }

  /// RTT through this link for a minimal-size packet (2x propagation).
  double rtt_s() const { return 2.0 * forward_->one_way_delay().seconds(); }

 private:
  std::unique_ptr<Channel> forward_;
  std::unique_ptr<Channel> backward_;
};

/// Convenience factory for an i.i.d.-loss duplex link.
std::unique_ptr<DuplexLink> make_iid_link(Simulator& simulator,
                                          Channel::Config config,
                                          double p_drop_forward,
                                          double p_drop_backward = 0.0);

}  // namespace sdr::sim
