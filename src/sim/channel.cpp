#include "sim/channel.hpp"

#include <cassert>
#include <utility>

namespace sdr::sim {

Channel::Channel(Simulator& simulator, Config config,
                 std::unique_ptr<DropModel> drop_model)
    : sim_(simulator),
      config_(config),
      drop_model_(std::move(drop_model)),
      rng_(config.seed),
      propagation_(SimTime::from_seconds(
          propagation_delay_s(config.distance_km) + config.extra_delay_s)) {
  assert(drop_model_ && "channel requires a drop model");
  drop_model_->reset(rng_);
  if (telemetry::enabled()) register_metrics();
}

Channel::~Channel() {
  // The drain event captures `this`; disarm it in case the simulator keeps
  // running after the channel is torn down. (Stale handles cancel as
  // no-ops.)
  if (drain_event_.valid()) sim_.cancel(drain_event_);
}

void Channel::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("sim.channel"));
  tele_.bind_counter("sent_packets", &stats_.sent_packets);
  tele_.bind_counter("sent_bytes", &stats_.sent_bytes);
  tele_.bind_counter("dropped_packets", &stats_.dropped_packets);
  tele_.bind_counter("queue_drops", &stats_.queue_drops);
  tele_.bind_counter("reordered_packets", &stats_.reordered_packets);
  tele_.bind_counter("duplicated_packets", &stats_.duplicated_packets);
  tele_.bind_counter("delivered_packets", &stats_.delivered_packets);
  tele_.bind_gauge("drop_rate", [this] { return stats_.drop_rate(); });
  tele_.bind_gauge("queue_backlog_bytes", [this] {
    return static_cast<double>(queue_backlog_bytes());
  });
}

void Channel::emit_wire(telemetry::EventKind kind, const Packet& packet) {
  // The channel cannot decode the SDR immediate, so wire-level events carry
  // the raw imm (and destination QP) for the trace and span joins;
  // non-verbs payloads carry sentinel fields only.
  telemetry::Event e{.kind = kind, .t = sim_.now(), .bytes = packet.bytes};
  if (const auto* wire = std::get_if<verbs::WirePacket>(&packet.payload)) {
    e.conn = wire->dst_qp;
    e.imm = wire->imm;
    e.carries_imm = verbs::carries_imm(wire->opcode);
  }
  telemetry::emit(e);
}

std::size_t Channel::queue_backlog_bytes() const {
  const SimTime now = sim_.now();
  if (next_free_ <= now) return 0;
  const double backlog_s = (next_free_ - now).seconds();
  return static_cast<std::size_t>(backlog_s * config_.bandwidth_bps / 8.0);
}

void Channel::send(Packet packet) {
  packet.id = next_packet_id_++;
  ++stats_.sent_packets;
  stats_.sent_bytes += packet.bytes;
  if (telemetry::armed()) emit_wire(telemetry::EventKind::kWireTx, packet);

  // Egress buffer: tail-drop when the serializer backlog would overflow
  // the configured queue capacity (congestion loss).
  if (config_.queue_capacity_bytes > 0 &&
      queue_backlog_bytes() + packet.bytes > config_.queue_capacity_bytes) {
    ++stats_.dropped_packets;
    ++stats_.queue_drops;
    if (telemetry::armed()) {
      emit_wire(telemetry::EventKind::kWireQueueDrop, packet);
    }
    return;
  }

  // Serialization: the link transmits packets back-to-back in FIFO order.
  const SimTime start = std::max(sim_.now(), next_free_);
  const SimTime serialization = SimTime::from_seconds(
      injection_time_s(packet.bytes, config_.bandwidth_bps));
  next_free_ = start + serialization;

  if (drop_model_->should_drop(rng_, packet.bytes)) {
    ++stats_.dropped_packets;
    if (telemetry::armed()) {
      emit_wire(telemetry::EventKind::kWireDropped, packet);
    }
    return;  // the bits still occupied the wire; they just never arrive
  }

  SimTime arrival = next_free_ + propagation_;
  bool reordered = false;
  if (config_.reorder_probability > 0.0 &&
      rng_.bernoulli(config_.reorder_probability)) {
    reordered = true;
    ++stats_.reordered_packets;
    if (telemetry::armed()) {
      emit_wire(telemetry::EventKind::kWireReordered, packet);
    }
    arrival += SimTime::from_seconds(config_.reorder_extra_delay_s);
  }

  // Duplication (e.g. a WAN path failover replaying a packet): the copy
  // trails the original by a propagation-scale delay.
  const bool duplicate =
      config_.duplicate_probability > 0.0 &&
      rng_.bernoulli(config_.duplicate_probability);

  const std::uint32_t slot = acquire_slot(std::move(packet));
  if (duplicate) {
    ++stats_.duplicated_packets;
    if (telemetry::armed()) {
      emit_wire(telemetry::EventKind::kWireDuplicated, pool_[slot].pkt);
    }
    const std::uint32_t copy = acquire_slot_copy(slot);
    sim_.schedule_at(arrival + propagation_,
                     [this, copy] { deliver_slot(copy); });
  }
  if (reordered) {
    // Held-back packets jump ahead of later FIFO arrivals, so they keep
    // their own delivery event.
    sim_.schedule_at(arrival, [this, slot] { deliver_slot(slot); });
    return;
  }
  fifo_push(slot, arrival);
  // First packet of a burst arms the drain; inside a drain firing the
  // handler re-arms itself after delivering, so a receiver callback that
  // re-enters send() must not schedule a second one.
  if (fifo_count_ == 1 && !in_drain_) {
    drain_event_ = sim_.schedule_at(arrival, [this] { drain_fifo(); });
  }
}

void Channel::fifo_push(std::uint32_t slot, SimTime arrival) {
  assert((fifo_count_ == 0 ||
          fifo_[(fifo_head_ + fifo_count_ - 1) & (fifo_.size() - 1)]
                  .arrival_ns <= arrival.ns) &&
         "FIFO arrivals must be monotone");
  if (fifo_count_ == fifo_.size()) fifo_grow();
  fifo_[(fifo_head_ + fifo_count_) & (fifo_.size() - 1)] =
      FifoEntry{slot, arrival.ns};
  ++fifo_count_;
}

void Channel::fifo_grow() {
  const std::size_t cap = fifo_.empty() ? 64 : fifo_.size() * 2;
  std::vector<FifoEntry> grown(cap);
  for (std::size_t i = 0; i < fifo_count_; ++i) {
    grown[i] = fifo_[(fifo_head_ + i) & (fifo_.size() - 1)];
  }
  fifo_ = std::move(grown);
  fifo_head_ = 0;
}

void Channel::drain_fifo() {
  telemetry::ProfScope prof(telemetry::ProfCategory::kChannel);
  drain_event_ = EventId{};
  in_drain_ = true;
  for (;;) {
    const FifoEntry entry = fifo_[fifo_head_];
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    --fifo_count_;
    deliver_slot(entry.slot);
    if (fifo_count_ == 0) break;
    const SimTime next_arrival{fifo_[fifo_head_].arrival_ns};
    // Keep delivering from this one firing as long as nothing else in the
    // simulator is due first. A pending event at or before the next
    // arrival (a reordered packet, a duplicate copy, a protocol timer, a
    // callback-scheduled event — the receiver runs inside this loop and
    // may arm new ones) must interleave in its own firing, so hand back to
    // the event core and resume afterwards; rescheduling gets a fresh
    // sequence number, which keeps same-timestamp FIFO order with events
    // scheduled up to this point.
    if (sim_.next_deadline(next_arrival) <= next_arrival) break;
    sim_.advance_now(next_arrival);
  }
  in_drain_ = false;
  if (fifo_count_ != 0) {
    drain_event_ = sim_.schedule_at(SimTime{fifo_[fifo_head_].arrival_ns},
                                    [this] { drain_fifo(); });
  }
}

std::uint32_t Channel::acquire_slot(Packet&& packet) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
  } else {
    pool_.emplace_back();
    slot = static_cast<std::uint32_t>(pool_.size() - 1);
  }
  pool_[slot].pkt = std::move(packet);
  return slot;
}

std::uint32_t Channel::acquire_slot_copy(std::uint32_t from) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
  } else {
    pool_.emplace_back();
    slot = static_cast<std::uint32_t>(pool_.size() - 1);
  }
  // Index after both slots are resolved: the emplace_back above may have
  // reallocated the pool, so no reference to `from` can be held across it.
  pool_[slot].pkt = pool_[from].pkt;
  return slot;
}

void Channel::deliver_slot(std::uint32_t slot) {
  ++stats_.delivered_packets;
  // Move the packet out and free the slot *before* invoking the receiver:
  // the callback may send on this channel again (protocol loops), which
  // can grow the pool and would invalidate any reference into it.
  Packet packet = std::move(pool_[slot].pkt);
  if (telemetry::armed()) {
    emit_wire(telemetry::EventKind::kWireDelivered, packet);
  }
  pool_[slot].next_free = free_head_;
  free_head_ = slot;
  if (deliver_) deliver_(std::move(packet));
}

DuplexLink::DuplexLink(Simulator& simulator, Channel::Config config,
                       std::unique_ptr<DropModel> forward_drop,
                       std::unique_ptr<DropModel> backward_drop) {
  Channel::Config fwd = config;
  Channel::Config bwd = config;
  bwd.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
  forward_ = std::make_unique<Channel>(simulator, fwd, std::move(forward_drop));
  backward_ =
      std::make_unique<Channel>(simulator, bwd, std::move(backward_drop));
}

std::unique_ptr<DuplexLink> make_iid_link(Simulator& simulator,
                                          Channel::Config config,
                                          double p_drop_forward,
                                          double p_drop_backward) {
  return std::make_unique<DuplexLink>(
      simulator, config, std::make_unique<IidDrop>(p_drop_forward),
      std::make_unique<IidDrop>(p_drop_backward));
}

}  // namespace sdr::sim
