#include "verbs/qp.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/logging.hpp"
#include "verbs/nic.hpp"
#include "verbs/nic_model.hpp"

namespace sdr::verbs {

Qp::Qp(Nic& nic, QpNumber num, QpConfig config)
    : nic_(nic), num_(num), config_(config) {
  assert(config_.mtu > 0);
  if (nic_.caps().enabled) {
    injector_ = std::make_unique<Injector>(nic_, *this, nic_.caps());
  }
  if (telemetry::enabled()) register_metrics();
}

Qp::~Qp() {
  if (rc_timer_.valid()) {
    nic_.simulator().cancel(rc_timer_);
    rc_timer_ = {};
  }
}

void Qp::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("verbs.qp"));
  tele_.bind_counter("packets_sent", &stats_.packets_sent);
  tele_.bind_counter("packets_received", &stats_.packets_received);
  tele_.bind_counter("bytes_sent", &stats_.bytes_sent);
  tele_.bind_counter("messages_dropped_epsn", &stats_.messages_dropped_epsn);
  tele_.bind_counter("packets_discarded", &stats_.packets_discarded);
  tele_.bind_counter("rc_retransmissions", &stats_.rc_retransmissions);
  tele_.bind_counter("rc_naks_sent", &stats_.rc_naks_sent);
  tele_.bind_counter("remote_access_errors", &stats_.remote_access_errors);
  tele_.bind_gauge("rc_unacked", [this] {
    return static_cast<double>(rc_unacked_.size());
  });
}

Status Qp::connect(NicId remote_nic, QpNumber remote_qp) {
  remote_nic_ = remote_nic;
  remote_qp_ = remote_qp;
  connected_ = true;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

Status Qp::validate_write(const WriteWr& wr) const {
  if (config_.type == QpType::kUD) {
    return Status(StatusCode::kInvalidArgument,
                  "RDMA Write is not supported on UD queue pairs");
  }
  if (!connected_) {
    return Status(StatusCode::kNotConnected, "QP is not connected");
  }
  if (wr.local_addr == nullptr || wr.length == 0) {
    return Status(StatusCode::kInvalidArgument, "empty write");
  }
  return Status::ok();
}

Status Qp::post_write(const WriteWr& wr) {
  if (Status s = validate_write(wr); !s) return s;
  emit_packets_for_write(wr);
  return Status::ok();
}

void Qp::emit_packets_for_write(const WriteWr& wr) {
  const std::size_t mtu = config_.mtu;
  const std::size_t packets = (wr.length + mtu - 1) / mtu;
  std::size_t sent = 0;

  for (std::size_t p = 0; p < packets; ++p) {
    const std::size_t chunk = std::min(mtu, wr.length - sent);
    WirePacket pkt;
    pkt.dst_nic = remote_nic_;
    pkt.dst_qp = remote_qp_;
    pkt.src_qp = num_;
    pkt.psn = next_psn_++;
    pkt.rkey = wr.rkey;
    pkt.remote_offset = wr.remote_offset + sent;
    // Zero-copy: slice the caller's (registered) buffer directly. The verbs
    // contract keeps it valid until the send completion, which covers every
    // in-flight and RC-unacked reference to this slice.
    pkt.payload = common::PayloadRef::borrow(wr.local_addr + sent, chunk);

    const bool first = (p == 0);
    const bool last = (p + 1 == packets);
    if (first && last) {
      pkt.opcode = wr.with_imm ? Opcode::kWriteOnlyImm : Opcode::kWriteOnly;
    } else if (first) {
      pkt.opcode = Opcode::kWriteFirst;
    } else if (last) {
      pkt.opcode = wr.with_imm ? Opcode::kWriteLastImm : Opcode::kWriteLast;
    } else {
      pkt.opcode = Opcode::kWriteMiddle;
    }
    if (last && wr.with_imm) pkt.imm = wr.imm;

    if (config_.type == QpType::kRC) {
      rc_unacked_.push_back(Unacked{pkt, wr.wr_id, last, wr.signaled});
    }
    send_packet(std::move(pkt));
    sent += chunk;
  }

  if (config_.type == QpType::kRC) {
    rc_arm_timer();
  } else if (wr.signaled) {
    if (injector_ != nullptr) {
      // The packets are parked in the injection pipeline, not on the wire;
      // the completion fires when the last one's wire frontier passes.
      injector_->attach_completion(wr.wr_id,
                                   static_cast<std::uint32_t>(wr.length));
    } else {
      // Unreliable transports complete locally once the last byte has been
      // handed to the wire (injection complete).
      sim::Channel* ch = nic_.route_to(remote_nic_, num_, remote_qp_);
      const SimTime done = ch ? ch->next_free() : nic_.simulator().now();
      const auto wr_id = wr.wr_id;
      const auto bytes = static_cast<std::uint32_t>(wr.length);
      nic_.simulator().schedule_at(done, [this, wr_id, bytes] {
        complete_send(wr_id, bytes, WcStatus::kSuccess);
      });
    }
  }
}

Status Qp::post_send(const SendWr& wr) {
  if (wr.length > config_.mtu) {
    return Status(StatusCode::kInvalidArgument,
                  "two-sided send exceeds one MTU");
  }
  NicId dst_nic = remote_nic_;
  QpNumber dst_qp = remote_qp_;
  if (config_.type == QpType::kUD) {
    dst_nic = wr.dst_nic;
    dst_qp = wr.dst_qp;
    if (dst_qp == 0) {
      return Status(StatusCode::kInvalidArgument, "UD send needs dst_qp");
    }
  } else if (!connected_) {
    return Status(StatusCode::kNotConnected, "QP is not connected");
  }

  WirePacket pkt;
  pkt.dst_nic = dst_nic;
  pkt.dst_qp = dst_qp;
  pkt.src_qp = num_;
  pkt.psn = next_psn_++;
  pkt.opcode = wr.with_imm ? Opcode::kSendOnlyImm : Opcode::kSendOnly;
  pkt.imm = wr.imm;
  if (wr.local_addr != nullptr && wr.length > 0) {
    // Two-sided sends may post from short-lived storage (SDR builds CTS
    // messages on the stack), so the payload is copied once into a pooled,
    // refcounted slot rather than borrowed.
    pkt.payload = common::PayloadRef::pooled_copy(wr.local_addr, wr.length);
  }

  if (config_.type == QpType::kRC) {
    rc_unacked_.push_back(Unacked{pkt, wr.wr_id, true, wr.signaled});
    send_packet(std::move(pkt));
    rc_arm_timer();
  } else {
    send_packet(std::move(pkt));
    if (wr.signaled) {
      if (injector_ != nullptr) {
        injector_->attach_completion(wr.wr_id,
                                     static_cast<std::uint32_t>(wr.length));
      } else {
        sim::Channel* ch = nic_.route_to(dst_nic, num_, dst_qp);
        const SimTime done = ch ? ch->next_free() : nic_.simulator().now();
        const auto wr_id = wr.wr_id;
        const auto bytes = static_cast<std::uint32_t>(wr.length);
        nic_.simulator().schedule_at(done, [this, wr_id, bytes] {
          complete_send(wr_id, bytes, WcStatus::kSuccess);
        });
      }
    }
  }
  return Status::ok();
}

Status Qp::post_recv(const RecvWr& wr) {
  recv_queue_.push_back(wr);
  return Status::ok();
}

void Qp::send_packet(WirePacket&& pkt, bool count_retransmission) {
  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.payload.size();
  if (count_retransmission) {
    ++stats_.rc_retransmissions;
    if (telemetry::armed()) {
      // PSN stands in for the chunk id at the RC transport level.
      telemetry::emit({.kind = telemetry::EventKind::kRcRetransmit,
                       .t = nic_.simulator().now(), .conn = num_,
                       .chunk = pkt.psn, .imm = pkt.imm,
                       .bytes = pkt.payload.size()});
    }
  }
  // First transmissions pay the modeled injection cost; retransmissions are
  // NIC-internal (the hardware replays from its own buffers without
  // re-crossing the host posting path) and bypass it, as do ACK/NAK wire
  // messages, which never enter this function.
  if (injector_ != nullptr && !count_retransmission) {
    const bool is_send_verb = pkt.opcode == Opcode::kSendOnly ||
                              pkt.opcode == Opcode::kSendOnlyImm;
    injector_->post(std::move(pkt), is_send_verb);
    return;
  }
  nic_.send_packet(std::move(pkt));
}

void Qp::complete_send(std::uint64_t wr_id, std::uint32_t bytes,
                       WcStatus status) {
  if (config_.send_cq == nullptr) return;
  Cqe cqe;
  cqe.wr_id = wr_id;
  cqe.qp = num_;
  cqe.status = status;
  cqe.byte_len = bytes;
  cqe.is_recv = false;
  config_.send_cq->push(cqe);
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void Qp::on_packet(WirePacket&& pkt) {
  ++stats_.packets_received;
  switch (config_.type) {
    case QpType::kUD: receive_ud(std::move(pkt)); break;
    case QpType::kUC: receive_uc(std::move(pkt)); break;
    case QpType::kRC: receive_rc(std::move(pkt)); break;
  }
}

void Qp::deliver_recv_cqe(const WirePacket& pkt, std::uint32_t bytes) {
  if (config_.recv_cq == nullptr) return;
  Cqe cqe;
  cqe.qp = num_;
  cqe.src_qp = pkt.src_qp;
  cqe.status = WcStatus::kSuccess;
  cqe.byte_len = bytes;
  cqe.imm = pkt.imm;
  cqe.imm_valid = carries_imm(pkt.opcode);
  cqe.is_recv = true;
  config_.recv_cq->push(cqe);
}

void Qp::receive_ud(WirePacket&& pkt) {
  if (pkt.opcode != Opcode::kSendOnly && pkt.opcode != Opcode::kSendOnlyImm) {
    ++stats_.packets_discarded;  // UD supports only two-sided sends
    return;
  }
  if (recv_queue_.empty()) {
    ++stats_.packets_discarded;  // receiver-not-ready drop
    return;
  }
  RecvWr rwr = recv_queue_.front();
  recv_queue_.pop_front();
  const std::size_t n = std::min(pkt.payload.size(), rwr.length);
  if (n > 0 && rwr.addr != nullptr) {
    std::memcpy(rwr.addr, pkt.payload.data(), n);
  }
  Cqe cqe;
  cqe.wr_id = rwr.wr_id;
  cqe.qp = num_;
  cqe.src_qp = pkt.src_qp;
  cqe.status = WcStatus::kSuccess;
  cqe.byte_len = static_cast<std::uint32_t>(n);
  cqe.imm = pkt.imm;
  cqe.imm_valid = carries_imm(pkt.opcode);
  cqe.is_recv = true;
  if (config_.recv_cq != nullptr) config_.recv_cq->push(cqe);
}

void Qp::place_write_payload(const WirePacket& pkt, bool& access_ok) {
  // Resolve the target on the first packet of the message; continue the
  // cursor on subsequent packets.
  access_ok = true;
  std::uint8_t*& cursor =
      config_.type == QpType::kRC ? rc_write_cursor_ : uc_write_cursor_;
  bool& discard =
      config_.type == QpType::kRC ? rc_write_discard_ : uc_write_discard_;

  if (is_write_start(pkt.opcode)) {
    const ResolvedAccess access = nic_.pd().resolve(
        pkt.rkey, pkt.remote_offset, pkt.payload.size());
    if (!access.valid) {
      ++stats_.remote_access_errors;
      access_ok = false;
      return;
    }
    cursor = access.addr;
    discard = access.discard;
  }
  if (!discard && cursor != nullptr && !pkt.payload.empty()) {
    std::memcpy(cursor, pkt.payload.data(), pkt.payload.size());
    cursor += pkt.payload.size();
  }
}

void Qp::receive_uc(WirePacket&& pkt) {
  if (pkt.opcode == Opcode::kSendOnly || pkt.opcode == Opcode::kSendOnlyImm) {
    receive_ud(std::move(pkt));  // UC also supports two-sided sends
    return;
  }

  // ePSN tracking (paper §3.2.1): a PSN mismatch mid-message discards the
  // remainder of that message; sync is only regained at the start of a new
  // message (FIRST/ONLY opcode).
  if (pkt.psn != epsn_) {
    if (is_write_start(pkt.opcode)) {
      // New message observed after losing packets: resynchronize. The
      // previous in-flight message (if any) was implicitly lost.
      if (uc_in_message_) {
        ++stats_.messages_dropped_epsn;
        uc_in_message_ = false;
      }
      epsn_ = pkt.psn;  // adopt the sender's numbering
      uc_dropping_ = false;
    } else {
      // Mid-message packet with unexpected PSN: whole message is dropped.
      if (!uc_dropping_) {
        ++stats_.messages_dropped_epsn;
        uc_dropping_ = true;
        uc_in_message_ = false;
      }
      ++stats_.packets_discarded;
      epsn_ = pkt.psn + 1;  // track the wire so a future FIRST resyncs
      return;
    }
  }
  epsn_ = pkt.psn + 1;

  if (uc_dropping_ && !is_write_start(pkt.opcode)) {
    ++stats_.packets_discarded;
    return;
  }
  uc_dropping_ = false;

  bool access_ok = true;
  place_write_payload(pkt, access_ok);
  if (!access_ok) {
    // UC: silently drop the rest of the message on protection error.
    uc_dropping_ = true;
    uc_in_message_ = false;
    return;
  }

  if (is_write_start(pkt.opcode)) {
    uc_in_message_ = true;
    uc_message_bytes_ = 0;
  }
  uc_message_bytes_ += pkt.payload.size();

  if (is_write_end(pkt.opcode)) {
    uc_in_message_ = false;
    if (carries_imm(pkt.opcode)) {
      deliver_recv_cqe(pkt, static_cast<std::uint32_t>(uc_message_bytes_));
    }
  }
}

// ---------------------------------------------------------------------------
// RC: Go-Back-N reliability (the commodity-NIC baseline)
// ---------------------------------------------------------------------------

void Qp::receive_rc(WirePacket&& pkt) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kRc);
  if (pkt.opcode == Opcode::kAck) {
    rc_handle_ack(pkt.psn);
    return;
  }
  if (pkt.opcode == Opcode::kNak) {
    rc_handle_nak(pkt.psn);
    return;
  }
  if (config_.rc_mode == RcMode::kSelectiveRepeat) {
    rc_sr_receive(std::move(pkt));
    return;
  }

  if (pkt.psn != rc_epsn_) {
    ++stats_.packets_discarded;
    if (pkt.psn > rc_epsn_) {
      // Gap detected: request Go-Back-N from the expected PSN.
      rc_send_nak(pkt.src_qp, pkt.psn);
    } else if (pkt.psn < rc_epsn_) {
      // Duplicate from a rewind: re-ACK to move the sender forward.
      rc_receiver_maybe_ack(/*force=*/true);
    }
    return;
  }

  rc_nak_outstanding_ = false;
  rc_epsn_ = pkt.psn + 1;
  ++rc_unacked_count_;

  if (pkt.opcode == Opcode::kSendOnly || pkt.opcode == Opcode::kSendOnlyImm) {
    receive_ud(std::move(pkt));
    rc_receiver_maybe_ack(/*force=*/true);
    return;
  }

  bool access_ok = true;
  place_write_payload(pkt, access_ok);
  if (access_ok && is_write_end(pkt.opcode) && carries_imm(pkt.opcode)) {
    deliver_recv_cqe(pkt, static_cast<std::uint32_t>(pkt.payload.size()));
  }
  rc_receiver_maybe_ack(/*force=*/is_write_end(pkt.opcode));
}

void Qp::rc_receiver_maybe_ack(bool force) {
  if (!force && rc_unacked_count_ < config_.rc_ack_every) return;
  rc_unacked_count_ = 0;
  WirePacket ack;
  ack.dst_nic = remote_nic_;
  ack.dst_qp = remote_qp_;
  ack.src_qp = num_;
  ack.psn = rc_epsn_;  // cumulative: everything below this PSN arrived
  ack.opcode = Opcode::kAck;
  nic_.send_packet(std::move(ack));
}

void Qp::rc_handle_ack(Psn acked_up_to) {
  bool progressed = false;
  while (!rc_unacked_.empty() && rc_unacked_.front().pkt.psn < acked_up_to) {
    const Unacked& u = rc_unacked_.front();
    if (u.last_of_wr && u.signaled) {
      complete_send(u.wr_id, static_cast<std::uint32_t>(u.pkt.payload.size()),
                    WcStatus::kSuccess);
    }
    rc_unacked_.pop_front();
    progressed = true;
  }
  if (progressed) {
    rc_acked_psn_ = acked_up_to;
    rc_retries_ = 0;
  }
  if (rc_timer_.valid()) {
    nic_.simulator().cancel(rc_timer_);
    rc_timer_ = {};
  }
  if (!rc_unacked_.empty()) rc_arm_timer();
}

void Qp::rc_handle_nak(Psn expected) {
  if (config_.rc_mode == RcMode::kSelectiveRepeat) {
    // Selective: retransmit only the named packet.
    for (std::size_t i = 0; i < rc_unacked_.size(); ++i) {
      const Unacked& u = rc_unacked_[i];
      if (u.pkt.psn == expected) {
        WirePacket copy = u.pkt;  // payload is a ref bump, not a byte copy
        send_packet(std::move(copy), /*count_retransmission=*/true);
        break;
      }
    }
    return;
  }
  rc_retransmit_from(expected);
}

// ---------------------------------------------------------------------------
// RC Selective Repeat receiver: out-of-order packets are placed directly
// (each packet carries its own RETH offset); completions are delivered in
// order once the cumulative PSN passes them.
// ---------------------------------------------------------------------------

void Qp::rc_place_by_offset(const WirePacket& pkt) {
  const ResolvedAccess access =
      nic_.pd().resolve(pkt.rkey, pkt.remote_offset, pkt.payload.size());
  if (!access.valid) {
    ++stats_.remote_access_errors;
    return;
  }
  if (!access.discard && access.addr != nullptr && !pkt.payload.empty()) {
    std::memcpy(access.addr, pkt.payload.data(), pkt.payload.size());
  }
}

void Qp::rc_sr_receive(WirePacket&& pkt) {
  // Duplicates (already placed, or behind the cumulative point).
  if (pkt.psn < rc_epsn_ || rc_ooo_received_.count(pkt.psn) != 0) {
    ++stats_.packets_discarded;
    rc_receiver_maybe_ack(/*force=*/true);
    return;
  }

  const bool is_send =
      pkt.opcode == Opcode::kSendOnly || pkt.opcode == Opcode::kSendOnlyImm;
  if (is_send) {
    // Two-sided sends consume posted receives and must stay in order; an
    // out-of-order send is NAKed like Go-Back-N.
    if (pkt.psn != rc_epsn_) {
      ++stats_.packets_discarded;
      rc_send_nak(pkt.src_qp, pkt.psn);
      return;
    }
    rc_nak_outstanding_ = false;
    rc_epsn_ = pkt.psn + 1;
    receive_ud(std::move(pkt));
    rc_receiver_maybe_ack(/*force=*/true);
    return;
  }

  // One-sided write: place immediately regardless of order.
  rc_place_by_offset(pkt);
  if (is_write_end(pkt.opcode) && carries_imm(pkt.opcode)) {
    Cqe cqe;
    cqe.qp = num_;
    cqe.src_qp = pkt.src_qp;
    cqe.status = WcStatus::kSuccess;
    cqe.byte_len = static_cast<std::uint32_t>(pkt.payload.size());
    cqe.imm = pkt.imm;
    cqe.imm_valid = true;
    cqe.is_recv = true;
    rc_pending_cqes_.emplace(pkt.psn, cqe);
  }

  bool message_boundary = false;
  if (pkt.psn == rc_epsn_) {
    rc_nak_outstanding_ = false;
    ++rc_epsn_;
    ++rc_unacked_count_;
    // Drain the out-of-order set while it extends the cumulative range.
    while (rc_ooo_received_.erase(rc_epsn_) != 0) {
      ++rc_epsn_;
      ++rc_unacked_count_;
    }
    // Deliver completions now covered by the cumulative point, in order.
    while (!rc_pending_cqes_.empty() &&
           rc_pending_cqes_.begin()->first < rc_epsn_) {
      if (config_.recv_cq != nullptr) {
        config_.recv_cq->push(rc_pending_cqes_.begin()->second);
      }
      rc_pending_cqes_.erase(rc_pending_cqes_.begin());
      message_boundary = true;
    }
    rc_receiver_maybe_ack(/*force=*/message_boundary);
  } else {
    rc_ooo_received_.insert(pkt.psn);
    rc_send_nak(pkt.src_qp, rc_ooo_received_.size());
  }
}

void Qp::rc_send_nak(QpNumber dst_qp, std::uint64_t seen) {
  if (rc_nak_outstanding_) return;
  rc_nak_outstanding_ = true;
  ++stats_.rc_naks_sent;
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kRcNak,
                     .t = nic_.simulator().now(), .conn = num_, .x = rc_epsn_,
                     .y = seen});
  }
  WirePacket nak;
  nak.dst_nic = remote_nic_;
  nak.dst_qp = dst_qp;
  nak.src_qp = num_;
  nak.psn = rc_epsn_;
  nak.opcode = Opcode::kNak;
  nic_.send_packet(std::move(nak));
}

void Qp::rc_arm_timer() {
  if (rc_timer_.valid()) return;  // already armed
  rc_timer_ = nic_.simulator().schedule(
      SimTime::from_seconds(config_.rc_ack_timeout_s), [this] {
        rc_timer_ = {};
        rc_on_timeout();
      });
}

void Qp::rc_on_timeout() {
  telemetry::ProfScope prof(telemetry::ProfCategory::kRc);
  if (rc_unacked_.empty()) return;
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kRcRto,
                     .t = nic_.simulator().now(), .conn = num_,
                     .chunk = rc_unacked_.front().pkt.psn,
                     .x = rc_unacked_.size(),
                     .y = static_cast<std::uint64_t>(rc_retries_)});
  }
  ++rc_retries_;
  if (rc_retries_ > config_.rc_retry_limit) {
    // Give up: flush all outstanding work with an error, like hardware
    // transitioning the QP to the error state.
    for (std::size_t i = 0; i < rc_unacked_.size(); ++i) {
      const Unacked& u = rc_unacked_[i];
      if (u.last_of_wr && u.signaled) {
        complete_send(u.wr_id, 0, WcStatus::kRetryExceeded);
      }
    }
    rc_unacked_.clear();
    return;
  }
  rc_retransmit_from(rc_unacked_.front().pkt.psn);
  rc_arm_timer();
}

void Qp::rc_retransmit_from(Psn psn) {
  for (std::size_t i = 0; i < rc_unacked_.size(); ++i) {
    const Unacked& u = rc_unacked_[i];
    if (u.pkt.psn < psn) continue;
    WirePacket copy = u.pkt;  // payload is a ref bump, not a byte copy
    send_packet(std::move(copy), /*count_retransmission=*/true);
  }
  if (rc_timer_.valid()) {
    nic_.simulator().cancel(rc_timer_);
    rc_timer_ = {};
  }
  rc_arm_timer();
}

}  // namespace sdr::verbs
