#include "reliability/sr_protocol.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/failpoint.hpp"
#include "common/logging.hpp"

namespace sdr::reliability {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

SrSender::SrSender(sim::Simulator& simulator, core::Qp& qp,
                   ControlLink& control, const LinkProfile& profile,
                   SrProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      config_(config),
      messages_(qp.attr().max_inflight),
      // The static RTO seeds the estimator. Its floor: no ACK returns faster
      // than the round trip plus the receiver's ACK cadence, and an RTO
      // below that guarantees spurious retransmission storms.
      retx_(simulator, qp,
            {.layer = telemetry::FlightLayer::kSr,
             .stride = qp.attr().max_chunks_per_msg(),
             .rto_s = config.rto_s,
             .adaptive_rto = config.adaptive_rto,
             .estimator = {.min_rto_s = profile.rtt_s +
                                        2.0 * config.ack_interval_s,
                           .initial_rto_s = config.rto_s}},
            [this](std::uint64_t number, std::size_t offset, std::size_t len,
                   bool retransmission) {
              const MsgState& msg = slot(number);
              const Status s = qp_.send_stream_continue(
                  msg.handle, msg.data + offset, offset, len);
              if (!s) {
                SDR_WARN("SR chunk injection failed: %s",
                         std::string(to_string(s.code())).c_str());
                return false;
              }
              if (retransmission) ++stats_.retransmissions;
              ++stats_.chunks_sent;
              return true;
            }) {
  control_.set_receiver(
      [this](const std::uint8_t* d, std::size_t n) { on_control(d, n); });
  // Retransmission timers start when the receiver's CTS arrives (that is
  // when injection actually begins); arming them at write() time would
  // spuriously fire while the chunks are still queued behind the CTS.
  qp_.set_cts_handler(
      [this](std::uint64_t msg_number) { retx_.start_clock(msg_number); });
  if (telemetry::enabled()) register_metrics();
}

void SrSender::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.sr.sender"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("chunks_sent", &stats_.chunks_sent);
  tele_.bind_counter("retransmissions", &stats_.retransmissions);
  tele_.bind_counter("acks_received", &stats_.acks_received);
  tele_.bind_counter("nacks_received", &stats_.nacks_received);
  tele_.bind_gauge("srtt_s", [this] { return retx_.estimator().srtt_s(); });
  tele_.bind_gauge("rto_s", [this] { return retx_.rto_s(); });
  tele_.bind_gauge("inflight_messages",
                   [this] { return static_cast<double>(inflight_); });
  retx_.record_rtt_samples(tele_.histogram("rtt_sample_s", 1e-6, 100.0));
  chunk_completion_hist_ = tele_.histogram("chunk_completion_s", 1e-6, 1e3);
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

Status SrSender::write(const std::uint8_t* data, std::size_t length,
                       DoneFn done) {
  if (data == nullptr || length == 0) {
    return Status(StatusCode::kInvalidArgument, "empty write");
  }
  if (length > qp_.attr().max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "SR write exceeds the maximum message size");
  }
  core::SendHandle* handle = nullptr;
  if (Status s = qp_.send_stream_start(0, false, &handle); !s) return s;

  const std::uint64_t msg_number = handle->msg_number();
  MsgState& msg = slot(msg_number);
  msg.handle = handle;
  msg.data = data;
  msg.write_at_s = sim_.now().seconds();
  msg.done = std::move(done);
  retx_.start(msg_number, length);
  ++inflight_;
  ++stats_.messages;
  const std::size_t chunks = retx_.chunks(msg_number);
  if (telemetry::flight_recording()) {
    telemetry::flight().record(telemetry::FlightLayer::kSr,
                               qp_.control_qp_num(), "write", sim_.now(),
                               msg_number, length, chunks);
  }

  for (std::size_t c = 0; c < chunks; ++c) {
    retx_.send(msg_number, c, ChunkRetransmitter::Send::kFirst);
  }
  if (handle->cts_ready()) retx_.start_clock(msg_number);
  return Status::ok();
}

void SrSender::on_control(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  if (!decode_control(data, length, ctrl_scratch_)) return;
  const ControlMessage& msg = ctrl_scratch_;
  const std::uint64_t number = msg.msg_number;
  // A stale ACK for a finished message.
  if (!retx_.tracking(number)) return;

  switch (msg.type) {
    case ControlType::kSrAck: {
      ++stats_.acks_received;
      const std::size_t newly_acked = retx_.apply_ack(number, msg);
      for (std::size_t c = 0; c < newly_acked; ++c) {
        chunk_completion_hist_.record(sim_.now().seconds() -
                                      slot(number).write_at_s);
      }
      if (telemetry::flight_recording()) {
        telemetry::flight().record(telemetry::FlightLayer::kSr,
                                   qp_.control_qp_num(), "ack_applied",
                                   sim_.now(), number, msg.cumulative,
                                   retx_.acked(number), retx_.chunks(number));
      }
      break;
    }
    case ControlType::kSrNack: {
      ++stats_.nacks_received;
      for (std::uint32_t chunk : msg.indices) retx_.retransmit(number, chunk);
      if (telemetry::flight_recording()) {
        telemetry::flight().record(telemetry::FlightLayer::kSr,
                                   qp_.control_qp_num(), "nack_applied",
                                   sim_.now(), number, msg.indices.size(),
                                   msg.indices.empty() ? 0 : msg.indices[0]);
      }
      break;
    }
    default:
      break;
  }
  if (retx_.complete(number)) finish(number);
}

void SrSender::finish(std::uint64_t msg_number) {
  MsgState& msg = slot(msg_number);
  msg_completion_hist_.record(sim_.now().seconds() - msg.write_at_s);
  if (telemetry::flight_recording()) {
    telemetry::flight().record(telemetry::FlightLayer::kSr,
                               qp_.control_qp_num(), "msg_done", sim_.now(),
                               msg_number, retx_.chunks(msg_number),
                               stats_.retransmissions);
  }
  retx_.stop(msg_number);
  --inflight_;
  qp_.send_stream_end(msg.handle);
  qp_.send_release(msg.handle);  // recycled once its packets leave the NIC
  // Last: the callback may write() a new message into this slot.
  DoneFn done = std::move(msg.done);
  if (done) done(Status::ok());
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

SrReceiver::SrReceiver(sim::Simulator& simulator, core::Qp& qp,
                       ControlLink& control, const LinkProfile& profile,
                       SrProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      config_(config),
      messages_(qp.attr().max_inflight) {
  qp_.set_recv_event_handler(
      [this](const core::RecvEvent& event) { on_chunk_event(event); });
  if (telemetry::enabled()) register_metrics();
}

void SrReceiver::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.sr.receiver"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("acks_sent", &stats_.acks_sent);
  tele_.bind_counter("nacks_sent", &stats_.nacks_sent);
  tele_.bind_gauge("inflight_messages",
                   [this] { return static_cast<double>(inflight_); });
}

Status SrReceiver::expect(std::uint8_t* buffer, std::size_t length,
                          const verbs::MemoryRegion* mr, DoneFn done) {
  core::RecvHandle* handle = nullptr;
  if (Status s = qp_.recv_post(buffer, length, mr, &handle); !s) return s;
  const std::uint64_t msg_number = handle->msg_number();
  MsgState& msg = messages_[msg_number % messages_.size()];
  msg.handle = handle;
  msg.number = msg_number;
  msg.chunks = handle->chunk_count();
  msg.done = std::move(done);
  // The slot's vector keeps its capacity for the slot's next message.
  if (config_.nack_enabled) msg.last_nack_s.assign(msg.chunks, -1.0);
  msg.complete = false;
  msg.data_seen = false;
  ++inflight_;
  ++stats_.messages;
  ack_tick(msg_number);
  if (config_.cts_retry_s > 0.0) {
    sim_.schedule(SimTime::from_seconds(config_.cts_retry_s),
                  [this, msg_number] { cts_tick(msg_number); });
  }
  return Status::ok();
}

void SrReceiver::cts_tick(std::uint64_t msg_number) {
  const MsgState* msg = find(msg_number);
  // Any data means the sender got a CTS; the retry has done its job.
  if (msg == nullptr || msg->complete || msg->data_seen) return;
  qp_.resend_cts(msg->handle);
  sim_.schedule(SimTime::from_seconds(config_.cts_retry_s),
                [this, msg_number] { cts_tick(msg_number); });
}

void SrReceiver::on_chunk_event(const core::RecvEvent& event) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  MsgState* found = find(event.handle->msg_number());
  if (found == nullptr) return;
  MsgState& msg = *found;
  msg.data_seen = true;
  if (msg.complete) return;

  if (event.type == core::RecvEvent::Type::kMessageCompleted) {
    complete(msg, event.handle->msg_number());
    return;
  }
  if (config_.nack_enabled) maybe_nack(msg, event.chunk_index);
}

void SrReceiver::send_ack(MsgState& msg) {
  const AtomicBitmap* bitmap = nullptr;
  if (!qp_.recv_bitmap_get(msg.handle, &bitmap)) return;

  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kSrAck, msg.handle->msg_number());
  std::size_t cumulative = bitmap->first_zero(msg.chunks);
  // Failpoint for the conformance harness (src/check/): claim one chunk
  // beyond the true cumulative point, silently "acknowledging" the first
  // missing chunk — the classic off-by-one a bitmap ACK encoder can make.
  if (SDR_FAILPOINT("sr.ack_cumulative_off_by_one") &&
      cumulative < msg.chunks) {
    ++cumulative;
  }
  ack.cumulative = static_cast<std::uint32_t>(cumulative);
  // Selective window: words starting at the cumulative point.
  const std::size_t base_word = cumulative / 64;
  ack.selective_base = static_cast<std::uint32_t>(base_word * 64);
  ack.selective.reserve(config_.selective_window_words);
  for (std::size_t w = 0; w < config_.selective_window_words; ++w) {
    const std::size_t wi = base_word + w;
    if (wi >= bitmap_words(msg.chunks)) break;
    ack.selective.push_back(bitmap->load_word(wi));
  }
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.acks_sent;
  if (telemetry::tracing()) {
    telemetry::tracer().emit(sim_.now(), telemetry::TraceEventType::kAckSent,
                             0, ack.msg_number, ack.cumulative);
  }
  if (telemetry::spanning()) {
    telemetry::spans().on_instant(sim_.now(),
                                  telemetry::TraceEventType::kAckSent,
                                  ack.msg_number, ack.cumulative);
  }
  if (telemetry::flight_recording()) {
    telemetry::flight().record(telemetry::FlightLayer::kSr,
                               qp_.control_qp_num(), "ack_sent", sim_.now(),
                               ack.msg_number, ack.cumulative,
                               ack.selective.size());
  }
}

void SrReceiver::maybe_nack(MsgState& msg, std::size_t completed_chunk) {
  const AtomicBitmap* bitmap = nullptr;
  if (!qp_.recv_bitmap_get(msg.handle, &bitmap)) return;
  const std::size_t cumulative = bitmap->first_zero(msg.chunks);
  if (completed_chunk < cumulative + config_.nack_gap_threshold) return;

  // send_ack and maybe_nack never overlap within one callback, so they can
  // share the scratch message.
  ControlMessage& nack = ctrl_scratch_;
  reset_control(nack, ControlType::kSrNack, msg.handle->msg_number());
  const double now_s = sim_.now().seconds();
  // Word scan for the holes in [cumulative, completed_chunk): one bitmap
  // load per 64 chunks, countr_zero to hop between missing ones.
  std::size_t c = cumulative;
  while (c < completed_chunk && nack.indices.size() < 256) {
    const std::size_t wi = c >> 6;
    const std::size_t word_base = wi << 6;
    std::uint64_t missing = ~bitmap->load_word(wi) & (~0ULL << (c & 63));
    while (missing != 0 && nack.indices.size() < 256) {
      const std::size_t hole =
          word_base + static_cast<std::size_t>(std::countr_zero(missing));
      missing &= missing - 1;
      if (hole >= completed_chunk) break;
      if (msg.last_nack_s[hole] >= 0.0 &&
          now_s - msg.last_nack_s[hole] < config_.nack_holdoff_s) {
        continue;
      }
      msg.last_nack_s[hole] = now_s;
      nack.indices.push_back(static_cast<std::uint32_t>(hole));
    }
    c = word_base + 64;
  }
  if (nack.indices.empty()) return;
  encode_control(nack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.nacks_sent;
  if (telemetry::tracing()) {
    telemetry::tracer().emit(sim_.now(), telemetry::TraceEventType::kNackSent,
                             0, nack.msg_number, nack.indices.front());
  }
  if (telemetry::spanning()) {
    telemetry::spans().on_instant(sim_.now(),
                                  telemetry::TraceEventType::kNackSent,
                                  nack.msg_number, nack.indices.front());
  }
  if (telemetry::flight_recording()) {
    telemetry::flight().record(telemetry::FlightLayer::kSr,
                               qp_.control_qp_num(), "nack_sent", sim_.now(),
                               nack.msg_number, nack.indices.size(),
                               nack.indices.front());
  }
}

void SrReceiver::ack_tick(std::uint64_t msg_number) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSr);
  MsgState* msg = find(msg_number);
  if (msg == nullptr || msg->complete) return;
  send_ack(*msg);
  sim_.schedule(SimTime::from_seconds(config_.ack_interval_s),
                [this, msg_number] { ack_tick(msg_number); });
}

void SrReceiver::send_final_ack(std::uint64_t msg_number,
                                std::uint32_t cumulative) {
  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kSrAck, msg_number);
  ack.cumulative = cumulative;
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.acks_sent;
}

void SrReceiver::complete(MsgState& msg, std::uint64_t msg_number) {
  msg.complete = true;
  // Final ACK (repeated to survive control-path drops).
  const std::uint32_t cumulative = static_cast<std::uint32_t>(msg.chunks);
  send_final_ack(msg_number, cumulative);
  if (telemetry::tracing()) {
    telemetry::tracer().emit(sim_.now(), telemetry::TraceEventType::kAckSent,
                             0, msg_number, cumulative);
  }
  if (telemetry::flight_recording()) {
    telemetry::flight().record(telemetry::FlightLayer::kSr,
                               qp_.control_qp_num(), "msg_complete", sim_.now(),
                               msg_number, msg.chunks);
  }
  for (std::size_t r = 1; r < config_.final_ack_repeats; ++r) {
    // The repeat rebuilds the (tiny, constant) final ACK into the scratch
    // buffers at fire time instead of capturing a copy of the wire bytes —
    // the capture stays within the inline event budget and the repeat path
    // allocates nothing.
    sim_.schedule(SimTime::from_seconds(config_.ack_interval_s *
                                        static_cast<double>(r)),
                  [this, msg_number, cumulative] {
                    send_final_ack(msg_number, cumulative);
                  });
  }
  qp_.recv_complete(msg.handle);
  DoneFn done = std::move(msg.done);
  msg.done = nullptr;
  msg.handle = nullptr;  // frees the slot
  --inflight_;
  if (done) done(Status::ok());
}

}  // namespace sdr::reliability
