#include "reliability/ec_protocol.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.hpp"

namespace sdr::reliability {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

EcSender::EcSender(sim::Simulator& simulator, core::Qp& qp,
                   ControlLink& control, const LinkProfile& profile,
                   const ec::ErasureCodec& codec, EcProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      codec_(codec),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size),
      slots_(qp.attr().max_inflight),
      subs_(slots_),
      retx_(simulator, qp,
            {.layer = telemetry::FlightLayer::kEc,
             .stride = config_.k,
             .rto_s = config_.fallback_rto_s},
            [this](std::uint64_t number, std::size_t offset, std::size_t len,
                   bool) {
              const SubState& sub = subs_[slot_of(number)];
              const MsgState& msg = nodes_[sub.msg];
              const std::uint8_t* src =
                  msg.data + (number - msg.base) * config_.k * chunk_bytes_;
              const bool ok =
                  qp_.send_stream_continue(sub.data, src + offset, offset, len)
                      .is_ok();
              stats_.fallback_retransmissions += ok;
              return ok;
            }),
      data_blocks_(config_.k),
      parity_blocks_(config_.m) {
  assert(codec_.k() == config_.k && codec_.m() == config_.m);
  nodes_.reserve(slots_ / 2);
  free_nodes_.reserve(slots_ / 2);
  control_.set_receiver(
      [this](const std::uint8_t* d, std::size_t n) { on_control(d, n); });
  if (telemetry::enabled()) register_metrics();
}

void EcSender::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.ec.sender"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("data_chunks_sent", &stats_.data_chunks_sent);
  tele_.bind_counter("parity_chunks_sent", &stats_.parity_chunks_sent);
  tele_.bind_counter("fallback_retransmissions",
                     &stats_.fallback_retransmissions);
  tele_.bind_counter("ec_nacks", &stats_.ec_nacks);
  tele_.bind_gauge("inflight_messages",
                   [this] { return static_cast<double>(inflight_); });
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

EcSender::MsgState* EcSender::find(std::uint64_t base) {
  const SubState& sub = subs_[slot_of(base)];
  if (sub.number != base || sub.msg >= nodes_.size()) return nullptr;
  MsgState& msg = nodes_[sub.msg];
  return msg.live && msg.base == base ? &msg : nullptr;
}

Status EcSender::write(const std::uint8_t* data, std::size_t length,
                       DoneFn done) {
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  const std::size_t parity_sub_bytes = config_.m * chunk_bytes_;
  if (data == nullptr || length == 0 || length % sub_bytes != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "EC write length must be a whole number of submessages "
                  "(k * chunk_size)");
  }
  if (std::max(sub_bytes, parity_sub_bytes) > qp_.attr().max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "EC submessage exceeds the maximum message size");
  }
  if (!qp_.connected()) {
    return Status(StatusCode::kNotConnected, "connect first");
  }
  const std::size_t L = length / sub_bytes;
  // Every post below must succeed once the first has: order-based matching
  // cannot skip a message number, and a posted parity one-shot reads its
  // buffer until it drains.
  if (!qp_.send_slots_free(2 * L)) {
    return Status(StatusCode::kResourceExhausted,
                  "message table full: wait for earlier EC messages");
  }

  ParityBuffer parity;
  std::swap(parity, spare_parity_);
  if (parity.capacity < L * parity_sub_bytes) {
    parity.capacity = L * parity_sub_bytes;
    parity.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(
        parity.capacity);
  }
  std::uint8_t* const parity_bytes = parity.bytes.get();

  // Encode all parity submessages. In a deployment this overlaps with data
  // injection on spare cores (paper §4.1.2); in virtual time it is free —
  // the real encode cost is measured by bench_fig11_ec_encode.
  for (std::size_t s = 0; s < L; ++s) {
    for (std::size_t j = 0; j < config_.k; ++j) {
      data_blocks_[j] = data + (s * config_.k + j) * chunk_bytes_;
    }
    for (std::size_t t = 0; t < config_.m; ++t) {
      parity_blocks_[t] = parity_bytes + (s * config_.m + t) * chunk_bytes_;
    }
    codec_.encode(std::span<const std::uint8_t* const>(data_blocks_),
                  std::span<std::uint8_t* const>(parity_blocks_),
                  chunk_bytes_);
  }

  std::uint32_t node = 0;
  if (free_nodes_.empty()) {
    assert(nodes_.size() < nodes_.capacity());  // never reallocates
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  }

  // Data submessages: streaming sends, kept open for potential fallback
  // retransmission into the same remote buffers.
  std::uint64_t base = 0;
  for (std::size_t s = 0; s < L; ++s) {
    core::SendHandle* handle = nullptr;
    [[maybe_unused]] const Status st =
        qp_.send_stream_start(0, false, &handle);
    assert(st.is_ok());
    if (s == 0) base = handle->msg_number();
    qp_.send_stream_continue(handle, data + s * sub_bytes, 0, sub_bytes);
    SubState& sub = subs_[handle->slot()];
    sub.number = handle->msg_number();
    sub.data = handle;
    sub.msg = node;
    stats_.data_chunks_sent += config_.k;
  }
  // Parity submessages: one-shot sends (never retransmitted).
  for (std::size_t s = 0; s < L; ++s) {
    core::SendHandle* handle = nullptr;
    [[maybe_unused]] const Status st =
        qp_.send_post(parity_bytes + s * parity_sub_bytes, parity_sub_bytes,
                      0, false, &handle);
    assert(st.is_ok());
    subs_[slot_of(base + s)].parity = handle;
    qp_.send_release(handle);  // the QP recycles it once it drains
    stats_.parity_chunks_sent += config_.m;
  }

  MsgState& msg = nodes_[node];
  msg.base = base;
  msg.live = true;
  msg.data = data;
  msg.submessages = L;
  msg.write_at_s = sim_.now().seconds();
  msg.parity = std::move(parity);
  msg.done = std::move(done);
  ++inflight_;
  ++stats_.messages;
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kEcWrite, .t = sim_.now(),
                     .conn = qp_.control_qp_num(), .msg = base, .bytes = length,
                     .x = L});
  }
  return Status::ok();
}

void EcSender::on_control(const std::uint8_t* data, std::size_t length) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  if (!decode_control(data, length, ctrl_scratch_)) return;
  const ControlMessage& ctl = ctrl_scratch_;

  switch (ctl.type) {
    case ControlType::kEcAck: {
      finish(ctl.msg_number);
      break;
    }
    case ControlType::kEcNack: {
      MsgState* msg = find(ctl.msg_number);
      if (msg == nullptr) return;
      ++stats_.ec_nacks;
      enter_fallback(*msg, ctl.indices);
      break;
    }
    case ControlType::kSrAck:
      // Fallback per-submessage ACK: msg_number is the submessage's own.
      retx_.apply_ack(ctl.msg_number, ctl);
      break;
    default:
      break;
  }
}

void EcSender::enter_fallback(MsgState& msg,
                              const std::vector<std::uint32_t>& failed) {
  const std::uint64_t base = msg.base;
  for (std::uint32_t sub : failed) {
    if (sub >= msg.submessages || retx_.tracking(base + sub)) continue;
    if (telemetry::armed()) {
      telemetry::emit({.kind = telemetry::EventKind::kEcFallback,
                       .t = sim_.now(), .conn = qp_.control_qp_num(),
                       .msg = base, .chunk = sub, .x = config_.k});
    }
    retx_.start(base + sub, config_.k * chunk_bytes_);
    for (std::size_t c = 0; c < config_.k; ++c) {
      retx_.send(base + sub, c, ChunkRetransmitter::Send::kRecover);
      retx_.arm(base + sub, c);
    }
  }
}

void EcSender::finish(std::uint64_t base) {
  MsgState* found = find(base);
  if (found == nullptr) return;
  MsgState& msg = *found;
  msg.live = false;
  --inflight_;
  if (msg_completion_hist_.live() && msg.write_at_s >= 0.0) {
    msg_completion_hist_.record(sim_.now().seconds() - msg.write_at_s);
  }
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kEcMsgDone, .t = sim_.now(),
                     .conn = qp_.control_qp_num(), .msg = base,
                     .x = msg.submessages,
                     .y = stats_.fallback_retransmissions});
  }
  const std::size_t L = msg.submessages;
  for (std::size_t s = 0; s < L; ++s) {
    const SubState& sub = subs_[slot_of(base + s)];
    retx_.stop(base + s);
    // A stream whose CTS never arrived has everything still queued; the
    // receiver completed without it (parity recovery), so it will never
    // drain — abort it rather than release it.
    if (!sub.data->cts_ready()) {
      qp_.send_abort(sub.data);
      continue;
    }
    qp_.send_stream_end(sub.data);
    qp_.send_release(sub.data);
  }
  for (std::size_t s = 0; s < L; ++s) {
    // Parity one-shots were released at write(); one whose CTS never came
    // will never drain, so abort it. A drained one may already have been
    // recycled and carry a newer message, so only touch a handle that
    // still holds our number (parity numbers follow the data numbers:
    // base + submessages + s).
    core::SendHandle* parity = subs_[slot_of(base + s)].parity;
    if (parity->msg_number() != base + L + s) continue;
    if (parity->cts_ready()) continue;
    qp_.send_abort(parity);
  }
  std::swap(msg.parity, spare_parity_);
  msg.parity = {};
  free_nodes_.push_back(static_cast<std::uint32_t>(&msg - nodes_.data()));
  // Last: the callback may write() a new message into this slot.
  DoneFn done = std::move(msg.done);
  msg.done = nullptr;
  if (done) done(Status::ok());
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

EcReceiver::EcReceiver(sim::Simulator& simulator, core::Qp& qp,
                       ControlLink& control, const LinkProfile& profile,
                       const ec::ErasureCodec& codec, EcProtoConfig config)
    : sim_(simulator),
      qp_(qp),
      control_(control),
      profile_(profile),
      codec_(codec),
      config_(config),
      chunk_bytes_(qp.attr().chunk_size),
      slots_(qp.attr().max_inflight),
      streams_(slots_),
      present_(config_.k + config_.m),
      blocks_(config_.k + config_.m) {
  nodes_.reserve(slots_ / 2);
  free_nodes_.reserve(slots_ / 2);
  qp_.set_recv_event_handler(
      [this](const core::RecvEvent& event) { on_chunk_event(event); });
  if (telemetry::enabled()) register_metrics();
}

EcReceiver::~EcReceiver() {
  for (MsgState& msg : nodes_) free_parity(msg.parity);
  free_parity(spare_parity_);
}

void EcReceiver::free_parity(ParityBuffer& buffer) {
  if (buffer.mr != nullptr) qp_.context().mr_dereg(buffer.mr);
  buffer = {};
}

void EcReceiver::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("reliability.ec.receiver"));
  tele_.bind_counter("messages", &stats_.messages);
  tele_.bind_counter("decoded_submessages", &stats_.decoded_submessages);
  tele_.bind_counter("clean_submessages", &stats_.clean_submessages);
  tele_.bind_counter("fallback_submessages", &stats_.fallback_submessages);
  tele_.bind_counter("ec_nacks_sent", &stats_.ec_nacks_sent);
  tele_.bind_counter("ftos_fired", &stats_.ftos_fired);
  tele_.bind_gauge("inflight_messages",
                   [this] { return static_cast<double>(inflight_); });
  chunk_completion_hist_ = tele_.histogram("chunk_completion_s", 1e-6, 1e3);
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

EcReceiver::MsgState* EcReceiver::find(std::uint64_t base) {
  const StreamState& stream = streams_[slot_of(base)];
  if (stream.number != base || stream.msg >= nodes_.size()) return nullptr;
  MsgState& msg = nodes_[stream.msg];
  return msg.live && msg.base == base ? &msg : nullptr;
}

Status EcReceiver::expect(std::uint8_t* buffer, std::size_t length,
                          const verbs::MemoryRegion* mr, DoneFn done) {
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  const std::size_t parity_sub_bytes = config_.m * chunk_bytes_;
  if (buffer == nullptr || length == 0 || length % sub_bytes != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "EC receive length must be a whole number of submessages");
  }
  if (mr == nullptr) {
    return Status(StatusCode::kInvalidArgument, "null memory region");
  }
  if (buffer < mr->addr() || buffer + length > mr->addr() + mr->length()) {
    return Status(StatusCode::kOutOfRange,
                  "buffer is outside the registered region");
  }
  if (std::max(sub_bytes, parity_sub_bytes) > qp_.attr().max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "EC submessage exceeds the maximum message size");
  }
  if (!qp_.connected()) {
    return Status(StatusCode::kNotConnected, "connect first");
  }
  const std::size_t L = length / sub_bytes;
  // All or nothing: an orphaned post would shift the order-based matching
  // of every later message.
  if (!qp_.recv_slots_free(2 * L)) {
    return Status(StatusCode::kResourceExhausted,
                  "message table full: wait for earlier EC messages");
  }

  ParityBuffer parity;
  std::swap(parity, spare_parity_);
  if (parity.capacity < L * parity_sub_bytes) {
    free_parity(parity);
    parity.capacity = L * parity_sub_bytes;
    parity.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(
        parity.capacity);
    parity.mr = qp_.context().mr_reg(parity.bytes.get(), parity.capacity);
  }

  std::uint32_t node = 0;
  if (free_nodes_.empty()) {
    assert(nodes_.size() < nodes_.capacity());  // never reallocates
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  }

  // Post order must mirror the sender's send order: data 0..L-1, parity
  // 0..L-1 (SDR matching is order-based).
  std::uint64_t base = 0;
  for (std::size_t s = 0; s < 2 * L; ++s) {
    std::uint8_t* addr = s < L ? buffer + s * sub_bytes
                               : parity.bytes.get() + (s - L) * parity_sub_bytes;
    core::RecvHandle* handle = nullptr;
    [[maybe_unused]] const Status st =
        qp_.recv_post(addr, s < L ? sub_bytes : parity_sub_bytes,
                      s < L ? mr : parity.mr, &handle);
    assert(st.is_ok());
    if (s == 0) base = handle->msg_number();
    streams_[handle->slot()] =
        StreamState{handle->msg_number(), handle, node, false, false};
  }

  MsgState& msg = nodes_[node];
  msg.base = base;
  msg.live = true;
  msg.buffer = buffer;
  msg.length = length;
  msg.submessages = L;
  msg.subs_recovered = 0;
  msg.posted_at_s = sim_.now().seconds();
  msg.fallback = false;
  msg.complete = false;
  msg.fto_timer = {};
  msg.global_timer = {};
  msg.ack_timer = {};
  msg.parity = std::move(parity);
  msg.done = std::move(done);
  ++inflight_;

  if (config_.cts_retry_s > 0.0) {
    sim_.schedule(SimTime::from_seconds(config_.cts_retry_s),
                  [this, base] { cts_tick(base); });
  }

  // Global deadlock-prevention timeout (armed at posting).
  const double wire_chunks =
      static_cast<double>(length / chunk_bytes_) *
      (1.0 + static_cast<double>(config_.m) / static_cast<double>(config_.k));
  const double fto_s =
      wire_chunks * profile_.chunk_injection_s() + config_.beta * profile_.rtt_s;
  msg.global_timer = sim_.schedule(
      SimTime::from_seconds(config_.global_timeout_factor *
                            (fto_s + profile_.rtt_s)),
      [this, base] {
        MsgState* m = find(base);
        if (m == nullptr || m->complete) return;
        m->complete = true;
        if (m->fto_timer.valid()) sim_.cancel(m->fto_timer);
        if (m->ack_timer.valid()) sim_.cancel(m->ack_timer);
        const DoneFn cb = release(*m);
        if (cb) cb(Status(StatusCode::kAborted, "EC global timeout"));
      });

  // FTO armed at posting, not on first chunk arrival: a loss burst that
  // eats every packet of the message (data and parity) would otherwise
  // leave the receiver silent and the sender waiting forever — the global
  // timeout would be the only way out.
  arm_fto(msg);

  ++stats_.messages;
  return Status::ok();
}

EcReceiver::DoneFn EcReceiver::release(MsgState& msg) {
  const std::size_t streams = 2 * msg.submessages;
  for (std::size_t s = 0; s < streams; ++s) {
    StreamState& stream = streams_[slot_of(msg.base + s)];
    qp_.recv_complete(stream.handle);
    stream.handle = nullptr;
  }
  msg.live = false;
  --inflight_;
  std::swap(msg.parity, spare_parity_);
  free_parity(msg.parity);
  free_nodes_.push_back(static_cast<std::uint32_t>(&msg - nodes_.data()));
  DoneFn done = std::move(msg.done);
  msg.done = nullptr;
  return done;
}

void EcReceiver::on_chunk_event(const core::RecvEvent& event) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const std::uint64_t number = event.handle->msg_number();
  const StreamState& stream = streams_[event.handle->slot()];
  if (stream.handle != event.handle || stream.number != number) return;
  MsgState& msg = nodes_[stream.msg];
  if (!msg.live || msg.complete) return;

  // Which submessage does this event concern?
  const std::uint64_t idx = number - msg.base;
  const std::size_t sub = idx < msg.submessages
                              ? static_cast<std::size_t>(idx)
                              : static_cast<std::size_t>(idx - msg.submessages);
  if (sub >= msg.submessages) return;
  StreamState& data = data_stream(msg, sub);
  if (data.recovered || !try_recover(msg, sub)) return;

  data.recovered = true;
  ++msg.subs_recovered;
  if (chunk_completion_hist_.live() && msg.posted_at_s >= 0.0) {
    chunk_completion_hist_.record(sim_.now().seconds() - msg.posted_at_s);
  }
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kEcSubRecovered,
                     .t = sim_.now(), .conn = qp_.control_qp_num(),
                     .msg = msg.base, .chunk = static_cast<std::uint32_t>(sub),
                     .x = msg.subs_recovered, .y = msg.submessages});
  }
  if (msg.fallback) {
    // Tell the sender to stop retransmitting this submessage.
    ControlMessage& ack = ctrl_scratch_;
    reset_control(ack, ControlType::kSrAck, data.number);
    ack.cumulative = static_cast<std::uint32_t>(config_.k);
    encode_control(ack, wire_scratch_);
    control_.send(wire_scratch_.data(), wire_scratch_.size());
  }
  if (msg.subs_recovered == msg.submessages) complete(msg);
}

bool EcReceiver::try_recover(MsgState& msg, std::size_t sub) {
  // One presence map per event, built into scratch: it drives both the
  // recoverability check and the decode.
  const std::uint64_t data_number = data_stream(msg, sub).number;
  const AtomicBitmap* data_bits = nullptr;
  const AtomicBitmap* parity_bits = nullptr;
  qp_.recv_bitmap_get(data_stream(msg, sub).handle, &data_bits);
  qp_.recv_bitmap_get(parity_stream(msg, sub).handle, &parity_bits);
  if (data_bits == nullptr || parity_bits == nullptr) return false;
  bool all_data = true;
  for (std::size_t j = 0; j < config_.k; ++j) {
    present_[j] = data_bits->test(j);
    all_data = all_data && present_[j];
  }
  for (std::size_t t = 0; t < config_.m; ++t) {
    present_[config_.k + t] = parity_bits->test(t);
  }
  if (!codec_.can_recover(present_)) return false;
  if (all_data) {
    ++stats_.clean_submessages;
    return true;
  }
  const std::size_t sub_bytes = config_.k * chunk_bytes_;
  for (std::size_t j = 0; j < config_.k; ++j) {
    blocks_[j] = msg.buffer + sub * sub_bytes + j * chunk_bytes_;
  }
  for (std::size_t t = 0; t < config_.m; ++t) {
    blocks_[config_.k + t] =
        msg.parity.bytes.get() + (sub * config_.m + t) * chunk_bytes_;
  }
  if (!codec_.decode(std::span<std::uint8_t* const>(blocks_), present_,
                     chunk_bytes_)) {
    return false;
  }
  ++stats_.decoded_submessages;
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kEcRepair, .t = sim_.now(),
                     .conn = qp_.control_qp_num(), .msg = data_number,
                     .chunk = static_cast<std::uint32_t>(sub)});
  }
  return true;
}

void EcReceiver::arm_fto(MsgState& msg) {
  const double wire_chunks =
      static_cast<double>(msg.length / chunk_bytes_) *
      (1.0 + static_cast<double>(config_.m) / static_cast<double>(config_.k));
  // + 2 RTT of slack: the timer now starts at posting, before the
  // RTS/CTS handshake and the first injected byte.
  const double fto_s = wire_chunks * profile_.chunk_injection_s() +
                       config_.beta * profile_.rtt_s + 2.0 * profile_.rtt_s;
  const std::uint64_t base = msg.base;
  msg.fto_timer = sim_.schedule(SimTime::from_seconds(fto_s),
                                [this, base] { on_fto(base); });
}

void EcReceiver::on_fto(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  MsgState* found = find(base);
  if (found == nullptr || found->complete) return;
  MsgState& msg = *found;
  ++stats_.ftos_fired;
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kEcFtoFired, .t = sim_.now(),
                     .conn = qp_.control_qp_num(), .msg = base,
                     .x = msg.submessages - msg.subs_recovered,
                     .y = stats_.ftos_fired});
  }
  const bool first_fire = !msg.fallback;
  msg.fallback = true;

  ControlMessage& nack = ctrl_scratch_;
  reset_control(nack, ControlType::kEcNack, base);
  for (std::size_t s = 0; s < msg.submessages && nack.indices.size() < 512;
       ++s) {
    StreamState& data = data_stream(msg, s);
    if (!data.recovered) {
      nack.indices.push_back(static_cast<std::uint32_t>(s));
      if (!data.nacked) {
        data.nacked = true;
        ++stats_.fallback_submessages;
      }
    }
  }
  if (nack.indices.empty()) return;
  encode_control(nack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
  ++stats_.ec_nacks_sent;
  // Keep refiring while submessages are outstanding: the NACK itself (or
  // the sender's entire first transmission) can be lost, and the sender
  // may not even have posted the message yet.
  arm_fto(msg);
  if (first_fire) fallback_ack_tick(base);
}

void EcReceiver::cts_tick(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  const MsgState* msg = find(base);
  if (msg == nullptr || msg->complete) return;
  // Re-CTS every stream that has produced nothing: either its CTS was
  // lost (the sender's chunks sit queued until one lands) or the stream
  // itself is still in flight — the retry pace is several RTTs, so an
  // in-flight first chunk wins the race and the duplicate never sends.
  // Data streams first, then parity: the posting order.
  bool silent = false;
  for (std::size_t s = 0; s < 2 * msg->submessages; ++s) {
    core::RecvHandle* h = streams_[slot_of(base + s)].handle;
    if (qp_.recv_packets(h) != 0) continue;
    qp_.resend_cts(h);
    silent = true;
  }
  if (!silent) return;  // every stream has started; nothing left to nudge
  sim_.schedule(SimTime::from_seconds(config_.cts_retry_s),
                [this, base] { cts_tick(base); });
}

void EcReceiver::fallback_ack_tick(std::uint64_t base) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kEc);
  MsgState* msg = find(base);
  if (msg == nullptr || msg->complete) return;
  for (std::size_t s = 0; s < msg->submessages; ++s) {
    const StreamState& data = data_stream(*msg, s);
    if (data.recovered) continue;
    const AtomicBitmap* bits = nullptr;
    qp_.recv_bitmap_get(data.handle, &bits);
    if (bits == nullptr) continue;
    ControlMessage& ack = ctrl_scratch_;
    reset_control(ack, ControlType::kSrAck, data.number);
    ack.cumulative = static_cast<std::uint32_t>(bits->first_zero(config_.k));
    ack.selective_base = 0;
    ack.selective.reserve(bitmap_words(config_.k));
    for (std::size_t w = 0; w < bitmap_words(config_.k); ++w) {
      ack.selective.push_back(bits->load_word(w));
    }
    encode_control(ack, wire_scratch_);
    control_.send(wire_scratch_.data(), wire_scratch_.size());
  }
  msg->ack_timer =
      sim_.schedule(SimTime::from_seconds(config_.fallback_ack_interval_s),
                    [this, base] { fallback_ack_tick(base); });
}

void EcReceiver::send_ec_ack(std::uint64_t base) {
  ControlMessage& ack = ctrl_scratch_;
  reset_control(ack, ControlType::kEcAck, base);
  encode_control(ack, wire_scratch_);
  control_.send(wire_scratch_.data(), wire_scratch_.size());
}

void EcReceiver::complete(MsgState& msg) {
  const std::uint64_t base = msg.base;
  msg.complete = true;
  if (msg_completion_hist_.live() && msg.posted_at_s >= 0.0) {
    msg_completion_hist_.record(sim_.now().seconds() - msg.posted_at_s);
  }
  if (telemetry::armed()) {
    telemetry::emit({.kind = telemetry::EventKind::kEcMsgComplete,
                     .t = sim_.now(), .conn = qp_.control_qp_num(), .msg = base,
                     .x = msg.submessages, .y = stats_.decoded_submessages});
  }
  if (msg.fto_timer.valid()) sim_.cancel(msg.fto_timer);
  if (msg.global_timer.valid()) sim_.cancel(msg.global_timer);
  if (msg.ack_timer.valid()) sim_.cancel(msg.ack_timer);

  // The EC ACK is a pure function of the base number, so each repeat
  // re-encodes it into the scratch rather than carrying a copy.
  send_ec_ack(base);
  for (std::size_t r = 1; r < config_.final_ack_repeats; ++r) {
    sim_.schedule(SimTime::from_seconds(config_.fallback_ack_interval_s *
                                        static_cast<double>(r)),
                  [this, base] { send_ec_ack(base); });
  }

  const DoneFn done = release(msg);
  if (done) done(Status::ok());
}

}  // namespace sdr::reliability
