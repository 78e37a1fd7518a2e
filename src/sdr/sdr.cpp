#include "sdr/sdr.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/logging.hpp"

namespace sdr::core {

namespace {
constexpr std::uint64_t kCtsBufferFactor = 2;  // posted CTS recvs per slot
constexpr std::size_t kCqeBatch = 64;  // stack batch for CQ drains
}

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context::Context(verbs::Nic& nic, DevAttr dev_attr)
    : nic_(nic), dev_attr_(dev_attr) {}

Qp* Context::create_qp(const QpAttr& attr) {
  if (!attr.valid()) return nullptr;
  qps_.push_back(std::make_unique<Qp>(*this, attr));
  return qps_.back().get();
}

const verbs::MemoryRegion* Context::mr_reg(void* addr, std::size_t length) {
  if (addr == nullptr || length == 0) return nullptr;
  return nic_.pd().register_mr(static_cast<std::uint8_t*>(addr), length);
}

Status Context::mr_dereg(const verbs::MemoryRegion* mr) {
  return nic_.pd().deregister_mr(mr);
}

// ---------------------------------------------------------------------------
// Qp setup
// ---------------------------------------------------------------------------

Qp::Qp(Context& ctx, const QpAttr& attr)
    : ctx_(ctx), attr_(attr), codec_(attr.imm), table_(attr) {
  assert(attr_.valid());
  verbs::Nic& nic = ctx_.nic();

  // Control path: one UD QP for CTS datagrams.
  control_cq_ = std::make_unique<verbs::CompletionQueue>(
      attr_.max_inflight * kCtsBufferFactor + 64);
  send_cq_ = std::make_unique<verbs::CompletionQueue>(1 << 16);
  verbs::QpConfig control_cfg;
  control_cfg.type = verbs::QpType::kUD;
  control_cfg.mtu = attr_.mtu;
  control_cfg.send_cq = nullptr;  // CTS sends are unsignaled
  control_cfg.recv_cq = control_cq_.get();
  control_qp_ = nic.create_qp(control_cfg);
  control_cq_->set_notify([this] { on_control_cqe(); });

  // Pre-post CTS receive buffers (one flat allocation for all slots).
  const std::size_t n_cts = attr_.max_inflight * kCtsBufferFactor;
  cts_buffers_.resize(n_cts * sizeof(CtsMessage));
  for (std::size_t i = 0; i < n_cts; ++i) {
    verbs::RecvWr rwr;
    rwr.wr_id = i;
    rwr.addr = cts_buffers_.data() + i * sizeof(CtsMessage);
    rwr.length = sizeof(CtsMessage);
    control_qp_->post_recv(rwr);
  }

  // Data path: generations x channels QPs, one recv CQ per QP (the
  // per-channel CQs that DPA workers poll), a shared send CQ. Transport is
  // UC (zero-copy, the default) or UD (two-sided with staging, §2.3).
  const bool ud = attr_.transport == Transport::kUd;
  const std::size_t n_qps = attr_.generations * attr_.channels;
  data_qps_.reserve(n_qps);
  data_cqs_.reserve(n_qps);
  if (ud) ud_staging_.resize(n_qps);
  for (std::size_t i = 0; i < n_qps; ++i) {
    auto cq = std::make_unique<verbs::CompletionQueue>(1 << 16);
    // One growth step up front: a channel CQ that sees its first packet
    // deep into a run (rare generation/channel combinations) must not
    // allocate on the data path (the zero-alloc steady-state gate).
    cq->reserve(64);
    verbs::QpConfig cfg;
    cfg.type = ud ? verbs::QpType::kUD : verbs::QpType::kUC;
    cfg.mtu = attr_.mtu;
    cfg.send_cq = send_cq_.get();
    cfg.recv_cq = cq.get();
    verbs::Qp* qp = nic.create_qp(cfg);
    if (ud) {
      // Pre-post staging datagram buffers (one flat allocation per QP);
      // payload is copied out to the user buffer by the receive backend
      // and the buffer reposted.
      auto& staging = ud_staging_[i];
      staging.resize(attr_.ud_staging_depth * attr_.mtu);
      for (std::size_t b = 0; b < attr_.ud_staging_depth; ++b) {
        verbs::RecvWr rwr;
        rwr.wr_id = b;
        rwr.addr = staging.data() + b * attr_.mtu;
        rwr.length = attr_.mtu;
        qp->post_recv(rwr);
      }
    }
    const std::size_t qp_index = i;
    cq->set_notify([this, qp_index] { on_data_cqe(qp_index); });
    data_qps_.push_back(qp);
    data_cqs_.push_back(std::move(cq));
  }
  send_cq_->set_notify([this] { on_send_cqe(); });

  // Receive-side root indirect memory key (Figure 5): one slot of
  // max_msg_size bytes per message-table entry, all initially NULL-bound.
  root_table_ =
      nic.pd().create_indirect_table(attr_.max_inflight, attr_.max_msg_size);
  null_mr_ = nic.pd().alloc_null_mr();
  for (std::size_t s = 0; s < attr_.max_inflight; ++s) {
    root_table_->bind_null(s, null_mr_);
  }

  // Handle pools: one handle per slot bounds in-flight messages. The CTS
  // pending array is slot-indexed for the same reason (see sdr.hpp).
  send_handles_.resize(attr_.max_inflight);
  recv_handles_.resize(attr_.max_inflight);
  cts_pending_.resize(attr_.max_inflight);

  if (telemetry::enabled()) register_metrics();
}

void Qp::register_metrics() {
  auto& reg = telemetry::registry();
  tele_ = telemetry::Scope(reg, reg.instance_name("sdr.qp"));
  tele_.bind_counter("cts_sent", &stats_.cts_sent);
  tele_.bind_counter("cts_received", &stats_.cts_received);
  tele_.bind_counter("data_packets_sent", &stats_.data_packets_sent);
  tele_.bind_counter("completions_processed", &stats_.completions_processed);
  tele_.bind_counter("completions_discarded", &stats_.completions_discarded);
  tele_.bind_counter("sends_queued_waiting_cts",
                     &stats_.sends_queued_waiting_cts);
  tele_.bind_counter("staged_packets", &stats_.staged_packets);
  tele_.bind_counter("staged_bytes", &stats_.staged_bytes);
  tele_.bind_gauge("active_sends", [this] {
    return static_cast<double>(active_send_count_);
  });
  tele_.bind_gauge("send_cq_depth", [this] {
    return static_cast<double>(send_cq_->size());
  });
  tele_.bind_gauge("send_cq_overruns", [this] {
    return static_cast<double>(send_cq_->overruns());
  });
  tele_.bind_gauge("control_cq_depth", [this] {
    return static_cast<double>(control_cq_->size());
  });
  // Completion-latency rollups (recv_post -> chunk bit / full message):
  // flatten() derives .p50/.p99/.p999 columns, so fig10/fig13 sweeps export
  // the tail per trial.
  chunk_completion_hist_ = tele_.histogram("chunk_completion_s", 1e-6, 1e3);
  msg_completion_hist_ = tele_.histogram("msg_completion_s", 1e-6, 1e3);
}

SimTime Qp::sim_now() const { return ctx_.nic().simulator().now(); }

verbs::QpNumber Qp::control_qp_num() const {
  return control_qp_ != nullptr ? control_qp_->num() : 0;
}

Qp::~Qp() {
  verbs::Nic& nic = ctx_.nic();
  if (control_qp_ != nullptr) nic.destroy_qp(control_qp_->num());
  for (verbs::Qp* qp : data_qps_) nic.destroy_qp(qp->num());
}

QpInfo Qp::info() const {
  QpInfo info;
  info.nic = ctx_.nic().id();
  info.control_qp = control_qp_->num();
  info.data_qps.reserve(data_qps_.size());
  for (const verbs::Qp* qp : data_qps_) info.data_qps.push_back(qp->num());
  info.root_key = root_table_->key();
  info.attr = attr_;
  return info;
}

Status Qp::connect(const QpInfo& remote) {
  if (remote.data_qps.size() != data_qps_.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "generation/channel configuration mismatch");
  }
  const QpAttr& r = remote.attr;
  if (r.max_msg_size != attr_.max_msg_size || r.mtu != attr_.mtu ||
      r.chunk_size != attr_.chunk_size ||
      r.max_inflight != attr_.max_inflight ||
      r.generations != attr_.generations || r.channels != attr_.channels ||
      r.imm.msg_id_bits != attr_.imm.msg_id_bits ||
      r.imm.offset_bits != attr_.imm.offset_bits) {
    return Status(StatusCode::kInvalidArgument, "QP attribute mismatch");
  }
  if (r.transport != attr_.transport) {
    return Status(StatusCode::kInvalidArgument, "transport mismatch");
  }
  remote_nic_ = remote.nic;
  remote_control_qp_ = remote.control_qp;
  remote_root_key_ = remote.root_key;
  remote_data_qps_ = remote.data_qps;
  for (std::size_t i = 0; i < data_qps_.size(); ++i) {
    data_qps_[i]->connect(remote.nic, remote.data_qps[i]);
  }
  connected_ = true;
  return Status::ok();
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

Status Qp::send_stream_start(std::uint32_t user_imm, bool has_user_imm,
                             SendHandle** handle) {
  if (!connected_) return Status(StatusCode::kNotConnected, "connect first");
  if (handle == nullptr) {
    return Status(StatusCode::kInvalidArgument, "null handle out-param");
  }
  const std::uint64_t msg_number = send_counter_;
  const std::size_t slot = slot_of(msg_number);
  SendHandle* h = &send_handles_[slot];
  if (h->in_use_) {
    return Status(StatusCode::kResourceExhausted,
                  "message table full: poll previous sends to completion");
  }
  ++send_counter_;
  h->reset();
  h->in_use_ = true;
  h->msg_number_ = msg_number;
  h->slot_ = slot;
  h->generation_ = generation_of(msg_number);
  h->user_imm_ = user_imm;
  h->has_user_imm_ = has_user_imm;
  ++active_send_count_;

  // Consume an already-arrived CTS (receiver posted before we started).
  if (PendingCts& pending = cts_pending_[slot];
      pending.valid && pending.msg.msg_number == msg_number) {
    h->cts_ready_ = true;
    h->remote_msg_bytes_ = pending.msg.msg_bytes;
    pending.valid = false;
  }
  *handle = h;
  return Status::ok();
}

Status Qp::send_stream_continue(SendHandle* handle, const std::uint8_t* data,
                                std::size_t remote_offset,
                                std::size_t length) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (handle->ended_) {
    return Status(StatusCode::kFailedPrecondition,
                  "stream already ended: no new chunks may be added");
  }
  if (data == nullptr || length == 0) {
    return Status(StatusCode::kInvalidArgument, "empty chunk");
  }
  if (remote_offset % attr_.mtu != 0) {
    return Status(StatusCode::kInvalidArgument,
                  "chunk offset must be MTU-aligned");
  }
  if (remote_offset + length > attr_.max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "chunk exceeds the maximum message size");
  }
  if (handle->cts_ready_) {
    if (remote_offset + length > handle->remote_msg_bytes_) {
      return Status(StatusCode::kOutOfRange,
                    "chunk exceeds the posted receive buffer");
    }
    inject(handle, data, remote_offset, length);
  } else {
    // Receiver has not posted yet: queue the op; it flushes on CTS.
    handle->queued_.push_back(SendHandle::PendingOp{data, remote_offset,
                                                    length});
    ++stats_.sends_queued_waiting_cts;
  }
  return Status::ok();
}

Status Qp::send_stream_end(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (handle->ended_) {
    return Status(StatusCode::kFailedPrecondition, "stream already ended");
  }
  handle->ended_ = true;
  return Status::ok();
}

Status Qp::send_post(const std::uint8_t* data, std::size_t length,
                     std::uint32_t user_imm, bool has_user_imm,
                     SendHandle** handle) {
  SendHandle* h = nullptr;
  if (Status s = send_stream_start(user_imm, has_user_imm, &h); !s) return s;
  if (Status s = send_stream_continue(h, data, 0, length); !s) {
    // Roll the message context back so the slot is not leaked.
    recycle(h);
    --send_counter_;
    return s;
  }
  if (Status s = send_stream_end(h); !s) return s;
  *handle = h;
  return Status::ok();
}

Status Qp::send_poll(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (!drained(*handle)) return Status(StatusCode::kNotReady, "");
  // Completed: destroy the message context (one-shot semantics §3.1.2).
  recycle(handle);
  return Status::ok();
}

Status Qp::send_release(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_ || handle->released_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (!handle->ended_) {
    return Status(StatusCode::kFailedPrecondition,
                  "end the stream before releasing it");
  }
  handle->released_ = true;
  if (drained(*handle)) recycle(handle);
  return Status::ok();
}

Status Qp::send_abort(SendHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid send handle");
  }
  if (handle->packets_pending_ != 0 || handle->packets_injected_ != 0) {
    return Status(StatusCode::kFailedPrecondition,
                  "send already injecting: drain it through send_poll");
  }
  handle->queued_.clear();
  recycle(handle);
  return Status::ok();
}

bool Qp::send_slots_free(std::size_t count) const {
  if (!connected_ || count > attr_.max_inflight) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (send_handles_[slot_of(send_counter_ + i)].in_use_) return false;
  }
  return true;
}

void Qp::recycle(SendHandle* handle) {
  handle->in_use_ = false;
  --active_send_count_;
}

void Qp::inject(SendHandle* handle, const std::uint8_t* data,
                std::size_t remote_offset, std::size_t length) {
  const std::size_t mtu = attr_.mtu;
  const std::size_t slot = handle->slot_;
  const std::uint32_t gen = handle->generation_;
  std::size_t sent = 0;
  while (sent < length) {
    const std::size_t chunk = std::min(mtu, length - sent);
    const std::size_t byte_off = remote_offset + sent;
    const auto packet_index = static_cast<std::uint32_t>(byte_off / mtu);
    const std::uint32_t frag =
        handle->has_user_imm_
            ? codec_.sample_user_fragment(handle->user_imm_, packet_index)
            : 0;

    // Multi-channel distribution (§3.4.1): spread packets across channel
    // QPs of this message's generation.
    const std::size_t channel = packet_index % attr_.channels;
    const std::uint32_t imm =
        codec_.encode(static_cast<std::uint32_t>(slot), packet_index, frag);

    // Emit before the post: the post may traverse the whole channel
    // synchronously in sim time, and within one timestamp the ring keeps
    // emission order, so the timeline should read posted -> tx -> ...
    // The chunk is at reliability granularity (attr.chunk_size) so SR/EC
    // rto/retransmit span instants join the chunk span of the packets they
    // re-send.
    if (telemetry::armed()) {
      telemetry::emit(
          {.kind = telemetry::EventKind::kPosted, .t = sim_now(),
           .conn = remote_data_qps_[gen * attr_.channels + channel],
           .msg = handle->msg_number_,
           .chunk = static_cast<std::uint32_t>(byte_off / attr_.chunk_size),
           .packet = packet_index, .imm = imm, .bytes = chunk});
    }

    if (attr_.transport == Transport::kUd) {
      // Two-sided datagram: the receiver resolves placement from the
      // immediate (offset) itself and copies out of its staging buffer.
      verbs::SendWr wr;
      wr.wr_id = slot;
      wr.local_addr = data + sent;
      wr.length = chunk;
      wr.with_imm = true;
      wr.imm = imm;
      wr.signaled = true;
      wr.dst_nic = remote_nic_;
      wr.dst_qp = remote_data_qps_[gen * attr_.channels + channel];
      data_qp(gen, channel)->post_send(wr);
    } else {
      verbs::WriteWr wr;
      wr.wr_id = slot;  // identifies the handle in the send CQ
      wr.local_addr = data + sent;
      wr.length = chunk;
      wr.rkey = remote_root_key_;
      wr.remote_offset =
          static_cast<std::uint64_t>(slot) * attr_.max_msg_size + byte_off;
      wr.with_imm = true;
      wr.imm = imm;
      wr.signaled = true;
      data_qp(gen, channel)->post_write(wr);
    }
    ++handle->packets_injected_;
    ++handle->packets_pending_;
    ++stats_.data_packets_sent;
    sent += chunk;
  }
}

void Qp::flush_queued(SendHandle* handle) {
  while (!handle->queued_.empty()) {
    const SendHandle::PendingOp op = handle->queued_.front();
    handle->queued_.pop_front();
    if (op.offset + op.length <= handle->remote_msg_bytes_) {
      inject(handle, op.data, op.offset, op.length);
    } else {
      SDR_WARN("dropping queued send beyond posted buffer (msg %llu)",
               static_cast<unsigned long long>(handle->msg_number_));
    }
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

Status Qp::recv_post(std::uint8_t* addr, std::size_t length,
                     const verbs::MemoryRegion* mr, RecvHandle** handle) {
  if (!connected_) return Status(StatusCode::kNotConnected, "connect first");
  if (handle == nullptr || addr == nullptr || mr == nullptr || length == 0) {
    return Status(StatusCode::kInvalidArgument, "invalid receive arguments");
  }
  if (length > attr_.max_msg_size) {
    return Status(StatusCode::kOutOfRange,
                  "receive exceeds the maximum message size");
  }
  if (addr < mr->addr() || addr + length > mr->addr() + mr->length()) {
    return Status(StatusCode::kOutOfRange,
                  "buffer is outside the registered region");
  }
  const std::uint64_t msg_number = recv_counter_;
  const std::size_t slot = slot_of(msg_number);
  RecvHandle* h = &recv_handles_[slot];
  if (h->in_use_) {
    return Status(StatusCode::kResourceExhausted,
                  "message table full: complete the oldest receive first");
  }
  const std::uint32_t gen = generation_of(msg_number);
  if (Status s = table_.arm(slot, gen, length); !s) return s;

  // Bind the root-key slot to the user buffer (§3.2.3: "updates the
  // indirect root memory key table with the user buffer's key").
  const std::uint64_t base = static_cast<std::uint64_t>(addr - mr->addr());
  root_table_->bind(slot, mr, base);

  ++recv_counter_;
  *h = RecvHandle{};
  h->in_use_ = true;
  h->posted_at_s_ = sim_now().seconds();
  h->msg_number_ = msg_number;
  h->slot_ = slot;
  h->generation_ = gen;
  h->msg_bytes_ = length;
  h->chunk_count_ = (length + attr_.chunk_size - 1) / attr_.chunk_size;
  h->mr_ = mr;

  // Clear-to-send: tell the sender the buffer is ready (§3.2.3).
  send_cts(CtsMessage{msg_number, static_cast<std::uint32_t>(slot), gen,
                      static_cast<std::uint64_t>(length)});
  *handle = h;
  return Status::ok();
}

Status Qp::resend_cts(RecvHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  send_cts(CtsMessage{handle->msg_number_,
                      static_cast<std::uint32_t>(handle->slot_),
                      handle->generation_,
                      static_cast<std::uint64_t>(handle->msg_bytes_)});
  return Status::ok();
}

bool Qp::recv_slots_free(std::size_t count) const {
  if (!connected_ || count > attr_.max_inflight) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (recv_handles_[slot_of(recv_counter_ + i)].in_use_) return false;
  }
  return true;
}

Status Qp::recv_bitmap_get(RecvHandle* handle,
                           const AtomicBitmap** bitmap) const {
  if (handle == nullptr || !handle->in_use_ || bitmap == nullptr) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  *bitmap = &table_.chunk_bitmap(handle->slot_);
  return Status::ok();
}

Status Qp::recv_imm_get(RecvHandle* handle, std::uint32_t* imm) const {
  if (handle == nullptr || !handle->in_use_ || imm == nullptr) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  if (!table_.user_imm_ready(handle->slot_, imm)) {
    return Status(StatusCode::kNotReady, "");
  }
  return Status::ok();
}

Status Qp::recv_complete(RecvHandle* handle) {
  if (handle == nullptr || !handle->in_use_) {
    return Status(StatusCode::kInvalidArgument, "invalid receive handle");
  }
  // Stage-1 late-packet protection: rebind the slot to the NULL memory key
  // so in-flight packets complete harmlessly with their payload discarded.
  root_table_->bind_null(handle->slot_, null_mr_);
  table_.release(handle->slot_);
  handle->in_use_ = false;
  return Status::ok();
}

bool Qp::recv_done(const RecvHandle* handle) const {
  return handle != nullptr && handle->in_use_ &&
         table_.message_complete(handle->slot_);
}

std::uint64_t Qp::recv_packets(const RecvHandle* handle) const {
  return handle != nullptr && handle->in_use_
             ? table_.packets_received(handle->slot_)
             : 0;
}

// ---------------------------------------------------------------------------
// Backend completion processing
// ---------------------------------------------------------------------------

void Qp::send_cts(const CtsMessage& cts) {
  verbs::SendWr wr;
  wr.local_addr = reinterpret_cast<const std::uint8_t*>(&cts);
  wr.length = sizeof(cts);
  wr.signaled = false;
  wr.dst_nic = remote_nic_;
  wr.dst_qp = remote_control_qp_;
  control_qp_->post_send(wr);
  ++stats_.cts_sent;
}

void Qp::on_control_cqe() {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSdr);
  verbs::Cqe batch[kCqeBatch];
  std::size_t n;
  while ((n = control_cq_->poll(batch, kCqeBatch)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const verbs::Cqe& cqe = batch[i];
      if (!cqe.is_recv || cqe.byte_len < sizeof(CtsMessage)) continue;
      const std::size_t buf = static_cast<std::size_t>(cqe.wr_id);
      CtsMessage cts;
      std::uint8_t* cts_buf = cts_buffers_.data() + buf * sizeof(CtsMessage);
      std::memcpy(&cts, cts_buf, sizeof(cts));
      // Recycle the CTS buffer.
      verbs::RecvWr rwr;
      rwr.wr_id = buf;
      rwr.addr = cts_buf;
      rwr.length = sizeof(CtsMessage);
      control_qp_->post_recv(rwr);
      ++stats_.cts_received;
      if (telemetry::armed()) {
        telemetry::emit({.kind = telemetry::EventKind::kCts, .t = sim_now(),
                         .conn = control_qp_->num(), .msg = cts.msg_number});
      }

      // Order-based matching: the in-flight send for this msg_number, if
      // started, lives at its slot.
      const std::size_t slot = slot_of(cts.msg_number);
      SendHandle* h = &send_handles_[slot];
      if (h->in_use_ && h->msg_number_ == cts.msg_number) {
        // Receiver-side CTS retry can deliver duplicates; the first one
        // already flushed the queue and armed the protocol timers.
        if (h->cts_ready_) continue;
        h->cts_ready_ = true;
        h->remote_msg_bytes_ = cts.msg_bytes;
        flush_queued(h);
        // Only a released stream with nothing left to inject drains here;
        // anything flushed drains through its send completions.
        if (h->released_ && drained(*h)) recycle(h);
      } else {
        cts_pending_[slot] = PendingCts{cts, true};
      }
      if (cts_handler_) cts_handler_(cts.msg_number);
    }
  }
}

void Qp::on_data_cqe(std::size_t qp_index) {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSdr);
  const auto qp_generation =
      static_cast<std::uint32_t>(qp_index / attr_.channels);
  const bool ud = attr_.transport == Transport::kUd;
  verbs::CompletionQueue& cq = *data_cqs_[qp_index];
  verbs::Cqe batch[kCqeBatch];
  std::size_t n;
  while ((n = cq.poll(batch, kCqeBatch)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const verbs::Cqe& cqe = batch[i];
      if (!cqe.is_recv || !cqe.imm_valid) continue;
      ++stats_.completions_processed;
      const ImmFields fields = codec_.decode(cqe.imm);

      ProcessResult result;
      if (ud) {
        // Staging path (§2.3): the datagram landed in a runtime buffer. The
        // software backend runs the generation/slot checks BEFORE copying —
        // unlike the zero-copy path, where the NIC has already placed the
        // payload — so stale packets never touch user memory. The staging
        // buffer is reposted either way.
        std::uint8_t* staging =
            ud_staging_[qp_index].data() + cqe.wr_id * attr_.mtu;
        result = table_.process_completion(fields, qp_generation);
        if (result.accepted && result.new_packet) {
          const std::uint64_t offset =
              static_cast<std::uint64_t>(fields.msg_id) * attr_.max_msg_size +
              static_cast<std::uint64_t>(fields.packet_index) * attr_.mtu;
          const verbs::ResolvedAccess access =
              root_table_->resolve(offset, cqe.byte_len);
          if (access.valid && !access.discard && access.addr != nullptr) {
            std::memcpy(access.addr, staging, cqe.byte_len);
            ++stats_.staged_packets;
            stats_.staged_bytes += cqe.byte_len;
          }
        }
        verbs::RecvWr rwr;
        rwr.wr_id = cqe.wr_id;
        rwr.addr = staging;
        rwr.length = attr_.mtu;
        data_qps_[qp_index]->post_recv(rwr);
      } else {
        result = table_.process_completion(fields, qp_generation);
      }
      if (!result.accepted) {
        ++stats_.completions_discarded;
        continue;
      }
      RecvHandle* h = &recv_handles_[fields.msg_id];
      if (telemetry::armed()) {
        // A completion for a recycled handle has no message: traced, but
        // it drives no span.
        telemetry::Event e{.kind = telemetry::EventKind::kCqe, .t = sim_now(),
                           .conn = data_qps_[qp_index]->num(),
                           .msg = h->in_use_ ? h->msg_number_
                                             : telemetry::kNoMsg,
                           .packet = fields.packet_index, .imm = cqe.imm,
                           .bytes = cqe.byte_len};
        telemetry::emit(e);
        if (result.chunk_completed) {
          telemetry::emit({.kind = telemetry::EventKind::kChunkCompleted,
                           .t = e.t, .conn = e.conn, .msg = e.msg,
                           .chunk = result.chunk_index});
        }
        if (result.message_completed) {
          telemetry::emit({.kind = telemetry::EventKind::kMsgCompleted,
                           .t = e.t, .conn = e.conn, .msg = e.msg});
        }
      }
      if (h->in_use_) {
        if (h->posted_at_s_ >= 0.0 &&
            (result.chunk_completed && chunk_completion_hist_.live())) {
          chunk_completion_hist_.record(sim_now().seconds() -
                                        h->posted_at_s_);
        }
        if (h->posted_at_s_ >= 0.0 &&
            (result.message_completed && msg_completion_hist_.live())) {
          msg_completion_hist_.record(sim_now().seconds() - h->posted_at_s_);
        }
      }
      if (!recv_event_handler_) continue;
      if (!h->in_use_) continue;
      if (result.chunk_completed) {
        recv_event_handler_(RecvEvent{RecvEvent::Type::kChunkCompleted, h,
                                      result.chunk_index});
      }
      if (result.message_completed) {
        recv_event_handler_(
            RecvEvent{RecvEvent::Type::kMessageCompleted, h, 0});
      }
    }
  }
}

void Qp::on_send_cqe() {
  telemetry::ProfScope prof(telemetry::ProfCategory::kSdr);
  verbs::Cqe batch[kCqeBatch];
  std::size_t n;
  while ((n = send_cq_->poll(batch, kCqeBatch)) > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const verbs::Cqe& cqe = batch[i];
      if (cqe.is_recv) continue;
      const std::size_t slot = static_cast<std::size_t>(cqe.wr_id);
      if (slot >= send_handles_.size()) continue;
      SendHandle* h = &send_handles_[slot];
      if (!h->in_use_ || h->packets_pending_ == 0) continue;
      --h->packets_pending_;
      // A released send is recycled by the completion that drains it.
      if (h->released_ && drained(*h)) recycle(h);
    }
  }
}

}  // namespace sdr::core
