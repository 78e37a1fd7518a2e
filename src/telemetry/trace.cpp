#include "telemetry/trace.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hpp"

namespace sdr::telemetry {

const char* to_string(TraceEventType type) {
  switch (type) {
    case TraceEventType::kPosted: return "posted";
    case TraceEventType::kCts: return "cts";
    case TraceEventType::kTx: return "tx";
    case TraceEventType::kDropped: return "dropped";
    case TraceEventType::kQueueDrop: return "queue_drop";
    case TraceEventType::kReordered: return "reordered";
    case TraceEventType::kDuplicated: return "duplicated";
    case TraceEventType::kDelivered: return "delivered";
    case TraceEventType::kCqe: return "cqe";
    case TraceEventType::kBitmapUpdate: return "bitmap_update";
    case TraceEventType::kAckSent: return "ack_sent";
    case TraceEventType::kNackSent: return "nack_sent";
    case TraceEventType::kRtoFired: return "rto_fired";
    case TraceEventType::kRetransmit: return "retransmit";
    case TraceEventType::kEcRepair: return "ec_repair";
    case TraceEventType::kEcFallback: return "ec_fallback";
    case TraceEventType::kMsgComplete: return "msg_complete";
  }
  return "unknown";
}

void Tracer::arm(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  overwritten_ = 0;
  armed_ = true;
  detail::sync_armed();
  SDR_INFO("packet tracer armed (ring capacity %zu events)", capacity);
}

void Tracer::disarm() {
  SDR_INFO("packet tracer disarmed (%zu events buffered, %" PRIu64
           " overwritten)",
           size_, static_cast<std::uint64_t>(overwritten_));
  armed_ = false;
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
  size_ = 0;
  overwritten_ = 0;
  detail::sync_armed();
}

void Tracer::clear() {
  head_ = 0;
  size_ = 0;
  overwritten_ = 0;
}

template <class Fn>
void Tracer::for_each_oldest_first(Fn&& fn) const {
  if (size_ == 0) return;
  // Oldest event sits at head_ when the ring has wrapped, else at 0.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t idx = start + i;
    if (idx >= ring_.size()) idx -= ring_.size();
    fn(ring_[idx]);
  }
}

std::vector<TraceEvent> Tracer::collect(const Filter& filter) const {
  std::vector<TraceEvent> out;
  for_each_oldest_first([&](const TraceEvent& e) {
    if (filter.matches(e)) out.push_back(e);
  });
  return out;
}

std::vector<TraceEvent> Tracer::chunk_timeline(std::uint64_t msg,
                                               std::uint32_t chunk,
                                               std::uint32_t imm) const {
  std::vector<TraceEvent> out;
  for_each_oldest_first([&](const TraceEvent& e) {
    const bool sdr_level =
        e.msg == msg && (e.chunk == chunk || e.chunk == kNoChunk);
    const bool wire_level = e.msg == kNoMsg && imm != kNoImm && e.imm == imm;
    if (sdr_level || wire_level) out.push_back(e);
  });
  return out;
}

namespace {

void append_event_json(std::string& out, const TraceEvent& e) {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"t_s\":%.9f,\"event\":\"%s\",\"qp\":%" PRIu32,
                        e.t.seconds(), to_string(e.type), e.qp);
  out.append(buf, static_cast<std::size_t>(n));
  if (e.msg != kNoMsg) {
    n = std::snprintf(buf, sizeof(buf), ",\"msg\":%" PRIu64, e.msg);
  } else {
    n = std::snprintf(buf, sizeof(buf), ",\"msg\":null");
  }
  out.append(buf, static_cast<std::size_t>(n));
  if (e.chunk != kNoChunk) {
    n = std::snprintf(buf, sizeof(buf), ",\"chunk\":%" PRIu32, e.chunk);
  } else {
    n = std::snprintf(buf, sizeof(buf), ",\"chunk\":null");
  }
  out.append(buf, static_cast<std::size_t>(n));
  if (e.imm != kNoImm) {
    n = std::snprintf(buf, sizeof(buf), ",\"imm\":%" PRIu32, e.imm);
  } else {
    n = std::snprintf(buf, sizeof(buf), ",\"imm\":null");
  }
  out.append(buf, static_cast<std::size_t>(n));
  n = std::snprintf(buf, sizeof(buf), ",\"bytes\":%" PRIu64 "}\n", e.bytes);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string Tracer::to_jsonl(const Filter& filter) const {
  std::string out;
  out.reserve(size_ * 96);
  for_each_oldest_first([&](const TraceEvent& e) {
    if (filter.matches(e)) append_event_json(out, e);
  });
  return out;
}

std::string Tracer::to_jsonl(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const TraceEvent& e : events) append_event_json(out, e);
  return out;
}

}  // namespace sdr::telemetry
