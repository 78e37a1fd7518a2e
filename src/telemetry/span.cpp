#include "telemetry/span.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "common/logging.hpp"

namespace sdr::telemetry {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kMessage: return "message";
    case SpanKind::kChunk: return "chunk";
    case SpanKind::kAttempt: return "attempt";
    case SpanKind::kInstant: return "instant";
  }
  return "unknown";
}

const char* to_string(SpanOutcome outcome) {
  switch (outcome) {
    case SpanOutcome::kOpen: return "open";
    case SpanOutcome::kComplete: return "complete";
    case SpanOutcome::kDropped: return "dropped";
    case SpanOutcome::kQueueDrop: return "queue_drop";
    case SpanOutcome::kSuperseded: return "superseded";
  }
  return "unknown";
}

void SpanRecorder::arm(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  pool_.assign(capacity, Span{});
  size_ = 0;
  truncated_ = 0;
  last_t_ = SimTime{};
  current_track_ = 0;
  track_names_.assign(1, "default");
  open_msgs_.clear();
  open_chunks_.clear();
  open_attempts_.clear();
  armed_ = true;
  detail::sync_armed();
  SDR_INFO("span recorder armed (pool capacity %zu spans)", capacity);
}

void SpanRecorder::disarm() {
  SDR_INFO("span recorder disarmed (%zu spans recorded, %" PRIu64
           " truncated)",
           size_, truncated_);
  armed_ = false;
  pool_.clear();
  pool_.shrink_to_fit();
  size_ = 0;
  truncated_ = 0;
  track_names_.clear();
  open_msgs_.clear();
  open_chunks_.clear();
  open_attempts_.clear();
  detail::sync_armed();
}

void SpanRecorder::clear() {
  size_ = 0;
  truncated_ = 0;
  last_t_ = SimTime{};
  open_msgs_.clear();
  open_chunks_.clear();
  open_attempts_.clear();
}

std::uint16_t SpanRecorder::track(const std::string& name) {
  if (!armed_) return 0;
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) {
      current_track_ = static_cast<std::uint16_t>(i);
      return current_track_;
    }
  }
  track_names_.push_back(name);
  current_track_ = static_cast<std::uint16_t>(track_names_.size() - 1);
  return current_track_;
}

SpanIndex SpanRecorder::alloc(SimTime t, SpanKind kind) {
  if (size_ == pool_.size()) {
    ++truncated_;
    return kNoSpan;
  }
  const auto i = static_cast<SpanIndex>(size_++);
  Span& s = pool_[i];
  s = Span{};
  s.begin = t;
  s.end = t;
  s.kind = kind;
  s.track = current_track_;
  return i;
}

SpanIndex SpanRecorder::ensure_message(SimTime t, std::uint64_t msg,
                                       std::uint32_t qp) {
  if (const auto it = open_msgs_.find(msg); it != open_msgs_.end()) {
    return it->second;
  }
  const SpanIndex i = alloc(t, SpanKind::kMessage);
  if (i == kNoSpan) return kNoSpan;
  pool_[i].msg = msg;
  pool_[i].qp = qp;
  open_msgs_.emplace(msg, i);
  return i;
}

SpanRecorder::OpenChunk* SpanRecorder::ensure_chunk(SimTime t,
                                                    std::uint64_t msg,
                                                    std::uint32_t chunk) {
  const ChunkKey key{msg, chunk};
  if (const auto it = open_chunks_.find(key); it != open_chunks_.end()) {
    return &it->second;
  }
  const SpanIndex parent = ensure_message(t, msg, 0);
  const SpanIndex i = alloc(t, SpanKind::kChunk);
  if (i == kNoSpan) return nullptr;
  pool_[i].msg = msg;
  pool_[i].chunk = chunk;
  pool_[i].parent = parent;
  return &open_chunks_.emplace(key, OpenChunk{i, kNoSpan, 0}).first->second;
}

void SpanRecorder::close(SpanIndex i, SimTime t, SpanOutcome outcome) {
  Span& s = pool_[i];
  s.end = t;
  s.outcome = outcome;
}

void SpanRecorder::on_posted(SimTime t, std::uint32_t qp, std::uint64_t msg,
                             std::uint32_t chunk, std::uint32_t packet,
                             std::uint32_t imm, std::uint64_t bytes) {
  if (!armed_) return;
  last_t_ = t;
  ensure_message(t, msg, qp);
  OpenChunk* oc = ensure_chunk(t, msg, chunk);
  if (oc == nullptr) return;
  // A re-post of an attempt still in flight (spurious RTO): the old attempt
  // span yields to the new one.
  if (const auto it = open_attempts_.find(imm); it != open_attempts_.end()) {
    close(it->second, t, SpanOutcome::kSuperseded);
    open_attempts_.erase(it);
  }
  const SpanIndex i = alloc(t, SpanKind::kAttempt);
  if (i == kNoSpan) return;
  Span& s = pool_[i];
  s.qp = qp;
  s.msg = msg;
  s.chunk = chunk;
  s.packet = packet;
  s.imm = imm;
  s.bytes = bytes;
  s.parent = oc->span;
  s.attempt = oc->attempts++;
  s.cause = oc->pending_cause;
  open_attempts_.emplace(imm, i);
}

void SpanRecorder::on_wire(SimTime t, TraceEventType type, std::uint32_t imm) {
  if (!armed_) return;
  last_t_ = t;
  const auto it = open_attempts_.find(imm);
  if (it == open_attempts_.end()) return;  // duplicate copy / unknown packet
  const SpanIndex i = it->second;
  Span& s = pool_[i];
  s.what = type;
  switch (type) {
    case TraceEventType::kDelivered:
      close(i, t, SpanOutcome::kComplete);
      break;
    case TraceEventType::kDropped:
      close(i, t, SpanOutcome::kDropped);
      break;
    case TraceEventType::kQueueDrop:
      close(i, t, SpanOutcome::kQueueDrop);
      break;
    default:
      return;  // tx/reorder markers: attempt stays open
  }
  open_attempts_.erase(it);
  // A lost attempt seeds the chunk's recovery chain: the rto/nack instant
  // and the retransmission attempt that follow link back to it.
  if (s.outcome != SpanOutcome::kComplete) {
    if (const auto cit = open_chunks_.find(ChunkKey{s.msg, s.chunk});
        cit != open_chunks_.end()) {
      cit->second.pending_cause = i;
    }
  }
}

void SpanRecorder::on_chunk_done(SimTime t, std::uint64_t msg,
                                 std::uint32_t chunk) {
  if (!armed_) return;
  last_t_ = t;
  const auto it = open_chunks_.find(ChunkKey{msg, chunk});
  if (it == open_chunks_.end()) return;
  close(it->second.span, t, SpanOutcome::kComplete);
  open_chunks_.erase(it);
}

void SpanRecorder::on_msg_complete(SimTime t, std::uint64_t msg) {
  if (!armed_) return;
  last_t_ = t;
  const auto it = open_msgs_.find(msg);
  if (it == open_msgs_.end()) return;
  close(it->second, t, SpanOutcome::kComplete);
  open_msgs_.erase(it);
  // Chunks whose bitmap event raced the completion close with the message.
  for (auto cit = open_chunks_.begin(); cit != open_chunks_.end();) {
    if (cit->first.msg == msg) {
      close(cit->second.span, t, SpanOutcome::kComplete);
      cit = open_chunks_.erase(cit);
    } else {
      ++cit;
    }
  }
}

void SpanRecorder::on_rto(SimTime t, std::uint64_t msg, std::uint32_t chunk) {
  if (!armed_) return;
  last_t_ = t;
  OpenChunk* oc =
      chunk != kNoChunk ? ensure_chunk(t, msg, chunk) : nullptr;
  const SpanIndex i = alloc(t, SpanKind::kInstant);
  if (i == kNoSpan) return;
  Span& s = pool_[i];
  s.what = TraceEventType::kRtoFired;
  s.msg = msg;
  s.chunk = chunk;
  if (oc != nullptr) {
    s.parent = oc->span;
    s.cause = oc->pending_cause;
    oc->pending_cause = i;
  } else if (msg != kNoMsg) {
    s.parent = ensure_message(t, msg, 0);
  }
}

void SpanRecorder::on_retransmit(SimTime t, std::uint64_t msg,
                                 std::uint32_t chunk, std::uint64_t bytes) {
  if (!armed_) return;
  last_t_ = t;
  OpenChunk* oc = ensure_chunk(t, msg, chunk);
  const SpanIndex i = alloc(t, SpanKind::kInstant);
  if (i == kNoSpan) return;
  Span& s = pool_[i];
  s.what = TraceEventType::kRetransmit;
  s.msg = msg;
  s.chunk = chunk;
  s.bytes = bytes;
  if (oc != nullptr) {
    s.parent = oc->span;
    s.cause = oc->pending_cause;
    oc->pending_cause = i;
  }
}

void SpanRecorder::on_instant(SimTime t, TraceEventType what,
                              std::uint64_t msg, std::uint32_t chunk) {
  if (!armed_) return;
  last_t_ = t;
  const SpanIndex i = alloc(t, SpanKind::kInstant);
  if (i == kNoSpan) return;
  Span& s = pool_[i];
  s.what = what;
  s.msg = msg;
  s.chunk = chunk;
  if (msg == kNoMsg) return;
  if (chunk != kNoChunk) {
    if (const auto it = open_chunks_.find(ChunkKey{msg, chunk});
        it != open_chunks_.end()) {
      s.parent = it->second.span;
      return;
    }
  }
  if (const auto it = open_msgs_.find(msg); it != open_msgs_.end()) {
    s.parent = it->second;
  }
}

std::vector<SpanIndex> SpanRecorder::children(SpanIndex parent) const {
  std::vector<SpanIndex> out;
  for (std::size_t i = 0; i < size_; ++i) {
    if (pool_[i].parent == parent) out.push_back(static_cast<SpanIndex>(i));
  }
  return out;
}

SpanIndex SpanRecorder::find_message(std::uint64_t msg) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (pool_[i].kind == SpanKind::kMessage && pool_[i].msg == msg) {
      return static_cast<SpanIndex>(i);
    }
  }
  return kNoSpan;
}

SimTime SpanRecorder::effective_end(const Span& s) const {
  if (s.outcome != SpanOutcome::kOpen) return s.end;
  return std::max(s.begin, last_t_);
}

namespace {

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n),
                                      sizeof(buf) - 1));
}

// Trace-event rows: one Perfetto "thread" per span kind inside each scheme's
// "process".
int tid_of(SpanKind kind) {
  switch (kind) {
    case SpanKind::kMessage: return 1;
    case SpanKind::kChunk: return 2;
    case SpanKind::kAttempt: return 3;
    case SpanKind::kInstant: return 2;  // decisions render on the chunk row
  }
  return 0;
}

}  // namespace

void SpanRecorder::append_chrome_events(std::string& out, int pid_base) const {
  bool first = out.empty();
  const auto comma = [&] {
    if (!first) out.push_back(',');
    first = false;
  };
  // Track-group metadata: process_name per scheme, thread_name per row.
  for (std::size_t tr = 0; tr < track_names_.size(); ++tr) {
    const int pid = pid_base + static_cast<int>(tr);
    comma();
    append_fmt(out,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
               "\"tid\":0,\"args\":{\"name\":\"scheme: %s\"}}",
               pid, track_names_[tr].c_str());
    static const char* kRows[] = {"messages", "chunks", "packets"};
    for (int row = 0; row < 3; ++row) {
      comma();
      append_fmt(out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 pid, row + 1, kRows[row]);
    }
  }
  std::uint64_t flow_id = 1;
  for (std::size_t i = 0; i < size_; ++i) {
    const Span& s = pool_[i];
    const int pid = pid_base + s.track;
    const int tid = tid_of(s.kind);
    const double ts_us = s.begin.seconds() * 1e6;
    char name[96];
    switch (s.kind) {
      case SpanKind::kMessage:
        std::snprintf(name, sizeof(name), "msg %" PRIu64, s.msg);
        break;
      case SpanKind::kChunk:
        std::snprintf(name, sizeof(name), "chunk %" PRIu32, s.chunk);
        break;
      case SpanKind::kAttempt:
        std::snprintf(name, sizeof(name), "pkt %" PRIu32 " #%" PRIu32,
                      s.packet, s.attempt);
        break;
      case SpanKind::kInstant:
        std::snprintf(name, sizeof(name), "%s", to_string(s.what));
        break;
    }
    comma();
    if (s.kind == SpanKind::kInstant) {
      append_fmt(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                 "\"ts\":%.3f,\"pid\":%d,\"tid\":%d",
                 name, to_string(s.kind), ts_us, pid, tid);
    } else {
      const double dur_us =
          std::max(0.0, (effective_end(s) - s.begin).seconds() * 1e6);
      append_fmt(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d",
                 name, to_string(s.kind), ts_us, dur_us, pid, tid);
    }
    append_fmt(out, ",\"args\":{\"outcome\":\"%s\"", to_string(s.outcome));
    if (s.msg != kNoMsg) append_fmt(out, ",\"msg\":%" PRIu64, s.msg);
    if (s.chunk != kNoChunk) append_fmt(out, ",\"chunk\":%" PRIu32, s.chunk);
    if (s.kind == SpanKind::kAttempt) {
      append_fmt(out, ",\"packet\":%" PRIu32 ",\"attempt\":%" PRIu32, s.packet,
                 s.attempt);
      if (s.imm != kNoImm) append_fmt(out, ",\"imm\":%" PRIu32, s.imm);
    }
    if (s.bytes != 0) append_fmt(out, ",\"bytes\":%" PRIu64, s.bytes);
    out.append("}}");
    // Cause link: a flow arrow from the end of the cause span to this
    // span's begin.
    if (s.cause != kNoSpan && s.cause < size_) {
      const Span& c = pool_[s.cause];
      const double cts_us = effective_end(c).seconds() * 1e6;
      comma();
      append_fmt(out,
                 "{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"s\","
                 "\"id\":%" PRIu64 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}",
                 flow_id, cts_us, pid_base + c.track, tid_of(c.kind));
      comma();
      append_fmt(out,
                 "{\"name\":\"cause\",\"cat\":\"cause\",\"ph\":\"f\","
                 "\"bp\":\"e\",\"id\":%" PRIu64
                 ",\"ts\":%.3f,\"pid\":%d,\"tid\":%d}",
                 flow_id, ts_us, pid, tid);
      ++flow_id;
    }
  }
}

std::string SpanRecorder::wrap_chrome_events(const std::string& events) {
  std::string out;
  out.reserve(events.size() + 64);
  out.append("{\"traceEvents\":[");
  out.append(events);
  out.append("],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

std::string SpanRecorder::to_chrome_json() const {
  std::string events;
  events.reserve(size_ * 160);
  append_chrome_events(events, /*pid_base=*/1);
  return wrap_chrome_events(events);
}

}  // namespace sdr::telemetry
