// Causal span recorder: the tracer's flat event stream turned into a
// message -> chunk -> packet-attempt tree with cause links.
//
// The tracer (trace.hpp) answers "what happened"; spans answer "why was this
// message slow". Each message owns one span per chunk, each chunk owns one
// span per wire attempt (original injection and every retransmission), and
// instant spans mark the protocol decisions in between (rto_fired, ack_sent,
// ec_repair, ...). Cause links chain a chunk's recovery story:
//
//   attempt#0 --dropped--> rto_fired --> retransmit --> attempt#1 (delivered)
//
// which is exactly the p99.9 outlier loop in Figs 10/13. The recorder is one
// sink of the telemetry event stream (event.hpp): the router feeds it
// through private typed hooks (on_posted / on_wire / on_rto / ...), picked
// per event kind by its routing table.
//
// Spans live in a bounded pool preallocated at arm(); when it fills, new
// spans are counted as truncated and dropped (existing spans keep closing).
// Export is Chrome trace-event JSON (to_chrome_json) loadable in Perfetto /
// chrome://tracing: one process ("track group") per scheme registered with
// track(), one thread row per span kind, and s/f flow arrows for the cause
// links.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.hpp"
#include "telemetry/trace.hpp"

namespace sdr::telemetry {

struct Event;

using SpanIndex = std::uint32_t;
inline constexpr SpanIndex kNoSpan = 0xFFFFFFFFu;

enum class SpanKind : std::uint8_t {
  kMessage,  // recv_post/first injection .. msg_complete
  kChunk,    // first packet posted .. bitmap chunk completion
  kAttempt,  // one wire attempt: posted .. delivered/dropped/superseded
  kInstant,  // zero-duration protocol decision (rto_fired, ack_sent, ...)
};

enum class SpanOutcome : std::uint8_t {
  kOpen,        // never closed (still in flight at export time)
  kComplete,    // delivered / chunk completed / message completed
  kDropped,     // wire attempt lost to the drop model
  kQueueDrop,   // wire attempt lost to egress tail-drop
  kSuperseded,  // a retransmission was posted while this attempt was in
                // flight (spurious RTO) — the new attempt takes over
};

const char* to_string(SpanKind kind);
const char* to_string(SpanOutcome outcome);

struct Span {
  SimTime begin{};
  SimTime end{};
  SpanKind kind{SpanKind::kMessage};
  SpanOutcome outcome{SpanOutcome::kOpen};
  TraceEventType what{TraceEventType::kPosted};  // instants: which decision
  std::uint16_t track{0};
  std::uint32_t qp{0};
  std::uint64_t msg{kNoMsg};
  std::uint32_t chunk{kNoChunk};   // chunk index (attr.chunk_size units)
  std::uint32_t packet{kNoChunk};  // wire packet index (mtu units), attempts
  std::uint32_t imm{kNoImm};       // wire immediate, attempts only
  std::uint32_t attempt{0};        // attempt ordinal within the chunk
  std::uint64_t bytes{0};
  SpanIndex parent{kNoSpan};  // chunk -> message, attempt/instant -> chunk
  SpanIndex cause{kNoSpan};   // causal predecessor (drop -> rto -> rtx -> ..)
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Preallocates the span pool and starts accepting hooks.
  void arm(std::size_t capacity = 1u << 16);
  /// Stops accepting hooks and frees the pool.
  void disarm();
  bool armed() const { return armed_; }
  void clear();

  /// Registers (or re-selects) a per-scheme track group; spans recorded
  /// afterwards belong to it. Track 0 ("default") exists implicitly.
  std::uint16_t track(const std::string& name);

  // ---- queries ----
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return pool_.size(); }
  std::uint64_t truncated() const { return truncated_; }
  const Span& at(SpanIndex i) const { return pool_[i]; }
  /// Children of `parent` (kNoSpan: root spans), in recording order.
  std::vector<SpanIndex> children(SpanIndex parent) const;
  /// Message span index for `msg`, or kNoSpan.
  SpanIndex find_message(std::uint64_t msg) const;

  // ---- export ----
  /// Complete Chrome trace-event JSON document:
  /// {"traceEvents":[...],"displayTimeUnit":"ms"}. Open spans are emitted
  /// with end = the last observed sim time and outcome "open".
  std::string to_chrome_json() const;
  /// The bare event objects (comma-separated, no wrapper), with process ids
  /// offset by `pid_base` so several recorders merge into one document.
  void append_chrome_events(std::string& out, int pid_base) const;
  static std::string wrap_chrome_events(const std::string& events);

 private:
  friend void emit(const Event& e);

  // ---- typed hooks, called by the event router ----
  /// SDR staged one packet: opens message/chunk spans on demand and a fresh
  /// attempt span. `chunk` is the reliability-layer chunk index
  /// (attr.chunk_size units); `packet` the wire packet index (mtu units).
  void on_posted(SimTime t, std::uint32_t qp, std::uint64_t msg,
                 std::uint32_t chunk, std::uint32_t packet, std::uint32_t imm,
                 std::uint64_t bytes);
  /// Channel verdict for an in-flight attempt, joined by immediate:
  /// kDelivered / kDropped / kQueueDrop close the attempt span.
  void on_wire(SimTime t, TraceEventType type, std::uint32_t imm);
  /// Receiver bitmap marked the chunk complete: closes the chunk span.
  void on_chunk_done(SimTime t, std::uint64_t msg, std::uint32_t chunk);
  /// Message fully received: closes the message span and any chunk spans
  /// of it still open.
  void on_msg_complete(SimTime t, std::uint64_t msg);
  /// Retransmission/fallback timeout fired for (msg, chunk): instant span
  /// caused by the chunk's latest drop, and the cause of what follows.
  void on_rto(SimTime t, std::uint64_t msg, std::uint32_t chunk);
  /// Chunk re-sent: instant span; subsequent attempts of the chunk link to
  /// it as their cause.
  void on_retransmit(SimTime t, std::uint64_t msg, std::uint32_t chunk,
                     std::uint64_t bytes);
  /// Any other protocol decision (cts, ack_sent, nack_sent, ec_repair,
  /// ec_fallback, rc rto/retransmit with msg == kNoMsg): instant span
  /// attached to the (msg, chunk) chunk span, else the msg span, else root.
  void on_instant(SimTime t, TraceEventType what, std::uint64_t msg,
                  std::uint32_t chunk);

  struct ChunkKey {
    std::uint64_t msg;
    std::uint32_t chunk;
    bool operator==(const ChunkKey&) const = default;
  };
  struct ChunkKeyHash {
    std::size_t operator()(const ChunkKey& k) const {
      std::uint64_t h = k.msg * 0x9E3779B97F4A7C15ull;
      h ^= (h >> 29) ^ (static_cast<std::uint64_t>(k.chunk) << 1);
      return static_cast<std::size_t>(h * 0xBF58476D1CE4E5B9ull);
    }
  };
  struct OpenChunk {
    SpanIndex span{kNoSpan};
    // Latest causal predecessor for the chunk's next span: the attempt
    // whose drop started the recovery, then the rto instant, then the
    // retransmit instant, then consumed by the next attempt.
    SpanIndex pending_cause{kNoSpan};
    std::uint32_t attempts{0};
  };

  SpanIndex alloc(SimTime t, SpanKind kind);
  SpanIndex ensure_message(SimTime t, std::uint64_t msg, std::uint32_t qp);
  OpenChunk* ensure_chunk(SimTime t, std::uint64_t msg, std::uint32_t chunk);
  void close(SpanIndex i, SimTime t, SpanOutcome outcome);
  SimTime effective_end(const Span& s) const;

  bool armed_{false};
  std::vector<Span> pool_;
  std::size_t size_{0};
  std::uint64_t truncated_{0};
  SimTime last_t_{};
  std::uint16_t current_track_{0};
  std::vector<std::string> track_names_;
  std::unordered_map<std::uint64_t, SpanIndex> open_msgs_;
  std::unordered_map<ChunkKey, OpenChunk, ChunkKeyHash> open_chunks_;
  std::unordered_map<std::uint32_t, SpanIndex> open_attempts_;  // by imm
};

}  // namespace sdr::telemetry
