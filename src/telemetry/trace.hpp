// Packet-lifecycle tracer: structured, sim-time-stamped events in a bounded
// in-memory ring.
//
// The tracer answers "why did this message finish when it did?": a chunk's
// journey is posted -> tx -> (dropped -> rto_fired -> retransmit -> tx)* ->
// delivered -> cqe -> bitmap_update -> msg_complete, and a p99.9 outlier in
// Fig 10/13 is exactly one of those loops. Events are tiny PODs pushed into
// a preallocated ring (oldest overwritten, count kept), exported as JSONL
// and joinable across layers:
//   * SDR/reliability-level events carry (msg, chunk) — the protocol's view.
//   * Channel-level events can't decode the SDR immediate, so they carry the
//     raw wire `imm` (and dst QP); `chunk_timeline` joins both via the OR of
//     (msg, chunk) and imm equality.
//
// The tracer is one sink of the telemetry event stream (event.hpp): the
// router writes one ring entry per routed event, and the ring is
// preallocated at arm(), so recording allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "telemetry/context.hpp"

namespace sdr::telemetry {

/// Sentinels for fields an event's layer cannot know.
inline constexpr std::uint64_t kNoMsg = ~std::uint64_t{0};
inline constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;
inline constexpr std::uint32_t kNoImm = 0xFFFFFFFFu;

enum class TraceEventType : std::uint8_t {
  kPosted,        // SDR staged a packet for a data QP
  kCts,           // clear-to-send control message processed
  kTx,            // packet entered the channel
  kDropped,       // drop model discarded the packet
  kQueueDrop,     // channel tail-drop (queue capacity exceeded)
  kReordered,     // packet got extra reorder delay
  kDuplicated,    // channel emitted a duplicate copy
  kDelivered,     // packet handed to the receiving NIC
  kCqe,           // completion queue entry processed by SDR
  kBitmapUpdate,  // message-table chunk bit set
  kAckSent,       // SR receiver sent a (cumulative/selective) ACK
  kNackSent,      // SR receiver sent a NACK
  kRtoFired,      // retransmission/fallback timeout fired
  kRetransmit,    // chunk/packet re-sent
  kEcRepair,      // erasure-coded block recovered from parity
  kEcFallback,    // EC sender fell back to SR for a block
  kMsgComplete,   // message fully received (all chunk bits set)
};

const char* to_string(TraceEventType type);

struct TraceEvent {
  SimTime t{};
  TraceEventType type{TraceEventType::kPosted};
  std::uint32_t qp{0};
  std::uint32_t chunk{kNoChunk};
  std::uint64_t msg{kNoMsg};
  std::uint32_t imm{kNoImm};
  std::uint64_t bytes{0};
};

/// AND-match trace filter; sentinel-valued fields match everything.
struct TraceFilter {
  std::uint32_t qp{kNoImm};       // kNoImm = any
  std::uint64_t msg{kNoMsg};      // kNoMsg = any
  std::uint32_t chunk{kNoChunk};  // kNoChunk = any
  std::uint32_t imm{kNoImm};      // kNoImm = any

  bool matches(const TraceEvent& e) const {
    if (qp != kNoImm && e.qp != qp) return false;
    if (msg != kNoMsg && e.msg != msg) return false;
    if (chunk != kNoChunk && e.chunk != chunk) return false;
    if (imm != kNoImm && e.imm != imm) return false;
    return true;
  }
};

class Tracer {
 public:
  using Filter = TraceFilter;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Preallocates the ring and starts accepting events.
  void arm(std::size_t capacity = 1u << 20);
  /// Stops accepting events and frees the ring.
  void disarm();
  bool armed() const { return armed_; }
  void clear();

  void emit(SimTime t, TraceEventType type, std::uint32_t qp,
            std::uint64_t msg = kNoMsg, std::uint32_t chunk = kNoChunk,
            std::uint32_t imm = kNoImm, std::uint64_t bytes = 0) {
    if (!armed_) return;
    TraceEvent& e = ring_[head_];
    e.t = t;
    e.type = type;
    e.qp = qp;
    e.chunk = chunk;
    e.msg = msg;
    e.imm = imm;
    e.bytes = bytes;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t overwritten() const { return overwritten_; }

  /// Events matching `filter`, oldest first (ring order == sim-time order
  /// because emission follows the simulator clock).
  std::vector<TraceEvent> collect(const Filter& filter = Filter{}) const;

  /// Every event belonging to one chunk's story, joined across layers:
  /// SDR-level events match on (msg, chunk) — message-scoped events like
  /// msg_complete (chunk == kNoChunk) are included — and wire-level events
  /// (msg == kNoMsg) match on the packet's immediate.
  std::vector<TraceEvent> chunk_timeline(std::uint64_t msg, std::uint32_t chunk,
                                         std::uint32_t imm) const;

  /// One JSON object per event, one per line; sentinel fields emitted as
  /// null so downstream tooling can tell "unknown" from 0.
  std::string to_jsonl(const Filter& filter = Filter{}) const;
  static std::string to_jsonl(const std::vector<TraceEvent>& events);

 private:
  template <class Fn>
  void for_each_oldest_first(Fn&& fn) const;

  bool armed_{false};
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};  // next write position
  std::size_t size_{0};
  std::uint64_t overwritten_{0};
};

}  // namespace sdr::telemetry
