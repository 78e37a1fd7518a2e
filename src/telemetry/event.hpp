// One telemetry event stream: every protocol transition the stack reports is
// one typed Event, stated once at its site and fanned out by one router.
//
// A site reads
//
//   if (telemetry::armed()) telemetry::emit({.kind = EventKind::kSrAckSent,
//                                            .t = now, ...});
//
// The guard tests one thread-local armed mask (context.hpp) before any event
// field is evaluated, so a stack with every event sink disarmed pays one
// never-taken branch per site and no allocation. emit() looks the kind up in
// one routing table (event.cpp) that names, per kind, what each sink
// records:
//
//   * the Tracer ring: a TraceEventType plus the event's QP, message,
//     chunk (or wire packet), immediate and bytes;
//   * the SpanRecorder: which typed hook, if any, the event drives;
//   * the FlightRecorder: a layer, a tag, and which event fields fill the
//     record's a/b/c operands, keyed by the event's connection.
//
// Sinks that are not armed on the calling thread are skipped. Routing
// allocates nothing: the tracer ring is preallocated at arm() and each
// flight ring on its connection's first record.
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "telemetry/context.hpp"
#include "telemetry/trace.hpp"

namespace sdr::telemetry {

/// One logical transition, named by the layer that reports it.
enum class EventKind : std::uint8_t {
  // SDR engine.
  kPosted,          // packet staged for a data QP (conn = remote data QP)
  kCts,             // clear-to-send processed (conn = control QP)
  kCqe,             // receive completion processed (conn = data QP)
  kChunkCompleted,  // message-table chunk bit set
  kMsgCompleted,    // message fully received
  // Channel: one event per packet fate (conn = destination QP).
  kWireTx,
  kWireDropped,
  kWireQueueDrop,
  kWireReordered,
  kWireDuplicated,
  kWireDelivered,
  // Selective repeat (conn = control QP).
  kSrWrite,        // bytes = length, x = chunks
  kSrAckApplied,   // chunk = cumulative, x = chunks acked, y = chunks
  kSrNackApplied,  // chunk = first index (0 if none), x = index count
  kSrMsgDone,      // x = chunks, y = retransmissions so far
  kSrAckSent,      // chunk = cumulative, x = selective count
  kSrNackSent,     // chunk = first index, x = index count
  kSrFinalAck,     // chunk = cumulative (= chunks)
  kSrRetransmit,   // chunk, bytes, x = retries
  kSrRtoFired,     // chunk, x = retries, y = RTO in microseconds
  // Erasure coding (conn = control QP).
  kEcWrite,         // bytes = length, x = submessages
  kEcFallback,      // chunk = submessage, x = k
  kEcMsgDone,       // x = submessages, y = fallback retransmissions
  kEcSubRecovered,  // chunk = submessage, x = recovered, y = submessages
  kEcRepair,        // chunk = submessage
  kEcFtoFired,      // x = submessages outstanding, y = FTOs fired
  kEcMsgComplete,   // x = submessages, y = decoded submessages
  kEcRetransmit,    // as kSrRetransmit
  kEcRtoFired,      // as kSrRtoFired
  // RC transport (conn = the RC QP).
  kRcRetransmit,  // chunk = PSN, imm, bytes
  kRcNak,         // x = expected PSN, y = received PSN or out-of-order count
  kRcRto,         // chunk = oldest unacked PSN, x = unacked, y = retries
  kCount,
};

struct Event {
  EventKind kind{EventKind::kPosted};
  SimTime t{};
  std::uint32_t conn{0};            // QP that owns the transition
  std::uint64_t msg{kNoMsg};
  std::uint32_t chunk{kNoChunk};    // chunk, submessage or PSN
  std::uint32_t packet{kNoChunk};   // wire packet index (kPosted, kCqe);
                                    // traced in place of chunk
  std::uint32_t imm{kNoImm};
  bool carries_imm{false};          // wire events: opcode carries imm
  std::uint64_t bytes{0};
  std::uint64_t x{0};               // per-kind operands (see EventKind)
  std::uint64_t y{0};
};

/// Routes `e` to every armed sink its kind's table row names. Call sites
/// guard with armed().
void emit(const Event& e);

}  // namespace sdr::telemetry
