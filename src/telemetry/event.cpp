#include "telemetry/event.hpp"

#include <cstddef>
#include <iterator>
#include <optional>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/span.hpp"

namespace sdr::telemetry {

namespace {

/// The SpanRecorder hook an event drives.
enum class SpanHook : std::uint8_t {
  kNone,
  kPosted,       // opens an attempt span
  kWire,         // closes the attempt joined by imm; packets that carry one
  kChunkDone,    // closes the chunk span; known messages only
  kMsgComplete,  // closes the message span; known messages only
  kRto,          // cause-linked RTO instant
  kRetransmit,   // cause-linked retransmit instant
  kInstant,      // any other decision, named by the row's trace type
};

/// The event field a flight operand comes from.
enum class Field : std::uint8_t { kZero, kChunk, kBytes, kX, kY };

struct Route {
  EventKind kind{};
  FlightLayer layer{};
  std::optional<TraceEventType> trace{};  // nullopt: not traced
  SpanHook span{SpanHook::kNone};
  const char* flight{nullptr};  // flight tag; nullptr: not recorded
  Field a{Field::kZero};
  Field b{Field::kZero};
  Field c{Field::kZero};
};

using K = EventKind;
using L = FlightLayer;
using T = TraceEventType;
using H = SpanHook;
using F = Field;
constexpr std::optional<TraceEventType> kUntraced{};

// One row per EventKind, in enum order: kind, reporting layer, tracer event
// type, span hook, then the flight tag and its a/b/c operands. SR and EC
// rows trace qp 0, keyed by message alone, and flight-record under the
// control QP; every other layer traces the event's QP.
constexpr Route kRoutes[] = {
    // SDR engine and the wire under it: no flight record. Reorder and
    // duplicate markers do not end an attempt, so they drive no span.
    {K::kPosted, L::kSdr, T::kPosted, H::kPosted},
    {K::kCts, L::kSdr, T::kCts, H::kInstant},
    {K::kCqe, L::kSdr, T::kCqe},
    {K::kChunkCompleted, L::kSdr, T::kBitmapUpdate, H::kChunkDone},
    {K::kMsgCompleted, L::kSdr, T::kMsgComplete, H::kMsgComplete},
    {K::kWireTx, L::kSdr, T::kTx},
    {K::kWireDropped, L::kSdr, T::kDropped, H::kWire},
    {K::kWireQueueDrop, L::kSdr, T::kQueueDrop, H::kWire},
    {K::kWireReordered, L::kSdr, T::kReordered},
    {K::kWireDuplicated, L::kSdr, T::kDuplicated},
    {K::kWireDelivered, L::kSdr, T::kDelivered, H::kWire},
    // Selective repeat.
    {K::kSrWrite, L::kSr, kUntraced, H::kNone,
     "write", F::kBytes, F::kX},
    {K::kSrAckApplied, L::kSr, kUntraced, H::kNone,
     "ack_applied", F::kChunk, F::kX, F::kY},
    {K::kSrNackApplied, L::kSr, kUntraced, H::kNone,
     "nack_applied", F::kX, F::kChunk},
    {K::kSrMsgDone, L::kSr, kUntraced, H::kNone,
     "msg_done", F::kX, F::kY},
    {K::kSrAckSent, L::kSr, T::kAckSent, H::kInstant,
     "ack_sent", F::kChunk, F::kX},
    {K::kSrNackSent, L::kSr, T::kNackSent, H::kInstant,
     "nack_sent", F::kX, F::kChunk},
    // The final ACK follows the message's completion, after its spans have
    // closed: no span.
    {K::kSrFinalAck, L::kSr, T::kAckSent, H::kNone,
     "msg_complete", F::kChunk},
    {K::kSrRetransmit, L::kSr, T::kRetransmit, H::kRetransmit,
     "retransmit", F::kChunk, F::kX, F::kBytes},
    {K::kSrRtoFired, L::kSr, T::kRtoFired, H::kRto,
     "rto_fired", F::kChunk, F::kX, F::kY},
    // Erasure coding.
    {K::kEcWrite, L::kEc, kUntraced, H::kNone,
     "write", F::kBytes, F::kX},
    {K::kEcFallback, L::kEc, T::kEcFallback, H::kInstant,
     "enter_fallback", F::kChunk, F::kX},
    {K::kEcMsgDone, L::kEc, kUntraced, H::kNone,
     "msg_done", F::kX, F::kY},
    {K::kEcSubRecovered, L::kEc, kUntraced, H::kNone,
     "sub_recovered", F::kChunk, F::kX, F::kY},
    {K::kEcRepair, L::kEc, T::kEcRepair, H::kInstant,
     "ec_repair", F::kChunk},
    {K::kEcFtoFired, L::kEc, T::kRtoFired, H::kRto,
     "fto_fired", F::kX, F::kY},
    {K::kEcMsgComplete, L::kEc, kUntraced, H::kNone,
     "msg_complete", F::kX, F::kY},
    {K::kEcRetransmit, L::kEc, T::kRetransmit, H::kRetransmit,
     "retransmit", F::kChunk, F::kX, F::kBytes},
    {K::kEcRtoFired, L::kEc, T::kRtoFired, H::kRto,
     "rto_fired", F::kChunk, F::kX, F::kY},
    // RC transport.
    {K::kRcRetransmit, L::kRc, T::kRetransmit, H::kInstant,
     "rc_retransmit", F::kChunk, F::kBytes},
    {K::kRcNak, L::kRc, kUntraced, H::kNone,
     "rc_nak", F::kX, F::kY},
    {K::kRcRto, L::kRc, T::kRtoFired, H::kInstant,
     "rc_rto", F::kChunk, F::kX, F::kY},
};

constexpr bool rows_in_kind_order() {
  for (std::size_t i = 0; i < std::size(kRoutes); ++i) {
    if (kRoutes[i].kind != static_cast<EventKind>(i)) return false;
  }
  return std::size(kRoutes) == static_cast<std::size_t>(EventKind::kCount);
}
static_assert(rows_in_kind_order(), "one routing row per EventKind, in order");

std::uint64_t field(const Event& e, Field f) {
  switch (f) {
    case Field::kZero: return 0;
    case Field::kChunk: return e.chunk;
    case Field::kBytes: return e.bytes;
    case Field::kX: return e.x;
    case Field::kY: return e.y;
  }
  return 0;
}

}  // namespace

void emit(const Event& e) {
  const Route& r = kRoutes[static_cast<std::size_t>(e.kind)];
  const std::uint8_t armed = detail::t_context.armed;
  if (r.trace && (armed & kTraceArmed) != 0) {
    const bool reliability = r.layer == L::kSr || r.layer == L::kEc;
    tracer().emit(e.t, *r.trace, reliability ? 0 : e.conn, e.msg,
                  e.packet != kNoChunk ? e.packet : e.chunk, e.imm, e.bytes);
  }
  if (r.span != SpanHook::kNone && (armed & kSpansArmed) != 0) {
    SpanRecorder& sp = spans();
    switch (r.span) {
      case SpanHook::kNone:
        break;
      case SpanHook::kPosted:
        sp.on_posted(e.t, e.conn, e.msg, e.chunk, e.packet, e.imm, e.bytes);
        break;
      case SpanHook::kWire:
        // Control datagrams and RC ACKs carry no immediate and would alias
        // imm 0.
        if (e.carries_imm) sp.on_wire(e.t, *r.trace, e.imm);
        break;
      case SpanHook::kChunkDone:
        if (e.msg != kNoMsg) sp.on_chunk_done(e.t, e.msg, e.chunk);
        break;
      case SpanHook::kMsgComplete:
        if (e.msg != kNoMsg) sp.on_msg_complete(e.t, e.msg);
        break;
      case SpanHook::kRto:
        sp.on_rto(e.t, e.msg, e.chunk);
        break;
      case SpanHook::kRetransmit:
        sp.on_retransmit(e.t, e.msg, e.chunk, e.bytes);
        break;
      case SpanHook::kInstant:
        sp.on_instant(e.t, *r.trace, e.msg, e.chunk);
        break;
    }
  }
  if (r.flight != nullptr && (armed & kFlightArmed) != 0) {
    flight().record(r.layer, e.conn, r.flight, e.t, e.msg, field(e, r.a),
                    field(e, r.b), field(e, r.c));
  }
}

}  // namespace sdr::telemetry
