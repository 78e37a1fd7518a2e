// The calling thread's telemetry context: which instance of each sink its
// instrumentation reaches, and which of those are armed.
//
// One thread_local struct holds five instance pointers (nullptr selects the
// process-wide default) plus one armed mask with a bit per sink. Every
// hot-path check is a load of that mask: the emit guard (`armed()`), the
// profiler scope (`profiling()`) and component registration (`enabled()`).
// Sinks resync the mask when they arm or disarm; ScopedTelemetry swaps the
// whole context and resyncs it, so concurrent threads with their own
// installed instances never share telemetry state.
#pragma once

#include <cstdint>

namespace sdr::telemetry {

class Registry;
class Tracer;
class SpanRecorder;
class FlightRecorder;
class Profiler;

/// Bits of TelemetryContext::armed, one per sink.
enum ArmedBit : std::uint8_t {
  kMetricsArmed = 1u << 0,
  kTraceArmed = 1u << 1,
  kSpansArmed = 1u << 2,
  kFlightArmed = 1u << 3,
  kProfileArmed = 1u << 4,
};

/// The sinks telemetry::emit() routes events to.
inline constexpr std::uint8_t kEventSinks =
    kTraceArmed | kSpansArmed | kFlightArmed;

struct TelemetryContext {
  Registry* registry{nullptr};
  Tracer* tracer{nullptr};
  SpanRecorder* spans{nullptr};
  FlightRecorder* flight{nullptr};
  Profiler* profiler{nullptr};
  std::uint8_t armed{0};  // ArmedBit set of the instances above
};

namespace detail {
// constinit keeps cross-TU reads a bare TLS load: without it the compiler
// must route every access through the dynamic-init guard, which costs a
// branch per check and miscompiles under -fsanitize=null on GCC 12 (stale
// flags branch into the null trap).
extern thread_local constinit TelemetryContext t_context;

/// Recompute t_context.armed from the installed instances' own state.
void sync_armed();
}  // namespace detail

/// The calling thread's current instance of each sink: the one installed by
/// ScopedTelemetry, or the process-wide default when none is.
Registry& registry();
Tracer& tracer();
SpanRecorder& spans();
FlightRecorder& flight();
Profiler& profiler();

/// True when an event sink is armed: the guard in front of every emit site,
/// so a disarmed stack costs one never-taken branch per site and evaluates
/// no event field.
inline bool armed() {
  return (detail::t_context.armed & kEventSinks) != 0;
}
/// Per-sink views of the same mask.
inline bool enabled() { return detail::t_context.armed & kMetricsArmed; }
inline bool tracing() { return detail::t_context.armed & kTraceArmed; }
inline bool spanning() { return detail::t_context.armed & kSpansArmed; }
inline bool flight_recording() {
  return detail::t_context.armed & kFlightArmed;
}
inline bool profiling() { return detail::t_context.armed & kProfileArmed; }

/// RAII guard: installs the given instances as the calling thread's context
/// for its lifetime (nullptr selects the process-wide default, not the
/// enclosing guard's instance) and restores the previous context on exit —
/// guards nest. Everything the guarded code registers, emits or profiles
/// lands in the installed instances.
class ScopedTelemetry {
 public:
  ScopedTelemetry(Registry* reg, Tracer* trc, SpanRecorder* sp = nullptr,
                  FlightRecorder* fl = nullptr, Profiler* pr = nullptr);
  ~ScopedTelemetry();

  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  TelemetryContext prev_;
};

}  // namespace sdr::telemetry
