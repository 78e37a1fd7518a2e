#include "telemetry/context.hpp"

#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace sdr::telemetry {

namespace detail {
thread_local constinit TelemetryContext t_context{};
}  // namespace detail

namespace {

struct Defaults {
  Registry registry;
  Tracer tracer;
  SpanRecorder spans;
  FlightRecorder flight;
  Profiler profiler;
};

Defaults& defaults() {
  static Defaults instance;
  return instance;
}

}  // namespace

Registry& registry() {
  Registry* r = detail::t_context.registry;
  return r != nullptr ? *r : defaults().registry;
}

Tracer& tracer() {
  Tracer* t = detail::t_context.tracer;
  return t != nullptr ? *t : defaults().tracer;
}

SpanRecorder& spans() {
  SpanRecorder* s = detail::t_context.spans;
  return s != nullptr ? *s : defaults().spans;
}

FlightRecorder& flight() {
  FlightRecorder* f = detail::t_context.flight;
  return f != nullptr ? *f : defaults().flight;
}

Profiler& profiler() {
  Profiler* p = detail::t_context.profiler;
  return p != nullptr ? *p : defaults().profiler;
}

void detail::sync_armed() {
  std::uint8_t armed = 0;
  if (registry().enabled()) armed |= kMetricsArmed;
  if (tracer().armed()) armed |= kTraceArmed;
  if (spans().armed()) armed |= kSpansArmed;
  if (flight().armed()) armed |= kFlightArmed;
  if (profiler().armed()) armed |= kProfileArmed;
  t_context.armed = armed;
}

ScopedTelemetry::ScopedTelemetry(Registry* reg, Tracer* trc, SpanRecorder* sp,
                                 FlightRecorder* fl, Profiler* pr)
    : prev_(detail::t_context) {
  detail::t_context = TelemetryContext{reg, trc, sp, fl, pr, 0};
  detail::sync_armed();
}

ScopedTelemetry::~ScopedTelemetry() {
  detail::t_context = prev_;
  // Sinks may have been armed or disarmed inside the scope.
  detail::sync_armed();
}

}  // namespace sdr::telemetry
