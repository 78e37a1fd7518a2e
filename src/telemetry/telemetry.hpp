// Umbrella header for the telemetry subsystem.
//
//   emit()      — the one event stream: every protocol transition is one
//                 typed Event, routed by one table to the three sinks below
//   tracer()    — packet-lifecycle event ring with JSONL export
//   spans()     — causal span tree (msg -> chunk -> attempt) + Perfetto JSON
//   flight()    — per-connection ring of protocol state transitions
//   registry()  — hierarchical counters/gauges/histograms, sampled over time
//   profiler()  — wall-clock self-time attribution by subsystem category
//   Sampler     — periodic registry snapshots -> CSV/JSONL time series
//
// Hot-path contract: one thread-local armed mask (context.hpp) holds a bit
// per sink. An instrumented transition is one site,
// `if (telemetry::armed()) telemetry::emit({...});`, whose guard tests the
// event-sink bits before any event field is evaluated; ProfScope and
// component registration test their own bits of the same mask. With every
// sink disarmed each site costs one never-taken branch and no allocation.
//
// Typical bring-up (before constructing the instrumented stack):
//
//   telemetry::registry().enable();
//   telemetry::tracer().arm();
//   telemetry::Sampler sampler(telemetry::registry(), /*period_s=*/1e-3);
//   sampler.attach(sim);
//
// The accessors resolve per thread: ScopedTelemetry (context.hpp) installs
// private instances as the calling thread's context, which is how the sweep
// engine (src/sweep/) gives every trial fully isolated telemetry with no
// shared globals.
#pragma once

#include "telemetry/context.hpp"
#include "telemetry/event.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"
