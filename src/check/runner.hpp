// Scenario execution arms for the sdrcheck harness.
//
// Each arm runs one Scenario end to end through a different reliability
// stack on a fresh Simulator + NIC pair + DuplexLink:
//
//   * SR arm — sim -> verbs -> SDR core -> SrSender/SrReceiver (RTO or
//     NACK flavor per the scenario, adaptive RTO and mid-flight RTO
//     perturbations included),
//   * EC arm — same data path under EcSender/EcReceiver (Reed-Solomon with
//     SR fallback; message lengths padded to whole submessages),
//   * RC arm — the hardware-reliability baseline: raw RC verbs QPs
//     (go-back-N or selective repeat) carrying the same bytes.
//
// Every arm checks its own per-run oracles (completion by deadline,
// byte-exact delivery, pool/event leaks at teardown, trace monotonicity,
// scripted-drop consumption; the RC arm additionally checks CQE/ePSN
// ordering) and returns the delivered bytes so check.cpp can run the
// differential SR == EC == RC comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "telemetry/trace.hpp"

namespace sdr::check {

struct RunnerOptions {
  /// Arm a private per-arm tracer; the trace feeds the monotonicity oracle
  /// and the failing-timeline rendering.
  bool capture_trace{true};
  std::size_t trace_capacity{1u << 13};
  /// How many trailing trace events to render into ArmResult::timeline on
  /// failure.
  std::size_t timeline_tail{40};
  /// Arm a private per-arm flight recorder; its JSON dump lands in
  /// ArmResult::flight_json (postmortems next to the seed repro line).
  bool capture_flight{false};
  std::size_t flight_capacity{128};
  /// Arm a private per-arm span recorder; the arm's Chrome trace events
  /// land in ArmResult::chrome_events with process ids offset by
  /// span_pid_base (so several arms merge into one Perfetto document).
  bool capture_spans{false};
  std::size_t span_capacity{1u << 14};
  int span_pid_base{0};
};

struct ArmResult {
  std::string name;
  /// Oracle violations; empty means the arm passed.
  std::vector<std::string> failures;
  /// Delivered bytes, messages concatenated in post order (EC padding
  /// stripped) — input to the cross-arm differential oracle.
  std::vector<std::uint8_t> received;
  /// Per-message completion times (sim seconds), -1 when never completed.
  std::vector<double> done_at_s;
  std::uint64_t retransmissions{0};
  /// The packet-lifecycle trace, oldest first (capture_trace runs only).
  std::vector<telemetry::TraceEvent> trace;
  /// Rendered tail of the packet-lifecycle trace; filled on failure only.
  std::string timeline;
  /// Flight-recorder JSON dump of this arm (capture_flight runs only).
  std::string flight_json;
  /// Chrome trace events of this arm (capture_spans runs only) — bare
  /// comma-separated objects, combine via SpanRecorder::wrap_chrome_events.
  std::string chrome_events;

  bool ok() const { return failures.empty(); }
};

ArmResult run_sr_arm(const Scenario& s, const RunnerOptions& opts);
ArmResult run_ec_arm(const Scenario& s, const RunnerOptions& opts);
ArmResult run_rc_arm(const Scenario& s, const RunnerOptions& opts);

/// The deterministic payload pattern for message `index` of scenario-seed
/// `seed` (shared by all arms so differential comparison is meaningful).
std::vector<std::uint8_t> message_pattern(std::uint64_t seed,
                                          std::size_t index,
                                          std::size_t bytes);

}  // namespace sdr::check
