// Allocation counting and per-layer attribution for the benchmark.
//
// Every global operator-new call in the benchmark executables bumps one
// process-wide counter (alloc_hook.cpp). While attribution is armed, each
// call is additionally charged to the layer of the innermost stack frame
// that belongs to a layer: the unwinder walks outward from operator new,
// looks every return address up in the executable's own symbol table, and
// stops at the first function whose mangled name places it in a layer
// namespace (sdr::sim, sdr::verbs, sdr::core, sdr::reliability, ...).
// Frames of shared helpers (std:: templates, sdr::Bitmap, sdr::common) are
// skipped, so a vector growth inside EcSender::write is charged to ec, not
// to std::vector. Unwinding on every allocation is slow, so attribution
// runs in its own repetition, never in a timed one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace repobench {

enum class Layer : std::uint8_t {
  kSim,          // sdr::sim (event core, drop models)
  kChannel,      // sdr::sim::Channel / DuplexLink
  kVerbs,        // sdr::verbs (QP, CQ, NIC, NIC model, fabric)
  kSdr,          // sdr::core (SDR engine, message table)
  kSr,           // sdr::reliability::SrSender / SrReceiver
  kEc,           // sdr::reliability::EcSender / EcReceiver
  kReliability,  // the rest of sdr::reliability (channel, control link)
  kCodec,        // sdr::ec (erasure codecs)
  kFleet,        // sdr::fleet
  kCollectives,  // sdr::collectives
  kTelemetry,    // sdr::telemetry
  kMisc,         // sdr::{dpa,model,check,sweep}
  kBench,        // the benchmark's own code
  kNone,         // no layer frame on the stack
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
using LayerCounts = std::array<std::uint64_t, kLayerCount>;

const char* layer_name(Layer layer);

/// Layer of a mangled function name, or kNone when the function is a shared
/// helper that attribution should look past. Exposed for the self-test.
Layer classify_symbol(std::string_view mangled);

/// Global operator-new calls made so far by this process.
std::uint64_t alloc_count();

/// Loads the executable's symbol table (once). False when it cannot be read
/// (stripped binary); attribution then charges everything to kNone.
bool attribution_available();

/// Zero the per-layer counts and start charging allocations to layers.
void attribution_start();
/// Stop charging; returns the counts since attribution_start().
LayerCounts attribution_stop();

namespace detail {
/// Called by the operator-new replacements in alloc_hook.cpp.
void note_alloc();
}  // namespace detail

}  // namespace repobench
