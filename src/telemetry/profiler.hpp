// Hot-loop profiler: wall-clock self-time attribution of simulator handler
// firings by subsystem category.
//
// The discrete-event core fires tens of millions of handlers per second;
// knowing *which subsystem* burns the cycles (channel drain? SR ACK scan?
// SDR completion batch?) is what future perf PRs aim at. Each instrumented
// handler opens a ProfScope with its category; nested scopes attribute
// *self time* — the wall clock between scope transitions goes to the
// innermost open category, so a channel drain that calls into SDR which
// calls into SR splits its wall time three ways instead of triple-counting.
//
// Clock reads are batched: one steady_clock read per scope transition,
// shared between the scope being left and the one resuming underneath —
// entering and leaving a nested scope costs two reads total, not four.
//
// Same zero-overhead-when-disabled contract as the rest of telemetry:
// `profiling()` tests a bit of the thread's armed mask (context.hpp), so a
// disarmed profiler costs one never-taken branch per instrumented handler.
// Surfaced as a `--profile` table in bench_simcore / bench_datapath.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "telemetry/context.hpp"

namespace sdr::telemetry {

enum class ProfCategory : std::uint8_t {
  kSim,          // event-core dispatch + uninstrumented handlers
  kChannel,      // channel FIFO drain / delivery
  kSr,           // selective-repeat sender/receiver handlers
  kEc,           // erasure-coding sender/receiver handlers
  kRc,           // RC transport (GBN timers, receive path)
  kSdr,          // SDR backend completion processing
  kCollectives,  // collective algorithm step handlers
  kCount,
};

const char* to_string(ProfCategory category);

class Profiler {
 public:
  struct Entry {
    std::uint64_t calls{0};
    std::uint64_t self_ns{0};
  };

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void arm();
  void disarm();
  bool armed() const { return armed_; }
  void clear();

  /// Scope transitions (used by ProfScope; callable directly in tests).
  /// enter() returns false when the nesting stack is exhausted — the time
  /// still attributes to the enclosing scope; skip the matching leave().
  bool enter(ProfCategory category);
  void leave();

  const Entry& entry(ProfCategory category) const {
    return entries_[static_cast<std::size_t>(category)];
  }
  std::uint64_t total_self_ns() const;

  /// Human-readable attribution table, categories sorted by self time.
  std::string table() const;

 private:
  static std::uint64_t now_ns();
  void attribute(std::uint64_t now);

  bool armed_{false};
  std::array<Entry, static_cast<std::size_t>(ProfCategory::kCount)> entries_{};
  static constexpr std::size_t kMaxDepth = 64;
  std::array<ProfCategory, kMaxDepth> stack_{};
  std::size_t depth_{0};
  std::uint64_t last_mark_ns_{0};
};

/// RAII category scope; no-op (one branch) when the profiler is disarmed.
class ProfScope {
 public:
  explicit ProfScope(ProfCategory category) {
    if (profiling()) engaged_ = profiler().enter(category);
  }
  ~ProfScope() {
    if (engaged_) profiler().leave();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  bool engaged_{false};
};

}  // namespace sdr::telemetry
