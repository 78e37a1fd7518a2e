// Unified sim-time metrics registry.
//
// The paper's evaluation is only explainable with a time dimension: mean vs
// p99.9 completion (Figs 10, 13), SR's RTO-driven slowdown peak, EC's
// repair-vs-fallback behaviour. Before this registry every component kept an
// ad-hoc stats struct (`SrSenderStats`, `SdrQpStats`, `ChannelStats`) with
// no common naming and no way to snapshot them over a transfer. The registry
// gives all of them one hierarchically named namespace
// ("sim.channel0.dropped_packets", "reliability.sr.sender0.retransmissions")
// that the periodic Sampler can turn into a time series and benches can
// export with --telemetry-out.
//
// Zero-overhead-when-disabled contract:
//  * Components keep bumping their own stats structs exactly as before; the
//    registry *binds* those fields by pointer (Prometheus-collector style)
//    and only reads them at snapshot/sample/export time. The packet-rate hot
//    path gains no instruction when telemetry is off AND none when it is on.
//  * Owned metrics (for components without a stats struct) hand out
//    pre-resolved handles: one null check + one increment when enabled, the
//    same null check alone when disabled.
//  * Registration happens at component construction and only when the
//    registry is enabled — enable telemetry BEFORE building the stack.
//
// Threading: the registry serves the single-threaded simulator path (like
// the rest of the sim stack); the threaded DPA engine keeps its own atomics.
// The "global" accessors registry()/tracer() are per *thread*: each thread
// resolves them to its own installed instance (ScopedTelemetry,
// context.hpp), falling back to the process-wide default. The sweep engine
// installs one private Registry+Tracer per trial, so parallel trials never
// share telemetry state and registration/freeze need no locks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "telemetry/context.hpp"

namespace sdr::telemetry {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Pre-resolved counter handle: one branch + one increment when live,
/// one (perfectly predicted) branch when inert.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) {
    if (slot_ != nullptr) *slot_ += n;
  }
  bool live() const { return slot_ != nullptr; }
  std::uint64_t value() const { return slot_ != nullptr ? *slot_ : 0; }

 private:
  friend class Registry;
  friend class Scope;
  explicit Counter(std::uint64_t* slot) : slot_(slot) {}
  std::uint64_t* slot_{nullptr};
};

/// Pre-resolved gauge handle (owned storage; external gauges are read-only
/// callbacks bound via Scope::bind_gauge).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (slot_ != nullptr) *slot_ = v;
  }
  void add(double v) {
    if (slot_ != nullptr) *slot_ += v;
  }
  bool live() const { return slot_ != nullptr; }
  double value() const { return slot_ != nullptr ? *slot_ : 0.0; }

 private:
  friend class Registry;
  friend class Scope;
  explicit Gauge(double* slot) : slot_(slot) {}
  double* slot_{nullptr};
};

/// Pre-resolved histogram handle; records are dropped when inert.
class HistogramHandle {
 public:
  HistogramHandle() = default;
  void record(double v) {
    if (hist_ != nullptr) hist_->record(v);
  }
  bool live() const { return hist_ != nullptr; }
  const Histogram* get() const { return hist_; }

 private:
  friend class Registry;
  friend class Scope;
  explicit HistogramHandle(Histogram* hist) : hist_(hist) {}
  Histogram* hist_{nullptr};
};

/// One flattened metric value (histograms expand into derived columns).
struct FlatMetric {
  std::string name;
  double value{0.0};
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void enable();
  /// Disables and drops every metric and instance-name counter (metrics may
  /// reference component fields that are about to die).
  void disable();
  bool enabled() const { return enabled_; }
  void clear();

  // ---- owned metrics (registry-allocated storage) ----
  /// Re-requesting an existing name returns a handle to the same slot.
  /// Inert handles are returned while the registry is disabled.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  HistogramHandle histogram(const std::string& name, double min_value = 1e-9,
                            double max_value = 1e6);

  /// "sim.channel" -> "sim.channel0", "sim.channel1", ... (per-base running
  /// index, reset by clear/disable). Deterministic given deterministic
  /// construction order, which the seeded sims guarantee.
  std::string instance_name(const std::string& base);

  // ---- queries / export ----
  std::size_t size() const { return entries_.size(); }
  bool has(const std::string& name) const;
  /// Value of a counter (owned or bound); 0 if absent.
  std::uint64_t counter_value(const std::string& name) const;
  /// Value of a gauge (owned or bound); 0.0 if absent.
  double gauge_value(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Flatten every metric to (name, value) in registration order.
  /// Histograms expand to .count/.mean/.p50/.p99/.p999/.max.
  void flatten(std::vector<FlatMetric>& out) const;

  /// One JSON object per metric, one per line.
  std::string to_jsonl() const;

 private:
  friend class Scope;

  struct Entry {
    std::string name;
    MetricKind kind{MetricKind::kCounter};
    // Exactly one of the following groups is populated.
    const std::uint64_t* counter{nullptr};  // external or owned_counter.get()
    std::unique_ptr<std::uint64_t> owned_counter;
    std::function<double()> gauge_fn;  // external gauge
    std::unique_ptr<double> owned_gauge;
    const Histogram* hist{nullptr};
    std::unique_ptr<Histogram> owned_hist;
  };

  double entry_value(const Entry& e) const;
  /// Appends an empty entry (valid until the next append).
  Entry& add_entry(std::string name, MetricKind kind);
  // Give `e` registry-owned storage and hand out its handle.
  static Counter own_counter(Entry& e);
  static Gauge own_gauge(Entry& e);
  static HistogramHandle own_histogram(Entry& e, double min_value,
                                       double max_value);
  /// Freezes the entries at `positions`, if they belong to `generation`.
  void freeze_entries(std::uint64_t generation,
                      const std::vector<std::size_t>& positions);
  const Entry* find(const std::string& name) const;

  bool enabled_{false};
  /// Bumped by clear(): entries only ever append within one generation, so
  /// a position plus its generation names one entry for good, and a Scope
  /// that outlives a clear() can tell its positions now name others.
  std::uint64_t generation_{0};
  std::vector<Entry> entries_;  // registration order (export determinism)
  std::unordered_map<std::string, std::size_t> by_name_;
  std::unordered_map<std::string, std::uint64_t> instance_counters_;
};

/// RAII registration scope: a component constructs one with its hierarchical
/// prefix and binds its stats fields / registers owned metrics through it.
/// When the component (and thus the scope) dies, bound metrics are *frozen*:
/// their final values are copied into registry-owned storage, so end-of-run
/// exports (bench --telemetry-out) still see every component that ever
/// lived, and no dangling pointer survives. A scope built while the
/// registry is disabled is inert.
class Scope {
 public:
  Scope() = default;
  Scope(Registry& registry, std::string prefix);
  Scope(Scope&& other) noexcept;
  Scope& operator=(Scope&& other) noexcept;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope();

  bool active() const { return registry_ != nullptr; }
  const std::string& prefix() const { return prefix_; }

  Counter counter(const char* name);
  Gauge gauge(const char* name);
  HistogramHandle histogram(const char* name, double min_value = 1e-9,
                            double max_value = 1e6);

  /// Bind an existing stats-struct field; the registry reads it at
  /// sample/export time. The pointee must outlive this scope (declare the
  /// scope after the stats struct so it is destroyed first).
  void bind_counter(const char* name, const std::uint64_t* value);
  void bind_gauge(const char* name, std::function<double()> fn);
  void bind_histogram(const char* name, const Histogram* hist);

 private:
  void release();
  /// Appends "<prefix>.<name>" to the registry and remembers its position.
  Registry::Entry& add(const char* name, MetricKind kind);

  Registry* registry_{nullptr};
  std::string prefix_;
  // Positions of this scope's entries, all from registry generation_.
  std::uint64_t generation_{0};
  std::vector<std::size_t> positions_;
};

}  // namespace sdr::telemetry
