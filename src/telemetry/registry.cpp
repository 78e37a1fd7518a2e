#include "telemetry/registry.hpp"

#include <cstdio>
#include <utility>

#include "common/logging.hpp"

namespace sdr::telemetry {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

void Registry::enable() {
  enabled_ = true;
  detail::sync_armed();
  SDR_INFO("telemetry registry enabled");
}

void Registry::disable() {
  SDR_INFO("telemetry registry disabled (%zu metrics dropped)",
           entries_.size());
  clear();
  enabled_ = false;
  detail::sync_armed();
}

void Registry::clear() {
  entries_.clear();
  by_name_.clear();
  instance_counters_.clear();
  ++generation_;
}

Counter Registry::counter(const std::string& name) {
  if (!enabled_) return Counter{};
  if (const Entry* e = find(name); e != nullptr && e->owned_counter) {
    return Counter{e->owned_counter.get()};
  }
  return own_counter(add_entry(name, MetricKind::kCounter));
}

Gauge Registry::gauge(const std::string& name) {
  if (!enabled_) return Gauge{};
  if (const Entry* e = find(name); e != nullptr && e->owned_gauge) {
    return Gauge{e->owned_gauge.get()};
  }
  return own_gauge(add_entry(name, MetricKind::kGauge));
}

HistogramHandle Registry::histogram(const std::string& name, double min_value,
                                    double max_value) {
  if (!enabled_) return HistogramHandle{};
  if (const Entry* e = find(name); e != nullptr && e->owned_hist) {
    return HistogramHandle{e->owned_hist.get()};
  }
  return own_histogram(add_entry(name, MetricKind::kHistogram), min_value,
                       max_value);
}

Counter Registry::own_counter(Entry& e) {
  e.owned_counter = std::make_unique<std::uint64_t>(0);
  e.counter = e.owned_counter.get();
  return Counter{e.owned_counter.get()};
}

Gauge Registry::own_gauge(Entry& e) {
  e.owned_gauge = std::make_unique<double>(0.0);
  return Gauge{e.owned_gauge.get()};
}

HistogramHandle Registry::own_histogram(Entry& e, double min_value,
                                        double max_value) {
  e.owned_hist = std::make_unique<Histogram>(min_value, max_value);
  e.hist = e.owned_hist.get();
  return HistogramHandle{e.owned_hist.get()};
}

std::string Registry::instance_name(const std::string& base) {
  const std::uint64_t idx = instance_counters_[base]++;
  return base + std::to_string(idx);
}

bool Registry::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr || e->counter == nullptr) return 0;
  return *e->counter;
}

double Registry::gauge_value(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) return 0.0;
  return entry_value(*e);
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  const Entry* e = find(name);
  return e != nullptr ? e->hist : nullptr;
}

double Registry::entry_value(const Entry& e) const {
  switch (e.kind) {
    case MetricKind::kCounter:
      return e.counter != nullptr ? static_cast<double>(*e.counter) : 0.0;
    case MetricKind::kGauge:
      if (e.gauge_fn) return e.gauge_fn();
      return e.owned_gauge ? *e.owned_gauge : 0.0;
    case MetricKind::kHistogram:
      return e.hist != nullptr ? static_cast<double>(e.hist->count()) : 0.0;
  }
  return 0.0;
}

void Registry::flatten(std::vector<FlatMetric>& out) const {
  for (const Entry& e : entries_) {
    if (e.kind == MetricKind::kHistogram && e.hist != nullptr) {
      out.push_back({e.name + ".count", static_cast<double>(e.hist->count())});
      out.push_back({e.name + ".mean", e.hist->mean()});
      out.push_back({e.name + ".p50", e.hist->percentile(50.0)});
      out.push_back({e.name + ".p99", e.hist->percentile(99.0)});
      out.push_back({e.name + ".p999", e.hist->percentile(99.9)});
      out.push_back({e.name + ".max", e.hist->max()});
    } else {
      out.push_back({e.name, entry_value(e)});
    }
  }
}

std::string Registry::to_jsonl() const {
  std::vector<FlatMetric> flat;
  flatten(flat);
  std::string out;
  out.reserve(flat.size() * 64);
  char buf[512];
  for (const FlatMetric& m : flat) {
    std::snprintf(buf, sizeof(buf), "{\"metric\":\"%s\",\"value\":%.10g}\n",
                  m.name.c_str(), m.value);
    out += buf;
  }
  return out;
}

Registry::Entry& Registry::add_entry(std::string name, MetricKind kind) {
  by_name_[name] = entries_.size();
  Entry& e = entries_.emplace_back();
  e.name = std::move(name);
  e.kind = kind;
  return e;
}

void Registry::freeze_entries(std::uint64_t generation,
                              const std::vector<std::size_t>& positions) {
  // Entries from before a clear() are gone; their positions name others.
  if (generation != generation_) return;
  for (const std::size_t position : positions) {
    Entry& e = entries_[position];
    // Copy the last value out of the component that is about to die, so the
    // metric survives for end-of-run export (bench --telemetry-out dumps
    // after the stacks are destroyed). Owned storage is already safe.
    switch (e.kind) {
      case MetricKind::kCounter:
        if (!e.owned_counter && e.counter != nullptr) {
          e.owned_counter = std::make_unique<std::uint64_t>(*e.counter);
          e.counter = e.owned_counter.get();
        }
        break;
      case MetricKind::kGauge:
        if (e.gauge_fn) {
          e.owned_gauge = std::make_unique<double>(e.gauge_fn());
          e.gauge_fn = nullptr;
        }
        break;
      case MetricKind::kHistogram:
        if (!e.owned_hist && e.hist != nullptr) {
          e.owned_hist = std::make_unique<Histogram>(*e.hist);
          e.hist = e.owned_hist.get();
        }
        break;
    }
  }
}

const Registry::Entry* Registry::find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return &entries_[it->second];
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

Scope::Scope(Registry& registry, std::string prefix)
    : registry_(registry.enabled() ? &registry : nullptr),
      prefix_(std::move(prefix)) {}

Scope::Scope(Scope&& other) noexcept { *this = std::move(other); }

Scope& Scope::operator=(Scope&& other) noexcept {
  if (this != &other) {
    release();
    registry_ = std::exchange(other.registry_, nullptr);
    prefix_ = std::move(other.prefix_);
    generation_ = other.generation_;
    positions_ = std::exchange(other.positions_, {});
  }
  return *this;
}

Scope::~Scope() { release(); }

void Scope::release() {
  if (registry_ != nullptr && !positions_.empty()) {
    registry_->freeze_entries(generation_, positions_);
  }
  registry_ = nullptr;
  positions_.clear();
}

Registry::Entry& Scope::add(const char* name, MetricKind kind) {
  // Positions from before a clear() name nothing of ours any more.
  if (generation_ != registry_->generation_) {
    generation_ = registry_->generation_;
    positions_.clear();
  }
  positions_.push_back(registry_->entries_.size());
  std::string full = prefix_;
  full += '.';
  full += name;
  return registry_->add_entry(std::move(full), kind);
}

Counter Scope::counter(const char* name) {
  if (registry_ == nullptr) return Counter{};
  return Registry::own_counter(add(name, MetricKind::kCounter));
}

Gauge Scope::gauge(const char* name) {
  if (registry_ == nullptr) return Gauge{};
  return Registry::own_gauge(add(name, MetricKind::kGauge));
}

HistogramHandle Scope::histogram(const char* name, double min_value,
                                 double max_value) {
  if (registry_ == nullptr) return HistogramHandle{};
  return Registry::own_histogram(add(name, MetricKind::kHistogram), min_value,
                                 max_value);
}

void Scope::bind_counter(const char* name, const std::uint64_t* value) {
  if (registry_ != nullptr) add(name, MetricKind::kCounter).counter = value;
}

void Scope::bind_gauge(const char* name, std::function<double()> fn) {
  if (registry_ != nullptr) add(name, MetricKind::kGauge).gauge_fn = std::move(fn);
}

void Scope::bind_histogram(const char* name, const Histogram* hist) {
  if (registry_ != nullptr) add(name, MetricKind::kHistogram).hist = hist;
}

}  // namespace sdr::telemetry
