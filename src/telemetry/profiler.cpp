#include "telemetry/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <vector>

namespace sdr::telemetry {

const char* to_string(ProfCategory category) {
  switch (category) {
    case ProfCategory::kSim: return "sim";
    case ProfCategory::kChannel: return "channel";
    case ProfCategory::kSr: return "sr";
    case ProfCategory::kEc: return "ec";
    case ProfCategory::kRc: return "rc";
    case ProfCategory::kSdr: return "sdr";
    case ProfCategory::kCollectives: return "collectives";
    case ProfCategory::kCount: break;
  }
  return "unknown";
}

std::uint64_t Profiler::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Profiler::arm() {
  entries_.fill(Entry{});
  depth_ = 0;
  last_mark_ns_ = now_ns();
  armed_ = true;
  detail::sync_armed();
}

void Profiler::disarm() {
  armed_ = false;
  depth_ = 0;
  detail::sync_armed();
}

void Profiler::clear() {
  entries_.fill(Entry{});
  depth_ = 0;
  last_mark_ns_ = now_ns();
}

void Profiler::attribute(std::uint64_t now) {
  if (depth_ > 0) {
    entries_[static_cast<std::size_t>(stack_[depth_ - 1])].self_ns +=
        now - last_mark_ns_;
  }
  last_mark_ns_ = now;
}

bool Profiler::enter(ProfCategory category) {
  const std::uint64_t now = now_ns();
  attribute(now);
  ++entries_[static_cast<std::size_t>(category)].calls;
  if (depth_ == kMaxDepth) return false;
  stack_[depth_++] = category;
  return true;
}

void Profiler::leave() {
  const std::uint64_t now = now_ns();
  attribute(now);
  if (depth_ > 0) --depth_;
}

std::uint64_t Profiler::total_self_ns() const {
  std::uint64_t total = 0;
  for (const Entry& e : entries_) total += e.self_ns;
  return total;
}

std::string Profiler::table() const {
  const std::uint64_t total = total_self_ns();
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].calls != 0 || entries_[i].self_ns != 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return entries_[a].self_ns > entries_[b].self_ns;
  });
  std::string out;
  char buf[160];
  int n = std::snprintf(buf, sizeof(buf), "%-12s %12s %12s %7s %10s\n",
                        "category", "firings", "self_ms", "self%", "ns/call");
  out.append(buf, static_cast<std::size_t>(n));
  for (const std::size_t i : order) {
    const Entry& e = entries_[i];
    const double pct =
        total != 0 ? 100.0 * static_cast<double>(e.self_ns) /
                         static_cast<double>(total)
                   : 0.0;
    const double per_call =
        e.calls != 0
            ? static_cast<double>(e.self_ns) / static_cast<double>(e.calls)
            : 0.0;
    n = std::snprintf(buf, sizeof(buf),
                      "%-12s %12" PRIu64 " %12.3f %6.1f%% %10.1f\n",
                      to_string(static_cast<ProfCategory>(i)), e.calls,
                      static_cast<double>(e.self_ns) / 1e6, pct, per_call);
    out.append(buf, static_cast<std::size_t>(n));
  }
  if (order.empty()) out.append("(no profiled handler fired)\n");
  return out;
}

}  // namespace sdr::telemetry
