#include "telemetry/flight_recorder.hpp"

#include <cinttypes>
#include <cstdio>

namespace sdr::telemetry {

const char* to_string(FlightLayer layer) {
  switch (layer) {
    case FlightLayer::kSr: return "sr";
    case FlightLayer::kEc: return "ec";
    case FlightLayer::kRc: return "rc";
    case FlightLayer::kSdr: return "sdr";
  }
  return "unknown";
}

void FlightRecorder::arm(std::size_t per_conn_capacity) {
  per_conn_ = per_conn_capacity == 0 ? 1 : per_conn_capacity;
  rings_.clear();
  armed_ = true;
  detail::sync_armed();
}

void FlightRecorder::disarm() {
  armed_ = false;
  rings_.clear();
  detail::sync_armed();
}

void FlightRecorder::clear() { rings_.clear(); }

void FlightRecorder::record(FlightLayer layer, std::uint64_t conn,
                            const char* what, SimTime t, std::uint64_t msg,
                            std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) {
  if (!armed_) return;
  Ring& ring = rings_[conn];
  if (ring.buf.empty()) ring.buf.resize(per_conn_);
  FlightRecord& r = ring.buf[ring.head];
  r.t = t;
  r.layer = layer;
  r.what = what;
  r.msg = msg;
  r.a = a;
  r.b = b;
  r.c = c;
  ring.head = ring.head + 1 == ring.buf.size() ? 0 : ring.head + 1;
  if (ring.size < ring.buf.size()) {
    ++ring.size;
  } else {
    ++ring.overwritten;
  }
}

std::vector<FlightRecord> FlightRecorder::history(std::uint64_t conn) const {
  std::vector<FlightRecord> out;
  const auto it = rings_.find(conn);
  if (it == rings_.end()) return out;
  const Ring& ring = it->second;
  out.reserve(ring.size);
  const std::size_t start =
      ring.size == ring.buf.size() ? ring.head : 0;
  for (std::size_t i = 0; i < ring.size; ++i) {
    std::size_t idx = start + i;
    if (idx >= ring.buf.size()) idx -= ring.buf.size();
    out.push_back(ring.buf[idx]);
  }
  return out;
}

std::string FlightRecorder::to_json() const {
  std::string out;
  out.append("{\"connections\":[");
  char buf[256];
  bool first_conn = true;
  for (const auto& [conn, ring] : rings_) {
    if (!first_conn) out.push_back(',');
    first_conn = false;
    int n = std::snprintf(buf, sizeof(buf),
                          "{\"conn\":%" PRIu64 ",\"overwritten\":%" PRIu64
                          ",\"records\":[",
                          conn, ring.overwritten);
    out.append(buf, static_cast<std::size_t>(n));
    const std::size_t start =
        ring.size == ring.buf.size() ? ring.head : 0;
    for (std::size_t i = 0; i < ring.size; ++i) {
      std::size_t idx = start + i;
      if (idx >= ring.buf.size()) idx -= ring.buf.size();
      const FlightRecord& r = ring.buf[idx];
      n = std::snprintf(buf, sizeof(buf),
                        "%s{\"t_s\":%.9f,\"layer\":\"%s\",\"what\":\"%s\","
                        "\"msg\":%" PRIu64 ",\"a\":%" PRIu64 ",\"b\":%" PRIu64
                        ",\"c\":%" PRIu64 "}",
                        i == 0 ? "" : ",", r.t.seconds(), to_string(r.layer),
                        r.what, r.msg, r.a, r.b, r.c);
      out.append(buf, static_cast<std::size_t>(n));
    }
    out.append("]}");
  }
  out.append("]}\n");
  return out;
}

}  // namespace sdr::telemetry
