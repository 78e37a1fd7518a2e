// Flight recorder: per-connection ring of the last-N protocol state
// transitions, snapshot-dumpable as JSON for postmortems.
//
// When an sdrcheck oracle fails, the seed repro line says *which* run broke;
// the flight recorder says *what the protocol was doing* right before: SR
// window fill and RTO decisions, EC repair/fallback state, RC ePSN motion.
// Each connection (keyed by its control/transport QP number) keeps a bounded
// ring of tagged records — old transitions are overwritten, so a dump is
// always "the last N things each connection did", which is exactly the
// postmortem view.
//
// Records are PODs with a static-string tag and three generic operand
// slots. The recorder is one sink of the telemetry event stream
// (event.hpp): the routing table there names each event's tag and operands,
// and DESIGN.md §4f documents their meaning.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "telemetry/context.hpp"

namespace sdr::telemetry {

enum class FlightLayer : std::uint8_t { kSr, kEc, kRc, kSdr };

const char* to_string(FlightLayer layer);

struct FlightRecord {
  SimTime t{};
  FlightLayer layer{FlightLayer::kSr};
  const char* what{""};  // static string literal at the record site
  std::uint64_t msg{0};
  std::uint64_t a{0};
  std::uint64_t b{0};
  std::uint64_t c{0};
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Starts accepting records; each connection's ring holds the last
  /// `per_conn_capacity` transitions (ring storage is allocated lazily on a
  /// connection's first record — arming itself allocates nothing).
  void arm(std::size_t per_conn_capacity = 128);
  void disarm();
  bool armed() const { return armed_; }
  void clear();

  void record(FlightLayer layer, std::uint64_t conn, const char* what,
              SimTime t, std::uint64_t msg, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0);

  std::size_t connections() const { return rings_.size(); }
  std::size_t per_conn_capacity() const { return per_conn_; }
  /// A connection's surviving records, oldest first.
  std::vector<FlightRecord> history(std::uint64_t conn) const;

  /// {"connections":[{"conn":N,"overwritten":K,"records":[...]}]} with
  /// connections in ascending id order (deterministic dumps).
  std::string to_json() const;

 private:
  struct Ring {
    std::vector<FlightRecord> buf;
    std::size_t head{0};  // next write position
    std::size_t size{0};
    std::uint64_t overwritten{0};
  };

  bool armed_{false};
  std::size_t per_conn_{128};
  std::map<std::uint64_t, Ring> rings_;  // ordered: deterministic JSON
};

}  // namespace sdr::telemetry
