// Strongly typed simulation time.
//
// All latency/throughput math in the SDR stack and its models is carried out
// in double-precision *seconds*; the discrete-event simulator uses integer
// nanoseconds to get exact event ordering. This header provides both views
// and the conversions between them.
#pragma once

#include <compare>
#include <cstdint>
#include <limits>

namespace sdr {

/// Integer nanosecond timestamp used by the discrete-event simulator.
/// A strong type (rather than a raw int64_t) so that times and durations
/// cannot be silently mixed with packet counts or byte offsets.
struct SimTime {
  std::int64_t ns{0};

  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t nanoseconds) : ns(nanoseconds) {}

  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }
  static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9 + 0.5)};
  }
  static constexpr SimTime from_micros(double us) {
    return SimTime{static_cast<std::int64_t>(us * 1e3 + 0.5)};
  }
  static constexpr SimTime from_millis(double ms) {
    return SimTime{static_cast<std::int64_t>(ms * 1e6 + 0.5)};
  }

  constexpr double seconds() const { return static_cast<double>(ns) * 1e-9; }
  constexpr double millis() const { return static_cast<double>(ns) * 1e-6; }
  constexpr double micros() const { return static_cast<double>(ns) * 1e-3; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns + o.ns}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns - o.ns}; }
  constexpr SimTime& operator+=(SimTime o) {
    ns += o.ns;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ns -= o.ns;
    return *this;
  }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{ns * k}; }
};

/// Speed of light in fiber, used to convert inter-datacenter cable distance
/// into one-way propagation delay. The paper quotes ~6.5 ms of added RTT per
/// 1000 km, i.e. ~3.25 ms one-way per 1000 km -> ~2.0e8 m/s * (1/refractive
/// overhead); we use the standard 2/3 c fiber velocity which matches.
inline constexpr double kFiberMetersPerSecond = 2.0e8;

/// One-way propagation delay of `km` kilometers of fiber, in seconds.
constexpr double propagation_delay_s(double km) {
  return km * 1000.0 / kFiberMetersPerSecond;
}

/// Round-trip time of a link of `km` kilometers, in seconds.
constexpr double rtt_s(double km) { return 2.0 * propagation_delay_s(km); }

/// Inverse: cable distance (km) corresponding to a round-trip time.
constexpr double rtt_to_km(double rtt) {
  return rtt * kFiberMetersPerSecond / 2.0 / 1000.0;
}

}  // namespace sdr
