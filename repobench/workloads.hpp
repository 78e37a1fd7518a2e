// The benchmark's workloads, each driven only through its layers' public
// APIs: fleet::run_fleet for the two fleets; verbs::make_connected_pair,
// core::Context/Qp, reliability::ControlLink and EcSender/EcReceiver over
// an ec::ErasureCodec for bulk_ec. Each call returns one repetition's
// simulated figures (a pure function of the seed) and its host cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_probe.hpp"
#include "ec/codec.hpp"
#include "fleet/fleet.hpp"

namespace repobench {

/// Figures computed inside the simulation. They depend on the seed alone,
/// so every repetition of one seed must reproduce them bit for bit.
struct SimFigures {
  std::uint64_t posted{0};
  std::uint64_t completed{0};    // delivered and verified
  std::uint64_t failed{0};       // receiver error, cut off, or wrong bytes
  std::uint64_t wrong_bytes{0};  // delivered with a payload mismatch
  std::uint64_t digest{0};
  std::uint64_t useful_bytes{0};  // payload bytes delivered and verified
  double makespan_s{0.0};         // simulated time of the last delivery
  double p50_ms{0.0};            // completion time from when a message was due
  double p99_ms{0.0};
  // Fleet only.
  std::uint64_t peak_concurrent{0};
  std::uint64_t retransmissions{0};
  double smallop_p99_ms{0.0};
  double bulk_p99_ms{0.0};
  double collective_p99_ms{0.0};

  bool operator==(const SimFigures&) const = default;
};

struct RepResult {
  SimFigures sim;
  double run_s{0.0};          // host seconds of the message loop
  std::uint64_t allocs{0};    // operator-new calls during run_s
  /// bulk_ec: delivered messages per loop second over successive windows
  /// of kRateWindow deliveries (the first, ramp-up window is left out).
  std::vector<double> window_rates;
  LayerCounts layer_allocs{};  // filled when attribution was requested
  std::vector<std::string> violations;  // failed correctness checks
};

/// Host monotonic clock in seconds.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- fleets -------------------------------------------------------------

/// fleet_ec / fleet_sr: FleetConfig::defaults() (4 DCs x 64 endpoints,
/// Poisson small-op + Zipf bulk tenants, ring collective) at 3750 km and
/// p_drop 1e-3 under `scheme`.
sdr::fleet::FleetConfig fleet_config(sdr::fleet::Scheme scheme,
                                     std::uint64_t seed);

/// The same fleet and plan with the collective off and a zero horizon:
/// run_fleet builds every NIC, link, QP, message table, MR, buffer and
/// control link of the real run, then stops before the first arrival and
/// tears it all down. The collective is off because its first ring step is
/// posted during the build; its four ring edges are replaced by four
/// small-op connections on the endpoints it would have used.
sdr::fleet::FleetConfig fleet_setup_config(sdr::fleet::Scheme scheme,
                                           std::uint64_t seed);

/// One run_fleet() call. run_s is its whole wall time (set-up included;
/// the caller subtracts the measured set-up) and allocs all its allocations.
RepResult run_fleet_rep(const sdr::fleet::FleetConfig& config,
                        bool attribute = false);

/// One run_fleet() call on a fleet_setup_config(); checks that it posted
/// nothing and leaked nothing.
RepResult fleet_setup_rep(const sdr::fleet::FleetConfig& config,
                          bool attribute = false);

// ---- bulk_ec ------------------------------------------------------------

inline constexpr double kBulkBandwidthBps = 100e9;
inline constexpr double kBulkDistanceKm = 1000.0;
inline constexpr double kBulkPDrop = 1e-3;
inline constexpr std::size_t kBulkK = 32;
inline constexpr std::size_t kBulkM = 8;
inline constexpr std::size_t kBulkChunkBytes = 64 * 1024;
/// One RS(32,8) data submessage: k chunks, 2 MiB.
inline constexpr std::size_t kBulkSubmessageBytes = kBulkK * kBulkChunkBytes;
/// Messages are 1, 2 or 3 whole submessages: 2, 4 or 6 MiB.
inline constexpr std::size_t kBulkMaxMsgBytes = 3 * kBulkSubmessageBytes;
inline constexpr std::size_t kBulkWindow = 4;      // closed-loop messages in flight
inline constexpr std::size_t kBulkMessages = 1000;  // per repetition
inline constexpr std::size_t kRateWindow = 100;

/// Size of message `seq` of a run seeded `seed`. Each block of three
/// messages holds 2, 4 and 6 MiB once each, in a seeded order: the size
/// mix, and with it the work per message, is the same for every seed; only
/// the order (and so the pipeline) differs.
std::size_t bulk_msg_bytes(std::uint64_t seed, std::uint64_t seq);

/// The application's message buffers, one send and one receive slot per
/// window position. Allocated once and reused by every repetition, like
/// the buffers of a long-lived application; not part of set-up.
struct BulkBuffers {
  std::vector<std::uint8_t> send =
      std::vector<std::uint8_t>(kBulkWindow * kBulkMaxMsgBytes);
  std::vector<std::uint8_t> recv =
      std::vector<std::uint8_t>(kBulkWindow * kBulkMaxMsgBytes);
};

/// Builds the bulk_ec stack (link, NICs, SDR QPs, MRs over `buffers`,
/// control links, EC endpoints) and tears it down again; returns the host
/// seconds the build took.
double bulk_setup_rep(std::uint64_t seed, const sdr::ec::ErasureCodec& codec,
                      BulkBuffers& buffers);

/// One bulk_ec repetition over `codec`: build the stack (untimed), push
/// `messages` closed-loop messages through it (run_s, allocs), verify every
/// delivered byte against its seeded pattern. Payload fill and check time
/// is excluded from run_s. The receive buffers are zeroed first, so bytes
/// left by an earlier repetition of the same seed cannot pass.
RepResult run_bulk_rep(std::uint64_t seed, const sdr::ec::ErasureCodec& codec,
                       BulkBuffers& buffers,
                       std::size_t messages = kBulkMessages,
                       bool attribute = false);

}  // namespace repobench
