// The retransmission engine of Selective Repeat (paper §4.1.1), which EC's
// fallback reuses when it switches failed submessages to SR (§4.1.2). Per
// tracked stream (an SR message or one EC data submessage): the chunk-acked
// bitmap and, per chunk, a timer (backed off 2^min(retries,4), up to 25%
// jitter), a retry count and the first send time (Karn RTT samples feed
// the adaptive RTO). The owner is called back only to inject a chunk.
// Flat tables indexed by SDR slot (number % max_inflight), `stride` chunk
// entries per slot; the stored number turns away stale timers and ACKs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "reliability/ack_codec.hpp"
#include "reliability/rtt_estimator.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::reliability {

class ChunkRetransmitter {
 public:
  /// Post `len` bytes at byte `offset` of stream `number`; false if the QP
  /// refused. `retransmission` is false only for a chunk's first send.
  using InjectFn = sim::InlineFunction<
      bool(std::uint64_t number, std::size_t offset, std::size_t len,
           bool retransmission),
      sizeof(void*)>;

  enum class Send : std::uint8_t {
    kFirst,    // first transmission: the only kind that yields RTT samples
    kRecover,  // EC fallback's resend: a retransmission, not backed off
    kRetry,    // RTO or NACK: a retransmission that backs the timer off
  };

  struct Options {
    telemetry::FlightLayer layer{telemetry::FlightLayer::kSr};
    std::size_t stride{0};  // the most chunks one stream can have
    double rto_s{0.0};      // static RTO
    bool adaptive_rto{false};
    RttEstimator::Params estimator{};
  };

  ChunkRetransmitter(sim::Simulator& simulator, const core::Qp& qp,
                     const Options& options, InjectFn inject);

  double rto_s() const {
    return adaptive_ ? estimator_.rto_s() : static_rto_s_;
  }
  void set_static_rto(double rto_s) { static_rto_s_ = rto_s; }
  const RttEstimator& estimator() const { return estimator_; }
  void record_rtt_samples(telemetry::HistogramHandle h) { rtt_hist_ = h; }

  /// Track stream `number` of `bytes` bytes, every chunk unsent.
  void start(std::uint64_t number, std::size_t bytes);
  /// Cancel its timers; later timers and ACKs for `number` are ignored.
  void stop(std::uint64_t number);
  bool tracking(std::uint64_t number) const {
    const Stream& s = streams_[slot_of(number)];
    return s.live && s.number == number;
  }
  std::size_t chunks(std::uint64_t number) const {
    return streams_[slot_of(number)].chunks;
  }
  std::size_t acked(std::uint64_t number) const {
    return streams_[slot_of(number)].acked;
  }
  bool complete(std::uint64_t number) const {
    return acked(number) == chunks(number);
  }

  void send(std::uint64_t number, std::size_t chunk, Send kind);
  /// Arm the chunk's timer: RTO x backoff x jitter (one RNG draw).
  void arm(std::uint64_t number, std::size_t chunk);
  /// The chunks start travelling now (SR: the CTS arrived): RTT samples
  /// count from here, and every unacked chunk without a timer gets one.
  void start_clock(std::uint64_t number);
  /// NACK: unless acked, resend the chunk now and re-arm it.
  void retransmit(std::uint64_t number, std::size_t chunk);
  /// Returns how many chunks the ACK newly acknowledged.
  std::size_t apply_ack(std::uint64_t number, const ControlMessage& ack);

 private:
  struct Stream {
    std::uint64_t number{0};
    std::size_t bytes{0};
    double clock_s{-1.0};  // see start_clock
    std::uint32_t chunks{0};
    std::uint32_t acked{0};
    bool live{false};
  };

  std::size_t slot_of(std::uint64_t number) const {
    return static_cast<std::size_t>(number % streams_.size());
  }
  std::size_t at(std::uint64_t number, std::size_t chunk) const {
    return slot_of(number) * stride_ + chunk;
  }
  std::uint64_t& acked_word(std::uint64_t number, std::size_t chunk) {
    return acked_[slot_of(number) * words_ + (chunk >> 6)];
  }
  bool is_acked(std::uint64_t number, std::size_t chunk) {
    return (acked_word(number, chunk) >> (chunk & 63)) & 1;
  }
  void on_rto(std::uint64_t number, std::size_t chunk);
  void mark_acked(std::uint64_t number, std::size_t chunk);

  sim::Simulator& sim_;
  const core::Qp& qp_;
  telemetry::FlightLayer layer_;
  std::size_t chunk_bytes_;
  std::size_t stride_;
  std::size_t words_;  // acked-bitmap words per slot
  double static_rto_s_;
  bool adaptive_;
  RttEstimator estimator_;
  InjectFn inject_;
  std::vector<Stream> streams_;
  std::vector<std::uint64_t> acked_;
  std::vector<sim::EventId> timers_;
  // First send time; -1 until then and once retransmitted (Karn).
  std::vector<double> sent_at_s_;
  std::vector<std::uint8_t> retries_;
  Rng rng_{0x5EEDCAFE};  // timer jitter
  telemetry::HistogramHandle rtt_hist_;
};

}  // namespace sdr::reliability
