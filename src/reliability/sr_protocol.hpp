// Executable Selective Repeat reliability over the SDR API (paper §4.1.1).
//
// Sender: streams message chunks through SDR streaming sends; every chunk
// carries a retransmission timeout RTO = RTT + alpha*RTT; expired chunks are
// re-injected with send_stream_continue (the retransmission use case the
// streaming API exists for). ACKs remove acknowledged chunks from the
// retransmission queue.
//
// Receiver: reacts to chunk-bitmap completions (the event-driven analog of
// polling the SDR bitmap), periodically sending ACKs that encode the bitmap
// as a cumulative ACK plus a selective window. With NACK enabled, gaps
// observed in the bitmap trigger immediate negative acknowledgments, cutting
// drop recovery to ~1 RTT.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bitmap.hpp"
#include "common/status.hpp"
#include "reliability/ack_codec.hpp"
#include "reliability/chunk_retransmitter.hpp"
#include "reliability/control_link.hpp"
#include "reliability/profile.hpp"
#include "reliability/rtt_estimator.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::reliability {

struct SrProtoConfig {
  /// Chunk retransmission timeout. The paper sets RTO = RTT + alpha*RTT;
  /// the "SR RTO" evaluation scenario corresponds to 3 RTT.
  double rto_s{0.075};
  /// Receiver ACK cadence.
  double ack_interval_s{0.005};
  /// Selective-ACK window: 64-bit words following the cumulative point.
  /// "As much as fits in the ACK payload" (paper §4.1.1): 64 words cover
  /// 4096 chunks (512 B on the wire) — undersizing the window makes the
  /// sender spuriously retransmit received-but-unacknowledged chunks.
  std::size_t selective_window_words{64};
  /// Enable receiver-side NACKs on bitmap gaps.
  bool nack_enabled{false};
  /// A gap must be at least this many chunks old (in completions) to NACK.
  std::size_t nack_gap_threshold{2};
  /// Re-NACK suppression interval (seconds); ~1 RTT is sensible.
  double nack_holdoff_s{0.025};
  /// How many times the receiver repeats the final ACK (guards against
  /// control-path drops after recv_complete).
  std::size_t final_ack_repeats{3};
  /// Receiver-side CTS retry pace. The CTS is a single unreliable datagram
  /// and the sender arms no timers until it arrives — a lost CTS wedges
  /// the message forever. When > 0, the receiver re-sends the CTS every
  /// cts_retry_s until the first data chunk lands (a few RTTs is a good
  /// pace: long enough that an in-flight first chunk arrives first, so
  /// retries only fire for a genuinely lost CTS). 0 keeps the paper's
  /// single-CTS handshake.
  double cts_retry_s{0.0};
  /// Adaptive RTO (paper §4.1.1 "RTO tuning"): estimate the RTO from
  /// per-chunk acknowledgment RTT samples (RFC 6298 / Karn) instead of
  /// using the static rto_s. rto_s still seeds the initial timeout.
  bool adaptive_rto{false};
};

struct SrSenderStats {
  std::uint64_t messages{0};
  std::uint64_t chunks_sent{0};
  std::uint64_t retransmissions{0};
  std::uint64_t acks_received{0};
  std::uint64_t nacks_received{0};
};

class SrSender {
 public:
  using DoneFn = std::function<void(const Status&)>;

  /// The control link must already be connected to the receiver's link and
  /// is consumed exclusively by this sender (its receive callback is set).
  SrSender(sim::Simulator& simulator, core::Qp& qp, ControlLink& control,
           const LinkProfile& profile, SrProtoConfig config);

  /// Reliably deliver [data, data+length) into the receiver's next posted
  /// buffer. Buffer must stay alive until `done` fires.
  Status write(const std::uint8_t* data, std::size_t length, DoneFn done);

  /// Mid-flight RTO perturbation (used by the tuner and the conformance
  /// harness): replaces the static RTO for timers armed from now on.
  /// Already-armed chunk timers keep their old deadline — exactly the race
  /// the harness wants to explore. No effect while adaptive_rto is on.
  void set_static_rto(double rto_s) { retx_.set_static_rto(rto_s); }

  const SrSenderStats& stats() const { return stats_; }
  const RttEstimator& rtt_estimator() const { return retx_.estimator(); }

 private:
  // Per-message state at its SDR slot (msg_number % max_inflight), which
  // it holds until finish(); retx_.tracking(number) is the liveness test.
  struct MsgState {
    core::SendHandle* handle{nullptr};
    const std::uint8_t* data{nullptr};
    double write_at_s{-1.0};  // write() sim time (completion latency)
    DoneFn done;
  };

  MsgState& slot(std::uint64_t msg_number) {
    return messages_[msg_number % messages_.size()];
  }
  void register_metrics();
  void on_control(const std::uint8_t* data, std::size_t length);
  void finish(std::uint64_t msg_number);

  sim::Simulator& sim_;
  core::Qp& qp_;
  ControlLink& control_;
  LinkProfile profile_;
  SrProtoConfig config_;
  std::vector<MsgState> messages_;
  std::size_t inflight_{0};
  ChunkRetransmitter retx_;
  /// Decode scratch: reused per control message, capacity sticks.
  ControlMessage ctrl_scratch_;
  SrSenderStats stats_;
  // Tail-latency rollups: write() -> chunk acked / message finished.
  telemetry::HistogramHandle chunk_completion_hist_;
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

struct SrReceiverStats {
  std::uint64_t messages{0};
  std::uint64_t acks_sent{0};
  std::uint64_t nacks_sent{0};
};

class SrReceiver {
 public:
  using DoneFn = std::function<void(const Status&)>;

  SrReceiver(sim::Simulator& simulator, core::Qp& qp, ControlLink& control,
             const LinkProfile& profile, SrProtoConfig config);

  /// Post a buffer for the next incoming message. Fires `done` after the
  /// message is fully received and recv_complete has been issued.
  Status expect(std::uint8_t* buffer, std::size_t length,
                const verbs::MemoryRegion* mr, DoneFn done);

  const SrReceiverStats& stats() const { return stats_; }

 private:
  // Per-message state at its SDR slot, held until recv_complete.
  struct MsgState {
    core::RecvHandle* handle{nullptr};  // null: the slot is free
    std::uint64_t number{0};
    std::size_t chunks{0};
    DoneFn done;
    std::vector<double> last_nack_s;  // per-chunk NACK suppression
    bool complete{false};
    bool data_seen{false};  // stops the CTS retry tick
  };

  MsgState* find(std::uint64_t msg_number) {
    MsgState& msg = messages_[msg_number % messages_.size()];
    return msg.handle != nullptr && msg.number == msg_number ? &msg : nullptr;
  }
  void register_metrics();
  void on_chunk_event(const core::RecvEvent& event);
  void send_ack(MsgState& msg);
  void maybe_nack(MsgState& msg, std::size_t completed_chunk);
  void ack_tick(std::uint64_t msg_number);
  void cts_tick(std::uint64_t msg_number);
  void send_final_ack(std::uint64_t msg_number, std::uint32_t cumulative);
  void complete(MsgState& msg, std::uint64_t msg_number);

  sim::Simulator& sim_;
  core::Qp& qp_;
  ControlLink& control_;
  LinkProfile profile_;
  SrProtoConfig config_;
  std::vector<MsgState> messages_;
  std::size_t inflight_{0};
  /// ACK/NACK build + wire scratch: reused per control send so the
  /// steady-state ACK path allocates nothing.
  ControlMessage ctrl_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
  SrReceiverStats stats_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

}  // namespace sdr::reliability
