// Executable erasure-coding reliability over the SDR API (paper §4.1.2).
//
// Sender: splits the message into L data submessages of k chunks, encodes m
// parity chunks per submessage, and injects data (streaming sends, kept open
// so the fallback path can retransmit into the same buffers) followed by
// parity (one-shot sends — parity is never retransmitted). On a positive
// ACK the buffers are released; on an EC NACK the listed submessages switch
// to Selective Repeat.
//
// Receiver: posts L data receive buffers (regions of the application buffer
// — zero copy) and L parity scratch buffers. Chunk-bitmap events drive
// decodability checks; once every submessage is recoverable the missing
// data chunks are EC-decoded in place and a positive ACK is sent. A
// fallback timeout FTO = (M + M/R)*T_INJ + beta*RTT armed at the first
// received chunk triggers an EC NACK listing the failed submessages.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "ec/codec.hpp"
#include "reliability/ack_codec.hpp"
#include "reliability/chunk_retransmitter.hpp"
#include "reliability/control_link.hpp"
#include "reliability/profile.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace sdr::reliability {

struct EcProtoConfig {
  std::size_t k{32};
  std::size_t m{8};
  /// FTO slack beyond injection, in RTTs (paper's beta = 0.5 alpha).
  double beta{0.5};
  /// Fallback Selective Repeat RTO, backed off and jittered as SR's.
  double fallback_rto_s{0.075};
  /// Fallback receiver ACK cadence.
  double fallback_ack_interval_s{0.005};
  /// Abort safety net (multiples of FTO); paper: "a global timeout is also
  /// set at message posting to prevent deadlock".
  double global_timeout_factor{50.0};
  std::size_t final_ack_repeats{3};
  /// Receiver-side CTS retry pace (see SrProtoConfig::cts_retry_s). Every
  /// data/parity submessage stream rides its own CTS datagram; a lost one
  /// silently downgrades the submessage to fallback recovery — or, when
  /// more than m streams of a submessage are wedged, to the global-timeout
  /// abort. When > 0, streams that have produced no packets get their CTS
  /// re-sent every cts_retry_s until data lands or the message completes.
  /// 0 keeps the paper's single-CTS handshake.
  double cts_retry_s{0.0};
};

struct EcSenderStats {
  std::uint64_t messages{0};
  std::uint64_t data_chunks_sent{0};
  std::uint64_t parity_chunks_sent{0};
  std::uint64_t fallback_retransmissions{0};
  std::uint64_t ec_nacks{0};
};

/// A parity buffer: encoded parity on the sender, parity receive scratch
/// on the receiver. A receiver buffer is registered once, when allocated,
/// and keeps its MR until the block is freed.
struct ParityBuffer {
  std::unique_ptr<std::uint8_t[]> bytes;
  std::size_t capacity{0};
  const verbs::MemoryRegion* mr{nullptr};  // receiver only
};

class EcSender {
 public:
  using DoneFn = std::function<void(const Status&)>;

  EcSender(sim::Simulator& simulator, core::Qp& qp, ControlLink& control,
           const LinkProfile& profile, const ec::ErasureCodec& codec,
           EcProtoConfig config);

  /// Message length must be a whole number of submessages
  /// (k * chunk_size); callers pad to this granularity. A message of L
  /// submessages takes 2L SDR slots; if they are not all free the write
  /// fails with kResourceExhausted and posts nothing.
  Status write(const std::uint8_t* data, std::size_t length, DoneFn done);

  const EcSenderStats& stats() const { return stats_; }

 private:
  // Per-submessage state lives in a flat table indexed by SDR slot
  // (msg_number % max_inflight), sized once at construction: each data
  // stream's entry sits at its slot, and the base (first data stream)
  // entry points at the message's node. The streams stay open until
  // finish(), so no later message can claim those slots while this one
  // lives. Message nodes come from a free list whose storage is reserved
  // for the most messages that can be live at once (max_inflight / 2), so
  // it never reallocates and only the nodes in use are touched. Stored
  // numbers guard against stale timers and ACKs.
  struct MsgState {
    std::uint64_t base{0};
    bool live{false};
    const std::uint8_t* data{nullptr};
    std::size_t submessages{0};
    double write_at_s{-1.0};  // write() sim time (completion latency)
    ParityBuffer parity;
    DoneFn done;
  };
  struct SubState {
    std::uint64_t number{0};  // the data stream's message number
    core::SendHandle* data{nullptr};    // streaming, kept open
    core::SendHandle* parity{nullptr};  // one-shot, released at write()
    std::uint32_t msg{0};               // node index
  };

  std::size_t slot_of(std::uint64_t number) const {
    return static_cast<std::size_t>(number % slots_);
  }
  MsgState* find(std::uint64_t base);

  void register_metrics();
  void on_control(const std::uint8_t* data, std::size_t length);
  /// Hands the failed submessages to the retransmitter: a data stream it
  /// tracks is in fallback.
  void enter_fallback(MsgState& msg, const std::vector<std::uint32_t>& failed);
  void finish(std::uint64_t base);

  sim::Simulator& sim_;
  core::Qp& qp_;
  ControlLink& control_;
  LinkProfile profile_;
  const ec::ErasureCodec& codec_;
  EcProtoConfig config_;
  std::size_t chunk_bytes_;
  std::size_t slots_;
  std::vector<SubState> subs_;
  std::vector<MsgState> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::size_t inflight_{0};
  ChunkRetransmitter retx_;  // fallback Selective Repeat, stride k
  // The last finished message's parity buffer, kept for the next write: a
  // closed loop reuses it every message. Only one is kept, because an open
  // loop rarely reuses one, and a buffer held here is memory no other
  // endpoint can use.
  ParityBuffer spare_parity_;
  // Encode block-pointer scratch and control decode scratch.
  std::vector<const std::uint8_t*> data_blocks_;
  std::vector<std::uint8_t*> parity_blocks_;
  ControlMessage ctrl_scratch_;
  EcSenderStats stats_;
  // Tail-latency rollup: write() -> positive EC ACK.
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

struct EcReceiverStats {
  std::uint64_t messages{0};
  std::uint64_t decoded_submessages{0};   // recovered via parity
  std::uint64_t clean_submessages{0};     // all data chunks arrived
  std::uint64_t fallback_submessages{0};  // needed SR retransmission
  std::uint64_t ec_nacks_sent{0};
  std::uint64_t ftos_fired{0};
};

class EcReceiver {
 public:
  using DoneFn = std::function<void(const Status&)>;

  EcReceiver(sim::Simulator& simulator, core::Qp& qp, ControlLink& control,
             const LinkProfile& profile, const ec::ErasureCodec& codec,
             EcProtoConfig config);
  /// Deregisters the parity buffers' memory: the QP's Context must still
  /// be alive.
  ~EcReceiver();
  EcReceiver(const EcReceiver&) = delete;
  EcReceiver& operator=(const EcReceiver&) = delete;

  /// Post `buffer` for the next incoming EC message. Length must be a whole
  /// number of submessages. Fires `done` once all data chunks are present
  /// or recovered (and all receives completed). Like EcSender::write, a
  /// message whose 2L receive slots are not all free is refused with
  /// kResourceExhausted and posts nothing.
  Status expect(std::uint8_t* buffer, std::size_t length,
                const verbs::MemoryRegion* mr, DoneFn done);

  const EcReceiverStats& stats() const { return stats_; }

 private:
  // Slot-indexed stream table and message nodes, as in EcSender: one
  // entry at the slot of every data and parity receive (all 2L stay posted
  // until the message ends), the base entry pointing at the node.
  struct MsgState {
    std::uint64_t base{0};
    bool live{false};
    std::uint8_t* buffer{nullptr};
    std::size_t length{0};
    std::size_t submessages{0};
    std::size_t subs_recovered{0};
    double posted_at_s{-1.0};  // expect() sim time (completion latency)
    bool fallback{false};
    bool complete{false};
    sim::EventId fto_timer{};
    sim::EventId global_timer{};
    sim::EventId ack_timer{};
    ParityBuffer parity;
    DoneFn done;
  };
  struct StreamState {
    std::uint64_t number{0};  // the receive's message number
    core::RecvHandle* handle{nullptr};
    std::uint32_t msg{0};  // node index
    // Data streams only: submessage recovered; counted in
    // fallback_submessages / NACKed once (refires re-list it on the wire
    // but must not re-count).
    bool recovered{false};
    bool nacked{false};
  };

  std::size_t slot_of(std::uint64_t number) const {
    return static_cast<std::size_t>(number % slots_);
  }
  MsgState* find(std::uint64_t base);
  StreamState& data_stream(const MsgState& msg, std::size_t sub) {
    return streams_[slot_of(msg.base + sub)];
  }
  StreamState& parity_stream(const MsgState& msg, std::size_t sub) {
    return streams_[slot_of(msg.base + msg.submessages + sub)];
  }

  void register_metrics();
  void on_chunk_event(const core::RecvEvent& event);
  void cts_tick(std::uint64_t base);
  bool try_recover(MsgState& msg, std::size_t sub);
  void arm_fto(MsgState& msg);
  void on_fto(std::uint64_t base);
  void fallback_ack_tick(std::uint64_t base);
  void send_ec_ack(std::uint64_t base);
  /// Deregister and free a parity buffer (empty is fine).
  void free_parity(ParityBuffer& buffer);
  void complete(MsgState& msg);
  /// Complete every receive, pool the parity buffer and free the slot;
  /// returns the done callback for the caller to fire last.
  DoneFn release(MsgState& msg);

  sim::Simulator& sim_;
  core::Qp& qp_;
  ControlLink& control_;
  LinkProfile profile_;
  const ec::ErasureCodec& codec_;
  EcProtoConfig config_;
  std::size_t chunk_bytes_;
  std::size_t slots_;
  std::vector<StreamState> streams_;
  std::vector<MsgState> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::size_t inflight_{0};
  // Spare parity buffer, with its MR, as on the sender.
  ParityBuffer spare_parity_;
  // Per-event decode scratch: presence map and block pointers.
  ec::PresenceMap present_;
  std::vector<std::uint8_t*> blocks_;
  // Reused ACK/NACK encode scratch (same pattern as SrReceiver): the
  // control path allocates nothing in steady state.
  ControlMessage ctrl_scratch_;
  std::vector<std::uint8_t> wire_scratch_;
  EcReceiverStats stats_;
  // Tail-latency rollups: expect() -> submessage recovered / message done.
  telemetry::HistogramHandle chunk_completion_hist_;
  telemetry::HistogramHandle msg_completion_hist_;
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

}  // namespace sdr::reliability
