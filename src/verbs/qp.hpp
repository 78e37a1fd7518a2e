// Queue pairs: UD, UC and RC transports of the software RDMA device.
//
// Semantics reproduced from the paper's analysis (§2.3, §3.2.1):
//  * UD  — per-packet two-sided datagrams; receiver consumes posted recv
//          buffers; out-of-order arrival is the application's problem.
//  * UC  — unreliable multi-packet Writes with an expected PSN (ePSN): if a
//          packet's PSN mismatches the ePSN mid-message, the REST of that
//          message is silently discarded and no CQE is raised — the exact
//          behaviour that forces the SDR backend to send one
//          Write-with-immediate per packet.
//  * RC  — reliable connection with Go-Back-N retransmission (ACK/NAK +
//          retransmission timeout), the commodity-NIC baseline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/ring_buffer.hpp"
#include "common/status.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/cq.hpp"
#include "verbs/mr.hpp"
#include "verbs/types.hpp"

namespace sdr::verbs {

class Injector;
class Nic;

/// RC retransmission algorithm implemented "in the ASIC" (paper §1/§2.2:
/// commodity NICs ship Go-Back-N or Selective Repeat).
///  * kGoBackN          — receiver drops out-of-order packets, NAK rewinds
///                        the sender to the expected PSN.
///  * kSelectiveRepeat  — receiver places out-of-order packets (every
///                        packet carries its own RETH offset), NAKs name
///                        the first missing PSN and the sender retransmits
///                        only that packet (IRN/SRNIC-style).
enum class RcMode : std::uint8_t { kGoBackN, kSelectiveRepeat };

struct QpConfig {
  QpType type{QpType::kUC};
  std::size_t mtu{kDefaultMtu};
  CompletionQueue* send_cq{nullptr};
  CompletionQueue* recv_cq{nullptr};
  // RC reliability knobs (ignored by UD/UC).
  RcMode rc_mode{RcMode::kGoBackN};
  double rc_ack_timeout_s{0.1};   // retransmission timeout
  int rc_retry_limit{7};
  std::uint32_t rc_ack_every{16}; // receiver ACK coalescing factor
};

struct QpStats {
  std::uint64_t packets_sent{0};
  std::uint64_t packets_received{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t messages_dropped_epsn{0};  // UC whole-message drops
  std::uint64_t packets_discarded{0};      // recv-side discards
  std::uint64_t rc_retransmissions{0};
  std::uint64_t rc_naks_sent{0};
  std::uint64_t remote_access_errors{0};
};

class Qp {
 public:
  Qp(Nic& nic, QpNumber num, QpConfig config);
  ~Qp();
  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  QpNumber num() const { return num_; }
  QpType type() const { return config_.type; }
  std::size_t mtu() const { return config_.mtu; }
  const QpStats& stats() const { return stats_; }
  Nic& nic() { return nic_; }

  /// The injection pipeline modeling this QP's posting path; null when the
  /// owning NIC's caps leave the resource model disabled (the default).
  Injector* injector() { return injector_.get(); }

  /// Connect to a remote QP (no-op requirement for UD, which addresses
  /// per-send; still records a default destination).
  Status connect(NicId remote_nic, QpNumber remote_qp);
  bool connected() const { return connected_; }

  /// RDMA Write [with immediate]. UC/RC only.
  Status post_write(const WriteWr& wr);

  /// Two-sided send. UD (addressed) or RC (connected).
  Status post_send(const SendWr& wr);

  /// Post a receive buffer for two-sided receives.
  Status post_recv(const RecvWr& wr);

  /// Packet entry point, invoked by the owning NIC.
  void on_packet(WirePacket&& pkt);

 private:
  friend class Injector;  // delivers deferred signaled send completions

  // ---- send side ----
  Status validate_write(const WriteWr& wr) const;
  void emit_packets_for_write(const WriteWr& wr);
  void send_packet(WirePacket&& pkt, bool count_retransmission = false);
  void complete_send(std::uint64_t wr_id, std::uint32_t bytes, WcStatus status);

  // ---- receive side ----
  void receive_ud(WirePacket&& pkt);
  void receive_uc(WirePacket&& pkt);
  void receive_rc(WirePacket&& pkt);
  void place_write_payload(const WirePacket& pkt, bool& access_ok);
  void deliver_recv_cqe(const WirePacket& pkt, std::uint32_t bytes);

  // ---- RC reliability ----
  struct Unacked {
    WirePacket pkt;                 // retransmission copy
    std::uint64_t wr_id{0};
    bool last_of_wr{false};
    bool signaled{false};
  };
  void rc_handle_ack(Psn acked_up_to);
  void rc_handle_nak(Psn expected);
  void rc_arm_timer();
  void rc_on_timeout();
  void rc_retransmit_from(Psn psn);
  void rc_receiver_maybe_ack(bool force);
  /// NAKs from rc_epsn_ (the first missing PSN) to `dst_qp` unless a NAK is
  /// already outstanding; `seen` (the PSN that showed the gap, or the
  /// out-of-order count) goes to the flight recorder.
  void rc_send_nak(QpNumber dst_qp, std::uint64_t seen);

  Nic& nic_;
  QpNumber num_;
  QpConfig config_;
  QpStats stats_;
  // Injection resource model (nic_model.hpp); built only when the owning
  // NIC's caps enable it, so the default egress path is unchanged.
  std::unique_ptr<Injector> injector_;

  bool connected_{false};
  NicId remote_nic_{0};
  QpNumber remote_qp_{0};

  Psn next_psn_{0};  // sender PSN

  // UC receiver message state.
  Psn epsn_{0};
  bool uc_dropping_{false};           // discarding remainder of a message
  bool uc_in_message_{false};
  std::uint8_t* uc_write_cursor_{nullptr};
  bool uc_write_discard_{false};
  std::uint64_t uc_message_bytes_{0};

  // Two-sided receive queue.
  common::RingBuffer<RecvWr> recv_queue_;

  // RC sender state. Ring (not deque): the push/pop-per-packet window must
  // not touch the allocator in steady state, and popped entries release
  // their payload references immediately.
  common::RingBuffer<Unacked> rc_unacked_;
  Psn rc_acked_psn_{0};  // next PSN expected to be acked
  sim::EventId rc_timer_{};
  int rc_retries_{0};

  // RC receiver state.
  Psn rc_epsn_{0};
  std::uint32_t rc_unacked_count_{0};
  bool rc_nak_outstanding_{false};
  std::uint8_t* rc_write_cursor_{nullptr};
  bool rc_write_discard_{false};

  // RC Selective Repeat receiver state: PSNs received ahead of the
  // cumulative point, and completion entries awaiting in-order delivery.
  void rc_sr_receive(WirePacket&& pkt);
  void rc_place_by_offset(const WirePacket& pkt);
  std::unordered_set<Psn> rc_ooo_received_;
  std::map<Psn, Cqe> rc_pending_cqes_;

  void register_metrics();
  telemetry::Scope tele_;  // last member: unbinds before stats_ dies
};

}  // namespace sdr::verbs
