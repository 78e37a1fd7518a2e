#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "common/payload_pool.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "reliability/control_link.hpp"
#include "reliability/ec_protocol.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace repobench {

using namespace sdr;  // NOLINT

namespace {

std::uint64_t mix_into(std::uint64_t h, std::uint64_t v) {
  return splitmix64_mix(h ^ (v + kSplitMix64Gamma + (h << 6) + (h >> 2)));
}

// Nearest-rank percentile, the same rule fleet::run_fleet reports with.
double percentile_ms(std::vector<std::int64_t>& latencies_ns, double pct) {
  if (latencies_ns.empty()) return 0.0;
  const std::size_t n = latencies_ns.size();
  std::size_t idx = static_cast<std::size_t>(
      pct / 100.0 * static_cast<double>(n - 1) + 0.5);
  if (idx >= n) idx = n - 1;
  std::nth_element(latencies_ns.begin(), latencies_ns.begin() + idx,
                   latencies_ns.end());
  return static_cast<double>(latencies_ns[idx]) * 1e-6;
}

void check(RepResult& rep, bool ok, const std::string& what) {
  if (!ok) rep.violations.push_back(what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Fleets
// ---------------------------------------------------------------------------

fleet::FleetConfig fleet_config(fleet::Scheme scheme, std::uint64_t seed) {
  fleet::FleetConfig cfg = fleet::FleetConfig::defaults();
  cfg.scheme = scheme;
  cfg.distance_km = 3750.0;
  cfg.p_drop = 1e-3;
  cfg.seed = seed;
  return cfg;
}

fleet::FleetConfig fleet_setup_config(fleet::Scheme scheme,
                                      std::uint64_t seed) {
  fleet::FleetConfig cfg = fleet_config(scheme, seed);
  cfg.collective = false;
  cfg.horizon_s = 0.0;
  return cfg;
}

namespace {

fleet::FleetResult timed_run_fleet(const fleet::FleetConfig& config,
                                   bool attribute, RepResult& rep) {
  if (attribute) attribution_start();
  const std::uint64_t a0 = alloc_count();
  const double t0 = now_s();
  fleet::FleetResult r = fleet::run_fleet(config);
  rep.run_s = now_s() - t0;
  rep.allocs = alloc_count() - a0;
  if (attribute) rep.layer_allocs = attribution_stop();
  return r;
}

}  // namespace

RepResult fleet_setup_rep(const fleet::FleetConfig& config, bool attribute) {
  RepResult rep;
  const fleet::FleetResult r = timed_run_fleet(config, attribute, rep);
  check(rep, r.messages_posted == 0, "fleet set-up: a message was posted");
  check(rep, r.payload_live_slots == 0, "fleet set-up: payload slots leaked");
  return rep;
}

RepResult run_fleet_rep(const fleet::FleetConfig& config, bool attribute) {
  RepResult rep;
  const fleet::FleetResult r = timed_run_fleet(config, attribute, rep);

  SimFigures& f = rep.sim;
  f.posted = r.messages_posted;
  f.completed = r.messages_completed;
  // Everything posted and not delivered is a failure: receiver aborts plus
  // messages the horizon cut off.
  f.failed = r.messages_failed +
             (r.messages_posted - std::min(r.messages_posted,
                                           r.messages_completed +
                                               r.messages_failed));
  f.digest = r.digest;
  f.useful_bytes = r.useful_bytes;
  f.makespan_s = r.makespan_s;
  f.p50_ms = r.p50_ms;
  f.p99_ms = r.p99_ms;
  f.peak_concurrent = r.peak_concurrent;
  f.retransmissions = r.retransmissions;
  for (const fleet::TenantResult& t : r.tenants) {
    if (t.name == "smallop") f.smallop_p99_ms = t.p99_ms;
    if (t.name == "bulk") f.bulk_p99_ms = t.p99_ms;
    if (t.name == "collective") f.collective_p99_ms = t.p99_ms;
  }

  check(rep, r.messages_completed == r.messages_posted,
        "fleet: completed != posted");
  check(rep, r.messages_failed == 0, "fleet: failed messages");
  check(rep, r.quiesced, "fleet: event queue did not drain");
  check(rep, r.payload_live_slots == 0, "fleet: payload slots leaked");
  check(rep, r.unknown_qp_packets == 0, "fleet: unknown-QP packets");
  check(rep, r.unroutable_packets == 0, "fleet: unroutable packets");
  return rep;
}

// ---------------------------------------------------------------------------
// bulk_ec: one EC connection, closed loop, multi-MiB messages
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kMtu = 4096;
constexpr std::uint64_t kSizeSalt = 0x5153u;  // size stream != payload stream

}  // namespace

std::size_t bulk_msg_bytes(std::uint64_t seed, std::uint64_t seq) {
  // Fisher-Yates over {1, 2, 3} submessages, one shuffle per block of three.
  std::array<std::size_t, 3> perm{1, 2, 3};
  std::uint64_t r = derive_seed(seed ^ kSizeSalt, seq / perm.size());
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[r % (i + 1)]);
    r = splitmix64_mix(r);
  }
  return kBulkSubmessageBytes * perm[seq % perm.size()];
}

namespace {

// Seeded, sequence-tagged payload: message `seq` of a run seeded `seed`
// carries the splitmix64 stream keyed by derive_seed(seed, seq).
void fill_pattern(std::uint8_t* p, std::size_t len, std::uint64_t key) {
  std::uint64_t x = key;
  for (std::size_t i = 0; i + 8 <= len; i += 8) {
    x += kSplitMix64Gamma;
    const std::uint64_t w = splitmix64_mix(x);
    std::memcpy(p + i, &w, 8);
  }
}

bool check_pattern(const std::uint8_t* p, std::size_t len, std::uint64_t key) {
  std::uint64_t x = key;
  for (std::size_t i = 0; i + 8 <= len; i += 8) {
    x += kSplitMix64Gamma;
    const std::uint64_t w = splitmix64_mix(x);
    if (std::memcmp(p + i, &w, 8) != 0) return false;
  }
  return true;
}

// The stack ReliableChannel would build for kEcMds, composed by hand so the
// codec is the caller's: two NICs on a lossy duplex link, an SDR QP pair,
// a UD control link pair, and the EC sender/receiver.
struct BulkStack {
  BulkStack(std::uint64_t seed, const ec::ErasureCodec& codec,
            BulkBuffers& buffers)
      : bufs(buffers) {
    sim::Channel::Config link;
    link.bandwidth_bps = kBulkBandwidthBps;
    link.distance_km = kBulkDistanceKm;
    link.seed = derive_seed(seed, 0xB0u);
    nics = verbs::make_connected_pair(sim, link, kBulkPDrop, kBulkPDrop);

    reliability::ReliableChannel::Options opt;
    opt.kind = reliability::ReliableChannel::Kind::kEcMds;
    opt.profile.bandwidth_bps = kBulkBandwidthBps;
    opt.profile.rtt_s = rtt_s(kBulkDistanceKm);
    opt.profile.p_drop_packet = kBulkPDrop;
    opt.profile.mtu = kMtu;
    opt.profile.chunk_bytes = kBulkChunkBytes;
    opt.ec.k = kBulkK;
    opt.ec.m = kBulkM;
    // A lost CTS would otherwise wedge a submessage stream (see the fleet).
    opt.ec.cts_retry_s = 4.0 * opt.profile.rtt_s;
    opt.derive_timeouts();

    core::QpAttr attr;
    attr.mtu = kMtu;
    attr.chunk_size = kBulkChunkBytes;
    attr.max_msg_size = kBulkSubmessageBytes;
    // Two core messages (data + parity) per submessage, up to three
    // submessages per message; headroom for handles still draining after
    // their message completed.
    constexpr std::size_t kMaxSubs = kBulkMaxMsgBytes / kBulkSubmessageBytes;
    attr.max_inflight = std::min<std::size_t>(attr.imm.max_messages(),
                                              8 * kMaxSubs * kBulkWindow);

    tx_ctx = std::make_unique<core::Context>(*nics.a, core::DevAttr{});
    rx_ctx = std::make_unique<core::Context>(*nics.b, core::DevAttr{});
    tx = tx_ctx->create_qp(attr);
    rx = rx_ctx->create_qp(attr);
    tx->connect(rx->info());
    rx->connect(tx->info());
    for (std::size_t w = 0; w < kBulkWindow; ++w) {
      mrs.push_back(rx_ctx->mr_reg(bufs.recv.data() + w * kBulkMaxMsgBytes,
                                   kBulkMaxMsgBytes));
    }
    tx_ctl = std::make_unique<reliability::ControlLink>(*nics.a);
    rx_ctl = std::make_unique<reliability::ControlLink>(*nics.b);
    tx_ctl->connect(nics.b->id(), rx_ctl->qp_number());
    rx_ctl->connect(nics.a->id(), tx_ctl->qp_number());
    sender = std::make_unique<reliability::EcSender>(sim, *tx, *tx_ctl,
                                                     opt.profile, codec, opt.ec);
    receiver = std::make_unique<reliability::EcReceiver>(
        sim, *rx, *rx_ctl, opt.profile, codec, opt.ec);
  }

  sim::Simulator sim;
  BulkBuffers& bufs;
  verbs::NicPair nics;
  std::unique_ptr<core::Context> tx_ctx;
  std::unique_ptr<core::Context> rx_ctx;
  core::Qp* tx{nullptr};
  core::Qp* rx{nullptr};
  std::vector<const verbs::MemoryRegion*> mrs;
  std::unique_ptr<reliability::ControlLink> tx_ctl;
  std::unique_ptr<reliability::ControlLink> rx_ctl;
  std::unique_ptr<reliability::EcSender> sender;
  std::unique_ptr<reliability::EcReceiver> receiver;
};

// Closed loop: `window` slots, each carrying one message at a time. A slot
// is reused once both the receiver's delivery and the sender's final ACK
// have fired; the next message is due at that instant and posted at once.
class BulkLoop {
 public:
  BulkLoop(std::size_t messages, std::uint64_t seed, BulkStack& stack)
      : messages_(messages), seed_(seed), st_(stack), slots_(kBulkWindow) {
    latencies_ns_.reserve(messages);
    window_marks_s_.reserve(messages / kRateWindow + 1);
    for (std::size_t w = 0; w < slots_.size(); ++w) {
      slots_[w].loop = this;
      slots_[w].index = w;
    }
  }

  void start() {
    window_marks_s_.push_back(loop_clock_s());
    for (Slot& s : slots_) {
      if (next_seq_ < messages_) post(s);
    }
  }

  void finish(RepResult& rep) {
    SimFigures& f = rep.sim;
    f.posted = next_seq_;
    f.completed = completed_;
    f.wrong_bytes = wrong_;
    f.failed = f.posted - completed_;  // errors, wrong bytes, cut off
    f.digest = digest_;
    f.useful_bytes = useful_bytes_;
    f.makespan_s = static_cast<double>(last_ns_) * 1e-9;
    for (std::size_t i = 2; i < window_marks_s_.size(); ++i) {
      rep.window_rates.push_back(
          static_cast<double>(kRateWindow) /
          (window_marks_s_[i] - window_marks_s_[i - 1]));
    }
    f.p50_ms = percentile_ms(latencies_ns_, 50.0);
    f.p99_ms = percentile_ms(latencies_ns_, 99.0);
    check(rep, next_seq_ == messages_, "bulk_ec: not every message posted");
    check(rep, completed_ == next_seq_, "bulk_ec: completed != posted");
    check(rep, wrong_ == 0, "bulk_ec: delivered bytes differ from pattern");
    check(rep, post_errors_ == 0, "bulk_ec: a post was refused");
  }

  /// Host seconds spent filling and checking payloads (kept out of run_s).
  double aside_s() const { return aside_s_; }

 private:
  /// Host clock with payload fill/check time taken out.
  double loop_clock_s() const { return now_s() - aside_s_; }

  struct Slot {
    BulkLoop* loop{nullptr};
    std::size_t index{0};
    std::size_t seq{0};
    std::size_t bytes{0};
    int parts_left{0};
    std::int64_t due_ns{0};
  };

  std::uint8_t* send_buf(const Slot& s) {
    return st_.bufs.send.data() + s.index * kBulkMaxMsgBytes;
  }
  std::uint8_t* recv_buf(const Slot& s) {
    return st_.bufs.recv.data() + s.index * kBulkMaxMsgBytes;
  }

  void post(Slot& s) {
    s.seq = next_seq_++;
    s.bytes = bulk_msg_bytes(seed_, s.seq);
    s.parts_left = 2;
    s.due_ns = st_.sim.now().ns;
    const double t0 = now_s();
    fill_pattern(send_buf(s), s.bytes, derive_seed(seed_, s.seq));
    aside_s_ += now_s() - t0;
    // One-pointer captures keep std::function in its inline buffer.
    Slot* sp = &s;
    const Status rs = st_.receiver->expect(
        recv_buf(s), s.bytes, st_.mrs[s.index],
        [sp](const Status& status) { sp->loop->on_delivered(*sp, status); });
    const Status ss = st_.sender->write(
        send_buf(s), s.bytes,
        [sp](const Status&) { sp->loop->part_done(*sp); });
    if (!rs || !ss) {
      // A refused post leaves the message undelivered; finish() reports it.
      ++post_errors_;
    }
  }

  void on_delivered(Slot& s, const Status& status) {
    const std::int64_t now_ns = st_.sim.now().ns;
    bool ok = static_cast<bool>(status);
    if (ok) {
      const double t0 = now_s();
      ok = check_pattern(recv_buf(s), s.bytes,
                         derive_seed(seed_, s.seq));
      aside_s_ += now_s() - t0;
      if (!ok) ++wrong_;
    }
    if (ok) {
      ++completed_;
      useful_bytes_ += s.bytes;
      latencies_ns_.push_back(now_ns - s.due_ns);
      last_ns_ = std::max(last_ns_, now_ns);
      if (completed_ % kRateWindow == 0) {
        window_marks_s_.push_back(loop_clock_s());
      }
    }
    digest_ = mix_into(digest_, s.seq);
    digest_ = mix_into(digest_, static_cast<std::uint64_t>(now_ns));
    digest_ = mix_into(digest_, ok ? 1u : 0u);
    part_done(s);
  }

  void part_done(Slot& s) {
    if (--s.parts_left != 0) return;
    if (next_seq_ < messages_) post(s);
  }

  std::size_t messages_;
  std::uint64_t seed_;
  BulkStack& st_;
  std::vector<Slot> slots_;
  std::size_t next_seq_{0};
  std::uint64_t completed_{0};
  std::uint64_t useful_bytes_{0};
  std::uint64_t wrong_{0};
  std::uint64_t post_errors_{0};
  std::uint64_t digest_{0};
  std::int64_t last_ns_{0};
  std::vector<std::int64_t> latencies_ns_;
  std::vector<double> window_marks_s_;  // loop clock at every kRateWindow-th delivery
  double aside_s_{0.0};
};

// Virtual-time cut-off: far beyond any healthy run (1000 messages of 4 MiB
// on average, window-limited to about 9 Gbit/s, take about 4 simulated
// seconds).
constexpr double kBulkHorizonS = 60.0;

}  // namespace

double bulk_setup_rep(std::uint64_t seed, const ec::ErasureCodec& codec,
                      BulkBuffers& buffers) {
  const double t0 = now_s();
  auto stack = std::make_unique<BulkStack>(seed, codec, buffers);
  const double built = now_s() - t0;
  stack.reset();
  return built;
}

RepResult run_bulk_rep(std::uint64_t seed, const ec::ErasureCodec& codec,
                       BulkBuffers& buffers, std::size_t messages,
                       bool attribute) {
  RepResult rep;
  std::fill(buffers.recv.begin(), buffers.recv.end(), std::uint8_t{0});
  auto stack = std::make_unique<BulkStack>(seed, codec, buffers);

  BulkLoop loop(messages, seed, *stack);
  if (attribute) attribution_start();
  const std::uint64_t a0 = alloc_count();
  const double t1 = now_s();
  loop.start();
  stack->sim.run_until(SimTime::from_seconds(kBulkHorizonS));
  rep.run_s = now_s() - t1 - loop.aside_s();
  rep.allocs = alloc_count() - a0;
  if (attribute) rep.layer_allocs = attribution_stop();

  loop.finish(rep);
  check(rep, stack->sim.pending() == 0, "bulk_ec: event queue did not drain");
  stack.reset();
  check(rep, common::payload_pool().live_slots() == 0,
        "bulk_ec: payload slots leaked");
  return rep;
}

}  // namespace repobench
