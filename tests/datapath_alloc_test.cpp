// Data-path allocation regression tests.
//
// Two guarantees of the zero-copy wire work are locked in here:
//  * PayloadRef lifetime — every pooled payload reference is released back
//    to the thread-local PayloadPool on delivery, on channel drop, and when
//    a retransmission supersedes the original in-flight copy (no slot leaks
//    across any packet fate).
//  * Zero allocations per packet in steady state — the end-to-end path
//    (post -> verbs packetization -> channel -> CQE -> SDR bitmap update ->
//    completion -> repost) must not touch the allocator once warmed up,
//    measured with the same global operator-new hook bench_simcore and
//    bench_datapath use. The EC stack (encode, parity, decode, ACKs) is
//    held to the same standard per message.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/payload_pool.hpp"
#include "common/units.hpp"
#include "ec/gf256_kernels.hpp"
#include "ec/reed_solomon.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (same hook as bench_simcore / bench_datapath).
// gtest allocates freely outside the measured windows; tests only compare
// snapshots taken around their steady-state region.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sdr {
namespace {

// ---------------------------------------------------------------------------
// PayloadPool / PayloadRef unit semantics
// ---------------------------------------------------------------------------

TEST(PayloadPoolTest, AcquireReleaseAndFreeListReuse) {
  common::PayloadPool pool;
  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  const std::uint32_t slot = pool.acquire(bytes, sizeof(bytes));
  EXPECT_EQ(pool.live_slots(), 1u);
  EXPECT_EQ(std::memcmp(pool.data(slot), bytes, sizeof(bytes)), 0);

  pool.add_ref(slot);
  pool.release(slot);  // refcount 2 -> 1: still live
  EXPECT_EQ(pool.live_slots(), 1u);
  pool.release(slot);  // refcount 1 -> 0: free-listed
  EXPECT_EQ(pool.live_slots(), 0u);

  const std::size_t total = pool.total_slots();
  const std::uint32_t again = pool.acquire(bytes, sizeof(bytes));
  EXPECT_EQ(again, slot);                   // free list hands the slot back
  EXPECT_EQ(pool.total_slots(), total);     // no new slot appended
  pool.release(again);
}

TEST(PayloadPoolTest, RefCopyMoveRelease) {
  common::PayloadPool& pool = common::payload_pool();
  const std::size_t live_before = pool.live_slots();
  const std::uint8_t bytes[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  {
    common::PayloadRef a = common::PayloadRef::pooled_copy(bytes, sizeof(bytes));
    EXPECT_TRUE(a.pooled());
    EXPECT_EQ(a.size(), sizeof(bytes));
    EXPECT_EQ(std::memcmp(a.data(), bytes, sizeof(bytes)), 0);
    EXPECT_EQ(pool.live_slots(), live_before + 1);

    common::PayloadRef b = a;  // copy bumps the refcount, same slot
    EXPECT_EQ(pool.live_slots(), live_before + 1);
    common::PayloadRef c = std::move(a);  // move steals, no refcount change
    EXPECT_EQ(pool.live_slots(), live_before + 1);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(std::memcmp(c.data(), b.data(), sizeof(bytes)), 0);
  }
  EXPECT_EQ(pool.live_slots(), live_before);  // all refs gone: slot released
}

TEST(PayloadPoolTest, BorrowDoesNotTouchPool) {
  common::PayloadPool& pool = common::payload_pool();
  const std::size_t live_before = pool.live_slots();
  const std::size_t total_before = pool.total_slots();
  const std::uint8_t bytes[16] = {};
  {
    common::PayloadRef ref = common::PayloadRef::borrow(bytes, sizeof(bytes));
    EXPECT_FALSE(ref.pooled());
    EXPECT_EQ(ref.data(), bytes);
    common::PayloadRef copy = ref;
    EXPECT_EQ(copy.data(), bytes);
  }
  EXPECT_EQ(pool.live_slots(), live_before);
  EXPECT_EQ(pool.total_slots(), total_before);
}

// ---------------------------------------------------------------------------
// Pooled reference lifetime through the wire: delivery, drop, retransmit
// ---------------------------------------------------------------------------

sim::Channel::Config test_link() {
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = 0.1;
  cfg.seed = 42;
  return cfg;
}

TEST(PayloadLifetimeTest, ReleasedOnDelivery) {
  const std::size_t live_before = common::payload_pool().live_slots();
  sim::Simulator sim;
  verbs::NicPair pair = verbs::make_connected_pair(sim, test_link(), 0.0, 0.0);
  verbs::CompletionQueue rx_cq;
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kUD;
  cfg.mtu = 1024;
  verbs::Qp* tx = pair.a->create_qp(cfg);
  cfg.recv_cq = &rx_cq;
  verbs::Qp* rx = pair.b->create_qp(cfg);

  std::vector<std::uint8_t> recv_buf(512);
  verbs::RecvWr rwr;
  rwr.addr = recv_buf.data();
  rwr.length = recv_buf.size();
  rx->post_recv(rwr);

  std::vector<std::uint8_t> msg(256, 0xAB);
  verbs::SendWr swr;
  swr.local_addr = msg.data();
  swr.length = msg.size();
  swr.dst_nic = pair.b->id();
  swr.dst_qp = rx->num();
  ASSERT_TRUE(tx->post_send(swr).is_ok());
  // The in-flight datagram holds a pooled copy (the sender's buffer is not
  // required to stay valid after injection for UD).
  EXPECT_GT(common::payload_pool().live_slots(), live_before);
  sim.run();

  EXPECT_EQ(rx_cq.size(), 1u);
  EXPECT_EQ(std::memcmp(recv_buf.data(), msg.data(), msg.size()), 0);
  // Delivered: the receive path copied once into the posted buffer and the
  // wire packet's reference died with it.
  EXPECT_EQ(common::payload_pool().live_slots(), live_before);
}

TEST(PayloadLifetimeTest, ReleasedOnDrop) {
  const std::size_t live_before = common::payload_pool().live_slots();
  sim::Simulator sim;
  // Forward loss 1.0: every data packet dies inside the channel.
  verbs::NicPair pair = verbs::make_connected_pair(sim, test_link(), 1.0, 0.0);
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kUD;
  cfg.mtu = 1024;
  verbs::Qp* tx = pair.a->create_qp(cfg);

  std::vector<std::uint8_t> msg(300, 0xCD);
  for (int i = 0; i < 8; ++i) {
    verbs::SendWr swr;
    swr.local_addr = msg.data();
    swr.length = msg.size();
    swr.dst_nic = pair.b->id();
    swr.dst_qp = 0x999;  // never delivered anyway
    ASSERT_TRUE(tx->post_send(swr).is_ok());
  }
  sim.run();
  // Dropped packets are destroyed by the channel; their references must be
  // returned to the pool, not leaked with the packet.
  EXPECT_EQ(common::payload_pool().live_slots(), live_before);
}

TEST(PayloadLifetimeTest, ReleasedWhenRetransmitSupersedes) {
  const std::size_t live_before = common::payload_pool().live_slots();
  sim::Simulator sim;
  // Lossy forward path: RC Go-Back-N keeps every send in the unacked queue
  // (one pooled reference each), and every retransmission duplicates a
  // reference rather than the bytes. All of them must drain by completion.
  verbs::NicPair pair = verbs::make_connected_pair(sim, test_link(), 0.25, 0.0);
  verbs::CompletionQueue tx_cq, rx_cq;
  verbs::QpConfig cfg;
  cfg.type = verbs::QpType::kRC;
  cfg.mtu = 1024;
  cfg.rc_ack_timeout_s = 0.001;
  verbs::QpConfig tx_cfg = cfg;
  tx_cfg.send_cq = &tx_cq;
  verbs::Qp* tx = pair.a->create_qp(tx_cfg);
  verbs::QpConfig rx_cfg = cfg;
  rx_cfg.recv_cq = &rx_cq;
  verbs::Qp* rx = pair.b->create_qp(rx_cfg);
  tx->connect(pair.b->id(), rx->num());
  rx->connect(pair.a->id(), tx->num());

  constexpr int kSends = 50;
  std::vector<std::vector<std::uint8_t>> recv_bufs(kSends);
  for (auto& buf : recv_bufs) {
    buf.assign(512, 0);
    verbs::RecvWr rwr;
    rwr.addr = buf.data();
    rwr.length = buf.size();
    ASSERT_TRUE(rx->post_recv(rwr).is_ok());
  }
  std::vector<std::uint8_t> msg(512, 0xEF);
  for (int i = 0; i < kSends; ++i) {
    verbs::SendWr swr;
    swr.wr_id = static_cast<std::uint64_t>(i);
    swr.local_addr = msg.data();
    swr.length = msg.size();
    ASSERT_TRUE(tx->post_send(swr).is_ok());
  }
  sim.run();

  EXPECT_EQ(rx_cq.size(), static_cast<std::size_t>(kSends));
  EXPECT_GT(tx->stats().rc_retransmissions, 0u);
  // Acked originals, superseded in-flight copies and retransmissions alike:
  // every reference must be back in the pool.
  EXPECT_EQ(common::payload_pool().live_slots(), live_before);
}

// ---------------------------------------------------------------------------
// Zero allocations per packet, end to end, in steady state. Compact version
// of bench_datapath's sdr_clean workload: pipelined SDR messages with CTS
// matching, per-packet Write-with-immediate CQEs, bitmap coalescing,
// completion and repost; after `warmup` completed messages the allocator
// must not be touched again until the run ends.
// ---------------------------------------------------------------------------
TEST(AllocRegressionTest, ZeroAllocsPerPacketSdrCleanSteadyState) {
  // Warmup must outlast every lazy first-touch growth. The latest one is
  // the data CQs of the last QP generation, first used at message
  // generations * max_inflight - max_inflight (= 48 here); 64 completed
  // messages covers it with margin.
  constexpr int kIterations = 96;
  constexpr int kWarmup = 64;
  constexpr int kInflight = 8;
  constexpr std::size_t kMsgBytes = 1 * MiB;

  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 400 * Gbps;
  cfg.distance_km = 0.1;
  cfg.seed = 11;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, 0.0, 0.0);

  core::Context client(*nics.a, core::DevAttr{});
  core::Context server(*nics.b, core::DevAttr{});
  core::QpAttr attr;
  attr.mtu = 4096;
  attr.chunk_size = 64 * KiB;
  attr.max_msg_size = kMsgBytes;
  attr.max_inflight = kInflight * 2;
  core::Qp* cq = client.create_qp(attr);
  core::Qp* sq = server.create_qp(attr);
  ASSERT_TRUE(cq->connect(sq->info()).is_ok());
  ASSERT_TRUE(sq->connect(cq->info()).is_ok());

  std::vector<std::uint8_t> src(kMsgBytes, 0xA5);
  std::vector<std::uint8_t> dst(kInflight * attr.max_msg_size, 0);
  const auto* mr = server.mr_reg(dst.data(), dst.size());

  std::uint64_t allocs_at_steady = 0;
  int posted = 0;
  int completed = 0;

  std::function<void(int)> post_recv = [&](int window_slot) {
    if (posted >= kIterations) return;
    ++posted;
    core::RecvHandle* rh = nullptr;
    sq->recv_post(dst.data() + window_slot * attr.max_msg_size, kMsgBytes, mr,
                  &rh);
  };
  sq->set_recv_event_handler([&](const core::RecvEvent& ev) {
    if (ev.type != core::RecvEvent::Type::kMessageCompleted) return;
    ++completed;
    if (completed == kWarmup) allocs_at_steady = g_allocs.load();
    const int window_slot =
        static_cast<int>(ev.handle->slot() % kInflight);
    sq->recv_complete(ev.handle);
    post_recv(window_slot);
  });

  std::vector<core::SendHandle*> handles;
  int sent = 0;
  std::function<void()> pump = [&] {
    for (auto it = handles.begin(); it != handles.end();) {
      if (cq->send_poll(*it).is_ok()) {
        it = handles.erase(it);
      } else {
        ++it;
      }
    }
    while (sent < kIterations &&
           handles.size() < static_cast<std::size_t>(kInflight)) {
      core::SendHandle* sh = nullptr;
      if (!cq->send_post(src.data(), kMsgBytes, 0, false, &sh)) break;
      handles.push_back(sh);
      ++sent;
    }
    if (completed < kIterations) {
      // One-pointer capture: copying the fat std::function would allocate.
      sim.schedule(SimTime::from_micros(1), [&pump] { pump(); });
    }
  };

  for (int w = 0; w < kInflight && posted < kIterations; ++w) post_recv(w);
  pump();
  sim.run();

  ASSERT_EQ(completed, kIterations);
  const std::uint64_t steady_allocs = g_allocs.load() - allocs_at_steady;
  EXPECT_EQ(steady_allocs, 0u)
      << steady_allocs << " allocations in the steady-state window ("
      << (kIterations - kWarmup) << " messages of "
      << kMsgBytes / attr.mtu << " packets)";
  // And end-to-end correctness of the measured transfer: last window's
  // buffers hold the source pattern.
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), kMsgBytes), 0);
}

// ---------------------------------------------------------------------------
// Zero allocations per message through the EC stack: a closed-loop
// ReliableChannel under RS(4,2) over a lossy link (bench_datapath's
// sdr_lossy_ec, compacted). Parity encode, slot-table protocol state,
// pooled parity buffers, chunk events, parity decode and the final-ACK
// repeats must all run without the allocator once warmed up.
// ---------------------------------------------------------------------------
TEST(AllocRegressionTest, ZeroAllocsPerMessageEcSteadyState) {
  constexpr int kIterations = 400;
  constexpr int kWarmup = 200;
  constexpr std::size_t kMsgBytes = 256 * KiB;  // 16 RS(4,2) submessages

  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = 100.0;
  cfg.seed = 41;
  verbs::NicPair nics = verbs::make_connected_pair(sim, cfg, 1e-3, 0.0);

  reliability::ReliableChannel::Options options;
  options.kind = reliability::ReliableChannel::Kind::kEcMds;
  options.ec.k = 4;
  options.ec.m = 2;
  options.profile.bandwidth_bps = cfg.bandwidth_bps;
  options.profile.rtt_s = rtt_s(cfg.distance_km);
  options.profile.p_drop_packet = 1e-3;
  options.profile.mtu = 4096;
  options.profile.chunk_bytes = 4 * KiB;
  options.attr.mtu = 4096;
  options.attr.chunk_size = 4 * KiB;
  options.attr.max_msg_size = 16 * KiB;
  options.attr.max_inflight = 64;
  options.derive_timeouts();
  reliability::ReliableChannel channel(sim, *nics.a, *nics.b, options);

  std::vector<std::uint8_t> src(kMsgBytes);
  for (std::size_t i = 0; i < kMsgBytes; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 131 + (i >> 12));
  }
  std::vector<std::uint8_t> dst(kMsgBytes, 0);

  // One-pointer completion closures (see bench_datapath's Driver): they
  // stay inside std::function's small buffer.
  struct Driver {
    reliability::ReliableChannel& channel;
    const std::vector<std::uint8_t>& src;
    std::vector<std::uint8_t>& dst;
    int posted{0};
    int completed{0};
    int corrupt{0};
    std::uint64_t allocs_at_steady{0};
    std::uint64_t decoded_at_steady{0};

    void post_pair() {
      if (posted >= kIterations) return;
      ++posted;
      channel.recv(dst.data(), kMsgBytes,
                   [this](const Status&) { on_recv_done(); });
      channel.send(src.data(), kMsgBytes, [](const Status&) {});
    }
    void on_recv_done() {
      ++completed;
      if (std::memcmp(dst.data(), src.data(), kMsgBytes) != 0) ++corrupt;
      if (completed == kWarmup) {
        allocs_at_steady = g_allocs.load();
        decoded_at_steady = decoded();
      }
      post_pair();
    }
    std::uint64_t decoded() const {
      return channel.ec_receiver()->stats().decoded_submessages;
    }
  } driver{channel, src, dst};

  driver.post_pair();
  sim.run();

  ASSERT_EQ(driver.completed, kIterations);
  EXPECT_EQ(driver.corrupt, 0);
  const std::uint64_t steady_allocs = g_allocs.load() - driver.allocs_at_steady;
  // The measured window must exercise the decode path, not just clean
  // submessages.
  EXPECT_GT(driver.decoded(), driver.decoded_at_steady);
  EXPECT_EQ(steady_allocs, 0u)
      << steady_allocs << " allocations in the steady-state window ("
      << (kIterations - kWarmup) << " EC messages)";
}

// ---------------------------------------------------------------------------
// The EC fallback path — FTO, EC NACK, Selective Repeat of the failed
// submessage through the shared retransmitter, fallback ACKs — is held to
// the same zero-allocation standard. At random 1e-3 loss a fallback is
// rare (about 0.1 per bench_datapath run), so here every message is forced
// into it: each one-submessage RS(4,2) message sends data 0-3 and parity
// 4-5, then its fallback resends the four data chunks, ten forward packets
// in all; dropping positions 0-2, 4 and 5 of every ten leaves one data
// chunk and no parity, beyond what the code recovers.
// ---------------------------------------------------------------------------
class EveryMessageFallsBack final : public sim::DropModel {
 public:
  bool should_drop(Rng& /*rng*/, std::size_t /*bytes*/) override {
    const std::uint64_t position = sent_++ % 10;
    return position < 3 || position == 4 || position == 5;
  }

 private:
  std::uint64_t sent_{0};
};

TEST(AllocRegressionTest, ZeroAllocsPerMessageEcFallbackSteadyState) {
  constexpr int kIterations = 300;
  constexpr int kWarmup = 100;
  constexpr std::size_t kMsgBytes = 16 * KiB;  // one RS(4,2) submessage

  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100 * Gbps;
  cfg.distance_km = 100.0;
  cfg.seed = 43;
  verbs::Nic nic_a(sim, 1), nic_b(sim, 2);
  sim::DuplexLink link(sim, cfg, std::make_unique<EveryMessageFallsBack>(),
                       std::make_unique<sim::IidDrop>(0.0));
  link.forward().set_receiver(
      [&nic_b](sim::Packet&& p) { nic_b.deliver(std::move(p)); });
  link.backward().set_receiver(
      [&nic_a](sim::Packet&& p) { nic_a.deliver(std::move(p)); });
  nic_a.add_route(2, &link.forward());
  nic_b.add_route(1, &link.backward());

  reliability::ReliableChannel::Options options;
  options.kind = reliability::ReliableChannel::Kind::kEcMds;
  options.ec.k = 4;
  options.ec.m = 2;
  options.profile.bandwidth_bps = cfg.bandwidth_bps;
  options.profile.rtt_s = rtt_s(cfg.distance_km);
  options.profile.mtu = 4096;
  options.profile.chunk_bytes = 4 * KiB;
  options.attr.mtu = 4096;
  options.attr.chunk_size = 4 * KiB;
  options.attr.max_msg_size = 16 * KiB;
  options.attr.max_inflight = 64;
  options.derive_timeouts();
  reliability::ReliableChannel channel(sim, nic_a, nic_b, options);

  std::vector<std::uint8_t> src(kMsgBytes);
  for (std::size_t i = 0; i < kMsgBytes; ++i) {
    src[i] = static_cast<std::uint8_t>(i * 151 + (i >> 12));
  }
  std::vector<std::uint8_t> dst(kMsgBytes, 0);

  struct Driver {
    reliability::ReliableChannel& channel;
    const std::vector<std::uint8_t>& src;
    std::vector<std::uint8_t>& dst;
    int posted{0};
    int completed{0};
    int corrupt{0};
    std::uint64_t allocs_at_steady{0};
    std::uint64_t fallbacks_at_steady{0};

    void post_pair() {
      if (posted >= kIterations) return;
      ++posted;
      std::memset(dst.data(), 0, dst.size());
      channel.recv(dst.data(), kMsgBytes,
                   [this](const Status&) { on_recv_done(); });
      channel.send(src.data(), kMsgBytes, [](const Status&) {});
    }
    void on_recv_done() {
      ++completed;
      if (std::memcmp(dst.data(), src.data(), kMsgBytes) != 0) ++corrupt;
      if (completed == kWarmup) {
        allocs_at_steady = g_allocs.load();
        fallbacks_at_steady = fallbacks();
      }
      post_pair();
    }
    std::uint64_t fallbacks() const {
      return channel.ec_receiver()->stats().fallback_submessages;
    }
  } driver{channel, src, dst};

  driver.post_pair();
  sim.run();

  ASSERT_EQ(driver.completed, kIterations);
  EXPECT_EQ(driver.corrupt, 0);
  const std::uint64_t steady_allocs = g_allocs.load() - driver.allocs_at_steady;
  EXPECT_EQ(driver.fallbacks() - driver.fallbacks_at_steady,
            static_cast<std::uint64_t>(kIterations - kWarmup))
      << "every measured message must take the fallback path";
  EXPECT_EQ(steady_allocs, 0u)
      << steady_allocs << " allocations in the steady-state window ("
      << (kIterations - kWarmup) << " EC fallback messages)";
}

// ---------------------------------------------------------------------------
// Reed-Solomon encode never allocates: its kernel constants are built when
// the codec is constructed. Covers the fleet geometry (RS(4,2) on 4 KiB
// chunks) and the bulk/Fig 11 one (RS(32,8) on 64 KiB chunks), under every
// kernel tier this host runs and under the dispatched one.
// ---------------------------------------------------------------------------
TEST(AllocRegressionTest, ZeroAllocsPerWarmedUpReedSolomonEncode) {
  struct Geometry {
    std::size_t k, m, block;
  };
  for (const Geometry g : {Geometry{4, 2, 4 * KiB}, Geometry{32, 8, 64 * KiB}}) {
    const ec::ReedSolomon codec(g.k, g.m);
    std::vector<std::vector<std::uint8_t>> blocks(
        g.k + g.m, std::vector<std::uint8_t>(g.block));
    for (std::size_t b = 0; b < g.k; ++b) {
      for (std::size_t i = 0; i < g.block; ++i) {
        blocks[b][i] = static_cast<std::uint8_t>(b * 29 + i * 13 + (i >> 8));
      }
    }
    std::vector<const std::uint8_t*> data(g.k);
    std::vector<std::uint8_t*> parity(g.m);
    for (std::size_t b = 0; b < g.k; ++b) data[b] = blocks[b].data();
    for (std::size_t p = 0; p < g.m; ++p) parity[p] = blocks[g.k + p].data();
    codec.encode(data, parity, g.block);  // resolves the dispatcher once
    const std::vector<std::vector<std::uint8_t>> expect(blocks.begin() + g.k,
                                                        blocks.end());

    std::uint64_t before = g_allocs.load();
    for (int rep = 0; rep < 4; ++rep) codec.encode(data, parity, g.block);
    EXPECT_EQ(g_allocs.load() - before, 0u) << codec.name() << " dispatched";
    for (const ec::GfIsa isa : {ec::GfIsa::kScalar, ec::GfIsa::kSsse3,
                                ec::GfIsa::kAvx2, ec::GfIsa::kGfni}) {
      const ec::GfKernels* kernels = ec::gf_kernels_for(isa);
      if (kernels == nullptr || !ec::isa_supported(isa)) continue;
      for (std::uint8_t* p : parity) std::memset(p, 0, g.block);
      before = g_allocs.load();
      codec.encode_with(*kernels, data, parity, g.block);
      EXPECT_EQ(g_allocs.load() - before, 0u)
          << codec.name() << " " << ec::isa_name(isa);
      for (std::size_t p = 0; p < g.m; ++p) {
        ASSERT_EQ(blocks[g.k + p], expect[p])
            << codec.name() << " " << ec::isa_name(isa) << " parity " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reed-Solomon decode is allocation-free once the thread has decoded at
// this k: matrices and coefficients live in a per-thread workspace (codecs
// are shared across threads, so they hold none). Every loss count up to m,
// under every kernel tier this host runs, byte-exact.
// ---------------------------------------------------------------------------
TEST(AllocRegressionTest, ZeroAllocsPerWarmedUpReedSolomonDecode) {
  constexpr std::size_t kK = 32;
  constexpr std::size_t kM = 8;
  constexpr std::size_t kBlock = 8 * KiB;
  const ec::ReedSolomon codec(kK, kM);

  std::vector<std::vector<std::uint8_t>> blocks(kK + kM,
                                                std::vector<std::uint8_t>(kBlock));
  for (std::size_t b = 0; b < kK; ++b) {
    for (std::size_t i = 0; i < kBlock; ++i) {
      blocks[b][i] = static_cast<std::uint8_t>(b * 37 + i * 11 + (i >> 9));
    }
  }
  const std::vector<std::vector<std::uint8_t>> original(blocks.begin(),
                                                        blocks.begin() + kK);
  std::vector<const std::uint8_t*> data(kK);
  std::vector<std::uint8_t*> parity(kM);
  std::vector<std::uint8_t*> all(kK + kM);
  for (std::size_t b = 0; b < kK + kM; ++b) all[b] = blocks[b].data();
  for (std::size_t b = 0; b < kK; ++b) data[b] = blocks[b].data();
  for (std::size_t p = 0; p < kM; ++p) parity[p] = blocks[kK + p].data();
  codec.encode(data, parity, kBlock);

  ec::PresenceMap present(kK + kM, true);
  for (const ec::GfIsa isa : {ec::GfIsa::kScalar, ec::GfIsa::kSsse3,
                              ec::GfIsa::kAvx2, ec::GfIsa::kGfni}) {
    const ec::GfKernels* kernels = ec::gf_kernels_for(isa);
    if (kernels == nullptr || !ec::isa_supported(isa)) continue;
    // Warm the workspace with one single-loss decode.
    present.assign(kK + kM, true);
    present[0] = false;
    ASSERT_TRUE(codec.decode_with(*kernels, all, present, kBlock));
    const std::uint64_t before = g_allocs.load();
    for (std::size_t lost = 1; lost <= kM; ++lost) {
      present.assign(kK + kM, true);
      for (std::size_t j = 0; j < lost; ++j) {
        const std::size_t victim = (j * 7 + lost) % kK;
        present[victim] = false;
        std::fill(blocks[victim].begin(), blocks[victim].end(), 0);
      }
      ASSERT_TRUE(codec.decode_with(*kernels, all, present, kBlock));
    }
    EXPECT_EQ(g_allocs.load() - before, 0u) << ec::isa_name(isa);
    for (std::size_t b = 0; b < kK; ++b) {
      ASSERT_EQ(blocks[b], original[b]) << ec::isa_name(isa) << " block " << b;
    }
  }
}

}  // namespace
}  // namespace sdr
