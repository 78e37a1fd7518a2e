// End-to-end tests of the executable EC reliability protocol: in-place
// recovery from drops via parity, clean path without fallback, FTO-driven
// SR fallback when losses exceed the code's tolerance, XOR vs MDS behavior.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "ec/reed_solomon.hpp"
#include "ec/xor_code.hpp"
#include "reliability/ec_protocol.hpp"
#include "reliability/reliable_channel.hpp"
#include "sdr/sdr.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"
#include "verbs/nic.hpp"

namespace sdr::reliability {
namespace {

core::QpAttr proto_attr() {
  core::QpAttr attr;
  attr.mtu = 1024;
  attr.chunk_size = 1024;          // 1 packet per chunk: fine-grained EC
  attr.max_msg_size = 64 * 1024;   // submessages: k chunks each
  attr.max_inflight = 64;          // data + parity submessages in flight
  attr.generations = 2;
  return attr;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed * 3 + i * 197 + (i >> 10));
  }
  return v;
}

class EcProtoFixture : public ::testing::Test {
 protected:
  void wire(double p_drop_fwd, double p_drop_bwd, bool use_xor = false,
            std::size_t k = 8, std::size_t m = 4) {
    // Tear down in strict reverse dependency order before replacing the
    // NIC pair: protocols reference QPs/controls, controls and contexts
    // reference the NICs.
    sender_.reset();
    receiver_.reset();
    ctrl_a_.reset();
    ctrl_b_.reset();
    ctx_a_.reset();
    ctx_b_.reset();
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 100.0;
    cfg.seed = 23;
    pair_ = verbs::make_connected_pair(sim_, cfg, p_drop_fwd, p_drop_bwd);
    ctx_a_ = std::make_unique<core::Context>(*pair_.a, core::DevAttr{});
    ctx_b_ = std::make_unique<core::Context>(*pair_.b, core::DevAttr{});
    qp_a_ = ctx_a_->create_qp(proto_attr());
    qp_b_ = ctx_b_->create_qp(proto_attr());
    qp_a_->connect(qp_b_->info());
    qp_b_->connect(qp_a_->info());

    ctrl_a_ = std::make_unique<ControlLink>(*pair_.a);
    ctrl_b_ = std::make_unique<ControlLink>(*pair_.b);
    ctrl_a_->connect(pair_.b->id(), ctrl_b_->qp_number());
    ctrl_b_->connect(pair_.a->id(), ctrl_a_->qp_number());

    profile_.bandwidth_bps = cfg.bandwidth_bps;
    profile_.rtt_s = 2.0 * propagation_delay_s(cfg.distance_km);
    profile_.p_drop_packet = p_drop_fwd;
    profile_.mtu = proto_attr().mtu;
    profile_.chunk_bytes = proto_attr().chunk_size;

    if (use_xor) {
      codec_ = std::make_unique<ec::XorCode>(k, m);
    } else {
      codec_ = std::make_unique<ec::ReedSolomon>(k, m);
    }
    EcProtoConfig config;
    config.k = k;
    config.m = m;
    config.fallback_rto_s = 3.0 * profile_.rtt_s;
    config.fallback_ack_interval_s = profile_.rtt_s / 4.0;
    sender_ = std::make_unique<EcSender>(sim_, *qp_a_, *ctrl_a_, profile_,
                                         *codec_, config);
    receiver_ = std::make_unique<EcReceiver>(sim_, *qp_b_, *ctrl_b_,
                                             profile_, *codec_, config);
  }

  void transfer(std::size_t bytes, std::uint8_t seed,
                bool expect_ok = true) {
    const auto src = pattern(bytes, seed);
    std::vector<std::uint8_t> dst(bytes, 0);
    const auto* mr = ctx_b_->mr_reg(dst.data(), dst.size());
    bool send_done = false, recv_done = false;
    ASSERT_TRUE(receiver_
                    ->expect(dst.data(), bytes, mr,
                             [&](const Status& s) {
                               EXPECT_EQ(s.is_ok(), expect_ok);
                               recv_done = true;
                             })
                    .is_ok());
    ASSERT_TRUE(sender_
                    ->write(src.data(), bytes,
                            [&](const Status& s) {
                              EXPECT_TRUE(s.is_ok());
                              send_done = true;
                            })
                    .is_ok());
    sim_.run();
    EXPECT_TRUE(recv_done);
    if (expect_ok) {
      EXPECT_TRUE(send_done);
      EXPECT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
    }
  }

  sim::Simulator sim_;
  verbs::NicPair pair_;
  std::unique_ptr<core::Context> ctx_a_, ctx_b_;
  core::Qp* qp_a_{nullptr};
  core::Qp* qp_b_{nullptr};
  std::unique_ptr<ControlLink> ctrl_a_, ctrl_b_;
  LinkProfile profile_;
  std::unique_ptr<ec::ErasureCodec> codec_;
  std::unique_ptr<EcSender> sender_;
  std::unique_ptr<EcReceiver> receiver_;
};

TEST_F(EcProtoFixture, LosslessCleanPath) {
  wire(0.0, 0.0);
  transfer(32 * 1024, 1);  // 4 submessages of 8 KiB
  EXPECT_EQ(receiver_->stats().decoded_submessages, 0u);
  EXPECT_EQ(receiver_->stats().clean_submessages, 4u);
  EXPECT_EQ(receiver_->stats().ftos_fired, 0u);
  EXPECT_EQ(sender_->stats().ec_nacks, 0u);
}

TEST_F(EcProtoFixture, RecoversDropsInPlaceWithoutRetransmission) {
  // With k=8, m=4 (tolerates 4 losses per submessage) and 3% loss, parity
  // almost always recovers: no FTO, no retransmission (Fig 8 right).
  wire(0.03, 0.0);
  transfer(64 * 1024, 2);  // 8 submessages
  EXPECT_GT(receiver_->stats().decoded_submessages +
                receiver_->stats().clean_submessages,
            7u);
  EXPECT_EQ(sender_->stats().fallback_retransmissions, 0u);
  EXPECT_GT(receiver_->stats().decoded_submessages, 0u)
      << "3% loss over 512 packets should require at least one decode";
}

TEST_F(EcProtoFixture, FallsBackToSrUnderExcessiveLoss) {
  // 30% loss overwhelms RS(8,4) regularly: the FTO fires, failed
  // submessages are selectively repeated, and delivery still completes.
  wire(0.30, 0.0);
  transfer(32 * 1024, 3);
  EXPECT_GT(receiver_->stats().ftos_fired, 0u);
  EXPECT_GT(receiver_->stats().fallback_submessages, 0u);
  EXPECT_GT(sender_->stats().fallback_retransmissions, 0u);
}

TEST_F(EcProtoFixture, XorRecoversLightLoss) {
  wire(0.01, 0.0, /*use_xor=*/true);
  transfer(32 * 1024, 4);
}

TEST_F(EcProtoFixture, XorFallsBackEarlierThanMds) {
  // Fig 11 narrative: XOR trades CPU efficiency for resilience. At the
  // same loss rate XOR should need fallback (strictly weaker tolerance)
  // while MDS recovers in place. Compare fallback counts statistically.
  wire(0.08, 0.0, /*use_xor=*/true);
  for (int i = 0; i < 6; ++i) transfer(32 * 1024, static_cast<std::uint8_t>(i));
  const auto xor_ftos = receiver_->stats().ftos_fired;

  wire(0.08, 0.0, /*use_xor=*/false);
  for (int i = 0; i < 6; ++i) transfer(32 * 1024, static_cast<std::uint8_t>(i));
  const auto mds_ftos = receiver_->stats().ftos_fired;
  EXPECT_GT(xor_ftos, mds_ftos);
}

TEST_F(EcProtoFixture, SequentialMessages) {
  wire(0.05, 0.0);
  for (int i = 0; i < 8; ++i) {
    transfer(16 * 1024, static_cast<std::uint8_t>(10 + i));
  }
  EXPECT_EQ(sender_->stats().messages, 8u);
}

TEST_F(EcProtoFixture, SurvivesControlLoss) {
  wire(0.10, 0.05);
  transfer(32 * 1024, 5);
}

TEST_F(EcProtoFixture, MisalignedLengthRejected) {
  wire(0.0, 0.0);
  std::vector<std::uint8_t> buf(10 * 1024);
  const auto* mr = ctx_b_->mr_reg(buf.data(), buf.size());
  EXPECT_EQ(receiver_->expect(buf.data(), 10 * 1024 + 1, mr, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sender_->write(buf.data(), 1000, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EcProtoFixture, ParityBandwidthAccounting) {
  wire(0.0, 0.0);
  transfer(32 * 1024, 6);  // 4 submessages x (8 data + 4 parity) chunks
  EXPECT_EQ(sender_->stats().data_chunks_sent, 32u);
  EXPECT_EQ(sender_->stats().parity_chunks_sent, 16u);
}

// ---------------------------------------------------------------------------
// EC over a ReliableChannel: all-or-nothing posts and parity-buffer
// registration. RS(4,2) on 4 KiB chunks: one submessage is 16 KiB and
// takes two SDR slots (data + parity).
// ---------------------------------------------------------------------------

ReliableChannel::Options ec_channel_options(std::size_t max_inflight) {
  ReliableChannel::Options options;
  options.kind = ReliableChannel::Kind::kEcMds;
  options.ec.k = 4;
  options.ec.m = 2;
  options.attr.mtu = 4096;
  options.attr.chunk_size = 4096;
  options.attr.max_msg_size = 16 * 1024;
  options.attr.max_inflight = max_inflight;
  options.profile.bandwidth_bps = 100e9;
  options.profile.rtt_s = rtt_s(100.0);
  options.profile.mtu = 4096;
  options.profile.chunk_bytes = 4096;
  options.derive_timeouts();
  return options;
}

verbs::NicPair ec_channel_link(sim::Simulator& sim, double p_drop_fwd) {
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 100.0;
  cfg.seed = 29;
  return verbs::make_connected_pair(sim, cfg, p_drop_fwd, 0.0);
}

TEST(EcChannelTest, TableFullPostsNothingAndLaterMessagesMatch) {
  // Six slots. A (1 submessage) holds slots 0-1 while it is in flight; B
  // (3 submessages) needs slots 2-5 and 0-1, so posting it early used to
  // start B's data streams and first parity one-shot before failing on
  // slot 0. The orphans consumed message numbers on one side only (so B's
  // retry matched the wrong receives), and the released parity one-shot
  // read B's freed parity buffer once its CTS landed. The receiver had the
  // twin bug: an orphaned post shifted every later match.
  sim::Simulator sim;
  verbs::NicPair nics = ec_channel_link(sim, 0.0);
  ReliableChannel channel(sim, *nics.a, *nics.b, ec_channel_options(6));
  constexpr std::size_t kSub = 16 * 1024;

  struct Msg {
    std::vector<std::uint8_t> src, dst;
    bool sent{false}, received{false};
    explicit Msg(std::size_t subs, std::uint8_t seed)
        : src(pattern(subs * kSub, seed)), dst(subs * kSub, 0) {}
    Status send(ReliableChannel& ch) {
      return ch.send(src.data(), src.size(), [this](const Status& s) {
        EXPECT_TRUE(s.is_ok());
        sent = true;
      });
    }
    Status recv(ReliableChannel& ch) {
      return ch.recv(dst.data(), dst.size(), [this](const Status& s) {
        EXPECT_TRUE(s.is_ok());
        received = true;
      });
    }
    bool delivered() const { return sent && received && src == dst; }
  };
  Msg a(1, 1), b(3, 2), c(2, 3), d(2, 4);

  // Sender-side refusal: B would wrap onto A's open data stream.
  ASSERT_TRUE(a.recv(channel).is_ok());
  ASSERT_TRUE(a.send(channel).is_ok());
  EXPECT_EQ(b.send(channel).code(), StatusCode::kResourceExhausted);
  sim.run();
  EXPECT_TRUE(a.delivered());

  ASSERT_TRUE(b.recv(channel).is_ok());
  ASSERT_TRUE(b.send(channel).is_ok());
  sim.run();
  EXPECT_TRUE(b.delivered());

  // Receiver-side refusal: C holds slots 2-5, D needs 0-3.
  ASSERT_TRUE(c.recv(channel).is_ok());
  EXPECT_EQ(d.recv(channel).code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(c.send(channel).is_ok());
  sim.run();
  EXPECT_TRUE(c.delivered());

  ASSERT_TRUE(d.recv(channel).is_ok());
  ASSERT_TRUE(d.send(channel).is_ok());
  sim.run();
  EXPECT_TRUE(d.delivered());
}

TEST(EcChannelTest, ParityBuffersKeepOneRegistrationEach) {
  // The receiver registers its parity scratch once per pooled buffer, not
  // once per message: the NIC's MR count stops growing once the pool is
  // warm. Lossy, so the run also decodes through the pooled buffers.
  sim::Simulator sim;
  verbs::NicPair nics = ec_channel_link(sim, 1e-2);
  ReliableChannel channel(sim, *nics.a, *nics.b, ec_channel_options(32));
  constexpr std::size_t kBytes = 4 * 16 * 1024;
  const std::vector<std::uint8_t> src = pattern(kBytes, 9);
  std::vector<std::uint8_t> dst(kBytes, 0);

  std::size_t mrs_after_10 = 0;
  for (int i = 1; i <= 100; ++i) {
    std::fill(dst.begin(), dst.end(), 0);
    bool sent = false, received = false;
    ASSERT_TRUE(channel
                    .recv(dst.data(), kBytes,
                          [&](const Status& s) { received = s.is_ok(); })
                    .is_ok());
    ASSERT_TRUE(channel
                    .send(src.data(), kBytes,
                          [&](const Status& s) { sent = s.is_ok(); })
                    .is_ok());
    sim.run();
    ASSERT_TRUE(sent && received) << "message " << i;
    ASSERT_EQ(dst, src) << "message " << i;
    if (i == 10) mrs_after_10 = nics.b->pd().mr_count();
  }
  EXPECT_EQ(nics.b->pd().mr_count(), mrs_after_10);
  EXPECT_GT(channel.ec_receiver()->stats().decoded_submessages, 0u);
}

/// Drops the forward packets whose send index is scripted, and records when
/// each forward packet was sent.
class TimedScriptedDrop final : public sim::DropModel {
 public:
  TimedScriptedDrop(const sim::Simulator& sim, std::set<std::uint64_t> drops)
      : sim_(sim), drops_(std::move(drops)) {}
  bool should_drop(Rng& /*rng*/, std::size_t /*bytes*/) override {
    sent_at_s.push_back(sim_.now().seconds());
    return drops_.count(sent_at_s.size() - 1) != 0;
  }
  std::vector<double> sent_at_s;

 private:
  const sim::Simulator& sim_;
  std::set<std::uint64_t> drops_;
};

TEST(EcFallbackTest, RetransmissionsBackOffLikeSelectiveRepeat) {
  // RS(4,2), one packet per chunk, one submessage. Forward send indices:
  // data 0-3, parity 4-5; dropping 0-2 and both parity chunks is beyond
  // the code, so the FTO fires and the submessage falls back, resending
  // its chunks as 6-9. Chunk 0's fallback send (6) and its first two RTO
  // retransmissions (10, 11) are dropped too (no parity can stand in for
  // it); 12 delivers it. Each retry must double the
  // chunk's timeout, within SR's 1.25x jitter — not re-arm a constant RTO.
  sim::Simulator sim;
  sim::Channel::Config cfg;
  cfg.bandwidth_bps = 100e9;
  cfg.distance_km = 100.0;
  cfg.seed = 1;
  auto drop = std::make_unique<TimedScriptedDrop>(
      sim, std::set<std::uint64_t>{0, 1, 2, 4, 5, 6, 10, 11});
  const TimedScriptedDrop& sent = *drop;
  verbs::Nic nic_a(sim, 1), nic_b(sim, 2);
  sim::DuplexLink link(sim, cfg, std::move(drop),
                       std::make_unique<sim::IidDrop>(0.0));
  link.forward().set_receiver(
      [&nic_b](sim::Packet&& p) { nic_b.deliver(std::move(p)); });
  link.backward().set_receiver(
      [&nic_a](sim::Packet&& p) { nic_a.deliver(std::move(p)); });
  nic_a.add_route(2, &link.forward());
  nic_b.add_route(1, &link.backward());

  core::Context ctx_a(nic_a, core::DevAttr{});
  core::Context ctx_b(nic_b, core::DevAttr{});
  core::Qp* qa = ctx_a.create_qp(proto_attr());
  core::Qp* qb = ctx_b.create_qp(proto_attr());
  qa->connect(qb->info());
  qb->connect(qa->info());
  ControlLink ca(nic_a), cb(nic_b);
  ca.connect(2, cb.qp_number());
  cb.connect(1, ca.qp_number());

  LinkProfile profile;
  profile.bandwidth_bps = cfg.bandwidth_bps;
  profile.rtt_s = rtt_s(cfg.distance_km);
  profile.mtu = proto_attr().mtu;
  profile.chunk_bytes = proto_attr().chunk_size;
  ec::ReedSolomon codec(4, 2);
  EcProtoConfig config;
  config.k = 4;
  config.m = 2;
  config.fallback_rto_s = 3.0 * profile.rtt_s;
  config.fallback_ack_interval_s = profile.rtt_s / 4.0;
  EcSender sender(sim, *qa, ca, profile, codec, config);
  EcReceiver receiver(sim, *qb, cb, profile, codec, config);

  const std::size_t len = 4 * proto_attr().chunk_size;
  const auto src = pattern(len, 5);
  std::vector<std::uint8_t> dst(len, 0);
  const auto* mr = ctx_b.mr_reg(dst.data(), dst.size());
  bool ok = false;
  ASSERT_TRUE(receiver
                  .expect(dst.data(), len, mr,
                          [&](const Status& s) { ok = s.is_ok(); })
                  .is_ok());
  ASSERT_TRUE(sender.write(src.data(), len, [](const Status&) {}).is_ok());
  sim.run();

  ASSERT_TRUE(ok);
  EXPECT_EQ(std::memcmp(dst.data(), src.data(), len), 0);
  EXPECT_EQ(receiver.stats().fallback_submessages, 1u);
  EXPECT_EQ(sender.stats().fallback_retransmissions, 4u + 3u);
  ASSERT_GE(sent.sent_at_s.size(), 13u);
  const std::vector<double>& t = sent.sent_at_s;
  const double rto = config.fallback_rto_s;
  const double gaps[] = {t[10] - t[6], t[11] - t[10], t[12] - t[11]};
  // First timeout: the base RTO, jittered by up to 25%.
  EXPECT_GE(gaps[0], rto * 0.99);
  EXPECT_LE(gaps[0], rto * 1.25 * 1.01);
  for (int i = 1; i < 3; ++i) {
    const double ratio = gaps[i] / gaps[i - 1];
    EXPECT_GE(ratio, 2.0 / 1.25 * 0.99) << "retry " << i;
    EXPECT_LE(ratio, 2.0 * 1.25 * 1.01) << "retry " << i;
  }
}

}  // namespace
}  // namespace sdr::reliability
