// Telemetry acceptance tests: the registry mirrors the legacy stats structs
// exactly (external-pointer binding, not duplication), the tracer tells a
// dropped-then-retransmitted chunk's full cross-layer story in sim-time
// order, and the periodic sampler's time series is bit-identical across two
// same-seed runs. Plus edge-case coverage for the Histogram/RunningStats
// primitives the registry builds on.
#include <gtest/gtest.h>

#include <cstring>
#include <ios>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/nic.hpp"

namespace sdr::telemetry {
namespace {

using reliability::ControlLink;
using reliability::LinkProfile;
using reliability::SrProtoConfig;
using reliability::SrReceiver;
using reliability::SrSender;

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 131 + (i >> 9));
  }
  return v;
}

/// A full SR-over-SDR stack on one lossy simulated link, built fresh per
/// test (the telemetry registry registers components at construction, so
/// each rig starts from a clean registry). Owns its simulator so repeated
/// rigs replay identical sim-time histories.
struct LossyRig {
  LossyRig(double p_drop_fwd, std::size_t chunk_size, std::uint64_t seed,
           bool nack = false, std::size_t queue_capacity_bytes = 0) {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = 100e9;
    cfg.distance_km = 100.0;  // ~1 ms RTT
    cfg.seed = seed;
    cfg.queue_capacity_bytes = queue_capacity_bytes;
    pair = verbs::make_connected_pair(sim, cfg, p_drop_fwd, 0.0);
    ctx_a = std::make_unique<core::Context>(*pair.a, core::DevAttr{});
    ctx_b = std::make_unique<core::Context>(*pair.b, core::DevAttr{});
    core::QpAttr attr;
    attr.mtu = 1024;
    attr.chunk_size = static_cast<std::uint32_t>(chunk_size);
    attr.max_msg_size = 256 * 1024;
    attr.max_inflight = 8;
    attr.generations = 2;
    qp_a = ctx_a->create_qp(attr);
    qp_b = ctx_b->create_qp(attr);
    qp_a->connect(qp_b->info());
    qp_b->connect(qp_a->info());

    ctrl_a = std::make_unique<ControlLink>(*pair.a);
    ctrl_b = std::make_unique<ControlLink>(*pair.b);
    ctrl_a->connect(pair.b->id(), ctrl_b->qp_number());
    ctrl_b->connect(pair.a->id(), ctrl_a->qp_number());

    profile.bandwidth_bps = cfg.bandwidth_bps;
    profile.rtt_s = 2.0 * propagation_delay_s(cfg.distance_km);
    profile.p_drop_packet = p_drop_fwd;
    profile.mtu = attr.mtu;
    profile.chunk_bytes = chunk_size;

    SrProtoConfig config;
    config.rto_s = 3.0 * profile.rtt_s;
    config.ack_interval_s = profile.rtt_s / 4.0;
    config.nack_enabled = nack;
    config.nack_holdoff_s = profile.rtt_s;
    sender = std::make_unique<SrSender>(sim, *qp_a, *ctrl_a, profile, config);
    receiver =
        std::make_unique<SrReceiver>(sim, *qp_b, *ctrl_b, profile, config);
  }

  void transfer(std::size_t bytes, std::uint8_t seed) {
    const auto src = pattern(bytes, seed);
    std::vector<std::uint8_t> dst(bytes, 0);
    const auto* mr = ctx_b->mr_reg(dst.data(), dst.size());
    bool send_done = false, recv_done = false;
    ASSERT_TRUE(receiver
                    ->expect(dst.data(), bytes, mr,
                             [&](const Status& s) {
                               EXPECT_TRUE(s.is_ok());
                               recv_done = true;
                             })
                    .is_ok());
    ASSERT_TRUE(sender
                    ->write(src.data(), bytes,
                            [&](const Status& s) {
                              EXPECT_TRUE(s.is_ok());
                              send_done = true;
                            })
                    .is_ok());
    sim.run();
    ASSERT_TRUE(send_done && recv_done);
    ASSERT_EQ(std::memcmp(dst.data(), src.data(), bytes), 0);
  }

  sim::Simulator sim;
  verbs::NicPair pair;
  std::unique_ptr<core::Context> ctx_a, ctx_b;
  core::Qp* qp_a{nullptr};
  core::Qp* qp_b{nullptr};
  std::unique_ptr<ControlLink> ctrl_a, ctrl_b;
  LinkProfile profile;
  std::unique_ptr<SrSender> sender;
  std::unique_ptr<SrReceiver> receiver;
};

class TelemetryStackTest : public ::testing::Test {
 protected:
  void TearDown() override {
    tracer().disarm();
    registry().disable();
    spans().disarm();
    flight().disarm();
    profiler().disarm();
  }
};

// --- tentpole acceptance: registry mirrors legacy stats structs ----------

TEST_F(TelemetryStackTest, RegistryCountersMatchLegacyStats) {
  registry().enable();
  LossyRig rig(0.02, 4096, /*seed=*/5);
  rig.transfer(128 * 1024, 2);

  const auto& ss = rig.sender->stats();
  EXPECT_GT(ss.retransmissions, 0u) << "want a genuinely lossy transfer";

  auto& reg = registry();
  // The first SR sender/receiver constructed after enable() get instance 0.
  EXPECT_EQ(reg.counter_value("reliability.sr.sender0.messages"), ss.messages);
  EXPECT_EQ(reg.counter_value("reliability.sr.sender0.chunks_sent"),
            ss.chunks_sent);
  EXPECT_EQ(reg.counter_value("reliability.sr.sender0.retransmissions"),
            ss.retransmissions);
  EXPECT_EQ(reg.counter_value("reliability.sr.sender0.acks_received"),
            ss.acks_received);
  EXPECT_EQ(reg.counter_value("reliability.sr.sender0.nacks_received"),
            ss.nacks_received);

  const auto& rs = rig.receiver->stats();
  EXPECT_EQ(reg.counter_value("reliability.sr.receiver0.acks_sent"),
            rs.acks_sent);
  EXPECT_EQ(reg.counter_value("reliability.sr.receiver0.nacks_sent"),
            rs.nacks_sent);

  // SDR QP a (sender side) registers first -> sdr.qp0.
  const auto& qa = rig.qp_a->stats();
  EXPECT_EQ(reg.counter_value("sdr.qp0.cts_received"), qa.cts_received);
  EXPECT_EQ(reg.counter_value("sdr.qp0.data_packets_sent"),
            qa.data_packets_sent);
  EXPECT_EQ(reg.counter_value("sdr.qp0.completions_processed"),
            qa.completions_processed);
  const auto& qb = rig.qp_b->stats();
  EXPECT_EQ(reg.counter_value("sdr.qp1.cts_sent"), qb.cts_sent);
  EXPECT_EQ(reg.counter_value("sdr.qp1.completions_processed"),
            qb.completions_processed);

  // The channel saw every drop the SR layer had to repair.
  EXPECT_GT(reg.counter_value("sim.channel0.dropped_packets") +
                reg.counter_value("sim.channel1.dropped_packets"),
            0u);

  // RTT histogram fed by mark_acked: one sample per first-transmission ACK.
  const Histogram* rtt =
      reg.find_histogram("reliability.sr.sender0.rtt_sample_s");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count(), 0u);
  EXPECT_GE(rtt->mean(), rig.profile.rtt_s * 0.5);

  // Export is well-formed and covers every entry.
  std::vector<FlatMetric> flat;
  reg.flatten(flat);
  EXPECT_GE(flat.size(), reg.size());
  const std::string jsonl = reg.to_jsonl();
  EXPECT_NE(jsonl.find("reliability.sr.sender0.retransmissions"),
            std::string::npos);
}

// --- tentpole acceptance: tracer timeline for a retransmitted chunk ------

TEST_F(TelemetryStackTest, TracerChunkTimelineForDroppedChunk) {
  registry().enable();
  tracer().arm();
  // chunk == MTU so the SDR packet index equals the SR chunk index and one
  // chunk is exactly one wire packet.
  LossyRig rig(0.05, 1024, /*seed=*/7);
  rig.transfer(64 * 1024, 3);
  ASSERT_GT(rig.sender->stats().retransmissions, 0u);

  const auto events = tracer().collect();
  ASSERT_FALSE(events.empty());

  // Events are emitted while the simulator clock advances, so the ring is
  // already sim-time ordered.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t, events[i].t);
  }

  // Find a retransmitted chunk whose first transmission was dropped on the
  // wire, and check its full cross-layer story.
  bool found = false;
  for (const auto& r : events) {
    if (r.type != TraceEventType::kRetransmit || r.msg == kNoMsg) continue;
    const std::uint64_t msg = r.msg;
    const std::uint32_t chunk = r.chunk;
    // The chunk's immediate, learned from its posted event.
    std::uint32_t imm = kNoImm;
    for (const auto& e : events) {
      if (e.type == TraceEventType::kPosted && e.msg == msg &&
          e.chunk == chunk) {
        imm = e.imm;
        break;
      }
    }
    ASSERT_NE(imm, kNoImm) << "retransmitted chunk was never posted?";
    const auto timeline = tracer().chunk_timeline(msg, chunk, imm);
    ASSERT_FALSE(timeline.empty());

    auto first_time = [&](TraceEventType type) -> double {
      for (const auto& e : timeline) {
        if (e.type == type) return e.t.seconds();
      }
      return -1.0;
    };
    auto last_time = [&](TraceEventType type) -> double {
      double t = -1.0;
      for (const auto& e : timeline) {
        if (e.type == type) t = e.t.seconds();
      }
      return t;
    };

    const double posted = first_time(TraceEventType::kPosted);
    const double tx = first_time(TraceEventType::kTx);
    const double dropped = first_time(TraceEventType::kDropped);
    if (dropped < 0.0) continue;  // retransmit caused by a late ACK, skip
    const double rto = first_time(TraceEventType::kRtoFired);
    const double retx = first_time(TraceEventType::kRetransmit);
    const double delivered = last_time(TraceEventType::kDelivered);
    const double cqe = last_time(TraceEventType::kCqe);
    const double bitmap = last_time(TraceEventType::kBitmapUpdate);
    const double complete = first_time(TraceEventType::kMsgComplete);

    ASSERT_GE(posted, 0.0);
    ASSERT_GE(tx, 0.0);
    ASSERT_GE(rto, 0.0);
    ASSERT_GE(retx, 0.0);
    ASSERT_GE(delivered, 0.0);
    ASSERT_GE(cqe, 0.0);
    ASSERT_GE(bitmap, 0.0);
    ASSERT_GE(complete, 0.0);

    EXPECT_LE(posted, tx);
    EXPECT_LE(tx, dropped);
    EXPECT_LE(dropped, rto);
    EXPECT_LE(rto, retx);
    EXPECT_LE(retx, delivered);
    EXPECT_LE(delivered, cqe);
    EXPECT_LE(cqe, bitmap);
    EXPECT_LE(bitmap, complete);
    found = true;
    break;
  }
  EXPECT_TRUE(found)
      << "no retransmitted chunk had a wire-level drop in its timeline";

  // JSONL export: filterable, one object per line, named event types.
  Tracer::Filter filter;
  filter.qp = kNoImm;
  const std::string jsonl = tracer().to_jsonl(filter);
  EXPECT_NE(jsonl.find("\"event\":\"retransmit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"msg_complete\""), std::string::npos);
}

// --- tentpole acceptance: sampler time series is run-to-run identical ----

TEST_F(TelemetryStackTest, SamplerTimeSeriesDeterministic) {
  auto run_once = [&]() -> std::string {
    registry().enable();
    Sampler sampler(registry(), /*period_s=*/1e-4);
    LossyRig rig(0.03, 1024, /*seed=*/11);
    sampler.attach(rig.sim);
    rig.transfer(64 * 1024, 4);
    std::string csv = sampler.to_csv();
    registry().disable();  // reset instance counters for the second run
    return csv;
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_GT(first.find('\n'), 0u);
  EXPECT_EQ(first, second) << "same seed must give a bit-identical series";
}

// --- registry unit behaviour ---------------------------------------------

TEST_F(TelemetryStackTest, DisabledRegistryHandsOutInertHandles) {
  ASSERT_FALSE(registry().enabled());
  Counter c = registry().counter("nobody.home");
  EXPECT_FALSE(c.live());
  c.inc(42);  // must be a no-op, not a crash
  EXPECT_EQ(c.value(), 0u);
  EXPECT_FALSE(registry().has("nobody.home"));

  Scope scope(registry(), "dead.scope");
  EXPECT_FALSE(scope.active());
  Gauge g = scope.gauge("g");
  g.set(1.0);
  EXPECT_EQ(g.value(), 0.0);

  // Components built while disabled never register, so the instrumented
  // stack stays metric-free.
  LossyRig rig(0.0, 4096, /*seed=*/1);
  EXPECT_EQ(registry().size(), 0u);
}

TEST_F(TelemetryStackTest, ScopeFreezesFinalValuesOnDestruction) {
  registry().enable();
  std::uint64_t bound = 0;
  double live_state = 7.5;
  {
    Scope scope(registry(), "ephemeral");
    Counter c = scope.counter("hits");
    c.inc(3);
    scope.bind_counter("bound", &bound);
    scope.bind_gauge("gauge", [&live_state] { return live_state; });
    bound = 41;
    EXPECT_EQ(registry().counter_value("ephemeral.hits"), 3u);
    EXPECT_EQ(registry().counter_value("ephemeral.bound"), 41u);
  }
  // The scope died (component gone) but the last values survive for
  // end-of-run export, detached from the dead component's storage.
  bound = 999;       // must not show through: the registry copied 41
  live_state = -1.0;  // ditto for the gauge callback
  EXPECT_EQ(registry().counter_value("ephemeral.hits"), 3u);
  EXPECT_EQ(registry().counter_value("ephemeral.bound"), 41u);
  EXPECT_DOUBLE_EQ(registry().gauge_value("ephemeral.gauge"), 7.5);
  registry().disable();
  EXPECT_FALSE(registry().has("ephemeral.hits"));
  EXPECT_EQ(registry().size(), 0u);
}

TEST_F(TelemetryStackTest, ScopeOutlivingClearFreezesNothingNewer) {
  // A Scope that dies after clear() must not freeze the entries other
  // components bound since: its old positions now name theirs.
  Registry reg;
  reg.enable();
  double a_state = 1.0;
  double b_state = 2.0;
  auto a = std::make_unique<Scope>(reg, "a");
  a->bind_gauge("g", [&a_state] { return a_state; });
  reg.clear();
  Scope b(reg, "b");
  b.bind_gauge("g", [&b_state] { return b_state; });
  a.reset();
  b_state = 3.0;
  EXPECT_DOUBLE_EQ(reg.gauge_value("b.g"), 3.0) << "b.g was frozen by a";
  EXPECT_FALSE(reg.has("a.g"));
}

TEST_F(TelemetryStackTest, InstanceNamesCountPerBase) {
  registry().enable();
  EXPECT_EQ(registry().instance_name("x.y"), "x.y0");
  EXPECT_EQ(registry().instance_name("x.y"), "x.y1");
  EXPECT_EQ(registry().instance_name("z"), "z0");
  registry().disable();
  registry().enable();
  EXPECT_EQ(registry().instance_name("x.y"), "x.y0") << "disable resets";
}

TEST_F(TelemetryStackTest, TracerRingIsBoundedAndOverwritesOldest) {
  tracer().arm(/*capacity=*/8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    tracer().emit(SimTime::from_seconds(i * 1e-3), TraceEventType::kTx,
                  /*qp=*/i);
  }
  EXPECT_EQ(tracer().size(), 8u);
  EXPECT_EQ(tracer().overwritten(), 12u);
  const auto events = tracer().collect();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().qp, 12u) << "oldest surviving event";
  EXPECT_EQ(events.back().qp, 19u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t, events[i].t);
  }
}

// --- spans: causal tree for a dropped-then-retransmitted chunk -----------

TEST_F(TelemetryStackTest, SpanTreeReconstructsDroppedChunkRecovery) {
  spans().arm();
  spans().track("sr_test");
  // chunk == MTU so one chunk is one wire attempt and indices line up.
  LossyRig rig(0.05, 1024, /*seed=*/7);
  rig.transfer(64 * 1024, 3);
  ASSERT_GT(rig.sender->stats().retransmissions, 0u);

  auto& sp = spans();
  ASSERT_GT(sp.size(), 0u);
  EXPECT_EQ(sp.truncated(), 0u);

  // Find a dropped wire attempt whose chunk tells the full recovery story:
  // attempt#0 (dropped) -> rto_fired -> retransmit -> attempt#1 delivered.
  bool found = false;
  for (SpanIndex i = 0; i < sp.size() && !found; ++i) {
    const Span& first = sp.at(i);
    if (first.kind != SpanKind::kAttempt ||
        first.outcome != SpanOutcome::kDropped) {
      continue;
    }
    ASSERT_NE(first.parent, kNoSpan);
    const Span& chunk = sp.at(first.parent);
    ASSERT_EQ(chunk.kind, SpanKind::kChunk);

    SpanIndex rto = kNoSpan, rtx = kNoSpan, second = kNoSpan;
    for (SpanIndex c : sp.children(first.parent)) {
      const Span& s = sp.at(c);
      if (s.kind == SpanKind::kInstant &&
          s.what == TraceEventType::kRtoFired && s.cause == i) {
        rto = c;
      } else if (s.kind == SpanKind::kInstant &&
                 s.what == TraceEventType::kRetransmit && rto != kNoSpan &&
                 s.cause == rto) {
        rtx = c;
      } else if (s.kind == SpanKind::kAttempt && rtx != kNoSpan &&
                 s.cause == rtx && s.outcome == SpanOutcome::kComplete) {
        second = c;
      }
    }
    if (rto == kNoSpan || rtx == kNoSpan || second == kNoSpan) continue;

    // Sim-time ordering along the causal chain.
    EXPECT_LE(first.begin, first.end);
    EXPECT_LE(first.end, sp.at(rto).begin);
    EXPECT_LE(sp.at(rto).begin, sp.at(rtx).begin);
    EXPECT_LE(sp.at(rtx).begin, sp.at(second).begin);
    EXPECT_GT(sp.at(second).attempt, first.attempt);

    // The chunk closed after its successful attempt, and the owning
    // message span closed after the chunk.
    EXPECT_EQ(chunk.outcome, SpanOutcome::kComplete);
    EXPECT_LE(sp.at(second).end, chunk.end);
    ASSERT_NE(chunk.parent, kNoSpan);
    const Span& msg = sp.at(chunk.parent);
    EXPECT_EQ(msg.kind, SpanKind::kMessage);
    EXPECT_EQ(msg.outcome, SpanOutcome::kComplete);
    EXPECT_LE(chunk.end, msg.end);
    EXPECT_EQ(sp.find_message(msg.msg), chunk.parent);
    found = true;
  }
  EXPECT_TRUE(found)
      << "no dropped attempt had a complete rto->retransmit->redelivery "
         "chain in the span tree";

  // Chrome export: valid wrapper, named track, named instants, flow links.
  const std::string json = sp.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("sr_test"), std::string::npos);
  EXPECT_NE(json.find("rto_fired"), std::string::npos);
  EXPECT_EQ(json[json.find_last_not_of('\n')], '}');
}

TEST_F(TelemetryStackTest, SpanPoolIsBoundedAndCountsTruncation) {
  spans().arm(/*capacity=*/4);
  LossyRig rig(0.05, 1024, /*seed=*/7);
  rig.transfer(16 * 1024, 3);
  EXPECT_LE(spans().size(), 4u);
  EXPECT_GT(spans().truncated(), 0u);
  // Export still works on a saturated pool.
  EXPECT_NE(spans().to_chrome_json().find("\"traceEvents\""),
            std::string::npos);
}

// --- flight recorder: bounded postmortem rings ---------------------------

TEST_F(TelemetryStackTest, FlightRingOverwritesOldestPerConnection) {
  flight().arm(/*per_conn_capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    flight().record(FlightLayer::kSr, /*conn=*/1, "tick",
                    SimTime::from_seconds(i * 1e-3), /*msg=*/i, i);
  }
  flight().record(FlightLayer::kRc, /*conn=*/2, "once", SimTime{}, 0);
  EXPECT_EQ(flight().connections(), 2u);
  const auto h = flight().history(1);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h.front().msg, 6u) << "oldest surviving record";
  EXPECT_EQ(h.back().msg, 9u);
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_LE(h[i - 1].t, h[i].t);
  }
  const std::string json = flight().to_json();
  EXPECT_NE(json.find("\"overwritten\":6"), std::string::npos);
  EXPECT_NE(json.find("\"conn\":2"), std::string::npos);
}

TEST_F(TelemetryStackTest, FlightRecordsProtocolStoryOfLossyTransfer) {
  flight().arm();
  LossyRig rig(0.05, 1024, /*seed=*/7);
  rig.transfer(64 * 1024, 3);
  ASSERT_GT(rig.sender->stats().retransmissions, 0u);
  EXPECT_GT(flight().connections(), 0u);
  const std::string json = flight().to_json();
  EXPECT_NE(json.find("\"what\":\"write\""), std::string::npos);
  EXPECT_NE(json.find("\"what\":\"rto_fired\""), std::string::npos);
  EXPECT_NE(json.find("\"what\":\"retransmit\""), std::string::npos);
  EXPECT_NE(json.find("\"what\":\"msg_done\""), std::string::npos);
}

// --- sink outputs pinned: every routing row, byte for byte ---------------

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void collect_flight_tags(const std::string& json, std::set<std::string>& out) {
  const std::string key = "\"what\":\"";
  for (std::size_t p = json.find(key); p != std::string::npos;
       p = json.find(key, p)) {
    p += key.size();
    const std::size_t end = json.find('"', p);
    out.insert(json.substr(p, end - p));
  }
}

// Three fixed sdrcheck seeds cover the SR-NACK (2), SR-RTO (27, 39), EC and
// RC arms with tracer, span recorder and flight recorder all armed; a
// tail-dropping SR rig adds the one transition sdrcheck scenarios never
// produce (egress queue drops). The digests pin every sink's output, and
// the coverage checks prove each event type and flight tag is in them.
TEST(TelemetrySinkDigestTest, EverySinkOutputPinnedAcrossArms) {
  std::uint64_t trace_digest = kFnvBasis;
  std::uint64_t chrome_digest = kFnvBasis;
  std::uint64_t flight_digest = kFnvBasis;
  std::set<TraceEventType> types;
  std::set<std::string> tags;

  check::CheckOptions opts;
  opts.capture_trace = true;
  opts.capture_flight = true;
  opts.capture_spans = true;
  std::set<std::string> arms;
  for (const std::uint64_t seed : {2u, 27u, 39u}) {
    const check::SeedReport report = check::check_seed(seed, opts);
    ASSERT_TRUE(report.ok()) << seed << ": " << report.failure_text();
    for (const check::ArmResult& arm : report.arms) {
      arms.insert(arm.name);
      trace_digest = fnv1a(trace_digest, arm.name);
      trace_digest = fnv1a(trace_digest, Tracer::to_jsonl(arm.trace));
      for (const TraceEvent& e : arm.trace) types.insert(e.type);
    }
    chrome_digest = fnv1a(chrome_digest, report.chrome_json());
    const std::string flight_json = report.flight_json();
    flight_digest = fnv1a(flight_digest, flight_json);
    collect_flight_tags(flight_json, tags);
  }
  EXPECT_TRUE(arms.count("sr_rto") && arms.count("sr_nack") &&
              arms.count("ec") &&
              (arms.count("rc_gbn") || arms.count("rc_sr")));

  {
    Tracer trc;
    SpanRecorder sp;
    FlightRecorder fl;
    trc.arm(1u << 14);
    sp.arm(1u << 14);
    sp.track("sr_queue");
    fl.arm();
    ScopedTelemetry scoped(nullptr, &trc, &sp, &fl);
    LossyRig rig(0.0, 4096, /*seed=*/3, /*nack=*/false,
                 /*queue_capacity_bytes=*/16 * 1024);
    rig.transfer(64 * 1024, 4);
    trace_digest = fnv1a(trace_digest, trc.to_jsonl());
    for (const TraceEvent& e : trc.collect()) types.insert(e.type);
    chrome_digest = fnv1a(chrome_digest, sp.to_chrome_json());
    const std::string flight_json = fl.to_json();
    flight_digest = fnv1a(flight_digest, flight_json);
    collect_flight_tags(flight_json, tags);
  }

  for (auto t = static_cast<int>(TraceEventType::kPosted);
       t <= static_cast<int>(TraceEventType::kMsgComplete); ++t) {
    EXPECT_TRUE(types.count(static_cast<TraceEventType>(t)))
        << "no " << to_string(static_cast<TraceEventType>(t)) << " event";
  }
  for (const char* tag :
       {"write", "ack_applied", "nack_applied", "msg_done", "ack_sent",
        "nack_sent", "msg_complete", "retransmit", "rto_fired",
        "enter_fallback", "sub_recovered", "ec_repair", "fto_fired",
        "rc_retransmit", "rc_nak", "rc_rto"}) {
    EXPECT_TRUE(tags.count(tag)) << "no flight record tagged " << tag;
  }
  EXPECT_EQ(tags.size(), 16u);

  EXPECT_EQ(trace_digest, 0x08c5fbf510dead53ull) << std::hex << trace_digest;
  EXPECT_EQ(chrome_digest, 0x6217162021adfce0ull) << std::hex << chrome_digest;
  EXPECT_EQ(flight_digest, 0xa4405943fa25c4e8ull) << std::hex << flight_digest;
}

// --- profiler: nested self-time attribution ------------------------------

TEST(ProfilerTest, NestedScopesAttributeSelfTime) {
  Profiler p;
  p.arm();
  auto spin = [] {
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink += i;
  };
  ASSERT_TRUE(p.enter(ProfCategory::kSim));
  spin();
  ASSERT_TRUE(p.enter(ProfCategory::kChannel));
  spin();
  p.leave();
  spin();
  p.leave();

  const auto& sim = p.entry(ProfCategory::kSim);
  const auto& chan = p.entry(ProfCategory::kChannel);
  EXPECT_EQ(sim.calls, 1u);
  EXPECT_EQ(chan.calls, 1u);
  EXPECT_GT(sim.self_ns, 0u);
  EXPECT_GT(chan.self_ns, 0u);
  // Self time excludes the nested scope, so neither side swallowed the
  // other: both spins attribute separately and sum to the total.
  EXPECT_EQ(p.total_self_ns(), sim.self_ns + chan.self_ns);
  const std::string table = p.table();
  EXPECT_NE(table.find("sim"), std::string::npos);
  EXPECT_NE(table.find("channel"), std::string::npos);
  p.disarm();
}

// --- ScopedTelemetry: full five-instrument install and restore -----------

TEST(ScopedTelemetryFullStack, FiveInstrumentsInstallNestAndRestore) {
  Registry reg;
  Tracer trc;
  SpanRecorder sp;
  FlightRecorder fl;
  Profiler pr;
  reg.enable();
  trc.arm(256);
  sp.arm(1024);
  fl.arm(8);
  pr.arm();
  ASSERT_FALSE(spanning());
  ASSERT_FALSE(flight_recording());
  ASSERT_FALSE(profiling());
  {
    ScopedTelemetry scoped(&reg, &trc, &sp, &fl, &pr);
    EXPECT_TRUE(spanning());
    EXPECT_TRUE(flight_recording());
    EXPECT_TRUE(profiling());
    EXPECT_EQ(&spans(), &sp);
    EXPECT_EQ(&flight(), &fl);
    EXPECT_EQ(&profiler(), &pr);
    flight().record(FlightLayer::kSr, 1, "probe", SimTime{}, 7);
    {
      SpanRecorder inner;  // deliberately disarmed
      ScopedTelemetry nested(nullptr, nullptr, &inner);
      EXPECT_EQ(&spans(), &inner);
      EXPECT_FALSE(spanning()) << "fast flag must track the disarmed inner";
      // nullptr slots mean "process default", not "inherit the enclosing
      // override" — the nested scope swaps flight back to the (disarmed)
      // default and the destructor reinstates fl.
      EXPECT_FALSE(flight_recording());
      EXPECT_NE(&flight(), &fl);
    }
    EXPECT_TRUE(flight_recording());
    EXPECT_EQ(&spans(), &sp);
    EXPECT_TRUE(spanning()) << "fast flag must resync on restore";
  }
  EXPECT_FALSE(spanning());
  EXPECT_FALSE(flight_recording());
  EXPECT_FALSE(profiling());
  EXPECT_EQ(fl.history(1).size(), 1u) << "record landed in the override";
}

// --- sampler: late-column footer ------------------------------------------

TEST(SamplerFooterTest, ColumnsFooterAppearsOnlyForMidRunColumns) {
  auto run_once = [](bool late_column) -> std::string {
    Registry reg;
    reg.enable();
    Sampler sampler(reg, 1e-3);
    Counter a = reg.counter("early.metric");
    a.inc(3);
    sampler.sample(0.0);
    if (late_column) {
      Counter b = reg.counter("late.metric");
      b.inc(5);
    }
    sampler.sample(1e-3);
    return sampler.to_csv();
  };

  const std::string with_late = run_once(true);
  EXPECT_NE(with_late.find("# columns: sim_time_s,early.metric,late.metric"),
            std::string::npos)
      << with_late;
  // The footer is the last line, after every data row.
  EXPECT_GT(with_late.find("# columns:"), with_late.rfind("0.001,"));

  const std::string without = run_once(false);
  EXPECT_EQ(without.find("# columns:"), std::string::npos) << without;

  // Determinism: identical runs give bit-identical output, footer included.
  EXPECT_EQ(with_late, run_once(true));
  EXPECT_EQ(without, run_once(false));
}

// --- satellite: Histogram / RunningStats edge cases ----------------------

TEST(ThreadScopedTelemetryTest, ThreadsWithOwnInstancesNeverCrossWire) {
  // Two threads each install a private Registry/Tracer via ScopedTelemetry
  // and hammer identically named metrics. With any shared state the counts,
  // instance names, or trace rings would interleave; per-thread resolution
  // keeps every observation local, and the process-wide default stays
  // untouched throughout.
  Registry& process_default = registry();
  ASSERT_FALSE(process_default.enabled());

  constexpr int kIters = 5000;
  struct Outcome {
    std::uint64_t count{0};
    std::size_t traces{0};
    std::string instance0;
    bool saw_own_registry{false};
  };
  Outcome outcomes[2];
  auto body = [&](int id) {
    Registry reg;
    Tracer trc;
    reg.enable();
    trc.arm(1u << 14);  // holds both threads' full event streams

    ScopedTelemetry scoped(&reg, &trc);
    outcomes[id].saw_own_registry = (&registry() == &reg) && enabled();
    outcomes[id].instance0 = registry().instance_name("sim.channel");
    auto c = registry().counter("contended.name");
    for (int i = 0; i < kIters * (id + 1); ++i) {
      c.inc();
      if (tracing()) {
        tracer().emit(SimTime::from_seconds(i * 1e-6),
                      TraceEventType::kTx, static_cast<std::uint32_t>(id));
      }
    }
    outcomes[id].count = reg.counter_value("contended.name");
    outcomes[id].traces = trc.size();
  };
  std::thread t0(body, 0), t1(body, 1);
  t0.join();
  t1.join();

  for (int id = 0; id < 2; ++id) {
    EXPECT_TRUE(outcomes[id].saw_own_registry) << id;
    EXPECT_EQ(outcomes[id].instance0, "sim.channel0") << id;
    EXPECT_EQ(outcomes[id].count,
              static_cast<std::uint64_t>(kIters * (id + 1))) << id;
    EXPECT_EQ(outcomes[id].traces,
              static_cast<std::size_t>(kIters * (id + 1))) << id;
  }
  EXPECT_FALSE(process_default.enabled());
  EXPECT_FALSE(process_default.has("contended.name"));
  EXPECT_EQ(&registry(), &process_default);
}

TEST(HistogramEdgeCases, MergeEmptyIsIdentity) {
  Histogram a(1e-6, 10.0);
  a.record(0.5);
  a.record(2.0);
  const Histogram empty(1e-6, 10.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.25);

  Histogram b(1e-6, 10.0);
  b.merge(a);  // merge into empty
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.percentile(100.0), a.percentile(100.0));
}

TEST(HistogramEdgeCases, ValuesClampToRange) {
  Histogram h(1e-3, 1.0);
  h.record(1e-9);   // below range -> clamped into the bottom bucket
  h.record(100.0);  // above range -> clamped into the top bucket
  EXPECT_EQ(h.count(), 2u);
  // True extremes are preserved by the min/max trackers even when the
  // bucket index saturates.
  EXPECT_DOUBLE_EQ(h.min(), 1e-9);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Percentile answers stay inside the representable range.
  EXPECT_GE(h.percentile(50.0), 0.0);
  EXPECT_LE(h.percentile(0.0), h.percentile(100.0));
}

TEST(HistogramEdgeCases, SingleBucketPercentiles) {
  Histogram h(1e-6, 10.0);
  for (int i = 0; i < 1000; ++i) h.record(0.123);
  EXPECT_EQ(h.count(), 1000u);
  // Everything is in one bucket: every percentile lands near the value.
  const double p50 = h.percentile(50.0);
  const double p999 = h.percentile(99.9);
  EXPECT_NEAR(p50, 0.123, 0.123 * 0.1);
  EXPECT_NEAR(p999, 0.123, 0.123 * 0.1);
  EXPECT_DOUBLE_EQ(h.median(), p50);
}

TEST(RunningStatsEdgeCases, MergeMatchesSinglePassReference) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-5.0, 20.0);
  RunningStats whole, left, right;
  for (int i = 0; i < 2000; ++i) {
    const double x = dist(rng);
    whole.add(x);
    (i % 3 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsEdgeCases, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty right side
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  EXPECT_DOUBLE_EQ(a.stddev(), a_copy.stddev());
  b.merge(a);  // empty left side
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  EXPECT_DOUBLE_EQ(b.min(), 1.0);
  EXPECT_DOUBLE_EQ(b.max(), 3.0);
}

}  // namespace
}  // namespace sdr::telemetry
