#include "check/runner.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common/payload_pool.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "ec/reed_solomon.hpp"
#include "reliability/ec_protocol.hpp"
#include "reliability/sr_protocol.hpp"
#include "sdr/sdr.hpp"
#include "sim/channel.hpp"
#include "sim/drop_model.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "verbs/nic.hpp"

namespace sdr::check {

namespace {

// Per-arm RNG stream salts: every arm gets its own channel randomness so a
// differential mismatch cannot hide behind identical drop draws.
constexpr std::uint64_t kSrArmSalt = 0x51;
constexpr std::uint64_t kEcArmSalt = 0xEC;
constexpr std::uint64_t kRcArmSalt = 0x2C;

// RNG stream salt for the far-horizon timer probe (same draws in every arm
// so the perturbation is identical across the differential comparison).
constexpr std::uint64_t kFarTimerStream = 0xFA57;

// Event budget for the post-completion quiescence drain: far above any
// residual timer count a healthy run leaves behind (final-ACK repeats, EC
// global timeouts), far below anything that would mask a timer livelock.
constexpr std::uint64_t kQuiesceBudget = 500000;

double chunk_injection(const Scenario& s) {
  return injection_time_s(s.chunk_bytes(), s.bandwidth_bps);
}

/// Static SR/EC-fallback RTO. Floored by chunk injection backlog so a
/// low-bandwidth scenario doesn't degenerate into a spurious
/// retransmission storm (mirrors ReliableChannel::derive_timeouts).
double base_rto(const Scenario& s) {
  return s.rto_rtt_multiple * std::max(s.rtt_s(), 8.0 * chunk_injection(s));
}

double ack_interval(const Scenario& s) {
  return std::max(s.rtt_s() / 8.0, 4.0 * chunk_injection(s));
}

double mean_drop_probability(const Scenario& s) {
  switch (s.drop) {
    case DropKind::kClean:
      return 0.0;
    case DropKind::kIid:
      return s.iid_p;
    case DropKind::kGilbertElliott: {
      const double pi_bad =
          s.ge_p_good_to_bad / (s.ge_p_good_to_bad + s.ge_p_bad_to_good);
      return pi_bad * s.ge_loss_bad + (1.0 - pi_bad) * s.ge_loss_good;
    }
    case DropKind::kScripted: {
      const std::size_t total = s.total_data_packets();
      return total == 0 ? 0.0
                        : static_cast<double>(s.scripted_drops.size()) /
                              static_cast<double>(total);
    }
  }
  return 0.0;
}

std::unique_ptr<sim::DropModel> make_forward_drop(
    const Scenario& s, sim::ScriptedDrop** scripted_out) {
  *scripted_out = nullptr;
  switch (s.drop) {
    case DropKind::kClean:
      return std::make_unique<sim::IidDrop>(0.0);
    case DropKind::kIid:
      return std::make_unique<sim::IidDrop>(s.iid_p);
    case DropKind::kGilbertElliott:
      return std::make_unique<sim::GilbertElliott>(
          s.ge_p_good_to_bad, s.ge_p_bad_to_good, s.ge_loss_good,
          s.ge_loss_bad);
    case DropKind::kScripted: {
      auto drop = std::make_unique<sim::ScriptedDrop>(s.scripted_drops);
      *scripted_out = drop.get();
      return drop;
    }
  }
  return std::make_unique<sim::IidDrop>(0.0);
}

/// Fresh two-NIC fabric for one arm: forward channel carries the
/// scenario's loss/reorder/duplication, backward (control/ACK) path is
/// lossless (see Scenario docs on the CTS liveness assumption).
struct Fabric {
  sim::Simulator sim;
  std::unique_ptr<verbs::Nic> a;
  std::unique_ptr<verbs::Nic> b;
  sim::ScriptedDrop* scripted{nullptr};
  std::unique_ptr<sim::DuplexLink> link;

  Fabric(const Scenario& s, std::uint64_t arm_salt) {
    sim::Channel::Config cfg;
    cfg.bandwidth_bps = s.bandwidth_bps;
    cfg.distance_km = s.distance_km;
    cfg.reorder_probability = s.reorder_probability;
    cfg.reorder_extra_delay_s = s.reorder_extra_delay_s;
    cfg.duplicate_probability = s.duplicate_probability;
    cfg.seed = derive_seed(s.seed, arm_salt);
    a = std::make_unique<verbs::Nic>(sim, 1);
    b = std::make_unique<verbs::Nic>(sim, 2);
    link = std::make_unique<sim::DuplexLink>(
        sim, cfg, make_forward_drop(s, &scripted),
        std::make_unique<sim::IidDrop>(0.0));
    link->forward().set_receiver(
        [nic = b.get()](sim::Packet&& p) { nic->deliver(std::move(p)); });
    link->backward().set_receiver(
        [nic = a.get()](sim::Packet&& p) { nic->deliver(std::move(p)); });
    a->add_route(2, &link->forward());
    b->add_route(1, &link->backward());
    // Draw trial-level drop state (Gilbert-Elliott starts from its
    // stationary distribution, like the benches do).
    link->forward().new_trial();
  }
};

core::QpAttr qp_attr_for(const Scenario& s, bool ec) {
  core::QpAttr attr;
  attr.mtu = s.mtu;
  attr.chunk_size = s.chunk_bytes();
  std::size_t max_bytes = attr.chunk_size;
  for (std::size_t i = 0; i < s.messages.size(); ++i) {
    // EC posts one SDR message per submessage (k data chunks) plus one per
    // parity block (m chunks); SR posts the whole message as one.
    const std::size_t bytes =
        ec ? s.ec_k * attr.chunk_size : s.message_bytes(i);
    max_bytes = std::max(max_bytes, bytes);
  }
  attr.max_msg_size = max_bytes;
  std::size_t inflight = 8;
  if (ec) {
    for (std::size_t i = 0; i < s.messages.size(); ++i) {
      inflight += 2 * (s.ec_padded_chunks(i) / s.ec_k);
    }
  } else {
    inflight += s.messages.size();
  }
  attr.max_inflight = std::min<std::size_t>(inflight, 1024);
  return attr;
}

reliability::LinkProfile profile_for(const Scenario& s) {
  reliability::LinkProfile p;
  p.bandwidth_bps = s.bandwidth_bps;
  p.rtt_s = s.rtt_s();
  p.p_drop_packet = mean_drop_probability(s);
  p.mtu = s.mtu;
  p.chunk_bytes = s.chunk_bytes();
  return p;
}

std::string render_timeline(const std::vector<telemetry::TraceEvent>& events,
                            std::size_t tail) {
  std::string out;
  const std::size_t begin = events.size() > tail ? events.size() - tail : 0;
  if (begin > 0) {
    out += "  ... (" + std::to_string(begin) + " earlier events)\n";
  }
  char buf[160];
  for (std::size_t i = begin; i < events.size(); ++i) {
    const telemetry::TraceEvent& e = events[i];
    std::snprintf(buf, sizeof(buf), "  t=%.9f %-14s qp=%u", e.t.seconds(),
                  telemetry::to_string(e.type), e.qp);
    out += buf;
    if (e.msg != telemetry::kNoMsg) out += " msg=" + std::to_string(e.msg);
    if (e.chunk != telemetry::kNoChunk) {
      out += " chunk=" + std::to_string(e.chunk);
    }
    if (e.bytes != 0) out += " bytes=" + std::to_string(e.bytes);
    out += "\n";
  }
  return out;
}

/// Shared post-run oracles on the trace: timestamps must never regress
/// (ring order is emission order, which follows the simulator clock).
void check_trace_monotone(const std::vector<telemetry::TraceEvent>& events,
                          ArmResult& r) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].t < events[i - 1].t) {
      r.failures.push_back(
          "trace timestamps regressed at event " + std::to_string(i) +
          ": t=" + std::to_string(events[i].t.seconds()) + " after t=" +
          std::to_string(events[i - 1].t.seconds()));
      return;
    }
  }
}

void check_scripted_consumed(const Fabric& fabric, ArmResult& r) {
  if (fabric.scripted == nullptr) return;
  const std::vector<std::uint64_t> unused = fabric.scripted->unused_indices();
  if (unused.empty()) return;
  std::string msg = "scripted drop indices never reached by any send:";
  for (const std::uint64_t idx : unused) msg += " " + std::to_string(idx);
  r.failures.push_back(std::move(msg));
}

void quiesce_and_check(sim::Simulator& sim, ArmResult& r) {
  std::uint64_t budget = kQuiesceBudget;
  while (sim.pending() != 0 && budget != 0) {
    sim.step();
    --budget;
  }
  if (sim.pending() != 0) {
    r.failures.push_back(
        "event queue did not quiesce after completion (" +
        std::to_string(sim.pending()) +
        " events still pending — timer leak or livelock)");
  }
}

/// Far-horizon timer probe (Scenario::far_timers): schedules timers past
/// the wheel's 2^36 ns horizon so overflow-heap entries coexist with the
/// protocol's event stream for the whole run, cancels every other one to
/// exercise lazy overflow cancellation, then — after the protocol has
/// drained — fires the survivors and asserts they ran in timestamp order
/// (FIFO among equal timestamps) at exactly their deadlines.
struct FarTimerProbe {
  sim::Simulator* sim{nullptr};
  std::vector<std::int64_t> expected;  // survivor deadlines, schedule order
  std::vector<std::int64_t> fired;     // (deadline) appended at fire time
  std::vector<std::string> errors;
  std::int64_t last_ns{0};

  void arm(sim::Simulator& simulator, const Scenario& s) {
    if (!s.far_timers) return;
    sim = &simulator;
    Rng rng(derive_seed(s.seed, kFarTimerStream));
    const auto horizon = static_cast<std::int64_t>(
        sim::Simulator::kWheelHorizonNs);
    for (std::size_t i = 0; i < s.far_timer_count; ++i) {
      const std::int64_t when =
          horizon + static_cast<std::int64_t>(rng.next_below(
                        3 * sim::Simulator::kWheelHorizonNs));
      const sim::EventId id =
          sim->schedule_at(SimTime{when}, [this, when] {
            if (sim->now().ns != when) {
              errors.push_back("far timer fired at t=" +
                               std::to_string(sim->now().ns) +
                               "ns, scheduled for " + std::to_string(when) +
                               "ns");
            }
            fired.push_back(when);
          });
      if (i % 2 == 1) {
        // Cancel every other timer: overflow entries are invalidated
        // lazily, so the heap keeps a stale node until it surfaces.
        if (!sim->cancel(id)) {
          errors.push_back("cancelling far timer " + std::to_string(i) +
                           " failed");
        }
      } else {
        expected.push_back(when);
        last_ns = std::max(last_ns, when);
      }
    }
  }

  /// Run the simulator to the last survivor and check order. Call after
  /// the protocol's own completion checks, before the quiesce oracle.
  void drain_and_check(ArmResult& r) {
    if (sim == nullptr) return;
    sim->run_until(SimTime{last_ns});
    for (std::string& e : errors) r.failures.push_back(std::move(e));
    std::vector<std::int64_t> want = expected;
    std::stable_sort(want.begin(), want.end());
    if (fired != want) {
      r.failures.push_back(
          "far-horizon timers fired out of order: " +
          std::to_string(fired.size()) + " fired of " +
          std::to_string(want.size()) + " expected");
    }
  }
};

/// First differing offset, or SIZE_MAX when equal.
std::size_t first_mismatch(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return static_cast<std::size_t>(-1);
}

// Shared state the scheduled post events and completion callbacks touch.
// Heap-free closures: sim events capture only {pointer, index}.
struct ProtoRun {
  sim::Simulator* sim{nullptr};
  reliability::SrSender* sr_snd{nullptr};
  reliability::SrReceiver* sr_rcv{nullptr};
  reliability::EcSender* ec_snd{nullptr};
  reliability::EcReceiver* ec_rcv{nullptr};
  std::vector<std::vector<std::uint8_t>> src;
  std::vector<std::vector<std::uint8_t>> dst;
  std::vector<const verbs::MemoryRegion*> mr;
  std::vector<double> recv_done;
  std::vector<double> send_done;
  std::vector<std::string> errors;

  void post(std::size_t i) {
    const std::size_t len = src[i].size();
    auto on_recv = [this, i](const Status& st) {
      if (st.is_ok()) {
        recv_done[i] = sim->now().seconds();
      } else {
        errors.push_back("message " + std::to_string(i) +
                         " receive failed: " + st.message());
      }
    };
    auto on_send = [this, i](const Status& st) {
      if (st.is_ok()) {
        send_done[i] = sim->now().seconds();
      } else {
        errors.push_back("message " + std::to_string(i) +
                         " send failed: " + st.message());
      }
    };
    // Receiver first: SDR matches the i-th posted receive to the i-th
    // posted send, and both ends post in the same event.
    Status rs = ec_rcv ? ec_rcv->expect(dst[i].data(), len, mr[i],
                                        std::move(on_recv))
                       : sr_rcv->expect(dst[i].data(), len, mr[i],
                                        std::move(on_recv));
    if (!rs) {
      errors.push_back("message " + std::to_string(i) +
                       " expect() rejected: " + rs.message());
      return;
    }
    Status ss = ec_snd
                    ? ec_snd->write(src[i].data(), len, std::move(on_send))
                    : sr_snd->write(src[i].data(), len, std::move(on_send));
    if (!ss) {
      errors.push_back("message " + std::to_string(i) +
                       " write() rejected: " + ss.message());
    }
  }
};

ArmResult run_protocol_arm(const Scenario& s, const RunnerOptions& opts,
                           bool ec) {
  ArmResult r;
  r.name = ec ? "ec"
              : (s.sr_flavor == SrFlavor::kNack ? "sr_nack" : "sr_rto");
  const std::size_t pool_before = common::payload_pool().live_slots();
  telemetry::Tracer trace;
  if (opts.capture_trace) trace.arm(opts.trace_capacity);
  telemetry::FlightRecorder flight;
  if (opts.capture_flight) flight.arm(opts.flight_capacity);
  telemetry::SpanRecorder span_rec;
  if (opts.capture_spans) {
    span_rec.arm(opts.span_capacity);
    span_rec.track(r.name);
  }
  telemetry::ScopedTelemetry scoped(
      nullptr, opts.capture_trace ? &trace : nullptr,
      opts.capture_spans ? &span_rec : nullptr,
      opts.capture_flight ? &flight : nullptr);
  {
    Fabric fabric(s, ec ? kEcArmSalt : kSrArmSalt);
    core::Context ctx_a(*fabric.a, core::DevAttr{});
    core::Context ctx_b(*fabric.b, core::DevAttr{});
    const core::QpAttr attr = qp_attr_for(s, ec);
    core::Qp* qa = ctx_a.create_qp(attr);
    core::Qp* qb = ctx_b.create_qp(attr);
    if (qa == nullptr || qb == nullptr) {
      r.failures.push_back("QP creation failed (attr invalid?)");
      return r;
    }
    qa->connect(qb->info());
    qb->connect(qa->info());
    reliability::ControlLink ca(*fabric.a), cb(*fabric.b);
    ca.connect(2, cb.qp_number());
    cb.connect(1, ca.qp_number());

    const reliability::LinkProfile profile = profile_for(s);
    const double rto = base_rto(s);
    const double ack_iv = ack_interval(s);
    std::optional<ec::ReedSolomon> codec;
    std::optional<reliability::EcSender> ec_snd;
    std::optional<reliability::EcReceiver> ec_rcv;
    std::optional<reliability::SrSender> sr_snd;
    std::optional<reliability::SrReceiver> sr_rcv;
    if (ec) {
      codec.emplace(s.ec_k, s.ec_m);
      reliability::EcProtoConfig cfg;
      cfg.k = s.ec_k;
      cfg.m = s.ec_m;
      cfg.fallback_rto_s = rto;
      cfg.fallback_ack_interval_s = ack_iv;
      ec_snd.emplace(fabric.sim, *qa, ca, profile, *codec, cfg);
      ec_rcv.emplace(fabric.sim, *qb, cb, profile, *codec, cfg);
    } else {
      reliability::SrProtoConfig cfg;
      cfg.rto_s = rto;
      cfg.ack_interval_s = ack_iv;
      cfg.nack_enabled = s.sr_flavor == SrFlavor::kNack;
      cfg.nack_holdoff_s = s.rtt_s();
      cfg.adaptive_rto = s.adaptive_rto;
      sr_snd.emplace(fabric.sim, *qa, ca, profile, cfg);
      sr_rcv.emplace(fabric.sim, *qb, cb, profile, cfg);
    }

    const std::size_t n = s.messages.size();
    ProtoRun run;
    run.sim = &fabric.sim;
    run.sr_snd = sr_snd ? &*sr_snd : nullptr;
    run.sr_rcv = sr_rcv ? &*sr_rcv : nullptr;
    run.ec_snd = ec_snd ? &*ec_snd : nullptr;
    run.ec_rcv = ec_rcv ? &*ec_rcv : nullptr;
    run.recv_done.assign(n, -1.0);
    run.send_done.assign(n, -1.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t bytes =
          ec ? s.ec_padded_chunks(i) * s.chunk_bytes() : s.message_bytes(i);
      run.src.push_back(message_pattern(s.seed, i, bytes));
      run.dst.emplace_back(bytes, 0);
      run.mr.push_back(ctx_b.mr_reg(run.dst[i].data(), bytes));
    }
    for (std::size_t i = 0; i < n; ++i) {
      fabric.sim.schedule(SimTime::from_seconds(s.messages[i].post_delay_s),
                          [p = &run, i] { p->post(i); });
    }
    FarTimerProbe far_probe;
    far_probe.arm(fabric.sim, s);
    if (!ec && s.perturb_rto && sr_snd) {
      fabric.sim.schedule(
          SimTime::from_seconds(s.perturb_at_s),
          [p = &*sr_snd, nr = rto * s.perturb_rto_multiple] {
            p->set_static_rto(nr);
          });
    }

    fabric.sim.run_until(SimTime::from_seconds(s.horizon_s()));

    r.done_at_s = run.recv_done;
    for (std::string& e : run.errors) r.failures.push_back(std::move(e));
    bool all_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (run.recv_done[i] < 0.0 || run.send_done[i] < 0.0) {
        all_done = false;
        r.failures.push_back(
            "message " + std::to_string(i) +
            " did not complete by the deadline (recv_done=" +
            (run.recv_done[i] < 0 ? "never"
                                  : std::to_string(run.recv_done[i])) +
            ", send_done=" +
            (run.send_done[i] < 0 ? "never"
                                  : std::to_string(run.send_done[i])) +
            ", horizon=" + std::to_string(s.horizon_s()) + "s)");
      }
    }
    far_probe.drain_and_check(r);
    if (all_done && r.failures.empty()) {
      quiesce_and_check(fabric.sim, r);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t off =
          first_mismatch(run.dst[i].data(), run.src[i].data(),
                         run.src[i].size());
      if (off != static_cast<std::size_t>(-1)) {
        r.failures.push_back("message " + std::to_string(i) +
                             " bytes differ at offset " + std::to_string(off) +
                             " (got " + std::to_string(run.dst[i][off]) +
                             ", want " + std::to_string(run.src[i][off]) +
                             ")");
      }
    }
    check_scripted_consumed(fabric, r);
    r.retransmissions = ec ? ec_snd->stats().fallback_retransmissions
                           : sr_snd->stats().retransmissions;
    for (std::size_t i = 0; i < n; ++i) {
      r.received.insert(r.received.end(), run.dst[i].begin(),
                        run.dst[i].begin() +
                            static_cast<std::ptrdiff_t>(s.message_bytes(i)));
    }
  }
  const std::size_t pool_after = common::payload_pool().live_slots();
  if (pool_after != pool_before) {
    r.failures.push_back("payload-pool slot leak at teardown: " +
                         std::to_string(pool_before) + " live slots before, " +
                         std::to_string(pool_after) + " after");
  }
  if (opts.capture_trace) {
    r.trace = trace.collect();
    check_trace_monotone(r.trace, r);
    if (!r.ok()) r.timeline = render_timeline(r.trace, opts.timeline_tail);
  }
  if (opts.capture_flight) r.flight_json = flight.to_json();
  if (opts.capture_spans) {
    span_rec.append_chrome_events(r.chrome_events, opts.span_pid_base);
  }
  return r;
}

}  // namespace

std::vector<std::uint8_t> message_pattern(std::uint64_t seed,
                                          std::size_t index,
                                          std::size_t bytes) {
  std::vector<std::uint8_t> v(bytes);
  const std::uint64_t mix = splitmix64_mix(seed ^ (0xA5A5A5A5ULL + index));
  for (std::size_t i = 0; i < bytes; ++i) {
    v[i] = static_cast<std::uint8_t>(mix + i * 131 + (i >> 8) * 7);
  }
  return v;
}

ArmResult run_sr_arm(const Scenario& s, const RunnerOptions& opts) {
  return run_protocol_arm(s, opts, /*ec=*/false);
}

ArmResult run_ec_arm(const Scenario& s, const RunnerOptions& opts) {
  return run_protocol_arm(s, opts, /*ec=*/true);
}

ArmResult run_rc_arm(const Scenario& s, const RunnerOptions& opts) {
  ArmResult r;
  r.name = s.rc_go_back_n ? "rc_gbn" : "rc_sr";
  const std::size_t pool_before = common::payload_pool().live_slots();
  telemetry::Tracer trace;
  if (opts.capture_trace) trace.arm(opts.trace_capacity);
  telemetry::FlightRecorder flight;
  if (opts.capture_flight) flight.arm(opts.flight_capacity);
  telemetry::SpanRecorder span_rec;
  if (opts.capture_spans) {
    span_rec.arm(opts.span_capacity);
    span_rec.track(r.name);
  }
  telemetry::ScopedTelemetry scoped(
      nullptr, opts.capture_trace ? &trace : nullptr,
      opts.capture_spans ? &span_rec : nullptr,
      opts.capture_flight ? &flight : nullptr);
  {
    Fabric fabric(s, kRcArmSalt);
    verbs::CompletionQueue tx_cq(1 << 12), rx_cq(1 << 12);
    verbs::QpConfig qcfg;
    qcfg.type = verbs::QpType::kRC;
    qcfg.mtu = s.mtu;
    qcfg.rc_mode = s.rc_go_back_n ? verbs::RcMode::kGoBackN
                                  : verbs::RcMode::kSelectiveRepeat;
    std::size_t total_bytes = 0;
    for (std::size_t i = 0; i < s.messages.size(); ++i) {
      total_bytes += s.message_bytes(i);
    }
    // Timeout above the full first-pass injection backlog: a timeout that
    // fires mid-injection would trigger spurious go-back-N storms; loss
    // recovery inside the stream is NAK-driven and does not wait for it.
    qcfg.rc_ack_timeout_s =
        std::max(2.0 * s.rtt_s(),
                 injection_time_s(total_bytes, s.bandwidth_bps));
    qcfg.rc_retry_limit = 64;
    verbs::QpConfig tx_cfg = qcfg;
    tx_cfg.send_cq = &tx_cq;
    verbs::QpConfig rx_cfg = qcfg;
    rx_cfg.recv_cq = &rx_cq;
    verbs::Qp* tx = fabric.a->create_qp(tx_cfg);
    verbs::Qp* rx = fabric.b->create_qp(rx_cfg);
    tx->connect(2, rx->num());
    rx->connect(1, tx->num());

    const std::size_t n = s.messages.size();
    std::vector<std::vector<std::uint8_t>> src;
    std::vector<std::size_t> offset(n, 0);
    std::size_t off = 0;
    for (std::size_t i = 0; i < n; ++i) {
      offset[i] = off;
      src.push_back(message_pattern(s.seed, i, s.message_bytes(i)));
      off += s.message_bytes(i);
    }
    std::vector<std::uint8_t> dst(total_bytes, 0);
    const verbs::MemoryRegion* mr =
        fabric.b->pd().register_mr(dst.data(), dst.size());

    struct RcRun {
      verbs::Qp* tx;
      std::vector<std::vector<std::uint8_t>>* src;
      std::vector<std::size_t>* offset;
      verbs::MemoryKey rkey;
      std::vector<std::string> errors;
    } run{tx, &src, &offset, mr->rkey(), {}};
    for (std::size_t i = 0; i < n; ++i) {
      fabric.sim.schedule(SimTime::from_seconds(s.messages[i].post_delay_s),
                          [p = &run, i] {
                            verbs::WriteWr wr;
                            wr.wr_id = i;
                            wr.local_addr = (*p->src)[i].data();
                            wr.length = (*p->src)[i].size();
                            wr.rkey = p->rkey;
                            wr.remote_offset = (*p->offset)[i];
                            wr.with_imm = true;
                            wr.imm = static_cast<std::uint32_t>(i);
                            if (Status st = p->tx->post_write(wr); !st) {
                              p->errors.push_back(
                                  "post_write rejected: " + st.message());
                            }
                          });
    }
    FarTimerProbe far_probe;
    far_probe.arm(fabric.sim, s);

    fabric.sim.run_until(SimTime::from_seconds(s.horizon_s()));

    for (std::string& e : run.errors) r.failures.push_back(std::move(e));
    // CQE ordering oracle: RC completes strictly in post (== PSN) order on
    // both sides; the receive side additionally proves ePSN monotonicity
    // (a reordered or replayed message would surface out of order here).
    // Posting order is by post_delay (index breaks ties — the simulator's
    // event queue is FIFO at equal times), not by message index.
    std::vector<std::size_t> post_order(n);
    for (std::size_t i = 0; i < n; ++i) post_order[i] = i;
    std::stable_sort(post_order.begin(), post_order.end(),
                     [&s](std::size_t a, std::size_t b) {
                       return s.messages[a].post_delay_s <
                              s.messages[b].post_delay_s;
                     });
    std::size_t tx_seen = 0;
    while (std::optional<verbs::Cqe> cqe = tx_cq.poll_one()) {
      if (cqe->status != verbs::WcStatus::kSuccess) {
        r.failures.push_back("tx CQE for wr " + std::to_string(cqe->wr_id) +
                             " failed with status " +
                             std::to_string(static_cast<int>(cqe->status)));
        ++tx_seen;
        continue;
      }
      if (tx_seen < n && cqe->wr_id != post_order[tx_seen]) {
        r.failures.push_back("tx CQE order violated: got wr " +
                             std::to_string(cqe->wr_id) + ", expected wr " +
                             std::to_string(post_order[tx_seen]) +
                             " (post order)");
      }
      ++tx_seen;
    }
    if (tx_seen != n) {
      r.failures.push_back("only " + std::to_string(tx_seen) + " of " +
                           std::to_string(n) +
                           " messages completed on the sender by the deadline");
    }
    std::size_t rx_seen = 0;
    r.done_at_s.assign(n, -1.0);
    while (std::optional<verbs::Cqe> cqe = rx_cq.poll_one()) {
      if (rx_seen < n && cqe->imm != post_order[rx_seen]) {
        r.failures.push_back("rx CQE order violated (ePSN): got imm " +
                             std::to_string(cqe->imm) + ", expected imm " +
                             std::to_string(post_order[rx_seen]) +
                             " (post order)");
      }
      ++rx_seen;
    }
    if (rx_seen != n) {
      r.failures.push_back("only " + std::to_string(rx_seen) + " of " +
                           std::to_string(n) +
                           " messages completed on the receiver by the "
                           "deadline");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t miss = first_mismatch(
          dst.data() + offset[i], src[i].data(), src[i].size());
      if (miss != static_cast<std::size_t>(-1)) {
        r.failures.push_back("message " + std::to_string(i) +
                             " bytes differ at offset " +
                             std::to_string(miss));
      }
    }
    far_probe.drain_and_check(r);
    if (r.failures.empty()) {
      quiesce_and_check(fabric.sim, r);
    }
    check_scripted_consumed(fabric, r);
    r.retransmissions = tx->stats().rc_retransmissions;
    r.received.insert(r.received.end(), dst.begin(), dst.end());
  }
  const std::size_t pool_after = common::payload_pool().live_slots();
  if (pool_after != pool_before) {
    r.failures.push_back("payload-pool slot leak at teardown: " +
                         std::to_string(pool_before) + " live slots before, " +
                         std::to_string(pool_after) + " after");
  }
  if (opts.capture_trace) {
    r.trace = trace.collect();
    check_trace_monotone(r.trace, r);
    if (!r.ok()) r.timeline = render_timeline(r.trace, opts.timeline_tail);
  }
  if (opts.capture_flight) r.flight_json = flight.to_json();
  if (opts.capture_spans) {
    span_rec.append_chrome_events(r.chrome_events, opts.span_pid_base);
  }
  return r;
}

}  // namespace sdr::check
