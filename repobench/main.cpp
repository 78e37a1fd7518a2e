// repobench: the repository benchmark.
//
//   repobench --workload fleet_ec|fleet_sr|bulk_ec --seed N --seconds S
//             --trace 0|1 [--commit ID --dirty 0|1 --source-sha HEX]
//
// One process, one thread, one workload per invocation. A run measures
// set-up several times, runs one warm-up repetition (the reference for
// determinism), then repeats the workload until `--seconds` of host time
// have passed and reports medians over the repetitions.
//
//   --trace 0  end-to-end metrics, tracing off.
//   --trace 1  per-layer metrics: half the time untraced, then set-up
//              samples and half the time with the telemetry registry and
//              profiler armed (the ratio of steady-state rates is
//              trace_overhead), then one repetition with allocation
//              attribution.
//
// Every repetition is checked: delivered == posted, no failures, queue
// drained, no leaked payload slots, no misrouted packets, bulk_ec payload
// bytes against their seeded pattern, and simulated figures + digest
// bit-identical to the warm-up. Any violation makes the run incorrect and
// the exit code 1. The last stdout line is the JSON result; the line before
// it is the stamped RECORD (host, build, commit, per-repetition samples).
#include <sys/resource.h>
#include <unistd.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#ifdef SDR_HAVE_OPENMP
#include <omp.h>
#endif

#include "alloc_probe.hpp"
#include "common/cpu.hpp"
#include "ec/gf256_kernels.hpp"
#include "ec/reed_solomon.hpp"
#include "telemetry/telemetry.hpp"
#include "timed_codec.hpp"
#include "workloads.hpp"

namespace repobench {
namespace {

using namespace sdr;  // NOLINT

// Seeds: kDefaultSeed is the one to iterate on; a claimed gain must also
// hold on kHeldOutSeed, which is not to be used while tuning a change.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7;

// Set-up is sampled at least kSetupSamples times (kTracedSetupSamples with
// tracing armed, where a fleet set-up takes seconds) and for at least
// kSetupSampleS; its figure is the median.
constexpr std::size_t kSetupSamples = 15;
constexpr std::size_t kTracedSetupSamples = 3;
constexpr double kSetupSampleS = 1.0;

enum class Kind { kFleet, kBulk };

struct Workload {
  const char* name;
  Kind kind;
  fleet::Scheme scheme;
};

constexpr Workload kWorkloads[] = {
    // fleet_ec: 256 endpoints, ~4100 open-loop messages, EC(4,2) on 4 KiB
    // chunks over 3750 km at 1e-3 loss. Per-message protocol state and
    // simulator event count dominate here (EC allocation work, the
    // EcSender::reap poll, any multi-core engine); the codec does little.
    {"fleet_ec", Kind::kFleet, fleet::Scheme::kEc},
    // fleet_sr: the same fleet, seed and geometry under selective repeat:
    // retransmission path, channel, NIC injection model and fleet engine,
    // with no EC protocol or codec in the loop. The "should not move" side
    // of every EC change.
    {"fleet_sr", Kind::kFleet, fleet::Scheme::kSr},
    // bulk_ec: one connection, closed loop, seeded 2/4/6 MiB messages,
    // RS(32,8) on 64 KiB chunks (paper Fig 11 geometry) over 100 Gbit/s,
    // 1000 km, 1e-3.
    // The same EC layer used per byte: codec, SDR per-packet completion and
    // the channel dominate; fleet, NIC model and sharding do not run.
    {"bulk_ec", Kind::kBulk, fleet::Scheme::kEc},
};

struct Args {
  const Workload* workload{nullptr};
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  int trace{0};
  std::string commit{"unknown"};
  std::string dirty{"unknown"};
  std::string source_sha{"unknown"};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += fmt_num(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Stamps
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

int process_threads() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

int omp_threads() {
#ifdef SDR_HAVE_OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Workload runner
// ---------------------------------------------------------------------------

struct Outcome {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> violations;

  /// Records a repetition's failed checks.
  void note(const RepResult& r, const char* phase) {
    for (const std::string& v : r.violations) {
      violations.push_back(std::string(phase) + ": " + v);
    }
    correct = violations.empty() && failed == 0;
  }

  /// Counts a repetition and checks it; the first repetition of a seed
  /// becomes that seed's reference.
  void absorb(const RepResult& r, std::optional<SimFigures>& reference,
              const char* phase) {
    attempted += r.sim.posted;
    failed += r.sim.failed;
    note(r, phase);
    if (!reference) {
      reference = r.sim;
    } else if (!(r.sim == *reference)) {
      violations.push_back(std::string(phase) +
                           ": simulated figures differ between repetitions "
                           "of one seed");
    }
    correct = violations.empty() && failed == 0;
  }
};

// Runs one workload's repetitions. They cycle through sub-seeds derived
// from --seed (the first is --seed itself), so one run's figures cover
// several fleets or message orders rather than one seed's stragglers and
// peak in-flight footprint; every sub-seed repeats, and each repetition
// must reproduce its sub-seed's first figures bit for bit. A bulk_ec
// repetition takes about 3 s, so it cycles through fewer sub-seeds.
class Runner {
 public:
  static constexpr std::size_t kFleetSubSeeds = 7;
  static constexpr std::size_t kBulkSubSeeds = 3;

  struct Rep {
    RepResult r;
    std::size_t sub{0};  // sub-seed index
    double loop_s{0.0};  // message-loop host seconds
    double rate{0.0};    // delivered messages per loop second
  };

  Runner(const Workload& w, std::uint64_t seed)
      : w_(w), rs_(kBulkK, kBulkM), timed_(rs_) {
    const std::size_t n = w.kind == Kind::kFleet ? kFleetSubSeeds : kBulkSubSeeds;
    for (std::size_t i = 0; i < n; ++i) {
      seeds_.push_back(i == 0 ? seed : derive_seed(seed, i));
    }
    refs_.resize(n);
  }

  bool fleet() const { return w_.kind == Kind::kFleet; }
  std::size_t sub_seeds() const { return seeds_.size(); }
  const TimedCodec& timed() const { return timed_; }
  Outcome& outcome() { return outcome_; }

  /// One set-up sample on sub-seed `sub`: run_s is its host seconds.
  /// Fleets time run_fleet on the real plan stopped before the first
  /// arrival, and count (and, with `attribute`, attribute) its allocations.
  RepResult setup_once(std::size_t sub = 0, bool attribute = false) {
    RepResult r;
    if (w_.kind == Kind::kBulk) {
      r.run_s = bulk_setup_rep(seeds_[sub], rs_, buffers());
    } else {
      r = fleet_setup_rep(fleet_setup_config(w_.scheme, seeds_[sub]), attribute);
    }
    outcome_.note(r, "set-up");
    return r;
  }
  /// The set-up time a fleet repetition's wall time is reduced by:
  /// untraced, and with tracing armed (with the telemetry registry enabled,
  /// building and tearing down a fleet takes seconds).
  void set_setup_s(double s) { setup_s_ = s; }
  void set_traced_setup_s(double s) { traced_setup_s_ = s; }
  /// Counts every sub-seed's set-up allocations: each plan sizes its own
  /// message tables and buffers, so set-up work differs between fleets.
  void count_setup_allocs() {
    setup_allocs_.assign(seeds_.size(), 0);
    if (w_.kind == Kind::kBulk) return;  // built outside the counted loop
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      setup_allocs_[i] = setup_once(i).allocs;
    }
  }

  /// Runs and checks the next repetition of the sub-seed cycle. A traced
  /// repetition runs bulk_ec over the timing codec.
  Rep next(const char* phase, bool traced = false) {
    const std::size_t sub = cursor_++ % seeds_.size();
    Rep rep;
    rep.sub = sub;
    rep.r = run_sub(sub, traced, false);
    outcome_.absorb(rep.r, refs_[sub], phase);
    // Fleets: run_fleet() wall time minus the measured set-up.
    const double setup = traced ? traced_setup_s_ : setup_s_;
    rep.loop_s = w_.kind == Kind::kBulk ? rep.r.run_s : rep.r.run_s - setup;
    rep.rate = ratio(static_cast<double>(rep.r.sim.completed), rep.loop_s);
    return rep;
  }

  /// Rate samples of a repetition: bulk_ec's per-window rates when it has
  /// them (many samples per repetition), else the repetition's own rate.
  static void append_rates(const Rep& rep, std::vector<double>& out) {
    if (rep.r.window_rates.empty()) {
      out.push_back(rep.rate);
    } else {
      out.insert(out.end(), rep.r.window_rates.begin(), rep.r.window_rates.end());
    }
  }

  /// Steady-state allocations per delivered message. A fleet repetition
  /// includes its set-up, so its sub-seed's set-up count is taken off.
  double allocs_per_msg(const Rep& rep) const {
    return per_msg(rep.r.allocs, setup_allocs_[rep.sub], rep.r);
  }
  double layer_allocs_per_msg(const RepResult& r, Layer l) const {
    const auto i = static_cast<std::size_t>(l);
    return per_msg(r.layer_allocs[i], setup_layers_[i], r);
  }

  /// Attribution repetition on the first sub-seed (set-up attributed too).
  RepResult attributed() {
    setup_layers_ = setup_once(0, true).layer_allocs;
    RepResult r = run_sub(0, false, true);
    outcome_.absorb(r, refs_[0], "attribution");
    return r;
  }

  /// The run's simulated end-to-end figures: per metric, the median over
  /// sub-seeds (a fleet's makespan, and so its goodput, jumps when one late
  /// message needs a retransmission timeout; the median of seven fleets
  /// does not).
  struct SimMetrics {
    double goodput_gbps{0.0};
    double p50_ms{0.0};
    double p99_ms{0.0};
  };
  SimMetrics sim_metrics() const {
    std::vector<double> goodput, p50, p99;
    for (const auto& ref : refs_) {
      if (!ref) continue;
      goodput.push_back(
          ratio(static_cast<double>(ref->useful_bytes) * 8.0, ref->makespan_s) / 1e9);
      p50.push_back(ref->p50_ms);
      p99.push_back(ref->p99_ms);
    }
    return {median(goodput), median(p50), median(p99)};
  }
  /// Figures of the first sub-seed (the per-layer fleet metrics).
  const SimFigures& first() const { return *refs_[0]; }

  /// Order-sensitive digest over every sub-seed's reference digest.
  std::uint64_t digest() const {
    std::uint64_t h = 0;
    for (const auto& ref : refs_) {
      if (ref) h = splitmix64_mix(h ^ ref->digest);
    }
    return h;
  }

 private:
  static double per_msg(std::uint64_t count, std::uint64_t setup_count,
                        const RepResult& r) {
    return ratio(static_cast<double>(count) - static_cast<double>(setup_count),
                 static_cast<double>(r.sim.completed));
  }

  RepResult run_sub(std::size_t sub, bool timed_codec, bool attribute) {
    if (w_.kind == Kind::kBulk) {
      const ec::ErasureCodec& codec = timed_codec ? timed_ : static_cast<const ec::ErasureCodec&>(rs_);
      return run_bulk_rep(seeds_[sub], codec, buffers(), kBulkMessages, attribute);
    }
    return run_fleet_rep(fleet_config(w_.scheme, seeds_[sub]), attribute);
  }

  BulkBuffers& buffers() {
    if (!buffers_) buffers_ = std::make_unique<BulkBuffers>();
    return *buffers_;
  }

  const Workload& w_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::optional<SimFigures>> refs_;
  std::size_t cursor_{0};
  Outcome outcome_;
  std::unique_ptr<BulkBuffers> buffers_;  // bulk_ec only
  ec::ReedSolomon rs_;
  TimedCodec timed_;
  double setup_s_{0.0};
  double traced_setup_s_{0.0};
  std::vector<std::uint64_t> setup_allocs_;  // per sub-seed
  LayerCounts setup_layers_{};
};

// Registry counters summed over instances: "<base><index>.<field>".
class CounterSums {
 public:
  explicit CounterSums(const telemetry::Registry& reg) { reg.flatten(flat_); }

  double sum(std::string_view base, std::string_view field) const {
    double total = 0.0;
    for (const telemetry::FlatMetric& m : flat_) {
      std::string_view n = m.name;
      if (n.substr(0, base.size()) != base) continue;
      n.remove_prefix(base.size());
      std::size_t digits = 0;
      while (digits < n.size() && n[digits] >= '0' && n[digits] <= '9') {
        ++digits;
      }
      if (digits == 0 || digits >= n.size() || n[digits] != '.') continue;
      if (n.substr(digits + 1) == field) total += m.value;
    }
    return total;
  }

 private:
  std::vector<telemetry::FlatMetric> flat_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Outcome& o, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt_num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// A fresh enabled telemetry registry and an armed profiler around `body`.
template <typename Body>
void traced_call(telemetry::Registry& reg, telemetry::Profiler& profiler,
                 Body&& body) {
  reg.enable();
  telemetry::ScopedTelemetry scope(&reg, nullptr, nullptr, nullptr, &profiler);
  profiler.arm();
  body();
  profiler.disarm();
}

// Per-layer metrics: traced set-up samples, then traced repetitions (fresh
// registry + armed profiler each) for `budget` seconds, then one
// allocation-attribution repetition. A traced fleet repetition's loop time
// is its wall time minus the traced set-up. Registry counters come from the
// first traced repetition; profiler times are summed over all of them.
std::vector<Metric> traced_metrics(Runner& drv, double budget, double setup_s,
                                   double untraced_msgs_per_s,
                                   std::vector<double>& traced_setup_samples,
                                   std::vector<double>& traced_rates) {
  using telemetry::ProfCategory;
  for (const double t0 = now_s();
       traced_setup_samples.size() < kTracedSetupSamples ||
       now_s() - t0 < kSetupSampleS;) {
    telemetry::Registry reg;
    telemetry::Profiler profiler;
    traced_call(reg, profiler, [&] {
      traced_setup_samples.push_back(drv.setup_once().run_s);
    });
    reg.disable();
  }
  const double traced_setup_s = median(traced_setup_samples);
  drv.set_traced_setup_s(traced_setup_s);

  constexpr auto kCats = static_cast<std::size_t>(ProfCategory::kCount);
  std::array<telemetry::Profiler::Entry, kCats> prof{};
  std::unique_ptr<CounterSums> counters;
  double counted_msgs = 0.0;  // messages of the repetition `counters` saw
  double traced_msgs = 0.0;   // messages over all traced repetitions
  double traced_loop_s = 0.0;
  const CodecTimes codec0 = drv.timed().times();
  // At least one repetition, then until the budget is spent.
  for (const double t0 = now_s(); !counters || now_s() - t0 < budget;) {
    telemetry::Registry reg;
    telemetry::Profiler profiler;
    Runner::Rep rep;
    traced_call(reg, profiler, [&] { rep = drv.next("traced", /*traced=*/true); });
    Runner::append_rates(rep, traced_rates);
    traced_loop_s += rep.loop_s;
    traced_msgs += static_cast<double>(rep.r.sim.completed);
    for (std::size_t c = 0; c < kCats; ++c) {
      const auto& e = profiler.entry(static_cast<ProfCategory>(c));
      prof[c].calls += e.calls;
      prof[c].self_ns += e.self_ns;
    }
    if (!counters) {
      counters = std::make_unique<CounterSums>(reg);
      counted_msgs = static_cast<double>(rep.r.sim.completed);
    }
    reg.disable();
  }
  const CodecTimes codec = drv.timed().times();

  RepResult attributed;
  if (attribution_available()) attributed = drv.attributed();
  std::string breakdown;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s=%.2f", layer_name(static_cast<Layer>(l)),
                  drv.layer_allocs_per_msg(attributed, static_cast<Layer>(l)));
    breakdown += buf;
  }
  std::printf("allocs_per_msg by layer:%s\n", breakdown.c_str());

  double total_self = 0.0;
  for (const auto& e : prof) total_self += static_cast<double>(e.self_ns);
  auto self = [&](ProfCategory c) {
    return static_cast<double>(prof[static_cast<std::size_t>(c)].self_ns);
  };
  auto calls = [&](ProfCategory c) {
    return static_cast<double>(prof[static_cast<std::size_t>(c)].calls);
  };
  auto share = [&](ProfCategory c) { return ratio(self(c), total_self); };
  const CounterSums& cs = *counters;
  auto per_msg = [&](std::string_view base, std::string_view field) {
    return ratio(cs.sum(base, field), counted_msgs);
  };
  auto of = [&](std::string_view base, std::string_view num,
                std::string_view den) {
    return ratio(cs.sum(base, num), cs.sum(base, den));
  };
  // Profiler calls and self time cover every traced repetition; scale the
  // counted repetition's packet/completion counts to match.
  const double reps_scale = ratio(traced_msgs, counted_msgs);
  const double sent_pkts = cs.sum("sim.channel", "sent_packets");
  const double ec_subs = cs.sum("reliability.ec.receiver", "decoded_submessages") +
                         cs.sum("reliability.ec.receiver", "clean_submessages") +
                         cs.sum("reliability.ec.receiver", "fallback_submessages");
  const double enc_ns = static_cast<double>(codec.encode_ns - codec0.encode_ns);
  const double dec_ns = static_cast<double>(codec.decode_ns - codec0.decode_ns);
  const double enc_bits = 8.0 * static_cast<double>(codec.encode_bytes - codec0.encode_bytes);
  const double dec_bits = 8.0 * static_cast<double>(codec.decode_bytes - codec0.decode_bytes);
  const SimFigures& f = drv.first();
  return {
      {"sim.events_per_msg", ratio(calls(ProfCategory::kSim), traced_msgs), "count"},
      {"sim.self_share", share(ProfCategory::kSim), "ratio"},
      {"sim.ns_per_event", ratio(self(ProfCategory::kSim), calls(ProfCategory::kSim)), "ns"},
      {"channel.pkts_per_msg", ratio(sent_pkts, counted_msgs), "count"},
      {"channel.drop_ratio", of("sim.channel", "dropped_packets", "sent_packets"), "ratio"},
      {"channel.queue_drops", cs.sum("sim.channel", "queue_drops"), "count"},
      {"channel.self_share", share(ProfCategory::kChannel), "ratio"},
      {"channel.ns_per_pkt", ratio(self(ProfCategory::kChannel), sent_pkts * reps_scale), "ns"},
      {"verbs.discard_ratio", of("verbs.qp", "packets_discarded", "packets_received"), "ratio"},
      {"verbs.epsn_drops", cs.sum("verbs.qp", "messages_dropped_epsn"), "count"},
      {"nic.doorbells_per_msg", per_msg("verbs.injector", "doorbells_rung"), "count"},
      {"nic.sq_full_waits_per_msg", per_msg("verbs.injector", "sq_full_waits"), "count"},
      {"nic.token_waits_per_msg", per_msg("verbs.injector", "token_bucket_waits"), "count"},
      {"sdr.self_share", share(ProfCategory::kSdr), "ratio"},
      {"sdr.ns_per_completion",
       ratio(self(ProfCategory::kSdr), cs.sum("sdr.qp", "completions_processed") * reps_scale),
       "ns"},
      {"sdr.discarded_ratio", of("sdr.qp", "completions_discarded", "completions_processed"),
       "ratio"},
      {"sdr.cts_per_msg", per_msg("sdr.qp", "cts_sent"), "count"},
      {"sr.self_share", share(ProfCategory::kSr), "ratio"},
      {"sr.ns_per_call", ratio(self(ProfCategory::kSr), calls(ProfCategory::kSr)), "ns"},
      {"sr.retx_ratio", of("reliability.sr.sender", "retransmissions", "chunks_sent"), "ratio"},
      {"sr.acks_per_msg", per_msg("reliability.sr.receiver", "acks_sent"), "count"},
      {"ec.self_share", share(ProfCategory::kEc), "ratio"},
      {"ec.ns_per_call", ratio(self(ProfCategory::kEc), calls(ProfCategory::kEc)), "ns"},
      {"ec.allocs_per_msg", drv.layer_allocs_per_msg(attributed, Layer::kEc), "count"},
      {"ec.parity_ratio", of("reliability.ec.sender", "parity_chunks_sent", "data_chunks_sent"),
       "ratio"},
      {"ec.decoded_ratio", ratio(cs.sum("reliability.ec.receiver", "decoded_submessages"), ec_subs),
       "ratio"},
      {"ec.fallback_ratio",
       ratio(cs.sum("reliability.ec.receiver", "fallback_submessages"), ec_subs), "ratio"},
      {"ec.ftos_fired", cs.sum("reliability.ec.receiver", "ftos_fired"), "count"},
      {"ec.nacks_per_msg", per_msg("reliability.ec.receiver", "ec_nacks_sent"), "count"},
      {"codec.encode_gbps", ratio(enc_bits, enc_ns), "Gbit/s"},
      {"codec.decode_gbps", ratio(dec_bits, dec_ns), "Gbit/s"},
      {"codec.share", ratio(enc_ns + dec_ns, traced_loop_s * 1e9), "ratio"},
      {"fleet.setup_ms", drv.fleet() ? setup_s * 1e3 : 0.0, "ms"},
      {"telemetry.setup_ms", traced_setup_s * 1e3, "ms"},
      {"fleet.peak_concurrent", static_cast<double>(f.peak_concurrent), "count"},
      {"fleet.retx_per_msg",
       ratio(static_cast<double>(f.retransmissions), static_cast<double>(f.completed)), "count"},
      {"fleet.smallop.p99_ms", f.smallop_p99_ms, "ms"},
      {"fleet.bulk.p99_ms", f.bulk_p99_ms, "ms"},
      {"fleet.collective.p99_ms", f.collective_p99_ms, "ms"},
      {"trace_overhead", ratio(untraced_msgs_per_s, median(traced_rates)), "ratio"},
  };
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  ec::gf_kernels();  // resolve the GF(256) dispatch before anything is timed
  Runner drv(w, args.seed);

  // ---- set-up: two untimed builds, then the samples ----------------------
  drv.setup_once();
  drv.setup_once();
  std::vector<double> setup_samples;
  for (const double t0 = now_s();
       setup_samples.size() < kSetupSamples || now_s() - t0 < kSetupSampleS;) {
    setup_samples.push_back(drv.setup_once().run_s);
  }
  const double setup_s = median(setup_samples);
  drv.set_setup_s(setup_s);
  drv.count_setup_allocs();

  // ---- warm-up: fills pools and caches; untimed --------------------------
  drv.next("warm-up");

  // ---- untraced repetitions: until the budget is spent and every
  //      sub-seed has run at least once ------------------------------------
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> rates;
  std::vector<double> allocs;
  for (const double t0 = now_s();
       allocs.size() < drv.sub_seeds() || now_s() - t0 < untraced_budget;) {
    const Runner::Rep rep = drv.next("untraced");
    Runner::append_rates(rep, rates);
    allocs.push_back(drv.allocs_per_msg(rep));
  }
  const double msgs_per_s = median(rates);

  std::vector<Metric> metrics;
  std::vector<double> traced_setup_samples;
  std::vector<double> traced_rates;
  if (args.trace == 0) {
    const Runner::SimMetrics sim = drv.sim_metrics();
    metrics = {
        {"msgs_per_s", msgs_per_s, "1/s"},
        {"setup_s", setup_s, "s"},
        {"allocs_per_msg", median(allocs), "count"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"sim_goodput_gbps", sim.goodput_gbps, "Gbit/s"},
        {"sim_p50_ms", sim.p50_ms, "ms"},
        {"sim_p99_ms", sim.p99_ms, "ms"},
    };
  } else {
    metrics = traced_metrics(drv, args.seconds / 2, setup_s, msgs_per_s,
                             traced_setup_samples, traced_rates);
  }

  // ---- report -------------------------------------------------------------
  const Outcome& outcome = drv.outcome();
  const double fail_ratio = ratio(static_cast<double>(outcome.failed),
                                  static_cast<double>(outcome.attempted));
  for (const std::string& v : outcome.violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }
  std::printf("%-28s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("%-28s %16.6g  %s\n", "fail_ratio", fail_ratio, "ratio");

  const int threads = process_threads();
  std::ostringstream rec;
  rec << "RECORD {\"workload\":\"" << w.name << "\",\"seed\":" << args.seed
      << ",\"sub_seeds\":" << drv.sub_seeds()
      << ",\"default_seed\":" << kDefaultSeed
      << ",\"held_out_seed\":" << kHeldOutSeed
      << ",\"seconds\":" << fmt_num(args.seconds) << ",\"trace\":" << args.trace
      << ",\"host\":{\"cpu_model\":\"" << json_escape(cpu_model())
      << "\",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"gf_tier\":\"" << ec::isa_name(ec::active_isa())
      << "\",\"cpu_features\":\"" << json_escape(common::cpu_feature_summary())
      << "\",\"omp_max_threads\":" << omp_threads()
      << ",\"threads_at_exit\":" << threads
      << ",\"single_threaded\":" << (threads == 1 ? "true" : "false") << "}"
      << ",\"build\":{\"type\":\"" << REPOBENCH_BUILD_TYPE
      << "\",\"flags\":\"" << json_escape(REPOBENCH_CXX_FLAGS)
      << "\",\"compiler\":\"" << json_escape(REPOBENCH_COMPILER) << "\"}"
      << ",\"source\":{\"commit\":\"" << json_escape(args.commit)
      << "\",\"dirty\":\"" << json_escape(args.dirty)
      << "\",\"sha256\":\"" << json_escape(args.source_sha) << "\"}"
      << ",\"digest\":\"" << std::hex << drv.digest() << std::dec << "\""
      << ",\"fail_ratio\":" << fmt_num(fail_ratio)
      << ",\"setup_s_samples\":" << json_list(setup_samples)
      << ",\"traced_setup_s_samples\":" << json_list(traced_setup_samples)
      << ",\"msgs_per_s_samples\":" << json_list(rates)
      << ",\"traced_msgs_per_s_samples\":" << json_list(traced_rates) << "}";
  std::printf("%s\n", rec.str().c_str());
  print_result(outcome, metrics);
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::string_view(w.name) == val) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(val) != 0 ? 1 : 0;
    } else if (key == "--commit") {
      args.commit = val;
    } else if (key == "--dirty") {
      args.dirty = val;
    } else if (key == "--source-sha") {
      args.source_sha = val;
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds > 0.0 && argc % 2 == 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Fix glibc's adaptive mmap and trim thresholds. Left adaptive, the
  // allocator flips between serving set-up's large blocks from fresh
  // mmap()s (faulted in on every build) and from the heap, and the set-up
  // time of one run jumps between two modes 8x apart.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  repobench::Args args;
  if (!repobench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: repobench --workload fleet_ec|fleet_sr|bulk_ec "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  return repobench::run(args);
}
