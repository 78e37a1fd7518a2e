// Self-test of the benchmark's own instruments:
//   * TimedCodec is transparent: the same parity bytes and the same decoded
//     data as the bare ReedSolomon, and the same bulk_ec figures and digest
//     whether the stack runs over the wrapper or over the bare codec;
//   * the symbol classifier maps layer functions to their layers;
//   * allocation attribution charges every counted allocation somewhere and
//     finds the EC protocol's allocations.
// Exit code 0 when every check holds. Registered as a CTest test in this
// directory's CMakeLists.txt.
#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "alloc_probe.hpp"
#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "timed_codec.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void codec_transparency() {
  constexpr std::size_t k = 32, m = 8, len = 64 * 1024;
  sdr::ec::ReedSolomon rs(k, m);
  repobench::TimedCodec timed(rs);
  std::vector<std::uint8_t> data(k * len);
  std::uint64_t state = 42;
  for (auto& b : data) {
    state += sdr::kSplitMix64Gamma;
    b = static_cast<std::uint8_t>(sdr::splitmix64_mix(state));
  }

  std::vector<std::uint8_t> parity_a(m * len), parity_b(m * len);
  std::vector<const std::uint8_t*> dptr(k);
  std::vector<std::uint8_t*> pa(m), pb(m);
  for (std::size_t i = 0; i < k; ++i) dptr[i] = data.data() + i * len;
  for (std::size_t i = 0; i < m; ++i) {
    pa[i] = parity_a.data() + i * len;
    pb[i] = parity_b.data() + i * len;
  }
  rs.encode(dptr, pa, len);
  timed.encode(dptr, pb, len);
  expect(parity_a == parity_b, "TimedCodec encode yields the same parity bytes");
  expect(timed.times().encode_calls == 1 &&
             timed.times().encode_bytes == k * len,
         "TimedCodec counts encoded bytes");

  // Erase m data blocks and recover them through the wrapper.
  std::vector<std::uint8_t> stripe(data);
  stripe.insert(stripe.end(), parity_a.begin(), parity_a.end());
  sdr::ec::PresenceMap present(k + m, true);
  std::vector<std::uint8_t*> blocks(k + m);
  for (std::size_t i = 0; i < k + m; ++i) blocks[i] = stripe.data() + i * len;
  for (std::size_t i = 0; i < m; ++i) {
    present[3 * i] = false;
    std::memset(blocks[3 * i], 0, len);
  }
  const bool decoded = timed.can_recover(present) &&
                       timed.decode(blocks, present, len);
  expect(decoded && std::memcmp(stripe.data(), data.data(), data.size()) == 0,
         "TimedCodec decode recovers the erased data");
}

void bulk_digest_transparency() {
  constexpr std::size_t kMessages = 40;
  sdr::ec::ReedSolomon rs(repobench::kBulkK, repobench::kBulkM);
  repobench::TimedCodec timed(rs);
  repobench::BulkBuffers buffers;
  const repobench::RepResult bare =
      repobench::run_bulk_rep(3, rs, buffers, kMessages);
  const repobench::RepResult wrapped =
      repobench::run_bulk_rep(3, timed, buffers, kMessages);
  expect(bare.violations.empty() && wrapped.violations.empty(),
         "bulk_ec passes its checks over both codecs");
  expect(bare.sim.completed == kMessages, "bulk_ec delivers every message");
  expect(bare.sim == wrapped.sim,
         "bulk_ec figures and digest are identical with and without TimedCodec");
  expect(timed.times().encode_calls > 0, "bulk_ec encodes through the wrapper");
}

void bulk_sizes() {
  bool mix = true;
  for (std::uint64_t block = 0; block < 50; ++block) {
    std::size_t sum = 0;
    for (std::uint64_t i = 0; i < 3; ++i) {
      sum += repobench::bulk_msg_bytes(9, 3 * block + i);
    }
    mix = mix && sum == 6 * repobench::kBulkSubmessageBytes;
  }
  expect(mix, "every block of three bulk_ec messages is 2, 4 and 6 MiB");
}

// The fleet set-up run builds the real plan's tenant connections, as many
// connections in all, and posts nothing.
void fleet_setup() {
  using sdr::fleet::Scheme;
  const sdr::fleet::FleetConfig cfg = repobench::fleet_config(Scheme::kSr, 1);
  const sdr::fleet::FleetResult full = sdr::fleet::run_fleet(cfg);
  const sdr::fleet::FleetResult setup =
      sdr::fleet::run_fleet(repobench::fleet_setup_config(Scheme::kSr, 1));
  expect(setup.messages_posted == 0, "fleet set-up posts no message");
  expect(setup.connections == full.connections,
         "fleet set-up builds as many connections as the real run");
  expect(repobench::fleet_setup_rep(
             repobench::fleet_setup_config(Scheme::kEc, 1))
             .violations.empty(),
         "fleet_ec set-up passes its checks");
}

void classifier() {
  using repobench::Layer;
  using repobench::classify_symbol;
  expect(classify_symbol("_ZN3sdr11reliability8EcSender5writeEPKhmSt8functionIFvRKNS_6StatusEEE") ==
             Layer::kEc,
         "EcSender::write -> ec");
  expect(classify_symbol("_ZZN3sdr11reliability8EcSender4reapEPNS_4core10SendHandleEENKUlvE_clEv") ==
             Layer::kEc,
         "lambda inside EcSender::reap -> ec");
  expect(classify_symbol("_ZN3sdr11reliability10SrReceiver6expectEPhmPKNS_5verbs12MemoryRegionESt8functionIFvRKNS_6StatusEEE") ==
             Layer::kSr,
         "SrReceiver::expect -> sr");
  expect(classify_symbol("_ZN3sdr3sim9Simulator11schedule_atENS_7SimTimeENS0_14InlineFunctionIFvvELm48EEE") ==
             Layer::kSim,
         "Simulator::schedule_at -> sim");
  expect(classify_symbol("_ZN3sdr3sim7Channel4sendEONS0_6PacketE") == Layer::kChannel,
         "Channel::send -> channel");
  expect(classify_symbol("_ZN3sdr4core2Qp9send_postEPKvmmbPPNS0_10SendHandleE") == Layer::kSdr,
         "core::Qp::send_post -> sdr");
  expect(classify_symbol("_ZN3sdr5fleet9run_fleetERKNS0_11FleetConfigE") == Layer::kFleet,
         "fleet::run_fleet -> fleet");
  expect(classify_symbol("_ZN3sdr6BitmapC2Em") == Layer::kNone,
         "sdr::Bitmap is looked past");
  expect(classify_symbol("_ZNSt6vectorImSaImEE17_M_realloc_insertIJRKmEEEvN9__gnu_cxx17__normal_iteratorIPmS1_EEDpOT_") ==
             Layer::kNone,
         "std::vector growth is looked past");
}

void attribution() {
  expect(repobench::attribution_available(), "executable symbol table readable");
  sdr::ec::ReedSolomon rs(repobench::kBulkK, repobench::kBulkM);
  repobench::BulkBuffers buffers;
  const repobench::RepResult r = repobench::run_bulk_rep(5, rs, buffers, 16, true);
  const std::uint64_t charged = std::accumulate(
      r.layer_allocs.begin(), r.layer_allocs.end(), std::uint64_t{0});
  expect(charged == r.allocs, "every counted allocation is charged to a layer");
  expect(r.layer_allocs[static_cast<std::size_t>(repobench::Layer::kEc)] > 0,
         "EC protocol allocations are found");
}

}  // namespace

int main() {
  codec_transparency();
  bulk_digest_transparency();
  bulk_sizes();
  fleet_setup();
  classifier();
  attribution();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
