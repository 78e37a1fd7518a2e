// Exhaustive properties for the vectorized GF(256) kernel layer
// (src/ec/gf256_kernels.*): every compiled ISA tier must be byte-identical
// to the scalar reference for all 256 constants, across lengths that cover
// sub-vector tails and every head/tail misalignment, for mul_set, mul_acc,
// and the dot-product kernel; Reed-Solomon encode and decode are
// byte-identical across tiers. Plus unit tests for the pure SDR_EC_ISA
// resolution logic and the force/dispatch plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <vector>

#include "common/cpu.hpp"
#include "common/rng.hpp"
#include "ec/gf256.hpp"
#include "ec/gf256_kernels.hpp"
#include "ec/reed_solomon.hpp"

namespace sdr::ec {
namespace {

constexpr GfIsa kAllIsas[] = {GfIsa::kScalar, GfIsa::kSsse3, GfIsa::kAvx2,
                              GfIsa::kGfni};

// Lengths chosen to hit: empty, single byte, sub-16 tails, exact 16/32/64
// lane counts, one-past, and a long run exercising main loop + tail.
constexpr std::size_t kLengths[] = {0,  1,  7,  15,  16,  17,  31, 32,
                                    33, 63, 64, 65, 127, 255, 1000};

/// Bytewise reference straight from the multiplication table.
void reference_mul(std::uint8_t* dst, const std::uint8_t* src,
                   std::uint8_t c, std::size_t n, bool accumulate) {
  const Gf256& gf = Gf256::instance();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t p = gf.mul(c, src[i]);
    dst[i] = accumulate ? static_cast<std::uint8_t>(dst[i] ^ p) : p;
  }
}

std::vector<const GfKernels*> compiled_tiers() {
  std::vector<const GfKernels*> tiers;
  for (GfIsa isa : kAllIsas) {
    const GfKernels* k = gf_kernels_for(isa);
    if (k != nullptr && isa_supported(isa)) tiers.push_back(k);
  }
  return tiers;
}

// Every supported tier, every constant, every tail length: mul_set and
// mul_acc match the table reference byte for byte.
TEST(Gf256Kernels, AllConstantsAllLengthsMatchReference) {
  Rng rng(2024);
  std::vector<std::uint8_t> src(1024), expect(1024), got(1024), base(1024);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_below(256));

  for (const GfKernels* k : compiled_tiers()) {
    SCOPED_TRACE(isa_name(k->isa));
    for (unsigned c = 0; c < 256; ++c) {
      for (std::size_t n : kLengths) {
        // mul_set
        expect = base;
        got = base;
        reference_mul(expect.data(), src.data(),
                      static_cast<std::uint8_t>(c), n, false);
        k->mul_set(got.data(), src.data(), static_cast<std::uint8_t>(c), n);
        ASSERT_EQ(0, std::memcmp(expect.data(), got.data(), expect.size()))
            << "mul_set c=" << c << " n=" << n;
        // mul_acc
        expect = base;
        got = base;
        reference_mul(expect.data(), src.data(),
                      static_cast<std::uint8_t>(c), n, true);
        k->mul_acc(got.data(), src.data(), static_cast<std::uint8_t>(c), n);
        ASSERT_EQ(0, std::memcmp(expect.data(), got.data(), expect.size()))
            << "mul_acc c=" << c << " n=" << n;
      }
    }
  }
}

// Unaligned src and dst in every combination of offsets 0..15: the vector
// kernels use unaligned loads/stores plus scalar tails, so no alignment
// may change the result (or touch bytes outside [0, n)).
TEST(Gf256Kernels, UnalignedSrcDstOffsets) {
  Rng rng(7);
  constexpr std::size_t kPad = 64;
  constexpr std::size_t kN = 100;
  std::vector<std::uint8_t> src_buf(kPad + kN + kPad);
  std::vector<std::uint8_t> dst_buf(kPad + kN + kPad);
  std::vector<std::uint8_t> expect(kN);
  for (auto& b : src_buf) b = static_cast<std::uint8_t>(rng.next_below(256));

  for (const GfKernels* k : compiled_tiers()) {
    SCOPED_TRACE(isa_name(k->isa));
    for (std::size_t so = 0; so < 16; ++so) {
      for (std::size_t dof = 0; dof < 16; ++dof) {
        const std::uint8_t c = static_cast<std::uint8_t>(
            2 + rng.next_below(254));  // skip 0/1 fast paths
        for (auto& b : dst_buf) {
          b = static_cast<std::uint8_t>(rng.next_below(256));
        }
        const std::vector<std::uint8_t> dst_before = dst_buf;
        const std::uint8_t* src = src_buf.data() + so;
        std::uint8_t* dst = dst_buf.data() + dof;
        std::memcpy(expect.data(), dst, kN);
        reference_mul(expect.data(), src, c, kN, true);
        k->mul_acc(dst, src, c, kN);
        ASSERT_EQ(0, std::memcmp(expect.data(), dst, kN))
            << "so=" << so << " dof=" << dof;
        // Out-of-range bytes untouched.
        ASSERT_EQ(0, std::memcmp(dst_buf.data(), dst_before.data(), dof));
        ASSERT_EQ(0, std::memcmp(dst_buf.data() + dof + kN,
                                 dst_before.data() + dof + kN,
                                 dst_buf.size() - dof - kN));
      }
    }
  }
}

// The dot product equals the bytewise reference for every row count up to
// one past the widest register group (8 rows), 1..33 sources, every
// kLengths tail, zero and identity coefficients mixed with general ones,
// and source and output rows at assorted misalignments. Output rows start
// out as a sentinel, so a kernel that read them instead of only writing
// them fails, and the bytes around each output row must stay untouched.
TEST(Gf256Kernels, DotProductMatchesReference) {
  constexpr std::size_t kMaxRows = 9;
  constexpr std::size_t kMaxSources = 33;
  constexpr std::size_t kMaxLen = 1000;
  constexpr std::size_t kPad = 64;
  constexpr std::uint8_t kSentinel = 0xA5;
  const Gf256& gf = Gf256::instance();
  const std::vector<const GfKernels*> tiers = compiled_tiers();
  Rng rng(99);

  std::vector<std::vector<std::uint8_t>> src_buf(
      kMaxSources, std::vector<std::uint8_t>(kPad + kMaxLen));
  for (auto& buf : src_buf) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  }
  std::vector<std::vector<std::uint8_t>> dst_buf(
      kMaxRows, std::vector<std::uint8_t>(kPad + kMaxLen + kPad));
  std::vector<std::vector<std::uint8_t>> expect(
      kMaxRows, std::vector<std::uint8_t>(kMaxLen));
  const std::uint8_t* src[kMaxSources];
  std::uint8_t* dst[kMaxRows];
  GfDotTables t;

  for (std::size_t rows = 1; rows <= kMaxRows; ++rows) {
    for (std::size_t sources = 1; sources <= kMaxSources; ++sources) {
      t.reset(rows, sources);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t s = 0; s < sources; ++s) {
          const unsigned roll = rng.next_below(4);
          t.set(r, s,
                roll < 2 ? static_cast<std::uint8_t>(roll)
                         : static_cast<std::uint8_t>(rng.next_below(256)));
        }
      }
      for (std::size_t n : kLengths) {
        const std::size_t src_off = rng.next_below(kPad);
        for (std::size_t s = 0; s < sources; ++s) {
          src[s] = src_buf[s].data() + (src_off + 5 * s) % kPad;
        }
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t i = 0; i < n; ++i) {
            std::uint8_t acc = 0;
            for (std::size_t s = 0; s < sources; ++s) {
              acc ^= gf.mul(t.coeff(r, s), src[s][i]);
            }
            expect[r][i] = acc;
          }
        }
        for (const GfKernels* k : tiers) {
          const std::size_t dst_off = rng.next_below(kPad);
          for (std::size_t r = 0; r < rows; ++r) {
            std::fill(dst_buf[r].begin(), dst_buf[r].end(), kSentinel);
            dst[r] = dst_buf[r].data() + (dst_off + 3 * r) % kPad;
          }
          k->dot_prod(t, src, dst, n);
          for (std::size_t r = 0; r < rows; ++r) {
            ASSERT_EQ(0, std::memcmp(expect[r].data(), dst[r], n))
                << isa_name(k->isa) << " rows=" << rows
                << " sources=" << sources << " n=" << n << " r=" << r;
            const std::size_t head = dst[r] - dst_buf[r].data();
            for (std::size_t i = 0; i < dst_buf[r].size(); ++i) {
              if (i >= head && i < head + n) continue;
              ASSERT_EQ(dst_buf[r][i], kSentinel)
                  << isa_name(k->isa) << " wrote outside row " << r
                  << " at " << i << " (rows=" << rows
                  << " sources=" << sources << " n=" << n << ")";
            }
          }
        }
      }
    }
  }
}

// The high-level Gf256 entry points route through the dispatcher and must
// agree with the reference for the full constant range too (c==0 / c==1
// take fast paths there).
TEST(Gf256Kernels, Gf256WrappersMatchReference) {
  const Gf256& gf = Gf256::instance();
  Rng rng(5);
  std::vector<std::uint8_t> src(257), expect(257), got(257);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (unsigned c = 0; c < 256; ++c) {
    for (auto& b : got) b = static_cast<std::uint8_t>(rng.next_below(256));
    expect = got;
    reference_mul(expect.data(), src.data(), static_cast<std::uint8_t>(c),
                  src.size(), true);
    gf.mul_acc(got.data(), src.data(), static_cast<std::uint8_t>(c),
               src.size());
    ASSERT_EQ(expect, got) << "c=" << c;
  }
}

// ReedSolomon::encode_with produces identical parity under every compiled
// tier — the bench lanes and the sdrcheck oracle rely on this exactly.
TEST(Gf256Kernels, ReedSolomonEncodeIdenticalAcrossIsas) {
  constexpr std::size_t kK = 10, kM = 4, kLen = 4099;  // non-multiple of 4K
  ReedSolomon rs(kK, kM);
  Rng rng(42);
  std::vector<std::uint8_t> data(kK * kLen);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<const std::uint8_t*> data_ptrs(kK);
  for (std::size_t i = 0; i < kK; ++i) data_ptrs[i] = &data[i * kLen];

  const GfKernels* scalar = gf_kernels_for(GfIsa::kScalar);
  ASSERT_NE(scalar, nullptr);
  std::vector<std::uint8_t> ref_parity(kM * kLen, 0xAA);
  std::vector<std::uint8_t*> ref_ptrs(kM);
  for (std::size_t i = 0; i < kM; ++i) ref_ptrs[i] = &ref_parity[i * kLen];
  rs.encode_with(*scalar,
                 std::span<const std::uint8_t* const>(data_ptrs),
                 std::span<std::uint8_t* const>(ref_ptrs), kLen);

  for (const GfKernels* k : compiled_tiers()) {
    std::vector<std::uint8_t> parity(kM * kLen, 0x55);
    std::vector<std::uint8_t*> parity_ptrs(kM);
    for (std::size_t i = 0; i < kM; ++i) parity_ptrs[i] = &parity[i * kLen];
    rs.encode_with(*k, std::span<const std::uint8_t* const>(data_ptrs),
                   std::span<std::uint8_t* const>(parity_ptrs), kLen);
    EXPECT_EQ(ref_parity, parity) << isa_name(k->isa);
  }
}

/// Decodes `present` under every supported tier; each must rebuild the
/// erased data blocks of `blocks` (k data then m parity, all intact)
/// exactly. Erased blocks start out as garbage.
void expect_decode_identical_across_isas(
    const ReedSolomon& rs, std::vector<std::vector<std::uint8_t>>& blocks,
    const std::vector<std::vector<std::uint8_t>>& original,
    const PresenceMap& present) {
  const std::size_t len = blocks[0].size();
  std::vector<std::uint8_t*> ptrs(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) ptrs[b] = blocks[b].data();
  for (const GfKernels* k : compiled_tiers()) {
    for (std::size_t d = 0; d < rs.k(); ++d) {
      if (!present[d]) std::fill(blocks[d].begin(), blocks[d].end(), 0x5A);
    }
    ASSERT_TRUE(rs.decode_with(*k, std::span<std::uint8_t* const>(ptrs),
                               present, len))
        << isa_name(k->isa);
    for (std::size_t d = 0; d < rs.k(); ++d) {
      ASSERT_EQ(blocks[d], original[d])
          << rs.name() << " " << isa_name(k->isa) << " len=" << len
          << " data block " << d;
    }
  }
}

/// k random data blocks of `len` bytes plus their m parity blocks.
std::vector<std::vector<std::uint8_t>> encoded_blocks(const ReedSolomon& rs,
                                                      std::size_t len,
                                                      Rng& rng) {
  std::vector<std::vector<std::uint8_t>> blocks(
      rs.k() + rs.m(), std::vector<std::uint8_t>(len));
  std::vector<const std::uint8_t*> data(rs.k());
  std::vector<std::uint8_t*> parity(rs.m());
  for (std::size_t d = 0; d < rs.k(); ++d) {
    for (auto& b : blocks[d]) b = static_cast<std::uint8_t>(rng.next_below(256));
    data[d] = blocks[d].data();
  }
  for (std::size_t p = 0; p < rs.m(); ++p) parity[p] = blocks[rs.k() + p].data();
  rs.encode_with(*gf_kernels_for(GfIsa::kScalar),
                 std::span<const std::uint8_t* const>(data),
                 std::span<std::uint8_t* const>(parity), len);
  return blocks;
}

// Every tier rebuilds the same bytes: every erasure pattern of up to m
// blocks (data and parity alike) for RS(4,2) and RS(6,3), and 200 seeded
// patterns for RS(32,8) at the 64 KiB chunk size and at an odd length that
// leaves a sub-vector tail.
TEST(Gf256Kernels, ReedSolomonDecodeIdenticalAcrossIsas) {
  Rng rng(4242);
  for (const auto& [k, m] : {std::pair<std::size_t, std::size_t>{4, 2},
                            std::pair<std::size_t, std::size_t>{6, 3}}) {
    const ReedSolomon rs(k, m);
    auto blocks = encoded_blocks(rs, 1031, rng);
    const auto original = blocks;
    for (unsigned mask = 0; mask < (1u << (k + m)); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) > m) continue;
      PresenceMap present(k + m);
      for (std::size_t b = 0; b < k + m; ++b) {
        present[b] = ((mask >> b) & 1u) == 0;
      }
      expect_decode_identical_across_isas(rs, blocks, original, present);
      if (HasFatalFailure()) return;
    }
  }

  const ReedSolomon rs(32, 8);
  for (std::size_t len : {std::size_t{64 * 1024}, std::size_t{4099}}) {
    auto blocks = encoded_blocks(rs, len, rng);
    const auto original = blocks;
    for (int pattern = 0; pattern < 200; ++pattern) {
      PresenceMap present(40, true);
      const std::size_t lost = 1 + rng.next_below(8);
      for (std::size_t j = 0; j < lost; ++j) present[rng.next_below(40)] = false;
      expect_decode_identical_across_isas(rs, blocks, original, present);
      if (HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch resolution (pure logic, no env/CPUID games needed)
// ---------------------------------------------------------------------------

common::CpuFeatures features(bool ssse3, bool avx2, bool avx512bw,
                             bool gfni) {
  common::CpuFeatures f;
  f.ssse3 = ssse3;
  f.avx2 = avx2;
  f.avx512bw = avx512bw;
  f.gfni = gfni;
  return f;
}

TEST(GfIsaResolve, AutoPicksBestSupported) {
  for (const char* env : {static_cast<const char*>(nullptr), "", "auto"}) {
    EXPECT_EQ(resolve_isa(env, features(true, true, true, true)).isa,
              GfIsa::kGfni);
    EXPECT_EQ(resolve_isa(env, features(true, true, false, true)).isa,
              GfIsa::kAvx2);  // gfni tier needs avx512bw too
    EXPECT_EQ(resolve_isa(env, features(true, true, false, false)).isa,
              GfIsa::kAvx2);
    EXPECT_EQ(resolve_isa(env, features(true, false, false, false)).isa,
              GfIsa::kSsse3);
    EXPECT_EQ(resolve_isa(env, features(false, false, false, false)).isa,
              GfIsa::kScalar);
    EXPECT_FALSE(resolve_isa(env, features(true, true, true, true)).fell_back);
  }
}

TEST(GfIsaResolve, ExplicitSupportedRequestHonored) {
  const auto all = features(true, true, true, true);
  EXPECT_EQ(resolve_isa("scalar", all).isa, GfIsa::kScalar);
  EXPECT_EQ(resolve_isa("ssse3", all).isa, GfIsa::kSsse3);
  EXPECT_EQ(resolve_isa("avx2", all).isa, GfIsa::kAvx2);
  EXPECT_EQ(resolve_isa("gfni", all).isa, GfIsa::kGfni);
  EXPECT_FALSE(resolve_isa("avx2", all).fell_back);
}

TEST(GfIsaResolve, UnsupportedRequestFallsBackToScalarNotLowerVector) {
  // avx2 requested on an ssse3-only host: scalar, never silently ssse3.
  const IsaChoice c = resolve_isa("avx2", features(true, false, false, false));
  EXPECT_EQ(c.isa, GfIsa::kScalar);
  EXPECT_TRUE(c.fell_back);
  EXPECT_FALSE(c.message.empty());

  const IsaChoice g = resolve_isa("gfni", features(true, true, false, true));
  EXPECT_EQ(g.isa, GfIsa::kScalar);  // gfni without avx512bw is unusable
  EXPECT_TRUE(g.fell_back);
}

TEST(GfIsaResolve, UnknownStringFallsBackToAuto) {
  const IsaChoice c = resolve_isa("bogus", features(true, true, false, false));
  EXPECT_EQ(c.isa, GfIsa::kAvx2);
  EXPECT_TRUE(c.fell_back);
  EXPECT_NE(c.message.find("not recognized"), std::string::npos);
}

TEST(GfIsaDispatch, ScalarTierAlwaysPresent) {
  EXPECT_NE(gf_kernels_for(GfIsa::kScalar), nullptr);
  EXPECT_TRUE(isa_supported(GfIsa::kScalar));
  EXPECT_EQ(gf_kernels_for(GfIsa::kScalar)->isa, GfIsa::kScalar);
}

TEST(GfIsaDispatch, ForceRoundTrip) {
  const GfIsa original = active_isa();
  const GfIsa prev = force_gf_isa(GfIsa::kScalar);
  EXPECT_EQ(prev, original);
  EXPECT_EQ(active_isa(), GfIsa::kScalar);
  EXPECT_EQ(gf_kernels().isa, GfIsa::kScalar);
  force_gf_isa(original);
  EXPECT_EQ(active_isa(), original);
}

TEST(GfIsaDispatch, BestSupportedMatchesHostFeatures) {
  // Whatever the host is, the dispatched tier must report itself supported
  // and be one of the four named tiers.
  const GfIsa best = best_supported_isa();
  EXPECT_TRUE(isa_supported(best));
  EXPECT_NE(gf_kernels_for(best), nullptr);
  EXPECT_STRNE(isa_name(best), "unknown");
}

}  // namespace
}  // namespace sdr::ec
