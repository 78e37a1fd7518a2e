#include "ec/gf256_kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.hpp"
#include "ec/gf256.hpp"

// The vector kernels are compiled with per-function target attributes so a
// generic (-march=x86-64) binary still carries every tier and picks at
// runtime; only the dispatcher consults CPUID. Non-x86 or non-GNU builds
// get the scalar tier alone.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SDR_GF_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace sdr::ec {

namespace {

// ---------------------------------------------------------------------------
// Per-constant split tables: lo[c][j] = c*j, hi[c][j] = c*(j<<4). Derived
// once from the exp/log-backed full multiplication table.
// ---------------------------------------------------------------------------
struct SplitTables {
  alignas(64) std::uint8_t lo[256][16];
  alignas(64) std::uint8_t hi[256][16];
};

const SplitTables& split_tables() {
  static const SplitTables tables = [] {
    SplitTables t;
    const Gf256& gf = Gf256::instance();
    for (unsigned c = 0; c < 256; ++c) {
      const std::uint8_t* row = gf.mul_row(static_cast<std::uint8_t>(c));
      for (unsigned j = 0; j < 16; ++j) {
        t.lo[c][j] = row[j];
        t.hi[c][j] = row[j << 4];
      }
    }
    return t;
  }();
  return tables;
}

// ---------------------------------------------------------------------------
// Scalar tier — the reference every vector tier must match byte for byte.
// ---------------------------------------------------------------------------

void scalar_mul_acc(std::uint8_t* dst, const std::uint8_t* src,
                    std::uint8_t c, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    Gf256::xor_acc(dst, src, n);
    return;
  }
  const std::uint8_t* row = Gf256::instance().mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void scalar_mul_set(std::uint8_t* dst, const std::uint8_t* src,
                    std::uint8_t c, std::size_t n) {
  if (c == 0) {
    std::memset(dst, 0, n);
    return;
  }
  if (c == 1) {
    std::memcpy(dst, src, n);
    return;
  }
  const std::uint8_t* row = Gf256::instance().mul_row(c);
  for (std::size_t i = 0; i < n; ++i) dst[i] = row[src[i]];
}

/// Row-at-a-time dot product over bytes [begin, end): the scalar tier, and
/// the sub-vector tail of every vector tier.
void scalar_dot_range(const GfDotTables& t, const std::uint8_t* const* src,
                      std::uint8_t* const* dst, std::size_t begin,
                      std::size_t end) {
  const std::size_t n = end - begin;
  for (std::size_t r = 0; r < t.rows(); ++r) {
    std::uint8_t* out = dst[r] + begin;
    scalar_mul_set(out, src[0] + begin, t.coeff(r, 0), n);
    for (std::size_t s = 1; s < t.sources(); ++s) {
      scalar_mul_acc(out, src[s] + begin, t.coeff(r, s), n);
    }
  }
}

void scalar_dot_prod(const GfDotTables& t, const std::uint8_t* const* src,
                     std::uint8_t* const* dst, std::size_t n) {
  scalar_dot_range(t, src, dst, 0, n);
}

#if defined(SDR_GF_X86_KERNELS)

/// One register group of a vector tier: output rows [row0, row0 + G) of
/// bytes [0, vec_n), vec_n a whole number of vectors. dst is already
/// offset to row0.
using DotGroupFn = void (*)(const GfDotTables& t, std::size_t row0,
                            const std::uint8_t* const* src,
                            std::uint8_t* const* dst, std::size_t vec_n);

/// Output rows per register group in every vector tier. Eight rows cover
/// RS(32,8)'s parity in one group and fit each tier's register file with
/// the source, mask and table operands; on a GFNI host 8 measured faster
/// than 4 or 6 on the AVX2 and SSSE3 tiers too.
constexpr std::size_t kDotGroup = 8;

template <typename Tier, std::size_t... G>
constexpr std::array<DotGroupFn, sizeof...(G)> group_kernels(
    std::index_sequence<G...>) {
  return {&Tier::template group<G + 1>...};
}

/// A vector tier's dot product: the rows in register groups of up to
/// kDotGroup (the last group takes the remainder), each walking every whole
/// vector column, then the scalar tail.
template <typename Tier>
void dot_prod_in_groups(const GfDotTables& t, const std::uint8_t* const* src,
                        std::uint8_t* const* dst, std::size_t n) {
  static constexpr auto kGroups =
      group_kernels<Tier>(std::make_index_sequence<kDotGroup>{});
  const std::size_t vec_n = n - n % Tier::kLanes;
  if (vec_n > 0) {
    for (std::size_t r = 0; r < t.rows(); r += kDotGroup) {
      kGroups[std::min(kDotGroup, t.rows() - r) - 1](t, r, src, dst + r,
                                                      vec_n);
    }
  }
  scalar_dot_range(t, src, dst, vec_n, n);
}

// ---------------------------------------------------------------------------
// SSSE3 tier: 16 lanes per pshufb pair.
// ---------------------------------------------------------------------------

/// Eight accumulators, the nibble mask, both index vectors and the two
/// table loads fit the 16 xmm registers.
struct Ssse3Dot {
  static constexpr std::size_t kLanes = 16;

  template <std::size_t G>
  __attribute__((target("ssse3"))) static void group(
      const GfDotTables& t, std::size_t row0, const std::uint8_t* const* src,
      std::uint8_t* const* dst, std::size_t vec_n) {
    const std::size_t stride = t.rows() * 32;
    const std::uint8_t* tables = t.split() + row0 * 32;
    const __m128i mask = _mm_set1_epi8(0x0F);
    for (std::size_t i = 0; i < vec_n; i += kLanes) {
      __m128i acc[G];
      for (std::size_t j = 0; j < G; ++j) acc[j] = _mm_setzero_si128();
      for (std::size_t s = 0; s < t.sources(); ++s) {
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src[s] + i));
        const __m128i xlo = _mm_and_si128(x, mask);
        const __m128i xhi = _mm_and_si128(_mm_srli_epi16(x, 4), mask);
        const std::uint8_t* tab = tables + s * stride;
        for (std::size_t j = 0; j < G; ++j) {
          const __m128i lo =
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + j * 32));
          const __m128i hi = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(tab + j * 32 + 16));
          acc[j] = _mm_xor_si128(
              acc[j], _mm_xor_si128(_mm_shuffle_epi8(lo, xlo),
                                    _mm_shuffle_epi8(hi, xhi)));
        }
      }
      for (std::size_t j = 0; j < G; ++j) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst[j] + i), acc[j]);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// AVX2 tier: 32 lanes per vpshufb pair (the 16-byte tables are broadcast to
// both 128-bit halves — vpshufb shuffles within each half).
// ---------------------------------------------------------------------------

/// The SSSE3 group shape at 32 lanes: each 16-byte table is broadcast to
/// both halves straight from memory (vpshufb shuffles within each half).
struct Avx2Dot {
  static constexpr std::size_t kLanes = 32;

  template <std::size_t G>
  __attribute__((target("avx2"))) static void group(
      const GfDotTables& t, std::size_t row0, const std::uint8_t* const* src,
      std::uint8_t* const* dst, std::size_t vec_n) {
    const std::size_t stride = t.rows() * 32;
    const std::uint8_t* tables = t.split() + row0 * 32;
    const __m256i mask = _mm256_set1_epi8(0x0F);
    for (std::size_t i = 0; i < vec_n; i += kLanes) {
      __m256i acc[G];
      for (std::size_t j = 0; j < G; ++j) acc[j] = _mm256_setzero_si256();
      for (std::size_t s = 0; s < t.sources(); ++s) {
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src[s] + i));
        const __m256i xlo = _mm256_and_si256(x, mask);
        const __m256i xhi = _mm256_and_si256(_mm256_srli_epi16(x, 4), mask);
        const std::uint8_t* tab = tables + s * stride;
        for (std::size_t j = 0; j < G; ++j) {
          const __m256i lo = _mm256_broadcastsi128_si256(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + j * 32)));
          const __m256i hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
              reinterpret_cast<const __m128i*>(tab + j * 32 + 16)));
          acc[j] = _mm256_xor_si256(
              acc[j], _mm256_xor_si256(_mm256_shuffle_epi8(lo, xlo),
                                       _mm256_shuffle_epi8(hi, xhi)));
        }
      }
      for (std::size_t j = 0; j < G; ++j) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst[j] + i), acc[j]);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// GFNI tier: GF2P8AFFINEQB applies the multiply-by-c bit matrix (precomputed
// in Gf256) to 64 bytes per instruction — no split tables needed at all.
// ---------------------------------------------------------------------------

/// Each bit matrix is broadcast from memory; the accumulators take 8 of
/// the 32 zmm registers.
struct GfniDot {
  static constexpr std::size_t kLanes = 64;

  template <std::size_t G>
  __attribute__((target("gfni,avx512f,avx512bw"))) static void group(
      const GfDotTables& t, std::size_t row0, const std::uint8_t* const* src,
      std::uint8_t* const* dst, std::size_t vec_n) {
    const std::uint64_t* matrices = t.affine() + row0;
    for (std::size_t i = 0; i < vec_n; i += kLanes) {
      __m512i acc[G];
      for (std::size_t j = 0; j < G; ++j) acc[j] = _mm512_setzero_si512();
      for (std::size_t s = 0; s < t.sources(); ++s) {
        const __m512i x =
            _mm512_loadu_si512(reinterpret_cast<const void*>(src[s] + i));
        const std::uint64_t* a = matrices + s * t.rows();
        for (std::size_t j = 0; j < G; ++j) {
          acc[j] = _mm512_xor_si512(
              acc[j], _mm512_gf2p8affine_epi64_epi8(
                          x, _mm512_set1_epi64(static_cast<long long>(a[j])),
                          0));
        }
      }
      for (std::size_t j = 0; j < G; ++j) {
        _mm512_storeu_si512(reinterpret_cast<void*>(dst[j] + i), acc[j]);
      }
    }
  }
};

#endif  // SDR_GF_X86_KERNELS

// ---------------------------------------------------------------------------
// Kernel tables + dispatch
// ---------------------------------------------------------------------------

constexpr GfKernels kScalarTable{GfIsa::kScalar, &scalar_dot_prod};
#if defined(SDR_GF_X86_KERNELS)
constexpr GfKernels kSsse3Table{GfIsa::kSsse3, &dot_prod_in_groups<Ssse3Dot>};
constexpr GfKernels kAvx2Table{GfIsa::kAvx2, &dot_prod_in_groups<Avx2Dot>};
constexpr GfKernels kGfniTable{GfIsa::kGfni, &dot_prod_in_groups<GfniDot>};
#endif

bool isa_compiled(GfIsa isa) {
#if defined(SDR_GF_X86_KERNELS)
  (void)isa;
  return true;
#else
  return isa == GfIsa::kScalar;
#endif
}

bool feature_supported(GfIsa isa, const common::CpuFeatures& f) {
  switch (isa) {
    case GfIsa::kScalar: return true;
    case GfIsa::kSsse3: return f.ssse3;
    case GfIsa::kAvx2: return f.avx2;
    case GfIsa::kGfni: return f.gfni && f.avx512bw;
  }
  return false;
}

GfIsa best_for(const common::CpuFeatures& f) {
  for (GfIsa isa : {GfIsa::kGfni, GfIsa::kAvx2, GfIsa::kSsse3}) {
    if (isa_compiled(isa) && feature_supported(isa, f)) return isa;
  }
  return GfIsa::kScalar;
}

/// One-time env + CPUID resolution; later reads are a plain atomic load.
/// force_gf_isa swaps the pointer (tests/bench only).
std::atomic<const GfKernels*>& active_slot() {
  static std::atomic<const GfKernels*> slot{[] {
    const char* env = std::getenv("SDR_EC_ISA");
    const IsaChoice choice = resolve_isa(env, common::cpu_features());
    if (choice.fell_back) {
      SDR_WARN("gf256 dispatch: %s", choice.message.c_str());
    } else if (env != nullptr && *env != '\0') {
      SDR_INFO("gf256 dispatch: SDR_EC_ISA override -> %s",
               isa_name(choice.isa));
    } else {
      SDR_DEBUG("gf256 dispatch: auto-selected %s (%s)",
                isa_name(choice.isa),
                common::cpu_feature_summary().c_str());
    }
    return gf_kernels_for(choice.isa);
  }()};
  return slot;
}

}  // namespace

void GfDotTables::reset(std::size_t rows, std::size_t sources) {
  assert(sources >= 1);
  rows_ = rows;
  sources_ = sources;
  coeff_.resize(rows * sources);
  affine_.resize(rows * sources);
  split_.resize(rows * sources * 32);
}

void GfDotTables::reserve(std::size_t rows, std::size_t sources) {
  coeff_.reserve(rows * sources);
  affine_.reserve(rows * sources);
  split_.reserve(rows * sources * 32);
}

void GfDotTables::set(std::size_t r, std::size_t s, std::uint8_t c) {
  assert(r < rows_ && s < sources_);
  const std::size_t e = s * rows_ + r;
  coeff_[e] = c;
  affine_[e] = Gf256::instance().affine_matrix(c);
  std::memcpy(&split_[e * 32], split_tables().lo[c], 16);
  std::memcpy(&split_[e * 32 + 16], split_tables().hi[c], 16);
}

const char* isa_name(GfIsa isa) {
  switch (isa) {
    case GfIsa::kScalar: return "scalar";
    case GfIsa::kSsse3: return "ssse3";
    case GfIsa::kAvx2: return "avx2";
    case GfIsa::kGfni: return "gfni";
  }
  return "unknown";
}

bool isa_supported(GfIsa isa) {
  return isa_compiled(isa) && feature_supported(isa, common::cpu_features());
}

GfIsa best_supported_isa() { return best_for(common::cpu_features()); }

IsaChoice resolve_isa(const char* env, const common::CpuFeatures& features) {
  IsaChoice out;
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    out.isa = best_for(features);
    return out;
  }
  GfIsa requested = GfIsa::kScalar;
  bool known = false;
  for (GfIsa isa :
       {GfIsa::kScalar, GfIsa::kSsse3, GfIsa::kAvx2, GfIsa::kGfni}) {
    if (std::strcmp(env, isa_name(isa)) == 0) {
      requested = isa;
      known = true;
      break;
    }
  }
  if (!known) {
    out.isa = best_for(features);
    out.fell_back = true;
    out.message = std::string("SDR_EC_ISA='") + env +
                  "' not recognized (scalar|ssse3|avx2|gfni|auto); "
                  "auto-selected " +
                  isa_name(out.isa);
    return out;
  }
  if (isa_compiled(requested) && feature_supported(requested, features)) {
    out.isa = requested;
    return out;
  }
  // Requested-but-unsupported falls back to scalar, never to a different
  // vector tier: a forced-ISA run must not silently test the wrong kernels.
  out.isa = GfIsa::kScalar;
  out.fell_back = true;
  out.message = std::string("SDR_EC_ISA=") + env +
                " requested but unsupported on this host/binary (" +
                common::cpu_feature_summary() + "); falling back to scalar";
  return out;
}

const GfKernels& gf_kernels() {
  return *active_slot().load(std::memory_order_acquire);
}

const GfKernels* gf_kernels_for(GfIsa isa) {
  switch (isa) {
    case GfIsa::kScalar: return &kScalarTable;
#if defined(SDR_GF_X86_KERNELS)
    case GfIsa::kSsse3: return &kSsse3Table;
    case GfIsa::kAvx2: return &kAvx2Table;
    case GfIsa::kGfni: return &kGfniTable;
#else
    default: break;
#endif
  }
  return nullptr;
}

GfIsa active_isa() { return gf_kernels().isa; }

GfIsa force_gf_isa(GfIsa isa) {
  if (!isa_supported(isa)) return active_isa();
  const GfKernels* prev =
      active_slot().exchange(gf_kernels_for(isa), std::memory_order_acq_rel);
  return prev->isa;
}

}  // namespace sdr::ec
