// Vectorized GF(256) constant-multiply kernels with runtime ISA dispatch.
//
// The erasure-code hot loop is a dot product over GF(256):
//
//   out[r][i] = XOR_s c[r][s] * src[s][i]
//
// The scalar form is a dependent table load per byte; the vector forms
// multiply 16/32/64 lanes at once. SSSE3/AVX2 use the classic ISA-L
// split-table technique: write x = hi·16 + lo, then
//
//   c * x = Tlo_c[lo] ^ Thi_c[hi]
//
// where Tlo_c / Thi_c are 16-entry tables (c*0..c*15 and c*0x00,c*0x10,...,
// c*0xF0) applied by PSHUFB / VPSHUFB. GFNI applies the multiply-by-c
// 8x8 bit matrix with GF2P8AFFINEQB. The dot-product kernels keep one
// register group of output rows as accumulators while they walk every
// source for one vector column, so each source vector is loaded once per
// group and each output vector is stored once (ISA-L's gf_Nvect_dot_prod).
//
// Dispatch: one CPUID-based resolution at first use picks the best ISA the
// host supports (gfni > avx2 > ssse3 > scalar); the SDR_EC_ISA environment
// variable (scalar|ssse3|avx2|gfni|auto) overrides it for testing, falling
// back to scalar with a logged warning when the requested ISA is
// unavailable. All kernels produce byte-identical output — the property
// tests and the sdrcheck differential oracle enforce this exhaustively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cpu.hpp"

namespace sdr::ec {

enum class GfIsa : std::uint8_t {
  kScalar = 0,  // 256-byte row table, one load per byte
  kSsse3 = 1,   // 16-lane pshufb
  kAvx2 = 2,    // 32-lane vpshufb
  kGfni = 3,    // 64-lane gf2p8affineqb (needs avx512bw too)
};

/// A coefficient matrix c[r][s] (rows x sources) expanded into the form
/// every kernel tier consumes: the raw byte (scalar tier and vector tails),
/// the 2x16-byte split tables (ssse3/avx2) and the GF2P8AFFINEQB bit matrix
/// (gfni). Entries are stored source-major so a kernel reads one register
/// group's constants for a source contiguously. Build it once per matrix:
/// a codec at construction, a decode per erasure pattern. Storage is
/// reused, so a reset() within the reserved size allocates nothing.
class GfDotTables {
 public:
  /// Reshape to rows x sources (sources >= 1). Entries must then be set().
  void reset(std::size_t rows, std::size_t sources);
  /// Make room for rows * sources entries without reshaping.
  void reserve(std::size_t rows, std::size_t sources);
  void set(std::size_t r, std::size_t s, std::uint8_t c);

  std::size_t rows() const { return rows_; }
  std::size_t sources() const { return sources_; }
  std::uint8_t coeff(std::size_t r, std::size_t s) const {
    return coeff_[s * rows_ + r];
  }
  /// The bit matrix of coeff(r, s) at [s * rows() + r].
  const std::uint64_t* affine() const { return affine_.data(); }
  /// Low then high nibble table of coeff(r, s) at [(s * rows() + r) * 32].
  const std::uint8_t* split() const { return split_.data(); }

 private:
  std::size_t rows_{0};
  std::size_t sources_{0};
  std::vector<std::uint8_t> coeff_;
  std::vector<std::uint64_t> affine_;
  std::vector<std::uint8_t> split_;
};

/// A resolved kernel set. All entry points require outputs that do not
/// overlap their inputs; any alignment and any length are fine (vector
/// kernels finish the sub-vector tail with scalar code).
struct GfKernels {
  GfIsa isa{GfIsa::kScalar};

  /// dst[i] ^= c * src[i].
  void (*mul_acc)(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                  std::size_t n);
  /// dst[i] = c * src[i].
  void (*mul_set)(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t c,
                  std::size_t n);
  /// Dot product: dst[r][i] = XOR_s t.coeff(r, s) * src[s][i] for every
  /// r < t.rows(), s < t.sources(), i < n. Output rows are only written,
  /// never read — ReedSolomon::encode and the decode solve are each one
  /// call.
  void (*dot_prod)(const GfDotTables& t, const std::uint8_t* const* src,
                   std::uint8_t* const* dst, std::size_t n);
};

const char* isa_name(GfIsa isa);

/// True when this binary has the kernel compiled AND the host CPU (plus OS
/// state saving) supports it.
bool isa_supported(GfIsa isa);

/// Best supported tier on this host (kScalar when nothing vectorized fits).
GfIsa best_supported_isa();

/// Outcome of resolving an SDR_EC_ISA override against a feature set.
struct IsaChoice {
  GfIsa isa{GfIsa::kScalar};
  bool fell_back{false};  // requested ISA unknown or unsupported
  std::string message;    // human-readable note when fell_back
};

/// Pure resolution logic (testable without env games): `env` is the raw
/// SDR_EC_ISA value (nullptr / "" / "auto" pick the best tier `features`
/// supports). A recognized but unsupported request falls back to kScalar —
/// never silently to a different vector tier — so a forced-ISA CI run
/// that lands on an old host fails fast in the throughput gate instead of
/// quietly testing the wrong kernels. Unknown strings fall back to auto.
IsaChoice resolve_isa(const char* env, const common::CpuFeatures& features);

/// The process-wide dispatched kernel set. First call resolves CPUID +
/// SDR_EC_ISA (logging the decision at INFO, fallbacks at WARN); later
/// calls are a single atomic load.
const GfKernels& gf_kernels();

/// Kernel set for one specific ISA, bypassing dispatch — the differential
/// oracle and the per-ISA bench lanes compare these directly. Returns
/// nullptr when the tier is not compiled into this binary; the caller must
/// also check isa_supported() before executing a non-scalar tier.
const GfKernels* gf_kernels_for(GfIsa isa);

/// Currently dispatched ISA.
GfIsa active_isa();

/// Force the dispatched set (tests/bench only; not thread-safe against
/// concurrent encodes). Returns the previously active ISA. Forcing an
/// unsupported tier is a no-op that returns the current ISA.
GfIsa force_gf_isa(GfIsa isa);

}  // namespace sdr::ec
