// Systematic Reed-Solomon erasure code over GF(256).
//
// Encoding matrix: the k x k identity stacked on an m x k Cauchy matrix —
// every square submatrix of a Cauchy matrix is invertible, so any k of the
// k+m blocks reconstruct the data (the MDS property, paper Appendix B.0.1).
// This mirrors the role Intel ISA-L plays in the paper's Fig 11.
#pragma once

#include "ec/codec.hpp"
#include "ec/gf256_kernels.hpp"
#include "ec/matrix.hpp"

namespace sdr::ec {

class ReedSolomon final : public ErasureCodec {
 public:
  /// Requires k + m <= 256 (field size limit) and k, m >= 1.
  ReedSolomon(std::size_t k, std::size_t m);

  std::size_t k() const override { return k_; }
  std::size_t m() const override { return m_; }
  std::string name() const override;

  void encode(std::span<const std::uint8_t* const> data,
              std::span<std::uint8_t* const> parity,
              std::size_t block_len) const override;

  bool can_recover(const PresenceMap& present) const override;

  bool decode(std::span<std::uint8_t* const> blocks,
              const PresenceMap& present,
              std::size_t block_len) const override;

  /// encode()/decode() with an explicit kernel set instead of the
  /// process-wide dispatched one — the differential oracle and the per-ISA
  /// bench lanes run the same pass under forced kernels and compare bytes.
  /// Each is one GfKernels::dot_prod call per byte range: all m parity rows
  /// (encode) or all missing data rows (decode) accumulate in registers
  /// while the kernel reads every source once. Encode never allocates;
  /// decode keeps its matrices and constants in a per-thread workspace, so
  /// it stops allocating once the calling thread has decoded at this k.
  void encode_with(const GfKernels& kernels,
                   std::span<const std::uint8_t* const> data,
                   std::span<std::uint8_t* const> parity,
                   std::size_t block_len) const;
  bool decode_with(const GfKernels& kernels,
                   std::span<std::uint8_t* const> blocks,
                   const PresenceMap& present, std::size_t block_len) const;

  /// Rows [k, k+m) of the full encoding matrix (the Cauchy part), exposed
  /// for tests that verify the MDS property directly.
  const GfMatrix& parity_matrix() const { return parity_rows_; }

 private:
  std::size_t k_;
  std::size_t m_;
  GfMatrix parity_rows_;  // m x k
  GfDotTables encode_tables_;  // parity_rows_, expanded for the kernels
};

}  // namespace sdr::ec
