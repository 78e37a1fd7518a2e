// GF(2^8) arithmetic for Reed-Solomon erasure coding.
//
// Field: GF(256) with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1
// (0x11d, the AES-unrelated but RS-conventional choice used by most storage
// codes). Multiplication uses exp/log tables; the scalar tier of the bulk
// dot-product kernels (gf256_kernels.hpp) reads a per-constant 256-byte row
// of the full multiplication table, so its inner loop is a single dependent
// load per byte.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace sdr::ec {

class Gf256 {
 public:
  /// Singleton tables (immutable after construction).
  static const Gf256& instance();

  std::uint8_t add(std::uint8_t a, std::uint8_t b) const { return a ^ b; }
  std::uint8_t sub(std::uint8_t a, std::uint8_t b) const { return a ^ b; }

  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  std::uint8_t div(std::uint8_t a, std::uint8_t b) const;
  std::uint8_t inv(std::uint8_t a) const;
  std::uint8_t pow(std::uint8_t a, unsigned e) const;

  /// Pointer to the 256-entry row {c*0, c*1, ..., c*255}.
  const std::uint8_t* mul_row(std::uint8_t c) const {
    return mul_table_.data() + static_cast<std::size_t>(c) * 256;
  }

  /// dst[i] ^= src[i] (c == 1 fast path, shared with the XOR code).
  static void xor_acc(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n);

 private:
  Gf256();

  std::array<std::uint8_t, 512> exp_{};
  std::array<std::uint16_t, 256> log_{};
  // Full 256x256 multiplication table (64 KiB — fits in L2 and makes the
  // per-byte kernel a single indexed load).
  std::array<std::uint8_t, 256 * 256> mul_table_{};
  // Per-constant 8x8 GF(2) bit matrices of multiply-by-c, packed for the
  // GF2P8AFFINEQB instruction (GFNI hosts): one qword per constant.
  std::array<std::uint64_t, 256> affine_{};

 public:
  std::uint64_t affine_matrix(std::uint8_t c) const { return affine_[c]; }
};

}  // namespace sdr::ec
