#include "ec/reed_solomon.hpp"

#include <cassert>
#include <stdexcept>

#include "ec/byte_ranges.hpp"

namespace sdr::ec {

namespace {
/// k + m <= 256, so fixed stack arrays cover every legal geometry.
constexpr std::size_t kMaxBlocks = 256;

/// Decode matrices and kernel constants, per thread: codecs are shared
/// across sweep threads, so the workspace cannot live in the codec. It
/// grows to the largest k the thread has decoded, after which a decode
/// allocates nothing.
struct DecodeScratch {
  GfMatrix selection;
  GfMatrix work;
  GfMatrix inverse;
  GfDotTables tables;
};
thread_local DecodeScratch t_decode;
}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m) : k_(k), m_(m) {
  if (k == 0 || m == 0 || k + m > 256) {
    throw std::invalid_argument(
        "ReedSolomon requires 1 <= k, 1 <= m, k + m <= 256");
  }
  // x range [k, k+m), y range [0, k): disjoint, so xi ^ yj != 0... in
  // integer terms they are distinct values < 256, and XOR of distinct
  // values is nonzero.
  parity_rows_ = GfMatrix::cauchy(m, k, static_cast<std::uint8_t>(k), 0);
  encode_tables_.reset(m, k);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t d = 0; d < k; ++d) {
      encode_tables_.set(p, d, parity_rows_.at(p, d));
    }
  }
}

std::string ReedSolomon::name() const {
  return "RS(" + std::to_string(k_) + "," + std::to_string(m_) + ")";
}

void ReedSolomon::encode(std::span<const std::uint8_t* const> data,
                         std::span<std::uint8_t* const> parity,
                         std::size_t block_len) const {
  encode_with(gf_kernels(), data, parity, block_len);
}

void ReedSolomon::encode_with(const GfKernels& kernels,
                              std::span<const std::uint8_t* const> data,
                              std::span<std::uint8_t* const> parity,
                              std::size_t block_len) const {
  assert(data.size() == k_ && parity.size() == m_);

  for_each_byte_range(block_len, [&](std::size_t begin, std::size_t end) {
    const std::uint8_t* src[kMaxBlocks];
    std::uint8_t* dst[kMaxBlocks];
    for (std::size_t d = 0; d < k_; ++d) src[d] = data[d] + begin;
    for (std::size_t p = 0; p < m_; ++p) dst[p] = parity[p] + begin;
    kernels.dot_prod(encode_tables_, src, dst, end - begin);
  });
}

bool ReedSolomon::can_recover(const PresenceMap& present) const {
  assert(present.size() == k_ + m_);
  std::size_t available = 0;
  for (bool p : present) available += p ? 1 : 0;
  return available >= k_;  // MDS: any k of k+m suffice
}

bool ReedSolomon::decode(std::span<std::uint8_t* const> blocks,
                         const PresenceMap& present,
                         std::size_t block_len) const {
  return decode_with(gf_kernels(), blocks, present, block_len);
}

bool ReedSolomon::decode_with(const GfKernels& kernels,
                              std::span<std::uint8_t* const> blocks,
                              const PresenceMap& present,
                              std::size_t block_len) const {
  assert(blocks.size() == k_ + m_ && present.size() == k_ + m_);
  if (!can_recover(present)) return false;

  // Which data blocks are missing?
  std::size_t missing_data[kMaxBlocks];
  std::size_t miss = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    if (!present[i]) missing_data[miss++] = i;
  }
  if (miss == 0) return true;  // nothing to do

  // Pick k present blocks (prefer data blocks: identity rows make the
  // decode matrix sparser and the row selection cheaper to invert).
  std::size_t chosen[kMaxBlocks];
  std::size_t n_chosen = 0;
  for (std::size_t i = 0; i < k_ + m_ && n_chosen < k_; ++i) {
    if (present[i]) chosen[n_chosen++] = i;
  }

  // Build the k x k matrix mapping data -> chosen blocks and invert it.
  DecodeScratch& scratch = t_decode;
  GfMatrix& selection = scratch.selection;
  selection.assign_zero(k_, k_);
  for (std::size_t r = 0; r < k_; ++r) {
    const std::size_t src = chosen[r];
    if (src < k_) {
      selection.at(r, src) = 1;  // identity row for a data block
    } else {
      for (std::size_t c = 0; c < k_; ++c) {
        selection.at(r, c) = parity_rows_.at(src - k_, c);
      }
    }
  }
  GfMatrix& inverse = scratch.inverse;
  if (!selection.invert(inverse, scratch.work)) {
    return false;  // cannot happen for Cauchy
  }

  // Reconstruct every missing data block in one dot product:
  //   data[d] = sum_r inverse[d][r] * blocks[chosen[r]]
  GfDotTables& tables = scratch.tables;
  tables.reserve(m_, k_);  // miss <= m: one growth per k
  tables.reset(miss, k_);
  for (std::size_t j = 0; j < miss; ++j) {
    for (std::size_t r = 0; r < k_; ++r) {
      tables.set(j, r, inverse.at(missing_data[j], r));
    }
  }
  for_each_byte_range(block_len, [&](std::size_t begin, std::size_t end) {
    const std::uint8_t* src[kMaxBlocks];
    std::uint8_t* dst[kMaxBlocks];
    for (std::size_t r = 0; r < k_; ++r) src[r] = blocks[chosen[r]] + begin;
    for (std::size_t j = 0; j < miss; ++j) {
      dst[j] = blocks[missing_data[j]] + begin;
    }
    kernels.dot_prod(tables, src, dst, end - begin);
  });
  return true;
}

}  // namespace sdr::ec
