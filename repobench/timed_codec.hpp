// Timing wrapper around an ec::ErasureCodec.
//
// bulk_ec composes its EC stack from EcSender/EcReceiver, which take the
// codec by reference, so the traced run can hand them this wrapper instead
// of the bare ReedSolomon. Every call is forwarded unchanged; encode() and
// decode() additionally accumulate host time and the data bytes of the
// stripe they processed. The self-test checks that the wrapper is
// transparent (same parity bytes, same bulk_ec digest).
#pragma once

#include <chrono>
#include <cstdint>

#include "ec/codec.hpp"

namespace repobench {

struct CodecTimes {
  std::uint64_t encode_calls{0};
  std::uint64_t encode_ns{0};
  std::uint64_t encode_bytes{0};  // k * block_len per call
  std::uint64_t decode_ns{0};
  std::uint64_t decode_bytes{0};  // k * block_len per call
};

class TimedCodec final : public sdr::ec::ErasureCodec {
 public:
  explicit TimedCodec(const sdr::ec::ErasureCodec& inner) : inner_(inner) {}

  std::size_t k() const override { return inner_.k(); }
  std::size_t m() const override { return inner_.m(); }
  std::string name() const override { return inner_.name(); }

  void encode(std::span<const std::uint8_t* const> data,
              std::span<std::uint8_t* const> parity,
              std::size_t block_len) const override {
    const auto t0 = Clock::now();
    inner_.encode(data, parity, block_len);
    times_.encode_ns += elapsed_ns(t0);
    ++times_.encode_calls;
    times_.encode_bytes += inner_.k() * block_len;
  }

  bool can_recover(const sdr::ec::PresenceMap& present) const override {
    return inner_.can_recover(present);
  }

  bool decode(std::span<std::uint8_t* const> blocks,
              const sdr::ec::PresenceMap& present,
              std::size_t block_len) const override {
    const auto t0 = Clock::now();
    const bool ok = inner_.decode(blocks, present, block_len);
    times_.decode_ns += elapsed_ns(t0);
    times_.decode_bytes += inner_.k() * block_len;
    return ok;
  }

  const CodecTimes& times() const { return times_; }

 private:
  using Clock = std::chrono::steady_clock;
  static std::uint64_t elapsed_ns(Clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count());
  }

  const sdr::ec::ErasureCodec& inner_;
  mutable CodecTimes times_;
};

}  // namespace repobench
