// The OpenMP split both erasure codecs run their passes through. Every
// output byte depends only on the input bytes at the same offset, so
// contiguous byte ranges are independent and any split gives identical
// bytes. Below the threshold a pass stays on the calling thread: opening a
// team costs more than it saves there, and a per-core measurement of a
// small block stays one core.
#pragma once

#include <algorithm>
#include <cstddef>

#ifdef SDR_HAVE_OPENMP
#include <omp.h>
#endif

namespace sdr::ec {

/// Block length from which a codec pass is split across threads.
inline constexpr std::size_t kParallelThreshold = 256 * 1024;

/// Calls fn(begin, end) over [0, len): once when len is below
/// kParallelThreshold (or without OpenMP), else once per OpenMP thread on
/// contiguous ranges.
template <typename Fn>
void for_each_byte_range(std::size_t len, Fn&& fn) {
#ifdef SDR_HAVE_OPENMP
  if (len >= kParallelThreshold) {
    const int threads = omp_get_max_threads();
    const std::size_t chunk = (len + threads - 1) / threads;
#pragma omp parallel for schedule(static)
    for (int t = 0; t < threads; ++t) {
      const std::size_t begin = static_cast<std::size_t>(t) * chunk;
      if (begin < len) fn(begin, std::min(len, begin + chunk));
    }
    return;
  }
#endif
  fn(std::size_t{0}, len);
}

}  // namespace sdr::ec
