#include "reliability/chunk_retransmitter.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bitmap.hpp"

namespace sdr::reliability {

ChunkRetransmitter::ChunkRetransmitter(sim::Simulator& simulator,
                                       const core::Qp& qp,
                                       const Options& options,
                                       InjectFn inject)
    : sim_(simulator),
      qp_(qp),
      layer_(options.layer),
      chunk_bytes_(qp.attr().chunk_size),
      stride_(options.stride),
      words_(bitmap_words(options.stride)),
      static_rto_s_(options.rto_s),
      adaptive_(options.adaptive_rto),
      estimator_(options.estimator),
      inject_(std::move(inject)),
      streams_(qp.attr().max_inflight),
      acked_(streams_.size() * words_),
      timers_(streams_.size() * stride_),
      sent_at_s_(streams_.size() * stride_),
      retries_(streams_.size() * stride_) {}

void ChunkRetransmitter::start(std::uint64_t number, std::size_t bytes) {
  const auto chunks =
      static_cast<std::uint32_t>((bytes + chunk_bytes_ - 1) / chunk_bytes_);
  assert(chunks <= stride_);
  streams_[slot_of(number)] = {number, bytes, -1.0, chunks, 0, true};
  // Only the stream's own entries: a table sized for the largest message
  // is touched in proportion to the chunks actually sent.
  std::fill_n(&acked_word(number, 0), bitmap_words(chunks), 0);
  std::fill_n(timers_.begin() + at(number, 0), chunks, sim::EventId{});
  std::fill_n(sent_at_s_.begin() + at(number, 0), chunks, -1.0);
  std::fill_n(retries_.begin() + at(number, 0), chunks, 0);
}

void ChunkRetransmitter::stop(std::uint64_t number) {
  if (!tracking(number)) return;
  streams_[slot_of(number)].live = false;
  for (std::size_t c = 0; c < chunks(number); ++c) {
    if (timers_[at(number, c)].valid()) sim_.cancel(timers_[at(number, c)]);
  }
}

void ChunkRetransmitter::send(std::uint64_t number, std::size_t chunk,
                              Send kind) {
  const std::size_t i = at(number, chunk);
  const std::size_t offset = chunk * chunk_bytes_;
  const std::size_t len =
      std::min(chunk_bytes_, streams_[slot_of(number)].bytes - offset);
  const bool retransmission = kind != Send::kFirst;
  const auto chunk32 = static_cast<std::uint32_t>(chunk);
  if (retransmission && telemetry::tracing()) {
    // Before the injection: the re-post can traverse the channel in the
    // same sim-time instant, and the timeline should read
    // retransmit -> posted -> tx.
    telemetry::tracer().emit(sim_.now(), telemetry::TraceEventType::kRetransmit,
                             0, number, chunk32, telemetry::kNoImm, len);
  }
  if (retransmission && telemetry::spanning()) {
    // Also before injection, so the fresh attempt span inherits the pending
    // drop/RTO cause and the flow arrow points at it.
    telemetry::spans().on_retransmit(sim_.now(), number, chunk32, len);
  }
  if (retransmission && telemetry::flight_recording()) {
    telemetry::flight().record(layer_, qp_.control_qp_num(), "retransmit",
                               sim_.now(), number, chunk, retries_[i], len);
  }
  if (!inject_(number, offset, len, retransmission)) return;
  // Karn: a retransmitted chunk's acknowledgment is ambiguous.
  sent_at_s_[i] = retransmission ? -1.0 : sim_.now().seconds();
  if (kind == Send::kRetry && retries_[i] < 8) ++retries_[i];
}

void ChunkRetransmitter::arm(std::uint64_t number, std::size_t chunk) {
  if (!tracking(number)) return;
  const std::size_t i = at(number, chunk);
  // Per-chunk exponential backoff (capped at 16x — the base RTO is already
  // conservative) plus up to 25% jitter: without jitter, the RTOs of all
  // chunks lost in one burst expire together and the retransmission storm
  // tail-drops itself in congested queues.
  const double backoff =
      static_cast<double>(1u << std::min<std::uint8_t>(retries_[i], 4));
  const double jitter = 1.0 + 0.25 * rng_.next_double();
  timers_[i] = sim_.schedule(
      SimTime::from_seconds(rto_s() * backoff * jitter),
      [this, number, chunk] { on_rto(number, chunk); });
}

void ChunkRetransmitter::on_rto(std::uint64_t number, std::size_t chunk) {
  telemetry::ProfScope prof(layer_ == telemetry::FlightLayer::kEc
                                ? telemetry::ProfCategory::kEc
                                : telemetry::ProfCategory::kSr);
  if (!tracking(number) || is_acked(number, chunk)) return;
  const auto chunk32 = static_cast<std::uint32_t>(chunk);
  if (telemetry::tracing()) {
    telemetry::tracer().emit(sim_.now(), telemetry::TraceEventType::kRtoFired,
                             0, number, chunk32);
  }
  if (telemetry::spanning()) {
    telemetry::spans().on_rto(sim_.now(), number, chunk32);
  }
  if (telemetry::flight_recording()) {
    telemetry::flight().record(layer_, qp_.control_qp_num(), "rto_fired",
                               sim_.now(), number, chunk,
                               retries_[at(number, chunk)],
                               static_cast<std::uint64_t>(rto_s() * 1e6));
  }
  send(number, chunk, Send::kRetry);
  arm(number, chunk);
}

void ChunkRetransmitter::start_clock(std::uint64_t number) {
  if (!tracking(number)) return;
  streams_[slot_of(number)].clock_s = sim_.now().seconds();
  for (std::size_t c = 0; c < chunks(number); ++c) {
    if (!is_acked(number, c) && !timers_[at(number, c)].valid()) {
      arm(number, c);
    }
  }
}

void ChunkRetransmitter::retransmit(std::uint64_t number, std::size_t chunk) {
  if (!tracking(number) || chunk >= chunks(number)) return;
  if (is_acked(number, chunk)) return;
  if (const sim::EventId t = timers_[at(number, chunk)]; t.valid()) {
    sim_.cancel(t);
  }
  send(number, chunk, Send::kRetry);
  arm(number, chunk);
}

std::size_t ChunkRetransmitter::apply_ack(std::uint64_t number,
                                          const ControlMessage& ack) {
  if (!tracking(number)) return 0;
  const std::size_t before = acked(number);
  const std::size_t n = chunks(number);
  const std::size_t cumulative = std::min<std::size_t>(ack.cumulative, n);
  for (std::size_t c = 0; c < cumulative; ++c) mark_acked(number, c);
  // Word scan over the selective window: countr_zero jumps straight to the
  // next set bit; clearing it with `word & (word - 1)` makes the loop cost
  // proportional to acked chunks, not window width.
  for (std::size_t w = 0; w < ack.selective.size(); ++w) {
    std::uint64_t word = ack.selective[w];
    const std::size_t base = ack.selective_base + w * 64;
    while (word != 0) {
      const std::size_t chunk =
          base + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      if (chunk < n) mark_acked(number, chunk);
    }
  }
  return acked(number) - before;
}

void ChunkRetransmitter::mark_acked(std::uint64_t number, std::size_t chunk) {
  if (is_acked(number, chunk)) return;
  acked_word(number, chunk) |= 1ULL << (chunk & 63);
  Stream& s = streams_[slot_of(number)];
  ++s.acked;
  const std::size_t i = at(number, chunk);
  if (timers_[i].valid()) {
    sim_.cancel(timers_[i]);
    timers_[i] = {};
  }
  if (sent_at_s_[i] >= 0.0) {
    // Chunks queued before the clock started only travel from then on.
    const double sample =
        sim_.now().seconds() - std::max(sent_at_s_[i], s.clock_s);
    if (adaptive_) estimator_.update(sample);
    rtt_hist_.record(sample);
  }
}

}  // namespace sdr::reliability
