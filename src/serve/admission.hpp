// Admission control: load shedding. The daemon's queue is bounded; past
// capacity a submit is answered with Overloaded{queue_depth,
// retry_after_us} instead of being queued — an unbounded queue under
// sustained overload turns every latency into the queue drain time and
// eventually OOMs the daemon. The retry hint is Little's-law shaped:
// depth × EWMA service time / healthy workers, i.e. roughly when the
// *current* backlog will have drained.
//
// The per-PE restart budget that quarantines a crashing worker (the
// CircuitBreaker) belongs to the process supervisor: net/supervisor.hpp.
#pragma once

#include <cstdint>

namespace ph::serve {

class AdmissionController {
 public:
  explicit AdmissionController(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  bool admit(std::size_t queue_depth) const { return queue_depth < capacity_; }

  /// Feeds one observed service time into the EWMA (alpha 1/8 — smooth
  /// enough to ride out one slow matmul, fresh enough to track a regime
  /// change within a dozen requests).
  void note_service_us(std::uint64_t us) {
    ewma_us_ = ewma_us_ == 0.0 ? static_cast<double>(us)
                               : ewma_us_ + (static_cast<double>(us) - ewma_us_) / 8.0;
  }

  std::uint64_t ewma_service_us() const {
    return static_cast<std::uint64_t>(ewma_us_);
  }

  /// When the present backlog should have drained; the floor keeps the
  /// hint useful before the EWMA has warmed up.
  std::uint64_t retry_after_us(std::size_t queue_depth,
                               std::uint32_t healthy_workers) const {
    const double per = ewma_us_ > 0.0 ? ewma_us_ : 1000.0;
    const double workers = healthy_workers > 0 ? healthy_workers : 1;
    const double us = per * (static_cast<double>(queue_depth) + 1.0) / workers;
    return static_cast<std::uint64_t>(us < 100.0 ? 100.0 : us);
  }

 private:
  std::size_t capacity_;
  double ewma_us_ = 0.0;
};

}  // namespace ph::serve
