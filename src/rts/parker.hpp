// Parker: the one doorbell every wall-clock idle wait in the runtime parks
// on (DESIGN.md §18). An idle capability, an idle Eden PE, a serve worker,
// the daemon and the process supervisors all sleep here, and whatever can
// make one of them runnable rings the doorbell it sleeps on: a spark or
// thread push, a GC request, the end of a run, a transport send, freed
// ring space, a freeze release.
//
// It is an eventcount. park() announces the caller (parked++), re-checks
// the caller's readiness predicate and only then sleeps, on a futex or, for
// a pollable doorbell, in poll() on an eventfd. ring() publishes first and
// then reads the parked count behind a full fence, so either the ringer
// sees the waiter and wakes it, or the waiter's re-check sees what the
// ringer published: no wakeup is lost, and a ring with nobody parked costs
// a fence and a load.
//
// The two words may live in process memory or in a MAP_SHARED segment
// (ProcTransport keeps one doorbell per endpoint there), so processes
// forked after the segment was mapped ring each other's doorbells. A
// pollable doorbell's eventfd is created with it, before any fork, so
// ringers in every forked process inherit it.
#pragma once

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>

#if defined(__SANITIZE_THREAD__)
#define PH_PARKER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PH_PARKER_TSAN 1
#endif
#endif

namespace ph {

/// A doorbell's state: the ring count (the futex word) and the number of
/// waiters parked on it, on a cache line of their own.
struct alignas(64) ParkerWords {
  std::atomic<std::uint32_t> rings{0};
  std::atomic<std::uint32_t> parked{0};
};

/// How a park ended.
enum class Park : std::uint8_t {
  Ready,     // the predicate held after the announce: the caller never slept
  Rung,      // a ring (or an event on one of the caller's fds) woke it
  TimedOut,  // the timeout passed with neither
};

class Parker {
 public:
  /// A doorbell in process memory; waiters sleep on a private futex.
  Parker() : w_(&own_) {}
  /// A doorbell whose words live at `shared`, in a MAP_SHARED mapping the
  /// ringing processes inherit; waiters sleep on a shared futex. With
  /// `pollable` they sleep in poll() on an eventfd instead (fd()).
  explicit Parker(ParkerWords* shared, bool pollable = false);
  ~Parker();
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// Wakes every parked waiter.
  void ring() {
#ifdef PH_PARKER_TSAN
    // ThreadSanitizer does not model standalone fences; a seq_cst
    // read-modify-write orders the same way and it does model that.
    if (w_->parked.fetch_add(0, std::memory_order_seq_cst) != 0) wake();
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (w_->parked.load(std::memory_order_relaxed) != 0) wake();
#endif
  }

  /// The one park entry point. Announces the caller, then returns
  /// Park::Ready at once if `ready()` holds; otherwise sleeps until a ring
  /// or `timeout`. `fds`, when given, is the caller's whole poll set; it
  /// must include fd(), and it is polled on every exit (without sleeping
  /// when `ready()` holds, a ring came first or `timeout` is already
  /// spent), so its revents are always fresh.
  template <typename Ready>
  Park park(Ready&& ready, std::chrono::microseconds timeout,
            std::span<pollfd> fds = {}) {
    const std::uint32_t key = announce();
    if (ready()) {
      if (!fds.empty()) poll_fds(fds, std::chrono::nanoseconds::zero());
      retire();
      return Park::Ready;
    }
    return wait(key, timeout, fds);
  }

  /// Clears the parked count. A doorbell with one consumer (a transport
  /// endpoint's) counts 0 or 1; a consumer killed while parked leaves a 1
  /// that would make every later ring a syscall, so its replacement calls
  /// this before it first parks.
  void reset() { w_->parked.store(0, std::memory_order_relaxed); }

  /// The eventfd a pollable doorbell sleeps on, for the caller's poll set
  /// (-1 when the doorbell is not pollable).
  int fd() const { return fd_; }

 private:
  std::uint32_t announce() {
    w_->parked.fetch_add(1, std::memory_order_seq_cst);
#ifndef PH_PARKER_TSAN
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
    return w_->rings.load(std::memory_order_seq_cst);
  }
  void retire() { w_->parked.fetch_sub(1, std::memory_order_release); }
  void wake();
  Park wait(std::uint32_t key, std::chrono::microseconds timeout, std::span<pollfd> fds);
  /// ppoll() over `fds`; clears the eventfd when it fired.
  int poll_fds(std::span<pollfd> fds, std::chrono::nanoseconds timeout);

  ParkerWords own_;  // unused when the words are shared
  ParkerWords* w_;
  bool shared_ = false;
  int fd_ = -1;
};

}  // namespace ph
