#include "rts/parker.hpp"

#include <linux/futex.h>
#include <sys/eventfd.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cassert>
#include <climits>
#include <stdexcept>

namespace ph {
namespace {

timespec to_timespec(std::chrono::nanoseconds d) {
  if (d < std::chrono::nanoseconds::zero()) d = std::chrono::nanoseconds::zero();
  const auto s = std::chrono::duration_cast<std::chrono::seconds>(d);
  return {static_cast<time_t>(s.count()), static_cast<long>((d - s).count())};
}

long futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t val, const timespec* ts) {
  static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t));
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val, ts, nullptr, 0);
}

}  // namespace

Parker::Parker(ParkerWords* shared, bool pollable) : w_(shared), shared_(true) {
  if (pollable) {
    fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (fd_ < 0) throw std::runtime_error("Parker: eventfd() failed");
  }
}

Parker::~Parker() {
  if (fd_ >= 0) ::close(fd_);
}

void Parker::wake() {
  w_->rings.fetch_add(1, std::memory_order_release);
  if (fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
    return;
  }
  futex(&w_->rings, shared_ ? FUTEX_WAKE : FUTEX_WAKE_PRIVATE, INT_MAX, nullptr);
}

int Parker::poll_fds(std::span<pollfd> fds, std::chrono::nanoseconds timeout) {
  const timespec ts = to_timespec(timeout);
  const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n <= 0) return n;
  // The eventfd counts rings; clear it so the next park can sleep.
  for (const pollfd& p : fds)
    if (p.fd == fd_ && (p.revents & POLLIN) != 0) {
      std::uint64_t v = 0;
      [[maybe_unused]] const ssize_t r = ::read(fd_, &v, sizeof(v));
    }
  return n;
}

Park Parker::wait(std::uint32_t key, std::chrono::microseconds timeout,
                  std::span<pollfd> fds) {
  assert(fds.empty() || fd_ >= 0);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + timeout;
  Park out = Park::TimedOut;
  bool polled = false;
  for (;;) {
    if (w_->rings.load(std::memory_order_acquire) != key) {
      out = Park::Rung;
      break;
    }
    const Clock::duration left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) break;
    if (fd_ < 0) {
      // Returns at once if a ring already moved the word past `key`.
      const timespec ts = to_timespec(left);
      futex(&w_->rings, shared_ ? FUTEX_WAIT : FUTEX_WAIT_PRIVATE, key, &ts);
      continue;
    }
    pollfd own{fd_, POLLIN, 0};
    const std::span<pollfd> set = fds.empty() ? std::span<pollfd>(&own, 1) : fds;
    const int n = poll_fds(set, left);
    polled = true;
    if (n <= 0) continue;
    bool other = false;
    for (const pollfd& p : set) other = other || (p.fd != fd_ && p.revents != 0);
    if (other) {
      out = Park::Rung;
      break;
    }
  }
  // A ring seen, or a timeout already passed, before the first poll: the
  // caller's revents still have to be fresh.
  if (!polled && !fds.empty()) poll_fds(fds, std::chrono::nanoseconds::zero());
  retire();
  return out;
}

}  // namespace ph
