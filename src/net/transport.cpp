#include "net/transport.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/frame.hpp"
#include "net/proc.hpp"
#include "net/shm.hpp"
#include "net/tcp.hpp"

namespace ph::net {

Transport::Transport(std::uint32_t n_pes, const FaultInjector* injector)
    : n_pes_(n_pes), injector_(injector) {
  rx_.reserve(n_pes_);
  bells_.reserve(n_pes_);
  for (std::uint32_t i = 0; i < n_pes_; ++i) {
    rx_.push_back(std::make_unique<RxState>());
    bells_.push_back(std::make_unique<Parker>());
  }
}

Transport::~Transport() = default;

void Transport::send(std::uint32_t dst, const DataMsg& m) {
  // In-flight is raised before the frame can possibly arrive: idle() must
  // never observe a sent-but-uncounted message.
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(kFrameHeaderBytes + kFrameBodyFixedBytes +
                                  m.packet.words.size() * 8,
                              std::memory_order_relaxed);
  send_raw(dst, m);
}

std::optional<DataMsg> Transport::poll(std::uint32_t pe) {
  RxState& rx = *rx_.at(pe);
  const auto now = std::chrono::steady_clock::now();
  // Release due delayed copies into the ready queue (consumer-local).
  for (std::size_t i = 0; i < rx.delayed.size();) {
    if (rx.delayed[i].release <= now) {
      rx.ready.push_back(std::move(rx.delayed[i].msg));
      rx.delayed.erase(rx.delayed.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (!rx.ready.empty()) {
    DataMsg m = std::move(rx.ready.front());
    rx.ready.pop_front();
    rx.pending.fetch_sub(1, std::memory_order_acq_rel);
    stats_.frames_delivered.fetch_add(1, std::memory_order_relaxed);
    return m;
  }
  while (true) {
    std::optional<DataMsg> m = poll_raw(pe);
    if (!m) return std::nullopt;
    // The supervision control plane (heartbeats, restart/shutdown ctrl) is
    // exempt from injection: crash detection must not be blinded by the
    // very chaos plan it is supervising.
    const bool control = m->kind >= MsgKind::Heartbeat;
    if (!control && injector_ != nullptr && injector_->plan().lossy()) {
      // The delivery-side lossy link: same counter-based draws, same
      // (channel, cseq, attempt) identity as the simulated middleware.
      const bool is_ack = m->kind == MsgKind::Ack;
      const bool drop = is_ack
                            ? injector_->drop_ack(m->channel, m->cseq, m->attempt)
                            : injector_->drop_message(m->channel, m->cseq, m->attempt);
      if (drop) {
        stats_.dropped.fetch_add(1, std::memory_order_relaxed);
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      if (!is_ack && injector_->delay_message(m->channel, m->cseq, m->attempt)) {
        stats_.delayed.fetch_add(1, std::memory_order_relaxed);
        rx.pending.fetch_add(1, std::memory_order_acq_rel);
        // 1 virtual cycle of extra latency = 1µs of wall clock (the same
        // mapping EdenThreadedDriver uses for retry timeouts).
        rx.delayed.push_back(
            {now + std::chrono::microseconds(injector_->plan().delay_extra),
             std::move(*m)});
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      if (!is_ack && injector_->duplicate_message(m->channel, m->cseq, m->attempt)) {
        stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
        rx.pending.fetch_add(1, std::memory_order_acq_rel);
        rx.ready.push_back(*m);
      }
    }
    stats_.frames_delivered.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return m;
  }
}

bool Transport::pending(std::uint32_t pe) {
  const RxState& rx = *rx_.at(pe);
  return !rx.ready.empty() || holdback_due_in_us(pe) == 0 || pending_raw(pe);
}

std::uint64_t Transport::holdback_due_in_us(std::uint32_t pe) const {
  const RxState& rx = *rx_.at(pe);
  if (rx.delayed.empty()) return UINT64_MAX;
  const auto now = std::chrono::steady_clock::now();
  auto first = rx.delayed.front().release;
  for (const TimedMsg& d : rx.delayed) first = std::min(first, d.release);
  if (first <= now) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(first - now).count()) + 1;
}

bool Transport::idle() const {
  // Order matters: a message moving from the wire into a hold-back buffer
  // raises `pending` before lowering `in_flight`, so reading in-flight
  // first can only err towards "busy".
  if (in_flight_.load(std::memory_order_acquire) != 0) return false;
  return holdback_empty();
}

std::unique_ptr<Transport> make_transport(EdenTransportKind kind, std::uint32_t n_pes,
                                          const FaultInjector* injector) {
  switch (kind) {
    case EdenTransportKind::Shm:
      return std::make_unique<ShmTransport>(n_pes, injector);
    case EdenTransportKind::Tcp:
      return std::make_unique<TcpTransport>(n_pes, injector);
    case EdenTransportKind::Proc:
      return std::make_unique<ProcTransport>(n_pes, injector);
    case EdenTransportKind::Sim:
      break;
  }
  throw std::invalid_argument("no Transport object backs the sim middleware");
}

}  // namespace ph::net
