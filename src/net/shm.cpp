#include "net/shm.hpp"

namespace ph::net {

namespace {
std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// A backpressured sender's park timeout: a safety net only, since every
/// pop rings the space doorbell.
constexpr std::chrono::milliseconds kBackpressurePark{1};
}  // namespace

MailboxRing::MailboxRing(std::size_t capacity_pow2) {
  const std::size_t cap = round_pow2(capacity_pow2 < 2 ? 2 : capacity_pow2);
  mask_ = cap - 1;
  cells_ = std::make_unique<Cell[]>(cap);
  for (std::size_t i = 0; i < cap; ++i)
    cells_[i].seq.store(i, std::memory_order_relaxed);
}

bool MailboxRing::try_push(DataMsg&& m) {
  std::size_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                              static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      // Our turn if we can claim the ticket.
      if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed))
        break;
      // CAS failure reloaded `pos`; retry with the new ticket.
    } else if (dif < 0) {
      return false;  // cell still holds an unconsumed message: ring full
    } else {
      pos = head_.load(std::memory_order_relaxed);  // someone overtook us
    }
  }
  Cell& cell = cells_[pos & mask_];
  cell.msg = std::move(m);
  cell.seq.store(pos + 1, std::memory_order_release);  // publish
  return true;
}

bool MailboxRing::try_pop(DataMsg& out) {
  const std::size_t pos = tail_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & mask_];
  const std::size_t seq = cell.seq.load(std::memory_order_acquire);
  if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) < 0)
    return false;  // not yet published
  out = std::move(cell.msg);
  cell.msg = DataMsg{};  // release the payload's storage promptly
  cell.seq.store(pos + mask_ + 1, std::memory_order_release);  // hand back
  tail_.store(pos + 1, std::memory_order_relaxed);
  return true;
}

bool MailboxRing::readable() const {
  const std::size_t pos = tail_.load(std::memory_order_relaxed);
  const std::size_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
  return static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1) >= 0;
}

bool MailboxRing::writable() const {
  const std::size_t pos = head_.load(std::memory_order_relaxed);
  const std::size_t seq = cells_[pos & mask_].seq.load(std::memory_order_acquire);
  return static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos) >= 0;
}

ShmTransport::ShmTransport(std::uint32_t n_pes, const FaultInjector* injector,
                           std::size_t capacity)
    : Transport(n_pes, injector) {
  mailboxes_.reserve(n_pes);
  space_.reserve(n_pes);
  for (std::uint32_t i = 0; i < n_pes; ++i) {
    mailboxes_.push_back(std::make_unique<MailboxRing>(capacity));
    space_.push_back(std::make_unique<Parker>());
  }
}

void ShmTransport::stop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& s : space_) s->ring();
  ring_all();
}

void ShmTransport::send_raw(std::uint32_t dst, const DataMsg& m) {
  MailboxRing& box = *mailboxes_.at(dst);
  DataMsg copy = m;
  while (!box.try_push(std::move(copy))) {
    // Backpressure: the mailbox is full, park until the consumer pops. A
    // stopped transport drops the message instead of waiting forever (the
    // run is over; nobody will drain the ring again).
    if (stopping_.load(std::memory_order_acquire)) {
      note_lost();
      return;
    }
    space_[dst]->park(
        [&] { return box.writable() || stopping_.load(std::memory_order_acquire); },
        kBackpressurePark);
  }
  doorbell(dst).ring();
}

std::optional<DataMsg> ShmTransport::poll_raw(std::uint32_t pe) {
  DataMsg m;
  if (!mailboxes_.at(pe)->try_pop(m)) return std::nullopt;
  space_[pe]->ring();
  return m;
}

bool ShmTransport::pending_raw(std::uint32_t pe) { return mailboxes_.at(pe)->readable(); }

}  // namespace ph::net
