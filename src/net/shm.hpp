// ShmTransport: the multicore shared-memory middleware. One bounded
// lock-free mailbox per PE (a Vyukov MPMC ring used MPSC: any PE thread
// enqueues, only the owner dequeues); a full mailbox back-pressures the
// sender, which parks until the consumer's next pop rings the mailbox's
// space doorbell — the bounded buffering of a PVM-on-shared-memory link
// without its copies. Per-producer FIFO holds because each producer's enqueue
// tickets are claimed in program order and the single consumer pops in
// ticket order.
#pragma once

#include <atomic>
#include <memory>

#include "net/transport.hpp"

namespace ph::net {

/// Bounded MPMC ring after Dmitry Vyukov's classic design: each cell
/// carries a sequence number that tells both sides whose turn it is, so
/// producers and the consumer only contend on their own tickets.
class MailboxRing {
 public:
  explicit MailboxRing(std::size_t capacity_pow2);

  /// False when the ring is full (caller decides how to back-pressure).
  bool try_push(DataMsg&& m);
  /// False when the ring is empty. Single consumer.
  bool try_pop(DataMsg& out);
  /// The consumer's next try_pop would succeed. Single consumer.
  bool readable() const;
  /// A try_push would find a free cell (backpressure re-check).
  bool writable() const;

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    DataMsg msg;
  };
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producers' ticket counter
  alignas(64) std::atomic<std::size_t> tail_{0};  // consumer's ticket counter
};

class ShmTransport : public Transport {
 public:
  /// `capacity` is per-PE mailbox depth (rounded up to a power of two).
  explicit ShmTransport(std::uint32_t n_pes, const FaultInjector* injector = nullptr,
                        std::size_t capacity = 1024);

  const char* name() const override { return "shm"; }
  void stop() override;

 protected:
  void send_raw(std::uint32_t dst, const DataMsg& m) override;
  std::optional<DataMsg> poll_raw(std::uint32_t pe) override;
  bool pending_raw(std::uint32_t pe) override;

 private:
  std::vector<std::unique_ptr<MailboxRing>> mailboxes_;
  /// Per mailbox: backpressured senders park here; each pop rings it.
  std::vector<std::unique_ptr<Parker>> space_;
};

}  // namespace ph::net
