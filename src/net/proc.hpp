// ProcTransport: the process-capable middleware for the fork-per-PE
// drivers (net::Supervisor's wire). Every wire resource is created *before*
// fork(), in the parent, so worker processes inherit working links and a
// re-forked replacement for a SIGKILLed PE finds the same links intact.
//
// Two wires carry the CRC-framed byte stream (net/frame):
//
//   Shm — one named POSIX shared-memory segment (shm_open, unlinked
//         immediately so it cannot leak) holding an (n+1)×(n+1) matrix of
//         SPSC byte rings with their head/tail cursors *in* the segment.
//         A producer publishes a whole frame with one release store of
//         the head cursor, so a writer killed mid-send never exposes a
//         torn frame and a restarted consumer always resumes on a frame
//         boundary. Cursors surviving the crash of either side is what
//         makes the ring restart-safe where the in-process Vyukov
//         mailboxes (net/shm) are not: their CAS ticket protocol wedges
//         if a producer dies between claiming a slot and publishing it.
//
//   Tcp — a full mesh of already-connected localhost TCP sockets
//         (listen/connect/accept per pair, TCP_NODELAY, nonblocking).
//         Because the parent and every sibling keep the fd endpoints
//         open, a dead PE's connections survive it and its replacement
//         inherits them, kernel-buffered bytes included. Sends append to
//         an unbounded userspace buffer with opportunistic nonblocking
//         flushes — no poller threads (threads do not survive fork), and
//         no kernel-buffer deadlock under bidirectional bulk traffic. A
//         writer killed between write()s leaves a torn frame tail; the
//         FrameReader resynchronisation scan recovers the stream.
//
// Endpoint n_pes is the supervisor's: heartbeats and control frames run
// over the same wire as data, so "the transport still works" is exactly
// what liveness reporting certifies.
//
// Doorbells (DESIGN.md §18): on both wires a shared segment also holds two
// doorbells per endpoint, one rung by every frame sent to it (heartbeats
// excepted: the supervisor's timed park covers them) and one rung when its
// consumer frees space in a ring the endpoint produces into. Each has one
// consumer, the endpoint's process, which resets both when it starts, so
// a predecessor killed while parked leaves no stale mark. The supervisor
// endpoint's arrival doorbell is pollable: the daemon adds its eventfd to
// its poll() set.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/frame.hpp"
#include "net/transport.hpp"

namespace ph::net {

/// Which wire carries the frames between the PE processes.
enum class ProcWire : std::uint8_t { Shm, Tcp };

class ProcTransport : public Transport {
 public:
  /// `n_pes` worker endpoints plus the supervisor endpoint (index n_pes;
  /// the base class therefore reports n_pes()+1 endpoints). All wire
  /// resources are created here so fork()ed children inherit them.
  /// `ring_bytes` is the per-directed-pair ring capacity (Shm wire),
  /// rounded up to a power of two.
  explicit ProcTransport(std::uint32_t n_pes, const FaultInjector* injector = nullptr,
                         ProcWire wire = ProcWire::Shm,
                         std::size_t ring_bytes = std::size_t{1} << 22);
  ~ProcTransport() override;

  const char* name() const override { return wire_ == ProcWire::Shm ? "proc" : "proc-tcp"; }
  ProcWire wire() const { return wire_; }
  void stop() override;
  bool idle() const override;

  std::uint32_t supervisor_endpoint() const { return worker_pes_; }

  /// A fresh consumer of endpoint `pe` (a forked or respawned worker)
  /// clears the parked marks its predecessor may have left.
  void reset_doorbells(std::uint32_t pe);

  /// Marks the transport as spanning processes: per-process in-flight
  /// accounting is abandoned (idle() falls back to ring/inbox emptiness)
  /// and frames lost at teardown stop adjusting the counter.
  void set_cross_process(bool on) { cross_process_ = on; }

  /// Installed by a worker process so it keeps heartbeating while a full
  /// ring backpressures a send — the consumer may be dead and awaiting
  /// respawn, and the supervisor must not mistake the blocked producer
  /// for a second casualty.
  void set_backpressure_hook(std::function<void()> hook) {
    on_backpressure_ = std::move(hook);
  }

  /// Bytes this process's readers skipped while resynchronising past
  /// corrupt regions (torn frame tails left by killed writers).
  std::uint64_t resynced_bytes() const;

 protected:
  void send_raw(std::uint32_t dst, const DataMsg& m) override;
  std::optional<DataMsg> poll_raw(std::uint32_t pe) override;
  bool pending_raw(std::uint32_t pe) override;

 private:
  /// Per-endpoint, process-local reassembly state (each process only ever
  /// touches the state of endpoints it polls).
  struct EndpointRx {
    std::vector<FrameReader> readers;  // one per source endpoint
    std::deque<DataMsg> inbox;
    std::atomic<std::size_t> inbox_pending{0};
    std::vector<std::uint8_t> scratch;
  };
  /// Tcp wire: endpoint `i`'s socket to peer `j` plus its unflushed tail.
  struct TcpPeer {
    int fd = -1;
    std::vector<std::uint8_t> out_buf;
    std::size_t out_pos = 0;
  };

  std::uint8_t* ring_base(std::uint32_t src, std::uint32_t dst) const;
  std::atomic<std::uint64_t>* ring_head(std::uint32_t src, std::uint32_t dst) const;
  std::atomic<std::uint64_t>* ring_tail(std::uint32_t src, std::uint32_t dst) const;
  std::uint8_t* ring_data(std::uint32_t src, std::uint32_t dst) const;
  std::atomic<std::uint32_t>* shm_shutdown() const;
  bool push_ring(std::uint32_t src, std::uint32_t dst, const std::uint8_t* data,
                 std::size_t n);
  void drain_rings(std::uint32_t pe, EndpointRx& rx);
  void tcp_flush(TcpPeer& peer);
  void drain_tcp(std::uint32_t pe, EndpointRx& rx);
  void extract_frames(EndpointRx& rx, std::uint32_t src);
  void account_lost();

  std::uint32_t worker_pes_;
  std::uint32_t n_endpoints_;
  ProcWire wire_;
  std::size_t ring_bytes_ = 0;   // power of two (Shm wire)
  std::uint8_t* shm_ = nullptr;  // MAP_SHARED segment; survives fork
  std::size_t shm_size_ = 0;
  std::vector<std::unique_ptr<Parker>> space_;  // [endpoint]: ring space freed
  std::vector<std::unique_ptr<EndpointRx>> erx_;
  std::vector<std::vector<TcpPeer>> tcp_;  // [endpoint][peer]
  bool cross_process_ = false;
  std::function<void()> on_backpressure_;
};

}  // namespace ph::net
