// Transport: the real message-passing layer under the Eden middleware.
//
// A Transport moves DataMsgs between PEs with per-channel FIFO order (per
// sender) and no reliability guarantees beyond what the configured
// FaultInjector leaves intact — the reliable-channel protocol
// (net::ChannelEndpoint) sits above and recovers from whatever the wire
// (or the injector) does. Two production implementations exist:
//
//   ShmTransport — per-PE lock-free MPSC mailboxes (bounded Vyukov rings)
//                  for PEs that are threads of one process;
//   TcpTransport — length-prefixed CRC-framed messages over localhost
//                  sockets, nonblocking I/O, one poller thread per
//                  endpoint: the PVM/MPI-class middleware of §III.B.
//
// Fault injection hooks in at the delivery boundary: poll() runs every
// arriving message through the (const, counter-based) injector draws
// keyed on the frame's own (channel, cseq, attempt) identity — the same
// keys the simulator uses, so a fault schedule is one description of
// misbehaviour with two interpreters. Dropped and duplicated and delayed
// messages are therefore injected on real wires without perturbing the
// transport implementations themselves.
//
// Every endpoint has a doorbell (rts/parker.hpp): its consumer parks
// there while idle, and each implementation rings it at the point where a
// sent frame becomes pollable at that endpoint. stop() rings them all.
//
// Threading contract: send(dst, m) may be called from any PE thread;
// poll(pe) and pending(pe) only from PE `pe`'s thread; start()/stop()
// from the driver thread with the PE threads quiescent. idle() may be
// read from a supervisor thread at any time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "net/channel.hpp"
#include "rts/config.hpp"
#include "rts/parker.hpp"

namespace ph::net {

/// What the transport did, readable while the system runs (all atomic).
/// `crc_errors` counts frames rejected by the framing codec; they are
/// dropped like lossy-link casualties and recovered by retransmission.
struct TransportStats {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> frames_delivered{0};
  std::atomic<std::uint64_t> crc_errors{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> delayed{0};
};

class Transport {
 public:
  explicit Transport(std::uint32_t n_pes, const FaultInjector* injector = nullptr);
  virtual ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual const char* name() const = 0;
  virtual void start() {}
  virtual void stop() {}

  std::uint32_t n_pes() const { return n_pes_; }

  /// Ships one message to PE `dst`. Blocks (backpressure) when the
  /// destination's mailbox / socket buffer is full. Thread-safe.
  void send(std::uint32_t dst, const DataMsg& m);

  /// Next deliverable message for PE `pe`, if any (nonblocking). Only PE
  /// `pe`'s thread may call this; arriving messages pass through the
  /// fault filter here.
  std::optional<DataMsg> poll(std::uint32_t pe);

  /// True when poll(pe) has something to return (a frame on the wire, a
  /// held-back copy that is due): the readiness check of a park on
  /// doorbell(pe). Only PE `pe`'s thread may call this.
  bool pending(std::uint32_t pe);
  /// µs until the earliest held-back (delayed) copy for `pe` is due;
  /// UINT64_MAX when none is held. Only PE `pe`'s thread may call this.
  std::uint64_t holdback_due_in_us(std::uint32_t pe) const;

  /// Endpoint `pe`'s doorbell: rung whenever a frame becomes pollable
  /// there, and by stop().
  Parker& doorbell(std::uint32_t pe) { return *bells_.at(pe); }

  /// True when nothing is in flight anywhere: every sent frame has been
  /// delivered, dropped or failed its CRC, and no delayed/duplicated
  /// copy is still waiting in a hold-back buffer. Safe from any thread;
  /// the quiescence detector requires it before declaring deadlock.
  /// Virtual because the per-process in-flight counter is meaningless for
  /// a transport whose endpoints live in different address spaces —
  /// ProcTransport substitutes ring/inbox emptiness.
  virtual bool idle() const;

  TransportStats& stats() { return stats_; }
  const TransportStats& stats() const { return stats_; }

 protected:
  /// The wire itself: enqueue for `dst` (blocking on backpressure).
  virtual void send_raw(std::uint32_t dst, const DataMsg& m) = 0;
  /// Next raw arrival for `pe`, if any (nonblocking, consumer thread).
  virtual std::optional<DataMsg> poll_raw(std::uint32_t pe) = 0;
  /// True when poll_raw(pe) would return a frame (consumer thread).
  virtual bool pending_raw(std::uint32_t pe) = 0;

  /// Rings every doorbell (stop(): parked consumers see the run end).
  void ring_all() {
    for (auto& b : bells_) b->ring();
  }

  /// For implementations that lose a frame below the filter (CRC reject):
  /// keeps the in-flight accounting exact so idle() still converges.
  void note_lost() { in_flight_.fetch_sub(1, std::memory_order_acq_rel); }

  /// True when no delayed/duplicated hold-back copy is pending on any
  /// endpoint (for idle() overrides that replace the in-flight check).
  bool holdback_empty() const {
    for (const auto& rx : rx_)
      if (rx->pending.load(std::memory_order_acquire) != 0) return false;
    return true;
  }

  std::atomic<bool> stopping_{false};
  /// One doorbell per endpoint, in process memory unless a subclass
  /// replaces them (ProcTransport keeps its doorbells in shared memory).
  std::vector<std::unique_ptr<Parker>> bells_;

 private:
  struct TimedMsg {
    std::chrono::steady_clock::time_point release;
    DataMsg msg;
  };
  /// Consumer-local hold-back state (duplicates and delayed copies).
  /// Queues are only touched by the owning PE's thread; `pending` mirrors
  /// their total size for the supervisor's idle() reads.
  struct RxState {
    std::deque<DataMsg> ready;
    std::vector<TimedMsg> delayed;
    std::atomic<std::size_t> pending{0};
  };

  std::uint32_t n_pes_;
  const FaultInjector* injector_;
  TransportStats stats_;
  std::atomic<std::uint64_t> in_flight_{0};
  std::vector<std::unique_ptr<RxState>> rx_;
};

/// Builds the transport selected by `--eden-transport` (Sim is the
/// virtual-time middleware inside EdenSystem and has no Transport object;
/// asking for it here is an error).
std::unique_ptr<Transport> make_transport(EdenTransportKind kind, std::uint32_t n_pes,
                                          const FaultInjector* injector = nullptr);

}  // namespace ph::net
