// ServeDaemon — the phserved front-end.
//
// A single-threaded event loop over one nonblocking localhost listening
// socket plus the worker fleet's control plane. Clients speak the CRC-
// framed serve wire (serve/wire.hpp); the daemon owns the robustness
// policies end to end:
//
//   admission    bounded queue; past capacity a submit is answered with
//                Overloaded{queue_depth, retry_after_us} (shed, never
//                queued unboundedly);
//   deadlines    every request gets an absolute deadline at admission
//                (client-supplied or the daemon default); queued requests
//                past deadline are failed without dispatch, running ones
//                are killed inside Machine::step via the cancel hook;
//   idempotency  request ids pass a dedup window — a retry of an
//                in-flight id attaches to the running execution, a retry
//                of a completed id replays the cached reply, an id below
//                the window horizon is rejected Stale (never re-run);
//   chaos        a worker death (kill -9, -Fc, inject_kill) transparently
//                requeues its in-flight request at the head of the queue
//                — the client's reply just arrives late, value unchanged;
//   breaker      restart-budget exhaustion quarantines the PE (fleet
//                breaker) and placement shrinks; the daemon never throws;
//   drain        request_drain() (SIGTERM) stops admission (new submits
//                answered Draining), lets queued + in-flight work finish
//                or deadline out, drains the fleet (no zombies, no shm),
//                flushes stats and returns from run().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/admission.hpp"
#include "serve/dedup.hpp"
#include "serve/fleet.hpp"
#include "serve/histogram.hpp"

namespace ph::serve {

struct ServeConfig {
  std::uint16_t port = 0;  // 0 = ephemeral (port() reports the choice)
  std::size_t queue_capacity = 64;
  std::size_t dedup_capacity = 4096;
  std::uint64_t dedup_age_us = 60'000'000;
  std::uint64_t default_deadline_us = 5'000'000;
  std::uint64_t drain_grace_us = 5'000'000;
  FleetConfig fleet;
};

struct ServeDaemonStats {
  std::uint64_t submits = 0;           // submit frames seen
  std::uint64_t accepted = 0;          // admitted into the queue
  std::uint64_t completed = 0;         // Result replies sent
  std::uint64_t failed = 0;            // Error replies sent (any code)
  std::uint64_t shed = 0;              // Overloaded rejections
  std::uint64_t deadline_exceeded = 0; // queued + running deadline kills
  std::uint64_t cancelled = 0;
  std::uint64_t dedup_hits = 0;        // cached replies replayed
  std::uint64_t attached_retries = 0;  // retries joined to in-flight work
  std::uint64_t stale_rejected = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t requeued_lost = 0;     // in-flight requeued after PE death
  std::uint64_t drain_rejects = 0;
  LatencyHistogram latency;            // admission → reply, µs
};

class ServeDaemon {
 public:
  ServeDaemon(const Program& prog, ServeConfig cfg);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Binds, listens and starts the fleet. Call before run().
  void start();
  std::uint16_t port() const { return port_; }

  /// The event loop; returns after a drain completes. Safe to run on a
  /// background thread (tests do) — request_drain() is the only cross-
  /// thread entry point.
  void run();

  /// SIGTERM path: an atomic store and a ring of the fleet's doorbell, so
  /// the event loop wakes at once; safe from a signal handler.
  void request_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServeFleet& fleet() { return *fleet_; }
  const ServeDaemonStats& stats() const { return stats_; }
  std::string stats_json() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t gen = 0;
    net::FrameReader reader;
    std::vector<std::uint8_t> out;
  };
  struct Waiter {
    std::size_t conn;
    std::uint64_t gen;
  };
  struct PendingReq {
    ServeRequest req;
    std::uint64_t abs_deadline_us = 0;
    std::uint64_t admitted_us = 0;
    std::vector<Waiter> waiters;
  };
  struct InFlight {
    ServeRequest req;
    std::uint32_t pe = 0;
    std::uint64_t abs_deadline_us = 0;
    std::uint64_t admitted_us = 0;
    std::uint64_t last_cancel_nudge_us = 0;
    std::vector<Waiter> waiters;
  };

  void accept_new();
  void read_conn(std::size_t ci);
  void close_conn(std::size_t ci);
  void send_to(const Waiter& w, const ServeReply& r);
  void send_to_all(const std::vector<Waiter>& ws, const ServeReply& r);
  void flush_conn(std::size_t ci);
  void handle_submit(std::size_t ci, const net::DataMsg& m);
  void handle_cancel(std::size_t ci, const net::DataMsg& m);
  void finish(std::uint64_t id, const ServeReply& r,
              const std::vector<Waiter>& waiters, std::uint64_t admitted_us);
  void dispatch();
  void sweep_deadlines();
  void absorb_fleet_events();
  ServeReply make_error(std::uint64_t id, ServeError e, const std::string& t);
  /// How long the event loop may sleep: until the earliest queued deadline,
  /// in-flight cancel nudge, or fleet tick with work.
  std::uint64_t park_us() const;

  const Program& prog_;
  ServeConfig cfg_;
  std::unique_ptr<ServeFleet> fleet_;
  AdmissionController admission_;
  DedupWindow dedup_;
  ServeDaemonStats stats_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
  std::uint64_t next_gen_ = 1;
  std::deque<PendingReq> queue_;
  std::map<std::uint64_t, InFlight> inflight_;
  std::atomic<bool> draining_{false};
  std::atomic<Parker*> bell_{nullptr};  // the fleet's doorbell, once started
  bool activity_ = false;  // set by handlers; the loop sleeps only when clear
};

}  // namespace ph::serve
