// ServeClient — the phserved wire, client side.
//
// A thin blocking-ish helper for loadgen and the tests: connect to a
// localhost port, submit catalog requests, pump replies. Request ids are
// supplied by the caller and must be monotonically increasing — retries
// reuse the *same* id (that is the idempotency contract; the daemon's
// dedup window tells a retry from a fresh request by the id alone).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "serve/wire.hpp"

namespace ph::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { close(); }
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient(ServeClient&& o) noexcept;
  ServeClient& operator=(ServeClient&& o) noexcept;

  /// Connects to 127.0.0.1:port. Throws on failure.
  void connect(std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Queues a submit/cancel on the socket (nonblocking write, buffered).
  void submit(const ServeRequest& req);
  void cancel(std::uint64_t id);

  /// Nonblocking: drains the socket, returns the next decoded reply.
  std::optional<ServeReply> poll();
  /// Pumps until a reply for `id` arrives or timeout. Replies for other
  /// ids are buffered and surface on later poll()/wait() calls.
  std::optional<ServeReply> wait(std::uint64_t id, std::uint64_t timeout_us);
  /// Pumps until any reply arrives or timeout.
  std::optional<ServeReply> wait_any(std::uint64_t timeout_us);

 private:
  void send_msg(const net::DataMsg& m);
  void flush();
  bool pump();  // one nonblocking read; false when the conn died
  /// Sleeps in poll() until the socket is readable (or, with output
  /// buffered, writable), or `timeout_us` passes.
  void await(std::uint64_t timeout_us);
  std::optional<ServeReply> next_read();  // next reply already read off the socket

  int fd_ = -1;
  net::FrameReader reader_;
  std::vector<std::uint8_t> out_;
  std::vector<ServeReply> stash_;  // replies read while waiting for another id
};

}  // namespace ph::serve
