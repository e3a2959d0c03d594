// TcpTransport: the PVM/MPI-class middleware over real sockets. Every PE
// owns an endpoint (one localhost listen socket during setup, then a full
// mesh of connected stream sockets) and one poller thread that multiplexes
// its peers with poll(2): nonblocking reads feed a FrameReader per peer,
// complete CRC-validated frames land in the endpoint's inbound queue;
// nonblocking writes drain bounded per-peer out-buffers, whose high-water
// mark back-pressures senders. A self-pipe wakes the poller when a sender
// queues bytes. Frames from a PE to itself skip the socket but still
// round-trip through the codec, so every message pays the serialisation
// it would pay on a wire.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "net/frame.hpp"
#include "net/transport.hpp"

namespace ph::net {

class TcpTransport : public Transport {
 public:
  explicit TcpTransport(std::uint32_t n_pes, const FaultInjector* injector = nullptr,
                        std::size_t out_buf_limit = 4u << 20);
  ~TcpTransport() override;

  const char* name() const override { return "tcp"; }
  /// Binds, wires the full mesh and launches the poller threads. Must be
  /// called (once) before any send/poll.
  void start() override;
  void stop() override;

 protected:
  void send_raw(std::uint32_t dst, const DataMsg& m) override;
  std::optional<DataMsg> poll_raw(std::uint32_t pe) override;
  bool pending_raw(std::uint32_t pe) override;

 private:
  /// One connected peer of one endpoint: the socket, its outbound byte
  /// buffer (bounded; the backpressure point) and the inbound reassembler.
  struct Peer {
    int fd = -1;
    std::mutex out_mutex;
    std::condition_variable out_cv;
    std::vector<std::uint8_t> out_buf;
    std::size_t out_pos = 0;  // consumed prefix of out_buf
    FrameReader reader;       // poller-thread only
  };

  struct Endpoint {
    int listen_fd = -1;
    std::uint16_t port = 0;
    int wake_r = -1, wake_w = -1;  // self-pipe
    std::vector<std::unique_ptr<Peer>> peers;  // by PE id; [self] is null
    std::mutex in_mutex;
    std::deque<DataMsg> inbox;
    std::thread poller;
  };

  void poller_loop(std::uint32_t pe);
  void wake(Endpoint& ep);
  void deliver_bytes(std::uint32_t pe, Peer& peer, const std::uint8_t* data,
                     std::size_t n);

  std::size_t out_buf_limit_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  bool started_ = false;
};

}  // namespace ph::net
