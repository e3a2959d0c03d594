#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace ph::net {
namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("TcpTransport: " + what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) die("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void write_all(int fd, const void* buf, std::size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      die("write");
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

void read_all(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t k = ::read(fd, p, n);
    if (k == 0) throw std::runtime_error("TcpTransport: peer closed during handshake");
    if (k < 0) {
      if (errno == EINTR) continue;
      die("read");
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

}  // namespace

TcpTransport::TcpTransport(std::uint32_t n_pes, const FaultInjector* injector,
                           std::size_t out_buf_limit)
    : Transport(n_pes, injector), out_buf_limit_(out_buf_limit) {
  endpoints_.reserve(n_pes);
  for (std::uint32_t i = 0; i < n_pes; ++i) {
    auto ep = std::make_unique<Endpoint>();
    ep->peers.resize(n_pes);
    endpoints_.push_back(std::move(ep));
  }
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start() {
  if (started_) return;
  started_ = true;
  // 1. Every endpoint binds a localhost listen socket on an OS-chosen port
  //    (the "PVM daemon registry" of this single-process deployment).
  for (auto& ep : endpoints_) {
    ep->listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (ep->listen_fd < 0) die("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    if (bind(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
      die("bind");
    socklen_t len = sizeof(addr);
    if (getsockname(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
      die("getsockname");
    ep->port = ntohs(addr.sin_port);
    if (listen(ep->listen_fd, static_cast<int>(n_pes())) < 0) die("listen");
    int pipefd[2];
    if (pipe(pipefd) < 0) die("pipe");
    ep->wake_r = pipefd[0];
    ep->wake_w = pipefd[1];
    set_nonblocking(ep->wake_r);
  }
  // 2. Full mesh: endpoint i dials every j > i and introduces itself with
  //    a 4-byte hello; j accepts and files the socket under i.
  for (std::uint32_t i = 0; i < n_pes(); ++i) {
    for (std::uint32_t j = i + 1; j < n_pes(); ++j) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) die("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(endpoints_[j]->port);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
        die("connect");
      const std::uint32_t hello = i;
      write_all(fd, &hello, sizeof(hello));
      auto peer = std::make_unique<Peer>();
      peer->fd = fd;
      endpoints_[i]->peers[j] = std::move(peer);
    }
    // Accept the i dials from lower-numbered endpoints.
    for (std::uint32_t k = 0; k < i; ++k) {
      const int fd = accept(endpoints_[i]->listen_fd, nullptr, nullptr);
      if (fd < 0) die("accept");
      std::uint32_t hello = 0;
      read_all(fd, &hello, sizeof(hello));
      if (hello >= n_pes() || endpoints_[i]->peers[hello] != nullptr)
        throw std::runtime_error("TcpTransport: bad hello id in mesh handshake");
      auto peer = std::make_unique<Peer>();
      peer->fd = fd;
      endpoints_[i]->peers[hello] = std::move(peer);
    }
    close(endpoints_[i]->listen_fd);
    endpoints_[i]->listen_fd = -1;
  }
  // 3. Sockets go nonblocking (the pollers own them from here) and the
  //    pollers launch.
  for (auto& ep : endpoints_)
    for (auto& peer : ep->peers)
      if (peer != nullptr) {
        set_nonblocking(peer->fd);
        set_nodelay(peer->fd);
      }
  for (std::uint32_t i = 0; i < n_pes(); ++i)
    endpoints_[i]->poller = std::thread([this, i] { poller_loop(i); });
}

void TcpTransport::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  ring_all();
  for (auto& ep : endpoints_) {
    if (ep->poller.joinable()) wake(*ep);
    for (auto& peer : ep->peers)
      if (peer != nullptr) peer->out_cv.notify_all();
  }
  for (auto& ep : endpoints_)
    if (ep->poller.joinable()) ep->poller.join();
  for (auto& ep : endpoints_) {
    for (auto& peer : ep->peers)
      if (peer != nullptr && peer->fd >= 0) {
        close(peer->fd);
        peer->fd = -1;
      }
    if (ep->wake_r >= 0) close(ep->wake_r);
    if (ep->wake_w >= 0) close(ep->wake_w);
    ep->wake_r = ep->wake_w = -1;
  }
}

void TcpTransport::wake(Endpoint& ep) {
  const char b = 1;
  [[maybe_unused]] ssize_t r = ::write(ep.wake_w, &b, 1);  // full pipe = already awake
}

void TcpTransport::send_raw(std::uint32_t dst, const DataMsg& m) {
  Endpoint& src = *endpoints_.at(m.src_pe);
  const std::vector<std::uint8_t> frame = encode_frame(m);
  if (dst == m.src_pe) {
    // Self-send: no socket in the mesh, but the frame still round-trips
    // through the codec so the payload pays its serialisation.
    try {
      DataMsg back = decode_frame(frame);
      std::lock_guard<std::mutex> lk(src.in_mutex);
      src.inbox.push_back(std::move(back));
      // No ring: the sender is the consumer, and it is not parked.
    } catch (const FrameError&) {
      stats().crc_errors.fetch_add(1, std::memory_order_relaxed);
      note_lost();
    }
    return;
  }
  Peer& peer = *src.peers.at(dst);
  {
    std::unique_lock<std::mutex> lk(peer.out_mutex);
    // Backpressure: wait until the poller drains below the high-water
    // mark. A stopped transport drops instead (nobody will drain again).
    peer.out_cv.wait(lk, [&] {
      return peer.out_buf.size() - peer.out_pos < out_buf_limit_ ||
             stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) {
      note_lost();
      return;
    }
    peer.out_buf.insert(peer.out_buf.end(), frame.begin(), frame.end());
  }
  wake(src);
}

bool TcpTransport::pending_raw(std::uint32_t pe) {
  Endpoint& ep = *endpoints_.at(pe);
  std::lock_guard<std::mutex> lk(ep.in_mutex);
  return !ep.inbox.empty();
}

std::optional<DataMsg> TcpTransport::poll_raw(std::uint32_t pe) {
  Endpoint& ep = *endpoints_.at(pe);
  std::lock_guard<std::mutex> lk(ep.in_mutex);
  if (ep.inbox.empty()) return std::nullopt;
  DataMsg m = std::move(ep.inbox.front());
  ep.inbox.pop_front();
  return m;
}

void TcpTransport::deliver_bytes(std::uint32_t pe, Peer& peer,
                                 const std::uint8_t* data, std::size_t n) {
  Endpoint& ep = *endpoints_.at(pe);
  peer.reader.feed(data, n);
  for (;;) {
    DataMsg m;
    try {
      if (!peer.reader.next(m)) break;
    } catch (const FrameError&) {
      // A corrupt frame is a lossy-link casualty: count it, drop it, let
      // the reliable-channel retransmission recover.
      stats().crc_errors.fetch_add(1, std::memory_order_relaxed);
      note_lost();
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(ep.in_mutex);
      ep.inbox.push_back(std::move(m));
    }
    doorbell(pe).ring();
  }
}

void TcpTransport::poller_loop(std::uint32_t pe) {
  Endpoint& ep = *endpoints_.at(pe);
  std::vector<pollfd> pfds;
  std::vector<std::uint32_t> owner;  // peer PE per pollfd (self-pipe = ~0u)
  std::uint8_t buf[65536];
  while (!stopping_.load(std::memory_order_acquire)) {
    pfds.clear();
    owner.clear();
    pfds.push_back({ep.wake_r, POLLIN, 0});
    owner.push_back(~0u);
    for (std::uint32_t j = 0; j < n_pes(); ++j) {
      Peer* peer = ep.peers[j].get();
      if (peer == nullptr || peer->fd < 0) continue;
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lk(peer->out_mutex);
        if (peer->out_pos < peer->out_buf.size()) events |= POLLOUT;
      }
      pfds.push_back({peer->fd, events, 0});
      owner.push_back(j);
    }
    // Bounded wait: sends wake us through the pipe, the timeout only
    // bounds shutdown latency if a wakeup is ever missed.
    const int rc = ::poll(pfds.data(), pfds.size(), 50);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;  // polling is unrecoverable; the run will notice via idle()
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (pfds[k].revents == 0) continue;
      if (owner[k] == ~0u) {
        char drain[256];
        while (::read(ep.wake_r, drain, sizeof(drain)) > 0) {}
        continue;
      }
      Peer& peer = *ep.peers[owner[k]];
      if (pfds[k].revents & (POLLIN | POLLERR | POLLHUP)) {
        for (;;) {
          const ssize_t n = ::read(peer.fd, buf, sizeof(buf));
          if (n > 0) {
            deliver_bytes(pe, peer, buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          // 0 = orderly shutdown; <0 = hard error. Either way the peer is
          // gone for this run.
          close(peer.fd);
          peer.fd = -1;
          break;
        }
      }
      if (peer.fd >= 0 && (pfds[k].revents & POLLOUT)) {
        std::unique_lock<std::mutex> lk(peer.out_mutex);
        while (peer.out_pos < peer.out_buf.size()) {
          const ssize_t n = ::write(peer.fd, peer.out_buf.data() + peer.out_pos,
                                    peer.out_buf.size() - peer.out_pos);
          if (n > 0) {
            peer.out_pos += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n < 0 && errno == EINTR) continue;
          close(peer.fd);
          peer.fd = -1;
          break;
        }
        if (peer.out_pos == peer.out_buf.size()) {
          peer.out_buf.clear();
          peer.out_pos = 0;
        } else if (peer.out_pos > (1u << 16) && peer.out_pos * 2 > peer.out_buf.size()) {
          peer.out_buf.erase(peer.out_buf.begin(),
                             peer.out_buf.begin() + static_cast<std::ptrdiff_t>(peer.out_pos));
          peer.out_pos = 0;
        }
        lk.unlock();
        peer.out_cv.notify_all();
      }
    }
  }
}

}  // namespace ph::net
