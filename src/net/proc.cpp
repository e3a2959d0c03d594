#include "net/proc.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

namespace ph::net {
namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("ProcTransport: " + what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) die("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::size_t round_pow2(std::size_t n) {
  std::size_t p = 4096;
  while (p < n) p <<= 1;
  return p;
}

// Segment layout: a control block, two doorbells per endpoint (arrivals,
// then ring space), then on the Shm wire one ring per directed endpoint
// pair. Head and tail cursors live on their own cache lines *inside* the
// segment so they survive the death of either side.
constexpr std::size_t kCtrlBytes = 64;
constexpr std::size_t kRingHdrBytes = 128;
constexpr std::size_t kHeadOff = 0;
constexpr std::size_t kTailOff = 64;

/// A backpressured producer's park timeout: it heartbeats between parks,
/// and the consumer's drain rings it as soon as space frees.
constexpr std::chrono::milliseconds kBackpressurePark{1};

}  // namespace

ProcTransport::ProcTransport(std::uint32_t n_pes, const FaultInjector* injector,
                             ProcWire wire, std::size_t ring_bytes)
    : Transport(n_pes + 1, injector),
      worker_pes_(n_pes),
      n_endpoints_(n_pes + 1),
      wire_(wire) {
  erx_.reserve(n_endpoints_);
  for (std::uint32_t i = 0; i < n_endpoints_; ++i) {
    auto rx = std::make_unique<EndpointRx>();
    rx->readers.resize(n_endpoints_);
    erx_.push_back(std::move(rx));
  }
  if (wire_ == ProcWire::Shm) ring_bytes_ = round_pow2(ring_bytes);
  shm_size_ = kCtrlBytes + 2 * n_endpoints_ * sizeof(ParkerWords);
  if (wire_ == ProcWire::Shm)
    shm_size_ += static_cast<std::size_t>(n_endpoints_) * n_endpoints_ *
                 (kRingHdrBytes + ring_bytes_);
  // A named segment, unlinked the moment it is mapped: the mapping (and
  // its fork-inherited references in the children) keeps it alive, the
  // name cannot leak even if the whole process tree is SIGKILLed.
  static std::atomic<std::uint64_t> seq{0};
  const std::string name = "/parhask-proc-" + std::to_string(getpid()) + "-" +
                           std::to_string(seq.fetch_add(1));
  int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd >= 0) {
    shm_unlink(name.c_str());
    if (ftruncate(fd, static_cast<off_t>(shm_size_)) < 0) {
      close(fd);
      die("ftruncate");
    }
    void* p = mmap(nullptr, shm_size_, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    close(fd);
    if (p == MAP_FAILED) die("mmap(shm)");
    shm_ = static_cast<std::uint8_t*>(p);
  } else {
    // No POSIX shm (e.g. /dev/shm not mounted): an anonymous shared
    // mapping is inherited across fork() just the same.
    void* p = mmap(nullptr, shm_size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) die("mmap(anonymous shared)");
    shm_ = static_cast<std::uint8_t*>(p);
  }
  std::memset(shm_, 0, kCtrlBytes);  // ftruncate zeroes; anonymous maps too
  auto* words = reinterpret_cast<ParkerWords*>(shm_ + kCtrlBytes);
  space_.reserve(n_endpoints_);
  for (std::uint32_t i = 0; i < n_endpoints_; ++i) {
    bells_[i] = std::make_unique<Parker>(new (&words[i]) ParkerWords(),
                                         /*pollable=*/i == worker_pes_);
    space_.push_back(std::make_unique<Parker>(new (&words[n_endpoints_ + i]) ParkerWords()));
  }
  if (wire_ == ProcWire::Tcp) {
    // Tcp wire: the full localhost mesh is connected here, before any
    // fork, so every child inherits established sockets. The parent and
    // all siblings keep both ends of each connection open, which is what
    // lets the link outlive a SIGKILLed PE and serve its replacement.
    tcp_.resize(n_endpoints_);
    for (auto& row : tcp_) row.resize(n_endpoints_);
    for (std::uint32_t i = 0; i < n_endpoints_; ++i) {
      for (std::uint32_t j = i + 1; j < n_endpoints_; ++j) {
        const int lfd = socket(AF_INET, SOCK_STREAM, 0);
        if (lfd < 0) die("socket(listen)");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        if (bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) die("bind");
        socklen_t len = sizeof(addr);
        if (getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len) < 0)
          die("getsockname");
        if (listen(lfd, 1) < 0) die("listen");
        const int cfd = socket(AF_INET, SOCK_STREAM, 0);
        if (cfd < 0) die("socket(connect)");
        if (connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0)
          die("connect");
        const int afd = accept(lfd, nullptr, nullptr);
        if (afd < 0) die("accept");
        close(lfd);
        set_nodelay(cfd);
        set_nodelay(afd);
        set_nonblocking(cfd);
        set_nonblocking(afd);
        tcp_[i][j].fd = cfd;
        tcp_[j][i].fd = afd;
      }
    }
  }
}

ProcTransport::~ProcTransport() {
  stop();
  for (auto& row : tcp_)
    for (TcpPeer& p : row)
      if (p.fd >= 0) {
        close(p.fd);
        p.fd = -1;
      }
  if (shm_ != nullptr) {
    munmap(shm_, shm_size_);
    shm_ = nullptr;
  }
}

std::atomic<std::uint32_t>* ProcTransport::shm_shutdown() const {
  return reinterpret_cast<std::atomic<std::uint32_t>*>(shm_);
}

std::uint8_t* ProcTransport::ring_base(std::uint32_t src, std::uint32_t dst) const {
  return shm_ + kCtrlBytes + 2 * n_endpoints_ * sizeof(ParkerWords) +
         (static_cast<std::size_t>(src) * n_endpoints_ + dst) * (kRingHdrBytes + ring_bytes_);
}

std::atomic<std::uint64_t>* ProcTransport::ring_head(std::uint32_t src,
                                                     std::uint32_t dst) const {
  return reinterpret_cast<std::atomic<std::uint64_t>*>(ring_base(src, dst) + kHeadOff);
}

std::atomic<std::uint64_t>* ProcTransport::ring_tail(std::uint32_t src,
                                                     std::uint32_t dst) const {
  return reinterpret_cast<std::atomic<std::uint64_t>*>(ring_base(src, dst) + kTailOff);
}

std::uint8_t* ProcTransport::ring_data(std::uint32_t src, std::uint32_t dst) const {
  return ring_base(src, dst) + kRingHdrBytes;
}

void ProcTransport::stop() {
  stopping_.store(true, std::memory_order_release);
  if (shm_ != nullptr) shm_shutdown()->store(1, std::memory_order_release);
  for (auto& s : space_) s->ring();
  ring_all();
}

void ProcTransport::reset_doorbells(std::uint32_t pe) {
  bells_.at(pe)->reset();
  space_.at(pe)->reset();
}

void ProcTransport::account_lost() {
  // Cross-process the in-flight counter never matched this loss anyway
  // (the sender raised it in a different address space).
  if (!cross_process_) note_lost();
}

bool ProcTransport::push_ring(std::uint32_t src, std::uint32_t dst,
                              const std::uint8_t* data, std::size_t n) {
  if (n > ring_bytes_)
    throw std::runtime_error("ProcTransport: frame of " + std::to_string(n) +
                             " bytes exceeds the " + std::to_string(ring_bytes_) +
                             "-byte ring capacity");
  std::atomic<std::uint64_t>* hd = ring_head(src, dst);
  std::atomic<std::uint64_t>* tl = ring_tail(src, dst);
  // Sole producer for this ring: nobody else moves the head.
  const std::uint64_t head = hd->load(std::memory_order_relaxed);
  auto fits = [&] {
    return ring_bytes_ - static_cast<std::size_t>(head - tl->load(std::memory_order_acquire)) >= n;
  };
  auto stopped = [&] {
    return stopping_.load(std::memory_order_acquire) ||
           shm_shutdown()->load(std::memory_order_acquire) != 0;
  };
  while (!fits()) {
    if (stopped()) return false;
    // The consumer may be dead and awaiting respawn: keep heartbeating so
    // the supervisor doesn't book this (merely blocked) PE as a casualty.
    if (on_backpressure_) on_backpressure_();
    space_[src]->park([&] { return fits() || stopped(); }, kBackpressurePark);
  }
  std::uint8_t* base = ring_data(src, dst);
  const std::size_t off = static_cast<std::size_t>(head) & (ring_bytes_ - 1);
  const std::size_t first = std::min(n, ring_bytes_ - off);
  std::memcpy(base + off, data, first);
  std::memcpy(base, data + first, n - first);
  // One release store publishes the whole frame: a producer SIGKILLed
  // before this line leaves no trace, never a torn frame.
  hd->store(head + n, std::memory_order_release);
  return true;
}

void ProcTransport::send_raw(std::uint32_t dst, const DataMsg& m) {
  const std::uint32_t src = m.src_pe;
  if (src >= n_endpoints_ || dst >= n_endpoints_)
    throw std::runtime_error("ProcTransport: endpoint out of range");
  const std::vector<std::uint8_t> frame = encode_frame(m);
  // Heartbeats need not wake the supervisor: its timed park covers them.
  const bool ring = m.kind != MsgKind::Heartbeat;
  if (wire_ == ProcWire::Shm) {
    if (!push_ring(src, dst, frame.data(), frame.size()))
      account_lost();
    else if (ring)
      bells_[dst]->ring();
    return;
  }
  if (dst == src) {
    // Self-send: no socket to self, but the frame still round-trips
    // through the codec so the payload pays its serialisation.
    EndpointRx& rx = *erx_.at(src);
    try {
      rx.inbox.push_back(decode_frame(frame));
      rx.inbox_pending.fetch_add(1, std::memory_order_acq_rel);
    } catch (const FrameError&) {
      stats().crc_errors.fetch_add(1, std::memory_order_relaxed);
      account_lost();
    }
    return;
  }
  TcpPeer& peer = tcp_.at(src).at(dst);
  peer.out_buf.insert(peer.out_buf.end(), frame.begin(), frame.end());
  tcp_flush(peer);
  // Loopback TCP queues the bytes at the receiver inside write(), so they
  // are readable when this rings; a ring that beats its bytes costs the
  // receiver one park timeout.
  if (ring) bells_[dst]->ring();
}

void ProcTransport::tcp_flush(TcpPeer& peer) {
  if (peer.fd < 0) return;
  while (peer.out_pos < peer.out_buf.size()) {
    const ssize_t n = ::write(peer.fd, peer.out_buf.data() + peer.out_pos,
                              peer.out_buf.size() - peer.out_pos);
    if (n > 0) {
      peer.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    break;  // hard error: leave the bytes; retransmission handles the rest
  }
  if (peer.out_pos == peer.out_buf.size()) {
    peer.out_buf.clear();
    peer.out_pos = 0;
  } else if (peer.out_pos > (1u << 16) && peer.out_pos * 2 > peer.out_buf.size()) {
    peer.out_buf.erase(peer.out_buf.begin(),
                       peer.out_buf.begin() + static_cast<std::ptrdiff_t>(peer.out_pos));
    peer.out_pos = 0;
  }
}

void ProcTransport::extract_frames(EndpointRx& rx, std::uint32_t src) {
  for (;;) {
    DataMsg m;
    try {
      if (!rx.readers.at(src).next(m)) break;
    } catch (const FrameError&) {
      // Corrupt bytes (a torn frame tail from a killed writer, or wire
      // damage): count the casualty and let the reader resynchronise.
      stats().crc_errors.fetch_add(1, std::memory_order_relaxed);
      account_lost();
      continue;
    }
    rx.inbox.push_back(std::move(m));
    rx.inbox_pending.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ProcTransport::drain_rings(std::uint32_t pe, EndpointRx& rx) {
  for (std::uint32_t src = 0; src < n_endpoints_; ++src) {
    std::atomic<std::uint64_t>* hd = ring_head(src, pe);
    std::atomic<std::uint64_t>* tl = ring_tail(src, pe);
    const std::uint64_t tail = tl->load(std::memory_order_relaxed);  // sole consumer
    const std::uint64_t head = hd->load(std::memory_order_acquire);
    if (head == tail) continue;
    const std::size_t n = static_cast<std::size_t>(head - tail);
    rx.scratch.resize(n);
    const std::uint8_t* base = ring_data(src, pe);
    const std::size_t off = static_cast<std::size_t>(tail) & (ring_bytes_ - 1);
    const std::size_t first = std::min(n, ring_bytes_ - off);
    std::memcpy(rx.scratch.data(), base + off, first);
    std::memcpy(rx.scratch.data() + first, base, n - first);
    rx.readers.at(src).feed(rx.scratch.data(), n);
    extract_frames(rx, src);
    // Frames are booked in the inbox before the tail advance makes the
    // ring look empty — idle() reads rings first, then inboxes.
    tl->store(head, std::memory_order_release);
    space_[src]->ring();
  }
}

void ProcTransport::drain_tcp(std::uint32_t pe, EndpointRx& rx) {
  std::uint8_t buf[65536];
  for (std::uint32_t j = 0; j < n_endpoints_; ++j) {
    TcpPeer& peer = tcp_.at(pe).at(j);
    if (peer.fd < 0) continue;
    tcp_flush(peer);
    for (;;) {
      const ssize_t n = ::read(peer.fd, buf, sizeof(buf));
      if (n > 0) {
        rx.readers.at(j).feed(buf, static_cast<std::size_t>(n));
        extract_frames(rx, j);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF/error: all ends are held open, so only at teardown
    }
  }
}

std::optional<DataMsg> ProcTransport::poll_raw(std::uint32_t pe) {
  EndpointRx& rx = *erx_.at(pe);
  // Drain the wire even when the inbox is non-empty: moving bytes out of
  // the rings promptly is what keeps producers from backpressuring.
  if (wire_ == ProcWire::Shm)
    drain_rings(pe, rx);
  else
    drain_tcp(pe, rx);
  if (rx.inbox.empty()) return std::nullopt;
  DataMsg m = std::move(rx.inbox.front());
  rx.inbox.pop_front();
  rx.inbox_pending.fetch_sub(1, std::memory_order_acq_rel);
  return m;
}

bool ProcTransport::pending_raw(std::uint32_t pe) {
  if (!erx_.at(pe)->inbox.empty()) return true;
  if (wire_ == ProcWire::Shm) {
    for (std::uint32_t src = 0; src < n_endpoints_; ++src)
      if (ring_head(src, pe)->load(std::memory_order_acquire) !=
          ring_tail(src, pe)->load(std::memory_order_relaxed))
        return true;
    return false;
  }
  // Tcp wire: a zero-timeout poll() of this endpoint's sockets. The
  // syscall orders it after the announce of a park, as the ring's fence
  // orders a sender's write() before its doorbell load.
  std::vector<pollfd> fds;
  for (const TcpPeer& peer : tcp_.at(pe))
    if (peer.fd >= 0) fds.push_back({peer.fd, POLLIN, 0});
  return !fds.empty() && ::poll(fds.data(), fds.size(), 0) > 0;
}

bool ProcTransport::idle() const {
  // In one process the base accounting is exact (send() raises in-flight
  // before the frame hits the wire; poll() lowers it on delivery).
  if (!cross_process_) return Transport::idle();
  // Across processes it is a local approximation only — each process sees
  // its own inboxes — and the supervisor does not rely on it.
  if (!holdback_empty()) return false;
  if (wire_ == ProcWire::Shm) {
    for (std::uint32_t i = 0; i < n_endpoints_; ++i)
      for (std::uint32_t j = 0; j < n_endpoints_; ++j)
        if (ring_head(i, j)->load(std::memory_order_acquire) !=
            ring_tail(i, j)->load(std::memory_order_acquire))
          return false;
  } else {
    for (const auto& row : tcp_)
      for (const TcpPeer& p : row)
        if (p.out_pos < p.out_buf.size()) return false;
  }
  for (const auto& rx : erx_)
    if (rx->inbox_pending.load(std::memory_order_acquire) != 0) return false;
  return true;
}

std::uint64_t ProcTransport::resynced_bytes() const {
  std::uint64_t total = 0;
  for (const auto& rx : erx_)
    for (const FrameReader& r : rx->readers) total += r.resynced();
  return total;
}

}  // namespace ph::net
