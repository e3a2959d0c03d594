#include "serve/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace ph::serve {

ServeClient::ServeClient(ServeClient&& o) noexcept { *this = std::move(o); }

ServeClient& ServeClient::operator=(ServeClient&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
    reader_ = std::move(o.reader_);
    out_ = std::move(o.out_);
    stash_ = std::move(o.stash_);
  }
  return *this;
}

void ServeClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("ServeClient: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error(std::string("ServeClient: connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int fl = fcntl(fd_, F_GETFL, 0);
  fcntl(fd_, F_SETFL, fl | O_NONBLOCK);
  reader_ = net::FrameReader{};
  stash_.clear();
  out_.clear();
}

void ServeClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void ServeClient::send_msg(const net::DataMsg& m) {
  if (fd_ < 0) throw std::runtime_error("ServeClient: not connected");
  const std::vector<std::uint8_t> frame = net::encode_frame(m);
  out_.insert(out_.end(), frame.begin(), frame.end());
  flush();
}

void ServeClient::flush() {
  while (fd_ >= 0 && !out_.empty()) {
    const ssize_t n = ::write(fd_, out_.data(), out_.size());
    if (n > 0) {
      out_.erase(out_.begin(), out_.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close();
    return;
  }
}

void ServeClient::submit(const ServeRequest& req) {
  send_msg(encode_submit(req));
}

void ServeClient::cancel(std::uint64_t id) { send_msg(encode_cancel(id)); }

bool ServeClient::pump() {
  if (fd_ < 0) return false;
  flush();
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    close();
    return false;
  }
}

void ServeClient::await(std::uint64_t timeout_us) {
  pollfd p{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
  const timespec ts{static_cast<time_t>(timeout_us / 1'000'000),
                    static_cast<long>(timeout_us % 1'000'000) * 1000};
  ::ppoll(&p, 1, &ts, nullptr);
}

std::optional<ServeReply> ServeClient::next_read() {
  net::DataMsg m;
  for (;;) {
    try {
      if (!reader_.next(m)) return std::nullopt;
    } catch (const net::FrameError&) {
      continue;
    }
    std::optional<ServeReply> r = decode_reply(m);
    if (r) return r;
  }
}

std::optional<ServeReply> ServeClient::poll() {
  if (!stash_.empty()) {
    ServeReply r = stash_.front();
    stash_.erase(stash_.begin());
    return r;
  }
  pump();
  return next_read();
}

std::optional<ServeReply> ServeClient::wait(std::uint64_t id,
                                            std::uint64_t timeout_us) {
  for (std::size_t i = 0; i < stash_.size(); ++i)
    if (stash_[i].id == id) {
      ServeReply r = stash_[i];
      stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
      return r;
    }
  // Only fresh frames from here on: the stash holds no reply for `id`,
  // and re-reading it would spin past the timeout check.
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    pump();
    while (std::optional<ServeReply> r = next_read()) {
      if (r->id == id) return r;
      stash_.push_back(*r);
    }
    if (fd_ < 0) return std::nullopt;  // connection died
    const auto el = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (el > timeout_us) return std::nullopt;
    await(timeout_us - el + 1);
  }
}

std::optional<ServeReply> ServeClient::wait_any(std::uint64_t timeout_us) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    std::optional<ServeReply> r = poll();
    if (r) return r;
    if (fd_ < 0) return std::nullopt;
    const auto el = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (el > timeout_us) return std::nullopt;
    await(timeout_us - el + 1);
  }
}

}  // namespace ph::serve
