#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "core/lint/lint.hpp"
#include "eval/bytecode.hpp"

namespace ph::serve {

namespace {

/// A running request this far past its deadline gets its Cancel re-sent
/// (backstop — the worker's own deadline poll should have fired long
/// before; heartbeat silence handles a truly wedged worker).
constexpr std::uint64_t kCancelNudgeUs = 100'000;

void set_nonblock(int fd) {
  const int fl = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, fl | O_NONBLOCK);
}

}  // namespace

ServeDaemon::ServeDaemon(const Program& prog, ServeConfig cfg)
    : prog_(prog),
      cfg_(std::move(cfg)),
      admission_(cfg_.queue_capacity),
      dedup_(cfg_.dedup_capacity, cfg_.dedup_age_us) {}

ServeDaemon::~ServeDaemon() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ServeDaemon::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("phserved: socket() failed");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // localhost only
  addr.sin_port = htons(cfg_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error(std::string("phserved: bind failed: ") +
                             std::strerror(errno));
  if (listen(listen_fd_, 64) != 0)
    throw std::runtime_error("phserved: listen failed");
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblock(listen_fd_);

  // Workers must not inherit live client connections: a forked worker
  // holding a conn fd would keep it open past the daemon's close().
  FleetConfig fc = cfg_.fleet;
  const auto user_hook = fc.post_fork_child;
  fc.post_fork_child = [this, user_hook] {
    ::close(listen_fd_);
    for (Conn& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    if (user_hook) user_hook();
  };
  // Precompile the catalog program before the fleet forks: the workers
  // inherit the registry entry, so per-request Machines share one blob
  // instead of each recompiling, and a --code-cache file is read (or
  // written) exactly once, by the daemon. A defective cache file is
  // rejected and recompiled here; an unwritable path fails start-up
  // loudly instead of failing every request.
  if (fc.worker_rts.bytecode) {
    lint_or_throw(prog_, "bytecode");  // recorded: workers never lint
    bc::shared_cache().get_or_compile(prog_, fc.worker_rts.code_cache);
  }
  fleet_ = std::make_unique<ServeFleet>(prog_, fc);
  fleet_->start();
  bell_.store(&fleet_->doorbell(), std::memory_order_release);
}

void ServeDaemon::request_drain() {
  draining_.store(true, std::memory_order_release);
  if (Parker* b = bell_.load(std::memory_order_acquire)) b->ring();
}

std::uint64_t ServeDaemon::park_us() const {
  const std::uint64_t now = fleet_->now_us();
  std::uint64_t due = fleet_->next_tick_us();
  for (const PendingReq& p : queue_) due = std::min(due, p.abs_deadline_us);
  for (const auto& [id, f] : inflight_)
    due = std::min(due, std::max(f.abs_deadline_us, f.last_cancel_nudge_us) + kCancelNudgeUs);
  return due > now ? due - now : 0;
}

ServeReply ServeDaemon::make_error(std::uint64_t id, ServeError e,
                                   const std::string& t) {
  ServeReply r;
  r.op = ServeOp::Error;
  r.id = id;
  r.error = e;
  r.error_text = t;
  return r;
}

void ServeDaemon::accept_new() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblock(fd);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Reuse a dead slot so waiter {conn, gen} pairs stay unambiguous.
    std::size_t ci = conns_.size();
    for (std::size_t i = 0; i < conns_.size(); ++i)
      if (conns_[i].fd < 0) {
        ci = i;
        break;
      }
    if (ci == conns_.size()) conns_.emplace_back();
    Conn& c = conns_[ci];
    c.fd = fd;
    c.gen = next_gen_++;
    c.reader = net::FrameReader{};
    c.out.clear();
    activity_ = true;
  }
}

void ServeDaemon::close_conn(std::size_t ci) {
  Conn& c = conns_[ci];
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  c.out.clear();
  // In-flight work owned by this conn keeps running: its reply lands in
  // the dedup cache, where the client's retry (same id, new conn) finds
  // it — that is the idempotency story, not an optimisation.
}

void ServeDaemon::send_to(const Waiter& w, const ServeReply& r) {
  if (w.conn >= conns_.size()) return;
  Conn& c = conns_[w.conn];
  if (c.fd < 0 || c.gen != w.gen) return;  // client went away
  const std::vector<std::uint8_t> frame = net::encode_frame(encode_reply(r));
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  flush_conn(w.conn);
}

void ServeDaemon::send_to_all(const std::vector<Waiter>& ws,
                              const ServeReply& r) {
  for (const Waiter& w : ws) send_to(w, r);
}

void ServeDaemon::flush_conn(std::size_t ci) {
  Conn& c = conns_[ci];
  while (c.fd >= 0 && !c.out.empty()) {
    const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
    if (n > 0) {
      c.out.erase(c.out.begin(), c.out.begin() + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_conn(ci);
    return;
  }
}

void ServeDaemon::handle_submit(std::size_t ci, const net::DataMsg& m) {
  stats_.submits++;
  const Waiter from{ci, conns_[ci].gen};
  std::optional<ServeRequest> req = decode_submit(m);
  if (!req || req->id == 0) {
    stats_.bad_requests++;
    stats_.failed++;
    send_to(from, make_error(m.cseq, ServeError::BadRequest,
                             "malformed submit (ids start at 1)"));
    return;
  }
  const std::uint64_t now = fleet_->now_us();

  // Idempotency first: a retry must never re-execute.
  ServeReply cached;
  switch (dedup_.check(req->id, now, &cached)) {
    case DedupWindow::Verdict::Completed:
      stats_.dedup_hits++;
      send_to(from, cached);
      return;
    case DedupWindow::Verdict::InFlight: {
      // Attach to the running/queued execution; reply fans out to every
      // waiter when it lands.
      stats_.attached_retries++;
      auto it = inflight_.find(req->id);
      if (it != inflight_.end()) {
        it->second.waiters.push_back(from);
        return;
      }
      for (PendingReq& p : queue_)
        if (p.req.id == req->id) {
          p.waiters.push_back(from);
          return;
        }
      // Window says in-flight but neither table has it (completed this
      // very tick): fall through as Fresh would — admission below.
      break;
    }
    case DedupWindow::Verdict::Stale:
      stats_.stale_rejected++;
      stats_.failed++;
      send_to(from, make_error(req->id, ServeError::Stale,
                               "request id below dedup horizon"));
      return;
    case DedupWindow::Verdict::Fresh:
      break;
  }

  if (draining()) {
    stats_.drain_rejects++;
    stats_.failed++;
    send_to(from, make_error(req->id, ServeError::Draining,
                             "daemon is draining"));
    return;
  }

  // Bounded admission: shed with a structured hint instead of queuing
  // unboundedly.
  if (!admission_.admit(queue_.size())) {
    stats_.shed++;
    ServeReply r;
    r.op = ServeOp::Overloaded;
    r.id = req->id;
    r.queue_depth = queue_.size();
    r.retry_after_us =
        admission_.retry_after_us(queue_.size(), fleet_->healthy_workers());
    send_to(from, r);
    return;
  }

  stats_.accepted++;
  dedup_.begin(req->id, now);
  PendingReq p;
  p.abs_deadline_us =
      now + (req->deadline_us != 0 ? req->deadline_us
                                   : cfg_.default_deadline_us);
  p.admitted_us = now;
  p.req = std::move(*req);
  p.waiters.push_back(from);
  queue_.push_back(std::move(p));
}

void ServeDaemon::handle_cancel(std::size_t ci, const net::DataMsg& m) {
  (void)ci;
  const std::uint64_t id = m.cseq;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->req.id != id) continue;
    const ServeReply r =
        make_error(id, ServeError::Cancelled, "cancelled before dispatch");
    finish(id, r, it->waiters, it->admitted_us);
    stats_.cancelled++;
    queue_.erase(it);
    return;
  }
  auto it = inflight_.find(id);
  if (it != inflight_.end()) fleet_->cancel(it->second.pe, id);
  // Unknown id: already completed (cancel raced the reply) — ignore.
}

void ServeDaemon::finish(std::uint64_t id, const ServeReply& r,
                         const std::vector<Waiter>& waiters,
                         std::uint64_t admitted_us) {
  const std::uint64_t now = fleet_->now_us();
  dedup_.complete(id, r, now);
  send_to_all(waiters, r);
  stats_.latency.record(now >= admitted_us ? now - admitted_us : 0);
  if (r.op == ServeOp::Result)
    stats_.completed++;
  else
    stats_.failed++;
}

void ServeDaemon::dispatch() {
  while (!queue_.empty()) {
    std::optional<std::uint32_t> pe = fleet_->pick_worker();
    if (!pe) return;
    PendingReq p = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t now = fleet_->now_us();
    if (now >= p.abs_deadline_us) {
      stats_.deadline_exceeded++;
      finish(p.req.id,
             make_error(p.req.id, ServeError::DeadlineExceeded,
                        "deadline expired in queue"),
             p.waiters, p.admitted_us);
      continue;
    }
    fleet_->submit(*pe, p.req, p.abs_deadline_us);
    InFlight f;
    f.req = std::move(p.req);
    f.pe = *pe;
    f.abs_deadline_us = p.abs_deadline_us;
    f.admitted_us = p.admitted_us;
    f.waiters = std::move(p.waiters);
    inflight_.emplace(f.req.id, std::move(f));
    activity_ = true;
  }
}

void ServeDaemon::sweep_deadlines() {
  const std::uint64_t now = fleet_->now_us();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (now < it->abs_deadline_us) {
      ++it;
      continue;
    }
    stats_.deadline_exceeded++;
    finish(it->req.id,
           make_error(it->req.id, ServeError::DeadlineExceeded,
                      "deadline expired in queue"),
           it->waiters, it->admitted_us);
    it = queue_.erase(it);
    activity_ = true;
  }
  // Backstop for running requests: the worker's own poll kills at the
  // deadline; if a reply is badly overdue, nudge the cancel again (a
  // worker that lost the first Cancel to a respawn window, say).
  for (auto& [id, f] : inflight_) {
    if (now < f.abs_deadline_us + kCancelNudgeUs) continue;
    if (now - f.last_cancel_nudge_us < kCancelNudgeUs) continue;
    f.last_cancel_nudge_us = now;
    fleet_->cancel(f.pe, id);
  }
}

void ServeDaemon::absorb_fleet_events() {
  FleetEvents ev = fleet_->tick();
  for (const ServeReply& r : ev.replies) {
    auto it = inflight_.find(r.id);
    if (it == inflight_.end()) continue;  // late reply after deadline finish
    if (r.op == ServeOp::Result) admission_.note_service_us(r.exec_us);
    if (r.op == ServeOp::Error && r.error == ServeError::DeadlineExceeded)
      stats_.deadline_exceeded++;
    if (r.op == ServeOp::Error && r.error == ServeError::Cancelled)
      stats_.cancelled++;
    finish(r.id, r, it->second.waiters, it->second.admitted_us);
    inflight_.erase(it);
    activity_ = true;
  }
  const std::uint64_t now = fleet_->now_us();
  for (std::uint64_t id : ev.lost_ids) {
    auto it = inflight_.find(id);
    if (it == inflight_.end()) continue;
    InFlight f = std::move(it->second);
    inflight_.erase(it);
    activity_ = true;
    if (now >= f.abs_deadline_us) {
      stats_.deadline_exceeded++;
      finish(id,
             make_error(id, ServeError::DeadlineExceeded,
                        "PE died and deadline passed"),
             f.waiters, f.admitted_us);
      continue;
    }
    // Transparent retry: the request goes back to the head of the queue
    // with its original deadline — the client just sees a slower reply.
    stats_.requeued_lost++;
    PendingReq p;
    p.req = std::move(f.req);
    p.abs_deadline_us = f.abs_deadline_us;
    p.admitted_us = f.admitted_us;
    p.waiters = std::move(f.waiters);
    queue_.push_front(std::move(p));
  }
}

void ServeDaemon::read_conn(std::size_t ci) {
  Conn& c = conns_[ci];
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.reader.feed(buf, static_cast<std::size_t>(n));
      activity_ = true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(ci);
    return;
  }
  net::DataMsg m;
  for (;;) {
    try {
      if (!c.reader.next(m)) break;
    } catch (const net::FrameError&) {
      continue;  // reader resyncs past the corrupt region
    }
    if (m.kind != net::MsgKind::Ctrl) continue;
    switch (static_cast<ServeOp>(m.channel)) {
      case ServeOp::Submit:
        handle_submit(ci, m);
        break;
      case ServeOp::Cancel:
        handle_cancel(ci, m);
        break;
      default:
        break;
    }
    if (conns_[ci].fd < 0) return;  // handler closed us
  }
}

void ServeDaemon::run() {
  if (listen_fd_ < 0) start();
  Parker& bell = fleet_->doorbell();
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_conn;
  bool drain_seen = false;
  activity_ = true;  // the first pass polls without sleeping
  for (;;) {
    fds.clear();
    fd_conn.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      short ev = POLLIN;
      if (!conns_[i].out.empty()) ev |= POLLOUT;
      fds.push_back({conns_[i].fd, ev, 0});
      fd_conn.push_back(i);
    }
    fds.push_back({bell.fd(), POLLIN, 0});
    // One poll() over the sockets and the fleet's doorbell. It sleeps only
    // after a pass that did nothing, with no worker frame or new drain
    // request waiting, and at most until the next deadline, respawn or
    // silence check.
    bell.park(
        [&] { return activity_ || fleet_->tick_ready() || (draining() && !drain_seen); },
        std::chrono::microseconds(park_us()), fds);
    activity_ = false;
    drain_seen = draining();
    if (fds[0].revents & POLLIN) accept_new();
    for (std::size_t k = 0; k < fd_conn.size(); ++k) {
      const pollfd& p = fds[k + 1];
      const std::size_t ci = fd_conn[k];
      if (conns_[ci].fd < 0 || p.revents == 0) continue;
      if (p.revents & (POLLERR | POLLHUP)) {
        close_conn(ci);
        continue;
      }
      if (p.revents & POLLOUT) flush_conn(ci);
      if (conns_[ci].fd >= 0 && (p.revents & POLLIN)) read_conn(ci);
    }

    absorb_fleet_events();
    sweep_deadlines();
    dispatch();

    if (draining() && queue_.empty() && inflight_.empty()) {
      // Stop admitting happened at the flag; everything in flight has
      // finished or deadlined out. Drain the fleet (reaps every worker)
      // and return — phserved exits 0 from here.
      fleet_->drain(cfg_.drain_grace_us);
      for (std::size_t i = 0; i < conns_.size(); ++i)
        if (conns_[i].fd >= 0) {
          flush_conn(i);
          close_conn(i);
        }
      return;
    }
  }
}

std::string ServeDaemon::stats_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"submits\": " << stats_.submits << ",\n"
     << "  \"accepted\": " << stats_.accepted << ",\n"
     << "  \"completed\": " << stats_.completed << ",\n"
     << "  \"failed\": " << stats_.failed << ",\n"
     << "  \"shed\": " << stats_.shed << ",\n"
     << "  \"deadline_exceeded\": " << stats_.deadline_exceeded << ",\n"
     << "  \"cancelled\": " << stats_.cancelled << ",\n"
     << "  \"dedup_hits\": " << stats_.dedup_hits << ",\n"
     << "  \"attached_retries\": " << stats_.attached_retries << ",\n"
     << "  \"stale_rejected\": " << stats_.stale_rejected << ",\n"
     << "  \"bad_requests\": " << stats_.bad_requests << ",\n"
     << "  \"requeued_lost\": " << stats_.requeued_lost << ",\n"
     << "  \"drain_rejects\": " << stats_.drain_rejects << ",\n"
     << "  \"worker_deaths\": " << (fleet_ ? fleet_->stats().deaths : 0)
     << ",\n"
     << "  \"worker_respawns\": " << (fleet_ ? fleet_->stats().respawns : 0)
     << ",\n"
     << "  \"quarantines\": " << (fleet_ ? fleet_->stats().quarantines : 0)
     << ",\n"
     << "  \"p50_us\": " << stats_.latency.quantile_us(0.50) << ",\n"
     << "  \"p99_us\": " << stats_.latency.quantile_us(0.99) << ",\n"
     << "  \"p999_us\": " << stats_.latency.quantile_us(0.999) << "\n"
     << "}";
  return os.str();
}

}  // namespace ph::serve
