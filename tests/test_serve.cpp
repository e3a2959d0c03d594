// Serving suite: phserved's end-to-end request robustness. The unit
// half pins the policy pieces in isolation (latency histogram, dedup
// window verdicts, circuit-breaker state machine, admission hints, wire
// round-trips); the daemon half runs a real ServeDaemon — forked worker
// fleet, real localhost TCP, CRC-framed wire — and demands the robust
// behaviours hold under fire: deadlines kill in-flight work without
// killing the worker, overload sheds with structured Overloaded replies,
// duplicate ids never double-execute, a SIGKILLed worker's requests
// retry transparently to the crash-free oracle value, restart-budget
// exhaustion quarantines the PE behind a breaker instead of killing the
// daemon, and a drain finishes in-flight work leaving no zombies.
//
// Every daemon test carries an explicit ctest TIMEOUT (the suite's
// contract is "degrade, never hang"), label `serving`.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

#include "eval/bytecode.hpp"
#include "orphan_case.hpp"
#include "serve/admission.hpp"
#include "serve/client.hpp"
#include "serve/dedup.hpp"
#include "serve/histogram.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"

namespace ph::test {
namespace {

using namespace ph::serve;
using net::BreakerState;
using net::CircuitBreaker;

// --- unit: latency histogram -------------------------------------------------

TEST(ServeHistogram, QuantilesBracketRecordedValues) {
  LatencyHistogram h;
  for (std::uint64_t us = 1; us <= 1000; ++us) h.record(us);
  EXPECT_EQ(h.count(), 1000u);
  const std::uint64_t p50 = h.quantile_us(0.50);
  const std::uint64_t p99 = h.quantile_us(0.99);
  const std::uint64_t p999 = h.quantile_us(0.999);
  // Log-bucketed: each estimate is within one sub-bucket (~6%) above the
  // true quantile and the ordering is preserved.
  EXPECT_GE(p50, 450u);
  EXPECT_LE(p50, 600u);
  EXPECT_GE(p99, 900u);
  EXPECT_LE(p999, 1100u);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_EQ(h.max_us(), 1000u);
}

TEST(ServeHistogram, MergeIsUnion) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(10000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LE(a.quantile_us(0.25), 20u);
  EXPECT_GE(a.quantile_us(0.99), 9000u);
}

// --- unit: dedup window ------------------------------------------------------

TEST(ServeDedup, FreshInFlightCompletedLifecycle) {
  DedupWindow w(16, 0);
  ServeReply cached;
  EXPECT_EQ(w.check(7, 0, &cached), DedupWindow::Verdict::Fresh);
  w.begin(7, 0);
  EXPECT_EQ(w.check(7, 1, &cached), DedupWindow::Verdict::InFlight);
  ServeReply r;
  r.op = ServeOp::Result;
  r.id = 7;
  r.value = 42;
  w.complete(7, r, 2);
  EXPECT_EQ(w.check(7, 3, &cached), DedupWindow::Verdict::Completed);
  EXPECT_EQ(cached.value, 42);
}

TEST(ServeDedup, EvictedIdsAreStaleNotReRun) {
  DedupWindow w(4, 0);
  ServeReply out;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    w.begin(id, id);
    ServeReply r;
    r.id = id;
    r.value = static_cast<std::int64_t>(id);
    w.complete(id, r, id);
  }
  EXPECT_LE(w.size(), 4u);
  // Ids 1..4 were evicted by capacity: a late retry must be Stale — the
  // daemon has forgotten the cached reply and must not double-execute.
  EXPECT_EQ(w.check(1, 9, &out), DedupWindow::Verdict::Stale);
  EXPECT_EQ(w.check(8, 9, &out), DedupWindow::Verdict::Completed);
  // A brand-new id above the horizon is still Fresh.
  EXPECT_EQ(w.check(9, 9, &out), DedupWindow::Verdict::Fresh);
}

TEST(ServeDedup, InFlightEntriesSurviveCapacityPressure) {
  DedupWindow w(2, 0);
  ServeReply out;
  w.begin(1, 0);  // stays in flight throughout
  for (std::uint64_t id = 2; id <= 6; ++id) {
    w.begin(id, id);
    ServeReply r;
    r.id = id;
    w.complete(id, r, id);
  }
  // Capacity pressure evicted completed ids but never the running one.
  EXPECT_EQ(w.check(1, 7, &out), DedupWindow::Verdict::InFlight);
}

TEST(ServeDedup, AgeSweepAdvancesHorizon) {
  DedupWindow w(64, 100);
  ServeReply out, r;
  w.begin(1, 0);
  w.complete(1, r, 0);
  EXPECT_EQ(w.check(1, 50, &out), DedupWindow::Verdict::Completed);
  EXPECT_EQ(w.check(1, 500, &out), DedupWindow::Verdict::Stale);
  EXPECT_GE(w.horizon(), 1u);
}

// --- unit: circuit breaker ---------------------------------------------------

TEST(ServeBreaker, TripCooldownProbeRecovery) {
  CircuitBreaker b(2, 1000);  // budget 2 deaths, 1ms cooldown
  EXPECT_EQ(b.state(0), BreakerState::Closed);
  EXPECT_FALSE(b.on_death(10));
  EXPECT_FALSE(b.on_death(20));
  EXPECT_TRUE(b.on_death(30));  // third death exhausts the budget
  EXPECT_EQ(b.state(31), BreakerState::Open);
  EXPECT_EQ(b.state(30 + 1000), BreakerState::HalfOpen);
  // The HalfOpen probe serves a request: breaker closes, budget forgiven.
  b.on_served_ok(30 + 1000);
  EXPECT_EQ(b.state(30 + 1001), BreakerState::Closed);
  EXPECT_EQ(b.deaths(), 0u);
}

TEST(ServeBreaker, ProbeDeathReopensWithFreshCooldown) {
  CircuitBreaker b(0, 1000);
  EXPECT_TRUE(b.on_death(0));  // budget 0: first death trips
  EXPECT_EQ(b.state(1000), BreakerState::HalfOpen);
  EXPECT_TRUE(b.on_death(1000));  // probe died
  EXPECT_EQ(b.state(1500), BreakerState::Open);
  EXPECT_EQ(b.state(2000), BreakerState::HalfOpen);
}

TEST(ServeBreaker, SuccessWhileClosedForgivesDeaths) {
  CircuitBreaker b(2, 1000);
  b.on_death(0);
  b.on_death(1);
  EXPECT_EQ(b.deaths(), 2u);
  b.on_served_ok(2);
  EXPECT_EQ(b.deaths(), 0u);
  EXPECT_FALSE(b.on_death(3));  // budget starts over
}

// --- unit: admission ---------------------------------------------------------

TEST(ServeAdmission, ShedsAtCapacityAndHintsDrainTime) {
  AdmissionController a(4);
  EXPECT_TRUE(a.admit(0));
  EXPECT_TRUE(a.admit(3));
  EXPECT_FALSE(a.admit(4));
  EXPECT_FALSE(a.admit(100));
  // Before warm-up the hint has a useful floor.
  EXPECT_GE(a.retry_after_us(0, 1), 100u);
  for (int i = 0; i < 64; ++i) a.note_service_us(8000);
  EXPECT_NEAR(static_cast<double>(a.ewma_service_us()), 8000.0, 400.0);
  // Little's law shape: deeper queue → longer hint; more workers → shorter.
  EXPECT_GT(a.retry_after_us(8, 2), a.retry_after_us(2, 2));
  EXPECT_GT(a.retry_after_us(8, 1), a.retry_after_us(8, 4));
}

// --- unit: wire --------------------------------------------------------------

TEST(ServeWire, SubmitRoundTrip) {
  ServeRequest req;
  req.id = 99;
  req.deadline_us = 123456;
  req.program = "sumeuler";
  req.params = {120, 10};
  const net::DataMsg m = encode_submit(req);
  EXPECT_TRUE(is_serve_op(m));
  const std::optional<ServeRequest> back = decode_submit(m);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, 99u);
  EXPECT_EQ(back->deadline_us, 123456u);
  EXPECT_EQ(back->program, "sumeuler");
  EXPECT_EQ(back->params, req.params);
}

TEST(ServeWire, ReplyRoundTripAllOps) {
  ServeReply r;
  r.op = ServeOp::Error;
  r.id = 5;
  r.error = ServeError::DeadlineExceeded;
  r.error_text = "deadline exceeded";
  std::optional<ServeReply> back = decode_reply(encode_reply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, ServeOp::Error);
  EXPECT_EQ(back->error, ServeError::DeadlineExceeded);
  EXPECT_EQ(back->error_text, "deadline exceeded");

  r.op = ServeOp::Overloaded;
  r.queue_depth = 17;
  r.retry_after_us = 2500;
  back = decode_reply(encode_reply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, ServeOp::Overloaded);
  EXPECT_EQ(back->queue_depth, 17u);
  EXPECT_EQ(back->retry_after_us, 2500u);

  r.op = ServeOp::Result;
  r.value = -7;
  r.exec_us = 333;
  r.worker_pe = 2;
  back = decode_reply(encode_reply(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->value, -7);
  EXPECT_EQ(back->exec_us, 333u);
  EXPECT_EQ(back->worker_pe, 2u);
}

TEST(ServeWire, MalformedBodiesRejectedNotThrown) {
  // Truncated Submit: name length word claims more words than present.
  net::DataMsg m = encode_submit(ServeRequest{1, 0, "sumeuler", {120, 10}});
  m.packet.words.resize(2);
  EXPECT_FALSE(decode_submit(m).has_value());
  // Absurd name length must be bounded, not allocated.
  net::DataMsg big = encode_submit(ServeRequest{1, 0, "x", {}});
  big.packet.words[1] = std::uint64_t{1} << 40;
  EXPECT_FALSE(decode_submit(big).has_value());
  // Lengths whose (len + 7) / 8 wraps to 0 must not reach std::string.
  for (const std::uint64_t len : {~std::uint64_t{0}, ~std::uint64_t{0} - 6}) {
    big.packet.words[1] = len;
    EXPECT_FALSE(decode_submit(big).has_value()) << len;
    ServeReply err;
    err.op = ServeOp::Error;
    err.error_text = "boom";
    net::DataMsg reply = encode_reply(err);
    reply.packet.words[1] = len;
    EXPECT_FALSE(decode_reply(reply).has_value()) << len;
  }
  // Reply with an op that is not a serve op.
  net::DataMsg junk;
  junk.kind = net::MsgKind::Ctrl;
  junk.channel = 3;  // Eden ProcCtrl range
  EXPECT_FALSE(decode_reply(junk).has_value());
  EXPECT_FALSE(is_serve_op(junk));
}

// --- unit: client reply matching ---------------------------------------------

struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(ServeClient, WaitMatchesOutOfOrderRepliesAndTimesOut) {
  // A local listener stands in for the daemon and answers 2 before 1.
  const Fd listener{::socket(AF_INET, SOCK_STREAM, 0)};
  const int lfd = listener.fd;
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  ServeClient client;
  client.connect(ntohs(addr.sin_port));
  const Fd server{::accept(lfd, nullptr, nullptr)};
  const int sfd = server.fd;
  ASSERT_GE(sfd, 0);
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t id : {2u, 1u}) {
    ServeReply r;
    r.op = ServeOp::Result;
    r.id = id;
    r.value = static_cast<std::int64_t>(id) * 100;
    const std::vector<std::uint8_t> f = net::encode_frame(encode_reply(r));
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  ASSERT_EQ(::write(sfd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));

  std::optional<ServeReply> r1 = client.wait(1, 10'000'000);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->id, 1u);
  EXPECT_EQ(r1->value, 100);
  std::optional<ServeReply> r2 = client.wait(2, 10'000'000);  // from the stash
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->id, 2u);
  EXPECT_EQ(r2->value, 200);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.wait(3, 50'000).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

// --- daemon rig --------------------------------------------------------------

struct DaemonRig {
  Program prog;
  ServeConfig cfg;
  std::unique_ptr<ServeDaemon> daemon;
  std::thread loop;
  ServeClient client;
  bool stopped = false;

  explicit DaemonRig(const std::function<void(ServeConfig&)>& tweak = {}) {
    prog = make_serve_program();
    cfg.port = 0;
    cfg.fleet.n_pes = 2;
    cfg.fleet.worker_rts = config_worksteal_eagerbh(1);
    cfg.fleet.worker_rts.heap.nursery_words = 256 * 1024;
    if (tweak) tweak(cfg);
    daemon = std::make_unique<ServeDaemon>(prog, cfg);
    daemon->start();
    loop = std::thread([this] { daemon->run(); });
    client.connect(daemon->port());
  }

  ~DaemonRig() { stop(); }

  /// Drain and join; after this, stats()/fleet introspection is race-free.
  void stop() {
    if (stopped) return;
    stopped = true;
    daemon->request_drain();
    loop.join();
  }

  std::optional<ServeReply> ask(std::uint64_t id, const std::string& program,
                                std::vector<std::int64_t> params,
                                std::uint64_t deadline_us = 0,
                                std::uint64_t timeout_us = 30'000'000) {
    ServeRequest req;
    req.id = id;
    req.deadline_us = deadline_us;
    req.program = program;
    req.params = std::move(params);
    client.submit(req);
    return client.wait(id, timeout_us);
  }
};

// --- daemon: basic serving ---------------------------------------------------

TEST(ServeDaemon, ServesCatalogToOracleValues) {
  DaemonRig rig;
  const std::vector<std::int64_t> se{60, 10}, mm{8, 3}, ap{8, 7};
  std::optional<ServeReply> r = rig.ask(1, "sumeuler", se);
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("sumeuler", se));
  r = rig.ask(2, "matmul", mm);
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("matmul", mm));
  r = rig.ask(3, "apsp", ap);
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("apsp", ap));
  rig.stop();
  EXPECT_EQ(rig.daemon->stats().completed, 3u);
  EXPECT_EQ(rig.daemon->stats().failed, 0u);
}

TEST(ServeDaemon, BytecodeWorkersServeCatalogValueEqualToInterpreter) {
  // phserved --bytecode: the whole fleet runs the bytecode engine. The
  // daemon precompiles the catalog program before forking (the workers
  // inherit the registry entry), persists it at --code-cache, and the
  // three catalog kernels must serve values equal to interpreted mode.
  const std::string cache = ::testing::TempDir() + "ph_serve_cache.bc";
  std::remove(cache.c_str());
  bc::shared_cache().clear();

  auto bc_tweak = [&cache](ServeConfig& c) {
    c.fleet.worker_rts.bytecode = true;
    c.fleet.worker_rts.code_cache = cache;
  };
  const std::vector<std::int64_t> se{60, 10}, mm{8, 3}, ap{8, 7};
  std::vector<std::int64_t> bytecode_values;
  {
    DaemonRig rig(bc_tweak);
    // Cold cache: the daemon compiled once and wrote the cache file.
    bc::CacheStats st = bc::shared_cache().stats();
    EXPECT_EQ(st.compiles, 1u);
    EXPECT_EQ(st.file_loads, 0u);
    EXPECT_EQ(st.file_saves, 1u);
    std::uint64_t id = 1;
    for (const auto& [name, params] :
         {std::pair<const char*, std::vector<std::int64_t>>{"sumeuler", se},
          {"matmul", mm},
          {"apsp", ap}}) {
      std::optional<ServeReply> r = rig.ask(id++, name, params);
      ASSERT_TRUE(r && r->op == ServeOp::Result) << name;
      EXPECT_EQ(r->value, catalog_oracle(name, params)) << name;
      bytecode_values.push_back(r->value);
    }
    rig.stop();
    EXPECT_EQ(rig.daemon->stats().failed, 0u);
  }
  {
    // A fresh daemon (simulated fresh process: cleared registry) warm-starts
    // from the cache file instead of recompiling.
    bc::shared_cache().clear();
    DaemonRig rig(bc_tweak);
    bc::CacheStats st = bc::shared_cache().stats();
    EXPECT_EQ(st.compiles, 0u);
    EXPECT_EQ(st.file_loads, 1u);
    std::optional<ServeReply> r = rig.ask(9, "sumeuler", se);
    ASSERT_TRUE(r && r->op == ServeOp::Result);
    EXPECT_EQ(r->value, catalog_oracle("sumeuler", se));
  }
  {
    // Interpreted mode serves the same values.
    DaemonRig rig;
    std::uint64_t id = 21;
    std::size_t k = 0;
    for (const auto& [name, params] :
         {std::pair<const char*, std::vector<std::int64_t>>{"sumeuler", se},
          {"matmul", mm},
          {"apsp", ap}}) {
      std::optional<ServeReply> r = rig.ask(id++, name, params);
      ASSERT_TRUE(r && r->op == ServeOp::Result) << name;
      EXPECT_EQ(r->value, bytecode_values[k++]) << name;
    }
  }
  std::remove(cache.c_str());
}

TEST(ServeDaemon, UnknownProgramAndBadParamsAreStructuredErrors) {
  DaemonRig rig;
  std::optional<ServeReply> r = rig.ask(1, "quicksort", {10});
  ASSERT_TRUE(r && r->op == ServeOp::Error);
  EXPECT_EQ(r->error, ServeError::UnknownProgram);
  r = rig.ask(2, "sumeuler", {999999, 10});  // n above the hard bound
  ASSERT_TRUE(r && r->op == ServeOp::Error);
  EXPECT_EQ(r->error, ServeError::BadRequest);
  // The daemon survives hostile input and still serves.
  r = rig.ask(3, "matmul", {6, 1});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("matmul", {6, 1}));
}

TEST(ServeDaemon, WrappingStringLengthIsABadRequestNotACrash) {
  // One CRC-valid Submit whose name length is ~0: a decoder that lets the
  // length wrap throws out of read_conn and aborts the whole daemon.
  DaemonRig rig;
  const Fd raw{::socket(AF_INET, SOCK_STREAM, 0)};
  ASSERT_GE(raw.fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(rig.daemon->port());
  ASSERT_EQ(::connect(raw.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  net::DataMsg m = encode_submit(ServeRequest{7, 0, "x", {}});
  m.packet.words[1] = ~std::uint64_t{0};
  const std::vector<std::uint8_t> frame = net::encode_frame(m);
  ASSERT_EQ(::write(raw.fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));

  net::FrameReader reader;
  std::optional<ServeReply> bad;
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!bad && std::chrono::steady_clock::now() < until) {
    pollfd pfd{raw.fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    std::uint8_t buf[4096];
    const ssize_t n = ::read(raw.fd, buf, sizeof(buf));
    ASSERT_GT(n, 0) << "the daemon closed the connection";
    reader.feed(buf, static_cast<std::size_t>(n));
    net::DataMsg got;
    if (reader.next(got)) bad = decode_reply(got);
  }
  ASSERT_TRUE(bad.has_value()) << "no reply to the malformed submit";
  ASSERT_EQ(bad->op, ServeOp::Error);
  EXPECT_EQ(bad->id, 7u);
  EXPECT_EQ(bad->error, ServeError::BadRequest);
  std::optional<ServeReply> r = rig.ask(8, "matmul", {8, 1});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("matmul", {8, 1}));
  rig.stop();
  EXPECT_EQ(rig.daemon->stats().bad_requests, 1u);
}

// --- daemon: deadlines and cancellation --------------------------------------

TEST(ServeDaemon, DeadlineKillsRequestButNotWorker) {
  DaemonRig rig;
  // Heavy request, 40ms deadline: the cancel hook inside Machine::step
  // must kill it — and the worker must survive to serve the next one.
  std::optional<ServeReply> r = rig.ask(1, "sumeuler", {400, 25}, 40'000);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->op, ServeOp::Error);
  EXPECT_EQ(r->error, ServeError::DeadlineExceeded);
  r = rig.ask(2, "sumeuler", {60, 10});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("sumeuler", {60, 10}));
  rig.stop();
  // No worker death was involved: the kill was cooperative.
  EXPECT_EQ(rig.daemon->fleet().stats().deaths, 0u);
  EXPECT_GE(rig.daemon->stats().deadline_exceeded, 1u);
}

TEST(ServeDaemon, ClientCancelStopsInFlightWork) {
  DaemonRig rig;
  ServeRequest req;
  req.id = 1;
  req.program = "sumeuler";
  req.params = {400, 25};  // ~hundreds of ms of work
  rig.client.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  rig.client.cancel(1);
  std::optional<ServeReply> r = rig.client.wait(1, 30'000'000);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->op, ServeOp::Error);
  EXPECT_EQ(r->error, ServeError::Cancelled);
  // Worker survived the cooperative kill.
  r = rig.ask(2, "matmul", {8, 1});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("matmul", {8, 1}));
}

TEST(ServeDaemon, CancelReadWithItsSubmitStillLands) {
  // A worker descheduled while the daemon dispatches a request and then
  // forwards the client's Cancel reads both frames in one pass. The
  // Cancel names a request that is received but not yet running; it must
  // still land, not be dropped for the request to run to completion.
  DaemonRig rig([](ServeConfig& c) {
    c.fleet.n_pes = 1;
    // Silence detection stretched past the test: the stop below must not
    // read as a death on a loaded host.
    c.fleet.fault.heartbeat_timeout = 10'000'000;
  });
  std::optional<ServeReply> r = rig.ask(1, "matmul", {8, 1});  // worker up
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  const pid_t worker = rig.daemon->fleet().pe_pid(0);
  ASSERT_GT(worker, 0);
  ASSERT_EQ(kill(worker, SIGSTOP), 0);
  ServeRequest req;
  req.id = 2;
  req.program = "sumeuler";
  req.params = {400, 25};  // ~hundreds of ms of work
  rig.client.submit(req);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  rig.client.cancel(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(kill(worker, SIGCONT), 0);
  r = rig.client.wait(2, 30'000'000);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->op, ServeOp::Error);
  EXPECT_EQ(r->error, ServeError::Cancelled);
  r = rig.ask(3, "matmul", {8, 1});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  EXPECT_EQ(r->value, catalog_oracle("matmul", {8, 1}));
  rig.stop();
  EXPECT_EQ(rig.daemon->fleet().stats().deaths, 0u);
}

// --- daemon: admission / load shedding ---------------------------------------

TEST(ServeDaemon, OverloadShedsWithStructuredHints) {
  DaemonRig rig([](ServeConfig& c) {
    c.fleet.n_pes = 1;
    c.queue_capacity = 2;
  });
  // Burst far past 1 worker + queue of 2: the excess must be shed with
  // Overloaded{depth, retry_after}, never queued unboundedly.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ServeRequest req;
    req.id = id;
    req.program = "sumeuler";
    req.params = {120, 10};
    rig.client.submit(req);
  }
  std::size_t results = 0, shed = 0;
  for (int i = 0; i < 8; ++i) {
    std::optional<ServeReply> r = rig.client.wait_any(30'000'000);
    ASSERT_TRUE(r.has_value());
    if (r->op == ServeOp::Result) {
      results++;
      EXPECT_EQ(r->value, catalog_oracle("sumeuler", {120, 10}));
    } else if (r->op == ServeOp::Overloaded) {
      shed++;
      EXPECT_GE(r->queue_depth, 2u);
      EXPECT_GT(r->retry_after_us, 0u);
    }
  }
  // At least the queue's worth completes; whether a submit also lands
  // directly on the idle worker depends on read/dispatch interleaving.
  EXPECT_GE(results, 2u);
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(results + shed, 8u);
  // A shed id was never remembered: the retry is Fresh and executes.
  std::optional<ServeReply> r = rig.ask(8, "sumeuler", {60, 10});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  rig.stop();
  EXPECT_GE(rig.daemon->stats().shed, 1u);
}

// --- daemon: idempotent ids --------------------------------------------------

TEST(ServeDaemon, DuplicateSubmitExecutesOnce) {
  DaemonRig rig;
  ServeRequest req;
  req.id = 1;
  req.program = "sumeuler";
  req.params = {120, 10};
  rig.client.submit(req);
  rig.client.submit(req);  // immediate duplicate: attaches, never re-runs
  std::optional<ServeReply> a = rig.client.wait(1, 30'000'000);
  std::optional<ServeReply> b = rig.client.wait(1, 30'000'000);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->op, ServeOp::Result);
  EXPECT_EQ(b->op, ServeOp::Result);
  EXPECT_EQ(a->value, catalog_oracle("sumeuler", {120, 10}));
  EXPECT_EQ(a->value, b->value);
  // Late duplicate after completion: replayed from the dedup cache.
  rig.client.submit(req);
  std::optional<ServeReply> c = rig.client.wait(1, 30'000'000);
  ASSERT_TRUE(c && c->op == ServeOp::Result);
  EXPECT_EQ(c->value, a->value);
  rig.stop();
  const ServeDaemonStats& s = rig.daemon->stats();
  // One execution: 1 completed; the other two replies were dedup copies.
  EXPECT_EQ(s.completed, 1u);
  EXPECT_GE(s.attached_retries, 1u);
  EXPECT_GE(s.dedup_hits, 1u);
}

TEST(ServeDaemon, RetryBeyondDedupWindowIsStale) {
  DaemonRig rig([](ServeConfig& c) { c.dedup_capacity = 4; });
  for (std::uint64_t id = 1; id <= 8; ++id) {
    std::optional<ServeReply> r = rig.ask(id, "matmul", {6, 1});
    ASSERT_TRUE(r && r->op == ServeOp::Result) << "id " << id;
  }
  // Id 1 fell off the 4-entry window: the daemon must refuse to re-run
  // it (double-charge) and answer Stale instead.
  std::optional<ServeReply> r = rig.ask(1, "matmul", {6, 1});
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->op, ServeOp::Error);
  EXPECT_EQ(r->error, ServeError::Stale);
  rig.stop();
  EXPECT_GE(rig.daemon->stats().stale_rejected, 1u);
}

// --- daemon: chaos -----------------------------------------------------------

TEST(ServeDaemon, WorkerKillMidTrafficRetriesTransparently) {
  DaemonRig rig;
  const std::vector<std::int64_t> p{120, 10};
  const std::int64_t want = catalog_oracle("sumeuler", p);
  // Keep both workers busy, then SIGKILL one mid-stream. The daemon
  // requeues whatever was in flight on the dead PE; every reply must
  // still carry the crash-free oracle value.
  for (std::uint64_t id = 1; id <= 10; ++id) {
    ServeRequest req;
    req.id = id;
    req.program = "sumeuler";
    req.params = p;
    rig.client.submit(req);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rig.daemon->fleet().inject_kill(1);
  // One deadline for all ten replies, inside the ctest TIMEOUT: a lost
  // request fails naming its id instead of timing the whole test out.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(90);
  std::size_t results = 0;
  for (std::uint64_t id = 1; id <= 10; ++id) {
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
        deadline - std::chrono::steady_clock::now());
    std::optional<ServeReply> r = rig.client.wait(
        id, static_cast<std::uint64_t>(std::max<std::int64_t>(left.count(), 0)));
    ASSERT_TRUE(r.has_value()) << "id " << id << " got no reply before the deadline";
    ASSERT_EQ(r->op, ServeOp::Result) << "id " << id;
    EXPECT_EQ(r->value, want);
    results++;
  }
  EXPECT_EQ(results, 10u);
  rig.stop();
  EXPECT_GE(rig.daemon->fleet().stats().deaths, 1u);
  EXPECT_GE(rig.daemon->fleet().stats().respawns, 1u);
}

TEST(ServeDaemon, BudgetExhaustionQuarantinesNotCrashes) {
  DaemonRig rig([](ServeConfig& c) {
    c.fleet.fault.restart_max = 0;          // first death exhausts the budget
    c.fleet.breaker_cooldown_us = 3'600'000'000ull;  // never half-opens here
  });
  std::optional<ServeReply> r = rig.ask(1, "matmul", {8, 1});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  rig.daemon->fleet().inject_kill(1);
  // PR 6 would throw RtsInternalError here; the daemon must instead
  // quarantine PE 1 behind its breaker and keep serving on PE 0.
  for (std::uint64_t id = 2; id <= 6; ++id) {
    r = rig.ask(id, "matmul", {8, 1});
    ASSERT_TRUE(r.has_value()) << "id " << id;
    ASSERT_EQ(r->op, ServeOp::Result) << "id " << id;
    EXPECT_EQ(r->value, catalog_oracle("matmul", {8, 1}));
  }
  rig.stop();
  EXPECT_EQ(rig.daemon->fleet().stats().quarantines, 1u);
  EXPECT_EQ(rig.daemon->fleet().breaker_state(1), BreakerState::Open);
  EXPECT_EQ(rig.daemon->fleet().stats().respawns, 0u);  // no respawn: budget 0
}

TEST(ServeDaemon, HalfOpenProbeReadmitsHealthyPe) {
  DaemonRig rig([](ServeConfig& c) {
    c.fleet.fault.restart_max = 0;
    c.fleet.breaker_cooldown_us = 250'000;  // quick HalfOpen for the test
  });
  std::optional<ServeReply> r = rig.ask(1, "matmul", {8, 1});
  ASSERT_TRUE(r && r->op == ServeOp::Result);
  rig.daemon->fleet().inject_kill(1);
  // Serve across the cooldown until a Result comes back from PE 1: that
  // reply proves the fleet probe-respawned the quarantined PE and the
  // served request closed its breaker (budget forgiven). worker_pe is
  // the only signal needed — no racy peeking at fleet internals, and no
  // fixed window to miss under scheduler contention.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::uint64_t id = 2;
  bool probe_served = false;
  while (!probe_served && std::chrono::steady_clock::now() < until) {
    r = rig.ask(id++, "matmul", {8, 1});
    ASSERT_TRUE(r && r->op == ServeOp::Result);
    probe_served = r->worker_pe == 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(probe_served) << "PE 1 never served again within 20s";
  rig.stop();
  EXPECT_GE(rig.daemon->fleet().stats().probes, 1u);
  EXPECT_EQ(rig.daemon->fleet().breaker_state(1), BreakerState::Closed);
}

TEST(ServeFleetChaos, RespawnedWorkerDropsItsPredecessorsSubmit) {
  // A Submit the dead worker never read stays in the supervisor->PE ring.
  // The respawned incarnation must drop it (it is stamped for the old
  // one) rather than run it and refuse its own first request as busy.
  const Program prog = make_serve_program();
  FleetConfig cfg;
  cfg.n_pes = 1;
  cfg.worker_rts = config_worksteal_eagerbh(1);
  cfg.worker_rts.heap.nursery_words = 256 * 1024;
  ServeFleet fleet(prog, cfg);
  fleet.start();
  const pid_t first = fleet.pe_pid(0);
  ASSERT_GT(first, 0);
  ASSERT_EQ(kill(first, SIGSTOP), 0);  // it cannot read the Submit below
  ServeRequest stale;
  stale.id = 1;
  stale.program = "sumeuler";
  stale.params = {400, 25};
  fleet.submit(0, stale, 0);
  ASSERT_EQ(kill(first, SIGKILL), 0);

  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<std::uint64_t> lost;
  while (fleet.pe_pid(0) <= 0 || fleet.pe_pid(0) == first) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "PE 0 never respawned";
    FleetEvents ev = fleet.tick();
    lost.insert(lost.end(), ev.lost_ids.begin(), ev.lost_ids.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(lost, std::vector<std::uint64_t>{1});

  ServeRequest fresh;
  fresh.id = 2;
  fresh.program = "matmul";
  fresh.params = {8, 1};
  fleet.submit(0, fresh, 0);
  std::optional<ServeReply> got;
  while (!got) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "id 2 never answered";
    for (const ServeReply& r : fleet.tick().replies) {
      EXPECT_NE(r.id, 1u) << "the new incarnation ran its predecessor's Submit";
      if (r.id == 2) got = r;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got->op, ServeOp::Result) << got->error_text;
  EXPECT_EQ(got->value, catalog_oracle("matmul", {8, 1}));
  // Nothing for the stale id turns up later either.
  const auto grace = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < grace) {
    for (const ServeReply& r : fleet.tick().replies)
      EXPECT_NE(r.id, 1u) << "a reply for the stale Submit arrived";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fleet.drain();
}

TEST(ServeFleetChaos, HeartbeatSilenceLosesTheRequestAndRespawns) {
  // SIGSTOP the worker mid-request: it never becomes reapable, so only
  // heartbeat silence can expose it. No tick runs before the stop, so the
  // heartbeats the worker sent while computing are drained after it, and
  // the silence clock cannot start before the stop.
  const Program prog = make_serve_program();
  FleetConfig cfg;
  cfg.n_pes = 1;
  cfg.worker_rts = config_worksteal_eagerbh(1);
  cfg.worker_rts.heap.nursery_words = 256 * 1024;
  const FaultPlan plan = cfg.fault;
  ServeFleet fleet(prog, cfg);
  fleet.start();
  const pid_t first = fleet.pe_pid(0);
  ASSERT_GT(first, 0);
  ServeRequest heavy;
  heavy.id = 1;
  heavy.program = "sumeuler";
  heavy.params = {400, 25};
  fleet.submit(0, heavy, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // computing
  const std::uint64_t stopped_at = fleet.now_us();
  ASSERT_EQ(kill(first, SIGSTOP), 0);

  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<std::uint64_t> lost;
  std::uint64_t lost_at = 0;
  while (lost.empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "the wedged worker was never lost";
    lost = fleet.tick().lost_ids;
    lost_at = fleet.now_us();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(lost, std::vector<std::uint64_t>{1});
  // The silence floor (50 ms) or the plan's timeout, whichever is larger.
  const std::uint64_t timeout_us =
      std::max<std::uint64_t>({plan.heartbeat_timeout, 50'000, 4 * 2'000});
  EXPECT_GE(lost_at - stopped_at, timeout_us) << "reaped, not detected by silence";
  EXPECT_EQ(fleet.stats().deaths, 1u);

  while (fleet.pe_pid(0) <= 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "PE 0 never respawned";
    fleet.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(fleet.pe_pid(0), first);
  ServeRequest next;
  next.id = 2;
  next.program = "sumeuler";
  next.params = {60, 10};
  fleet.submit(0, next, 0);
  std::optional<ServeReply> got;
  while (!got) {
    ASSERT_LT(std::chrono::steady_clock::now(), until) << "id 2 never answered";
    for (const ServeReply& r : fleet.tick().replies)
      if (r.id == 2) got = r;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got->op, ServeOp::Result) << got->error_text;
  EXPECT_EQ(got->value, catalog_oracle("sumeuler", {60, 10}));
  fleet.drain();
}

TEST(ServeFleetChaos, WorkersExitWhenTheirSupervisorDies) {
  expect_workers_exit_with_their_supervisor(2, [](int fd) {
    const Program prog = make_serve_program();
    FleetConfig cfg;
    cfg.n_pes = 2;
    cfg.worker_rts = config_worksteal_eagerbh(1);
    ServeFleet fleet(prog, cfg);
    fleet.start();
    report_worker_pids(fd, {fleet.pe_pid(0), fleet.pe_pid(1)});
    for (;;) {
      fleet.tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

// --- daemon: graceful drain --------------------------------------------------

TEST(ServeDaemon, DrainFinishesInFlightRejectsNewLeavesNoOrphans) {
  DaemonRig rig;
  ServeRequest heavy;
  heavy.id = 1;
  heavy.program = "sumeuler";
  heavy.params = {400, 25};
  // Generous explicit deadline: this test is about drain semantics, and
  // the heavy request must survive sanitizer slowdown without expiring.
  heavy.deadline_us = 120'000'000;
  rig.client.submit(heavy);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // dispatched
  rig.daemon->request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // New work during the drain is refused with a structured error...
  ServeRequest late;
  late.id = 2;
  late.program = "matmul";
  late.params = {6, 1};
  rig.client.submit(late);
  std::optional<ServeReply> rejected = rig.client.wait(2, 10'000'000);
  ASSERT_TRUE(rejected.has_value());
  ASSERT_EQ(rejected->op, ServeOp::Error);
  EXPECT_EQ(rejected->error, ServeError::Draining);
  // ...while the in-flight request finishes with the right value.
  std::optional<ServeReply> done = rig.client.wait(1, 30'000'000);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->op, ServeOp::Result);
  EXPECT_EQ(done->value, catalog_oracle("sumeuler", {400, 25}));
  rig.loop.join();
  rig.stopped = true;
  // Every worker ever forked is reaped: no zombies, no orphans.
  const std::vector<pid_t> pids = rig.daemon->fleet().spawned_pids();
  EXPECT_FALSE(pids.empty());
  for (pid_t pid : pids) {
    const pid_t w = waitpid(pid, nullptr, WNOHANG);
    EXPECT_EQ(w, -1) << "pid " << pid << " still a child";
    EXPECT_EQ(errno, ECHILD);
  }
  EXPECT_GE(rig.daemon->stats().drain_rejects, 1u);
}

}  // namespace
}  // namespace ph::test
