// serve_small: an in-process ServeDaemon on localhost TCP with nproc-2
// bytecode workers (so the daemon loop and this generator each keep a
// core), serving short matmul{12,s} / apsp{12,s} requests whose seeds s
// come from --seed. Each of kCycles cycles sets up the program and daemon
// afresh, then runs three phases on one connection:
//
//   open loop    Poisson arrivals at kOpenLoopRps for 70% of each cycle;
//                latency from each request's scheduled arrival, so a stall
//                is charged to every request it delays. The generator's
//                lateness is reported on its own. p95_ms is the median of
//                the p95s of consecutive 250-request windows, so one host
//                stall moves one window; the pooled p99 is printed too;
//   closed loop  one outstanding request per worker for 18% (sat_rps,
//                wall_s);
//   closed loop  one outstanding request in all for 12% (wall_1cap_s;
//                speedup is the ratio of the two closed-loop rates).
//
// The closed-loop request times (wall_s, wall_1cap_s) are taken on a calm
// core, at their 5th percentile (see kCalmQuantile); rates and the
// open-loop latencies are reported as they fell.
//
// Every reply is checked against catalog_oracle. A traced run also times,
// in process, the fixed costs a worker pays per request out of sight
// (Machine construction with its lint, catalog_spawn). The bytecode
// compile is not one of them: the daemon compiles once, before it forks.
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "rts/marshal.hpp"
#include "rts/threaded.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ph;
using namespace ph::serve;

namespace {

constexpr double kOpenLoopRps = 250.0;
constexpr std::size_t kPool = 64;            // distinct requests per seed
constexpr std::uint64_t kDeadlineUs = 2'000'000;
constexpr std::uint64_t kGraceUs = 5'000'000;  // wait for stragglers
constexpr int kCycles = 10;                   // open, full, one; repeated
constexpr double kOpenShare = 0.7;            // of each cycle
constexpr double kFullShare = 0.18;           // the rest is one-outstanding
constexpr std::size_t kTailWindowRequests = 250;  // open-loop p95 windows
constexpr int kProbeReps = 10;

struct Request {
  std::string program;
  std::vector<std::int64_t> params;
  std::int64_t expect = 0;
};

std::vector<Request> make_pool(std::uint64_t seed) {
  std::vector<Request> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    const std::uint64_t h = mix(seed * 7919 + i);
    Request q;
    q.program = (h & 1) ? "matmul" : "apsp";
    q.params = {12, static_cast<std::int64_t>(1 + (h >> 8) % 100000)};
    q.expect = catalog_oracle(q.program, q.params);
    pool.push_back(std::move(q));
  }
  return pool;
}

ServeConfig serve_config(std::uint32_t workers) {
  ServeConfig cfg;
  cfg.port = 0;
  cfg.default_deadline_us = kDeadlineUs;
  cfg.fleet.n_pes = workers;
  cfg.fleet.worker_rts = config_worksteal_eagerbh(1);
  cfg.fleet.worker_rts.heap.nursery_words = 256 * 1024;  // phserved's default
  cfg.fleet.worker_rts.bytecode = true;
  // No worker is killed here. With the 50 ms default, a host stall of a
  // worker reads as a death, and a respawned worker can still be handed
  // its predecessor's submit and answer "worker busy".
  cfg.fleet.fault.heartbeat_timeout = 1'000'000;
  return cfg;
}

/// A daemon with its event-loop thread and one client connection.
class Server {
 public:
  Server(const Program& prog, std::uint32_t workers) : daemon_(prog, serve_config(workers)) {
    daemon_.start();
    loop_ = std::thread([this] { daemon_.run(); });
    client.connect(daemon_.port());
  }
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Drains the daemon: every worker is reaped before this returns.
  void stop() {
    client.close();
    daemon_.request_drain();
    if (loop_.joinable()) loop_.join();
  }
  /// Counters are only meaningful once stop() has returned.
  ServeDaemon& daemon() { return daemon_; }

  ServeClient client;

 private:
  ServeDaemon daemon_;
  std::thread loop_;
};

/// One request's outcome as the generator saw it.
struct Reply {
  double latency_us = 0.0;  // from scheduled arrival (open) or submit (closed)
  double exec_us = 0.0;     // worker-reported evaluation time
};

/// Sends requests and checks replies; shared by the three phases. With
/// tracing on, every answered request records a span and its exec child.
class Generator {
 public:
  Generator(Server& s, const std::vector<Request>& pool, std::uint64_t seed, Report& r,
            Tracer& tracer)
      : s_(s), pool_(pool), rng_(seed), r_(r), tracer_(tracer) {}

  /// Submits one request due at `due_ns` (scheduled arrival).
  void submit(std::uint64_t due_ns) {
    const std::uint64_t id = next_id_++;
    Pending p;
    p.req = &pool_[rng_() % pool_.size()];
    p.due_ns = due_ns;
    p.sent_ns = now_ns();
    ServeRequest q;
    q.id = id;
    q.program = p.req->program;
    q.params = p.req->params;
    s_.client.submit(q);
    live_.emplace(id, p);
  }

  /// Drains available replies; returns how many settled.
  std::size_t poll(std::vector<Reply>& out) {
    std::size_t settled = 0;
    while (std::optional<ServeReply> rep = s_.client.poll()) {
      auto it = live_.find(rep->id);
      if (it == live_.end()) continue;
      const Pending p = it->second;
      live_.erase(it);
      settled++;
      const std::uint64_t t = now_ns();
      bool ok = rep->op == ServeOp::Result;
      if (ok && rep->value != p.req->expect) {
        ok = false;
        r_.mismatch(p.req->program + " id " + std::to_string(rep->id) + " = " +
                    std::to_string(rep->value) + ", want " + std::to_string(p.req->expect));
      }
      r_.op(ok);
      if (!ok) {
        if (rep->op == ServeOp::Error)
          r_.notes.push_back(std::string("error reply: ") + serve_error_name(rep->error) +
                             " " + rep->error_text);
        continue;
      }
      if (tracer_.enabled()) {
        const std::uint32_t span = tracer_.add("serve.request", rep->id, 0, p.sent_ns, t);
        tracer_.add("serve.exec", rep->id, span, t - rep->exec_us * 1000, t);
      }
      out.push_back({static_cast<double>(t - p.due_ns) / 1e3,
                     static_cast<double>(rep->exec_us)});
    }
    return settled;
  }

  std::size_t outstanding() const { return live_.size(); }

  /// Unsettled requests count as failed.
  void abandon() {
    for (std::size_t i = 0; i < live_.size(); ++i) r_.op(false);
    if (!live_.empty())
      r_.notes.push_back(std::to_string(live_.size()) + " requests never answered");
    live_.clear();
  }

 private:
  struct Pending {
    const Request* req = nullptr;
    std::uint64_t due_ns = 0;
    std::uint64_t sent_ns = 0;
  };
  Server& s_;
  const std::vector<Request>& pool_;
  std::mt19937_64 rng_;
  Report& r_;
  Tracer& tracer_;
  std::map<std::uint64_t, Pending> live_;
  std::uint64_t next_id_ = 1;
};

/// Between polls the generator sleeps rather than spins, so it leaves the
/// workers their cores when the host runs short of CPU.
void nap() { std::this_thread::sleep_for(std::chrono::microseconds(50)); }

/// Replies and per-slice completion rates of one phase, over all cycles.
struct Phase {
  std::vector<Reply> replies;
  std::vector<double> rps;  // completions per second, one per slice
};

/// Keeps `k` requests outstanding for `seconds`, then waits for the rest.
void closed_loop(Generator& g, std::uint32_t k, double seconds, Phase& ph) {
  const std::uint64_t t0 = now_ns();
  std::size_t done_in_time = 0;
  double elapsed_s = 0.0;  // until the first poll past `seconds`
  for (std::uint32_t i = 0; i < k; ++i) g.submit(now_ns());
  for (;;) {
    const std::size_t done = g.poll(ph.replies);
    const bool running = elapsed_s == 0.0;
    if (running) {
      done_in_time += done;
      for (std::size_t i = 0; i < done; ++i) g.submit(now_ns());
      if (seconds_since(t0) >= seconds) elapsed_s = seconds_since(t0);
    }
    if (!running && g.outstanding() == 0) break;
    if (seconds_since(t0) > seconds + kGraceUs / 1e6) {
      g.abandon();
      break;
    }
    nap();
  }
  if (seconds > 0.0) ph.rps.push_back(static_cast<double>(done_in_time) / elapsed_s);
}

/// Sends `arrivals_ns` (offsets from now) on schedule, whatever the
/// replies do, then waits for the rest. Records how late each send was.
void open_loop(Generator& g, const std::vector<std::uint64_t>& arrivals_ns, Phase& ph,
               std::vector<double>& lag_ms) {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t limit = (arrivals_ns.empty() ? 0 : arrivals_ns.back()) + kGraceUs * 1000;
  std::size_t next = 0;
  for (;;) {
    const std::uint64_t now = now_ns() - t0;
    while (next < arrivals_ns.size() && arrivals_ns[next] <= now) {
      g.submit(t0 + arrivals_ns[next]);
      lag_ms.push_back(static_cast<double>(now_ns() - t0 - arrivals_ns[next]) / 1e6);
      next++;
    }
    g.poll(ph.replies);
    if (next == arrivals_ns.size() && g.outstanding() == 0) break;
    if (now > limit) {
      g.abandon();
      break;
    }
    nap();
  }
}

std::vector<double> latencies_ms(const std::vector<Reply>& rs) {
  std::vector<double> out;
  for (const Reply& x : rs) out.push_back(x.latency_us / 1e3);
  return out;
}

}  // namespace

Report run_serve_small(const Options& o, Tracer& tracer) {
  Report r;
  const std::uint32_t workers = o.cores > 2 ? o.cores - 2 : 1;
  const std::vector<Request> pool = make_pool(o.seed);

  // Every cycle runs on a server set up afresh, so that set-up is sampled
  // across the run rather than in one spell of the host. A set-up is the
  // program build, the one bytecode compile the daemon needs before it
  // forks, daemon construction (its lint; the cache is warm), worker fork,
  // connect, then a warm-up whose replies are discarded (every worker's
  // first requests are cold).
  std::unique_ptr<Program> prog;
  std::unique_ptr<Server> server;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s, ctor_s, warmup_s, daemon_p50_us;
  double shed = 0, deadline_exceeded = 0, deaths = 0;
  Phase discard;
  // Stops the live server and banks its counters; the program stays.
  auto retire = [&] {
    if (!server) return;
    server->stop();
    const ServeDaemonStats& ds = server->daemon().stats();
    daemon_p50_us.push_back(static_cast<double>(ds.latency.quantile_us(0.5)));
    shed += static_cast<double>(ds.shed);
    deadline_exceeded += static_cast<double>(ds.deadline_exceeded);
    deaths += static_cast<double>(server->daemon().fleet().stats().deaths);
    gen.reset();
    server.reset();
  };
  auto set_up = [&](int cycle) {
    retire();
    prog.reset();
    const std::uint64_t t0 = now_ns();
    prog = std::make_unique<Program>(make_serve_program());
    compile_fresh(tracer, *prog);
    server = std::make_unique<Server>(*prog, workers);
    const std::uint64_t tw = now_ns();
    gen = std::make_unique<Generator>(
        *server, pool, mix(o.seed + 1) + static_cast<std::uint64_t>(cycle), r, tracer);
    for (int k = 0; k < 3; ++k) closed_loop(*gen, workers, 0.0, discard);
    ctor_s.push_back(static_cast<double>(tw - t0) / 1e9);
    warmup_s.push_back(seconds_since(tw));
    setup_s.push_back(seconds_since(t0));
  };

  // The three phases take turns in short cycles, so a slow spell of the
  // host lands on all of them instead of on whichever phase it overlaps.
  const double cycle_s = o.seconds / kCycles;
  std::mt19937_64 rng(mix(o.seed + 3));
  std::exponential_distribution<double> gap_s(kOpenLoopRps);
  Phase open, full, one;
  std::vector<double> lag_ms;
  std::size_t offered = 0;
  for (int c = 0; c < kCycles; ++c) {
    set_up(c);
    Generator& g = *gen;
    std::vector<std::uint64_t> arrivals_ns;
    for (double t = gap_s(rng); t < kOpenShare * cycle_s; t += gap_s(rng))
      arrivals_ns.push_back(static_cast<std::uint64_t>(t * 1e9));
    offered += arrivals_ns.size();
    open_loop(g, arrivals_ns, open, lag_ms);
    closed_loop(g, workers, kFullShare * cycle_s, full);
    closed_loop(g, 1, (1.0 - kOpenShare - kFullShare) * cycle_s, one);
  }
  retire();

  if (open.replies.empty() || full.replies.empty() || one.replies.empty()) {
    r.correct = false;
    r.notes.push_back("a phase completed no request");
    return r;
  }

  const std::vector<double> open_ms = latencies_ms(open.replies);
  const std::vector<double> full_ms = latencies_ms(full.replies);
  const std::vector<double> one_ms = latencies_ms(one.replies);
  r.notes.push_back("open loop: " + std::to_string(offered) + " requests at " +
                    std::to_string(static_cast<int>(kOpenLoopRps)) + " req/s; " +
                    std::to_string(workers) + " workers");
  r.extra.push_back(Report::sampled("p99_ms", "ms", open_ms));
  r.extra.back().value = quantile(open_ms, 0.99);

  if (!o.trace) {
    std::vector<double> full_s, one_s;
    for (double ms : full_ms) full_s.push_back(ms / 1e3);
    for (double ms : one_ms) one_s.push_back(ms / 1e3);
    r.add_calm("wall_s", "s", full_s);
    r.add_calm("wall_1cap_s", "s", one_s);
    r.end_to_end.push_back(Report::one("speedup", "x", median(full.rps) / median(one.rps)));
    r.end_to_end.push_back(Report::sampled("p50_ms", "ms", open_ms));
    Metric p95 = Report::sampled("p95_ms", "ms", open_ms);
    p95.value = windowed_quantile(open_ms, 0.95, open_ms.size() / kTailWindowRequests);
    r.end_to_end.push_back(p95);
    r.end_to_end.push_back(Report::sampled("sat_rps", "1/s", full.rps));
    r.notes.push_back("wall_s and wall_1cap_s are the 5th percentiles of their closed-loop "
                      "request times");
    r.end_to_end.push_back(Report::sampled("setup_s", "s", setup_s));
    r.end_to_end.push_back(Report::one("peak_rss_mb", "MiB", peak_rss_mb()));
    return r;
  }

  LayerSamples layer;
  layer["setup.ctor_s"] = ctor_s;
  layer["setup.warmup_s"] = warmup_s;
  std::vector<double> exec, overhead;
  for (const Reply& x : open.replies) {
    exec.push_back(x.exec_us);
    overhead.push_back(x.latency_us - x.exec_us);
  }
  layer["serve.exec_us_p50"] = {median(exec)};
  layer["serve.exec_us_p99"] = {quantile(exec, 0.99)};
  layer["serve.overhead_us_p50"] = {median(overhead)};
  layer["serve.overhead_us_p99"] = {quantile(overhead, 0.99)};
  layer["serve.daemon_us_p50"] = daemon_p50_us;  // one per daemon
  layer["serve.shed"] = {shed};
  layer["serve.deadline_exceeded"] = {deadline_exceeded};
  layer["serve.worker_deaths"] = {deaths};
  layer["serve.gen_lag_ms_p99"] = {quantile(lag_ms, 0.99)};
  // Each answered request records two spans: the request and its exec child.
  add_trace_overhead(2.0, median(open_ms), layer, r);

  // The per-request fixed costs, paid inside the forked workers, timed in
  // process on the same requests: Machine construction (with its lint) on
  // the bytecode cache the daemon filled, catalog_spawn and the evaluation.
  const RtsConfig rts = serve_config(workers).fleet.worker_rts;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const Request& q = pool[static_cast<std::size_t>(rep) % pool.size()];
    const std::uint64_t op = 1'000'000 + static_cast<std::uint64_t>(rep);
    const std::uint32_t ctor = tracer.begin("rts.Machine", op);
    Machine m(*prog, rts);
    tracer.end(ctor);
    Tso* root = nullptr;
    {
      Scope s(tracer, "serve.catalog_spawn", op);
      root = catalog_spawn(m, *prog, q.program, q.params);
    }
    ThreadedDriver d(m);
    ThreadedResult res = d.run(root);
    const bool ok = !res.deadlocked && res.value != nullptr &&
                    catalog_read_result(q.program, res.value) == q.expect;
    r.op(ok);
    if (!ok) r.mismatch("in-process " + q.program + " probe");
    const GcStats& gs = m.heap().stats();
    layer["rts.mutator_s"].push_back(res.seconds - static_cast<double>(gs.gc_elapsed_ns) / 1e9);
    layer["heap.gc_s"].push_back(static_cast<double>(gs.gc_elapsed_ns) / 1e9);
    layer["heap.minor_gcs"].push_back(static_cast<double>(gs.minor_collections));
    layer["heap.words_allocated"].push_back(static_cast<double>(gs.words_allocated));
  }
  probe_lint(tracer, *prog, layer);
  add_span_samples(tracer, "eval.compile_program", "eval.bc_compile_us", layer);
  add_span_samples(tracer, "rts.Machine", "rts.machine_ctor_us", layer);
  add_span_samples(tracer, "serve.catalog_spawn", "serve.catalog_spawn_us", layer);
  layer["trace.spans"] = {static_cast<double>(tracer.spans().size())};
  r.notes.push_back("eval.bc_compile_us is the daemon's compile before it forks, once per "
                    "set-up; no request compiles");
  r.notes.push_back("rts.mutator_s and heap.* here come from in-process runs of the same "
                    "requests; the served ones run in forked workers");
  add_layer_metrics(r, layer, o.workload);
  return r;
}

}  // namespace perfbench
