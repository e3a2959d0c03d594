// phserved — the long-lived parallel-Haskell evaluation daemon.
//
// Serves catalog requests (sumeuler / matmul / apsp) over a localhost
// socket, scheduling them across a persistent fork-per-PE worker fleet
// with per-request deadlines, client cancellation, bounded admission
// with load shedding, idempotent request ids, a circuit breaker over the
// restart budget, and graceful drain on SIGTERM (finish in-flight work,
// flush stats to stdout, exit 0).
//
//   phserved --port 7411 --pes 4 --queue 64 --deadline-ms 5000
//   phserved --port 0                # ephemeral port, printed on stdout
//   phserved --wire tcp --rts "-N1 -A1m" --fault "-FR3 -Fc2@2000000"
//
// Drive it with tools/loadgen (which writes BENCH_serving.json).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rts/flags.hpp"
#include "serve/server.hpp"

using namespace ph;
using namespace ph::serve;

namespace {

ServeDaemon* g_daemon = nullptr;

void on_term(int) {
  // An atomic store and a doorbell ring: the event loop wakes and drains.
  if (g_daemon != nullptr) g_daemon->request_drain();
}

std::int64_t arg_int(int argc, char** argv, const char* name,
                     std::int64_t dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  return dflt;
}

const char* arg_str(int argc, char** argv, const char* name,
                    const char* dflt) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return dflt;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "phserved: long-lived evaluation daemon\n"
          "  --port N         listen port (0 = ephemeral; default 0)\n"
          "  --pes N          worker processes (default 4)\n"
          "  --queue N        admission queue capacity (default 64)\n"
          "  --deadline-ms N  default per-request deadline (default 5000)\n"
          "  --dedup N        dedup window capacity (default 4096)\n"
          "  --wire shm|tcp   worker control-plane wire (default shm)\n"
          "  --rts FLAGS      worker RTS flags (paper grammar)\n"
          "  --bytecode       run workers on the bytecode engine (DESIGN.md §15)\n"
          "  --code-cache P   persist compiled bytecode units at P (needs --bytecode)\n"
          "  --fault FLAGS    fault plan (-FR budget, -Fc chaos kill, ...)\n"
          "  --list           print the request catalog and exit\n"
          "SIGTERM/SIGINT drain gracefully: finish in-flight work, flush\n"
          "stats to stdout, exit 0.\n");
      return 0;
    }
    if (std::strcmp(argv[i], "--list") == 0) {
      for (const CatalogEntry& e : catalog_entries())
        std::printf("%-10s %s\n", e.name, e.param_doc);
      return 0;
    }
  }

  ServeConfig cfg;
  cfg.port = static_cast<std::uint16_t>(arg_int(argc, argv, "--port", 0));
  cfg.queue_capacity =
      static_cast<std::size_t>(arg_int(argc, argv, "--queue", 64));
  cfg.dedup_capacity =
      static_cast<std::size_t>(arg_int(argc, argv, "--dedup", 4096));
  cfg.default_deadline_us =
      static_cast<std::uint64_t>(arg_int(argc, argv, "--deadline-ms", 5000)) *
      1000;
  cfg.fleet.n_pes =
      static_cast<std::uint32_t>(arg_int(argc, argv, "--pes", 4));
  const std::string wire = arg_str(argc, argv, "--wire", "shm");
  if (wire == "tcp") {
    cfg.fleet.wire = net::ProcWire::Tcp;
  } else if (wire == "shm") {
    cfg.fleet.wire = net::ProcWire::Shm;
  } else {
    std::fprintf(stderr, "unknown --wire '%s' (expected shm or tcp)\n",
                 wire.c_str());
    return 2;
  }
  try {
    RtsConfig base = config_worksteal_eagerbh(1);
    base.heap.nursery_words = 256 * 1024;
    cfg.fleet.worker_rts =
        parse_rts_flags(arg_str(argc, argv, "--rts", ""), base);
    cfg.fleet.fault = parse_fault_flags(arg_str(argc, argv, "--fault", ""));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phserved: %s\n", e.what());
    return 2;
  }
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--bytecode") == 0)
      cfg.fleet.worker_rts.bytecode = true;
  const std::string code_cache = arg_str(argc, argv, "--code-cache", "");
  if (!code_cache.empty()) {
    if (!cfg.fleet.worker_rts.bytecode) {
      std::fprintf(stderr,
                   "phserved: --code-cache requires --bytecode: the cache "
                   "stores compiled bytecode units\n");
      return 2;
    }
    cfg.fleet.worker_rts.code_cache = code_cache;
  }

  Program prog = make_serve_program();
  ServeDaemon daemon(prog, cfg);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "phserved: %s\n", e.what());
    return 1;
  }
  g_daemon = &daemon;
  signal(SIGTERM, on_term);
  signal(SIGINT, on_term);

  std::printf("phserved: listening on 127.0.0.1:%u (%u PEs, %s wire, queue %zu)\n",
              daemon.port(), cfg.fleet.n_pes, wire.c_str(),
              cfg.queue_capacity);
  std::fflush(stdout);

  daemon.run();  // returns after a graceful drain

  std::printf("phserved: drained\n%s\n", daemon.stats_json().c_str());
  return 0;
}
