// perfbench — the repository benchmark.
//
//   perfbench --workload gph_sumeuler|eden_apsp|serve_small --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--commit ID]
//
// Prints each metric by name and unit, then fail_frac (failed over
// attempted operations) and the figures that carry no regression bound
// (the pooled p99_ms), then, as the last line, one JSON object {"correct",
// "attempted", "failed", "metrics"}: the end-to-end metrics with --trace 0,
// the per-layer ones with --trace 1. With --out-dir it also writes the full
// record (host, each metric's median, quartiles and sample count) and,
// traced, the spans as Chrome trace events. Exit status: 0 when every
// value matched its oracle, 1 on a mismatch, 2 on bad usage.
#include <cpuid.h>
#include <sched.h>
#include <signal.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "workloads.hpp"

using namespace perfbench;

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::uint32_t online_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(1, CPU_COUNT(&set)));
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_record(const std::string& path, const Options& o, const Report& r,
                  const std::string& cpu, const std::string& commit) {
  std::ofstream f(path);
  f << "{\n  \"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
    << ", \"seconds\": " << num(o.seconds) << ", \"trace\": " << (o.trace ? 1 : 0)
    << ",\n  \"host\": {\"cores\": " << o.cores << ", \"cpu\": " << json_str(cpu)
    << ", \"commit\": " << json_str(commit) << "},\n  \"correct\": "
    << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
    << ", \"failed\": " << r.failed << ",\n  \"metrics\": [\n";
  std::vector<Metric> ms = o.trace ? r.per_layer : r.end_to_end;
  ms.insert(ms.end(), r.extra.begin(), r.extra.end());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    f << "    {\"name\": " << json_str(m.name) << ", \"unit\": " << json_str(m.unit)
      << ", \"value\": " << num(m.value) << ", \"q1\": " << num(m.q1)
      << ", \"q3\": " << num(m.q3) << ", \"n\": " << m.n << "}"
      << (i + 1 < ms.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    f << (i ? ", " : "") << json_str(r.notes[i]);
  f << "]\n}\n";
}

void write_spans(const std::string& path, const Tracer& t) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  const auto& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const double ts = static_cast<double>(s.t0_ns - t.epoch_ns()) / 1e3;
    const double dur = static_cast<double>(s.t1_ns - s.t0_ns) / 1e3;
    f << "{\"name\": " << json_str(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
      << (s.parent == 0 ? 1 : 2) << ", \"ts\": " << num(ts) << ", \"dur\": " << num(dur)
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"op\": " << s.op << "}}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  f << "]}\n";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload gph_sumeuler|eden_apsp|"
               "serve_small --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--commit ID]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  Options o;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--out-dir") o.out_dir = v;
    else if (a == "--commit") commit = v;
    else usage(("unknown option " + a).c_str());
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  o.cores = online_cores();
  const std::string cpu = cpu_model();

  Tracer tracer(o.trace);
  Report r;
  if (o.workload == "gph_sumeuler") r = run_gph_sumeuler(o, tracer);
  else if (o.workload == "eden_apsp") r = run_eden_apsp(o, tracer);
  else if (o.workload == "serve_small") r = run_serve_small(o, tracer);
  else usage(("unknown workload '" + o.workload + "'").c_str());

  std::printf("workload %s seed %llu, %.0f s measured, trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("host: %u cores, %s, commit %s\n", o.cores, cpu.c_str(), commit.c_str());
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  const auto& ms = o.trace ? r.per_layer : r.end_to_end;
  auto print = [](const Metric& m) {
    std::printf("  %-26s %14.6g %-6s (q1 %.6g, q3 %.6g, n %zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.q1, m.q3, m.n);
  };
  for (const Metric& m : ms) print(m);
  for (const Metric& m : r.extra) print(m);
  const double fail_frac =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 1.0;
  std::printf("  %-26s %14.6g %-6s (%llu of %llu operations)\n", "fail_frac", fail_frac,
              "frac", static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("  %-26s %14s\n", "correct", r.correct ? "yes" : "NO");

  if (!o.out_dir.empty()) {
    const std::string stem = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed) +
                             "-trace" + (o.trace ? "1" : "0");
    write_record(stem + ".json", o, r, cpu, commit);
    if (o.trace) write_spans(stem + "-spans.json", tracer);
  }

  std::ostringstream line;
  line << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(r.attempted, 1)
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i)
    line << (i ? ", " : "") << json_str(ms[i].name) << ": {\"value\": " << num(ms[i].value)
         << ", \"unit\": " << json_str(ms[i].unit) << "}";
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
