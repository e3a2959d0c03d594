#include <sys/resource.h>

#include "core/lint/lint.hpp"
#include "eval/bytecode.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 5;
constexpr std::size_t kMinEvals = 5;  // per width, even past o.seconds
constexpr std::size_t kTailWindows = 3;  // p95_ms: median of per-third p95s
constexpr int kLintReps = 10;
constexpr int kSpanCostReps = 10000;

// Every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>> kLayerUnits = {
    {"setup.ctor_s", "s"},
    {"setup.warmup_s", "s"},
    {"core.lint_us", "us"},
    {"eval.bc_compile_us", "us"},
    {"rts.machine_ctor_us", "us"},
    {"serve.catalog_spawn_us", "us"},
    {"rts.mutator_s", "s"},
    {"rts.dup_updates", "count"},
    {"rts.blocked_on_blackhole", "count"},
    {"rts.sparks_created", "count"},
    {"rts.sparks_converted", "count"},
    {"rts.sparks_stolen", "count"},
    {"rts.sparks_fizzled", "count"},
    {"rts.sparks_dud", "count"},
    {"rts.sparks_overflowed", "count"},
    {"rts.spark_useful_frac", "frac"},
    {"heap.gc_s", "s"},
    {"heap.minor_gcs", "count"},
    {"heap.major_gcs", "count"},
    {"heap.parallel_gcs", "count"},
    {"heap.words_copied", "words"},
    {"heap.words_allocated", "words"},
    {"heap.gc_worker_busy_frac", "frac"},
    {"heap.copy_balance", "ratio"},
    {"eden.pe_gc_s_max", "s"},
    {"eden.gc_count", "count"},
    {"net.frames", "count"},
    {"net.bytes", "bytes"},
    {"eden.crc_errors", "count"},
    {"eden.pack_us", "us"},
    {"eden.unpack_us", "us"},
    {"serve.exec_us_p50", "us"},
    {"serve.exec_us_p99", "us"},
    {"serve.overhead_us_p50", "us"},
    {"serve.overhead_us_p99", "us"},
    {"serve.daemon_us_p50", "us"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.worker_deaths", "count"},
    {"serve.gen_lag_ms_p99", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
};

}  // namespace

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_layer_metrics(Report& r, const LayerSamples& samples,
                       const std::string& workload) {
  std::string missing;
  for (const auto& [name, unit] : kLayerUnits) {
    auto it = samples.find(name);
    if (it != samples.end() && !it->second.empty()) {
      r.per_layer.push_back(Report::sampled(name, unit, it->second));
    } else {
      r.per_layer.push_back({name, unit, 0.0, 0.0, 0.0, 0});
      missing += (missing.empty() ? "" : ", ") + name;
    }
  }
  if (!missing.empty())
    r.notes.push_back("not observable on " + workload + " (reported as 0): " + missing);
}

void add_span_samples(const Tracer& t, const std::string& span,
                      const std::string& metric, LayerSamples& samples) {
  for (double us : t.durations_us(span)) samples[metric].push_back(us);
}

void compile_fresh(Tracer& t, const ph::Program& prog) {
  ph::bc::shared_cache().clear();
  Scope s(t, "eval.compile_program", 0);
  ph::bc::shared_cache().get_or_compile(prog, "");
}

void probe_lint(Tracer& t, const ph::Program& prog, LayerSamples& samples) {
  for (int i = 0; i < kLintReps; ++i) {
    Scope s(t, "core.lint_program", 0);
    ph::lint_program(prog);
  }
  add_span_samples(t, "core.lint_program", "core.lint_us", samples);
}

void add_trace_overhead(double spans_per_op, double op_ms, LayerSamples& samples, Report& r) {
  Tracer scratch(true);
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kSpanCostReps; ++i) scratch.end(scratch.begin("span_cost", 0));
  const double ms = spans_per_op * static_cast<double>(now_ns() - t0) / 1e6 / kSpanCostReps;
  samples["trace.overhead_ms"] = {ms};
  samples["trace.overhead_frac"] = {ms / op_ms};
  r.notes.push_back("trace.overhead_*: spans per operation x the directly timed cost of one "
                    "span; every tracer call sits outside the timed regions, so the measured "
                    "figures exclude the tracer");
}

void measure_batch(const Options& o, Tracer& tracer, const Batch& b, Report& r) {
  // Set-up, several times: its median is the set-up figure.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = now_ns();
    b.setup(tracer);
    setup_s.push_back(seconds_since(t0));
  }

  // The cold first evaluation is discarded; its cost counts as set-up.
  const std::uint64_t tw = now_ns();
  {
    Evaluation w = b.evaluate(b.full_width, tracer, 0);
    r.op(w.ok);
    if (!w.ok) r.mismatch("warm-up: " + w.failure);
  }
  const double warmup_s = seconds_since(tw);

  // A traced run traces every evaluation.
  std::vector<double> full, one;
  LayerSamples layer;
  const std::size_t spans0 = tracer.spans().size();
  std::uint64_t rounds = 0;
  for (const std::uint64_t t0 = now_ns(); rounds < kMinEvals || seconds_since(t0) < o.seconds;
       ++rounds) {
    for (std::uint32_t width : {b.full_width, 1u}) {
      Evaluation e = b.evaluate(width, tracer, 2 * rounds + (width == 1 ? 2 : 1));
      r.op(e.ok);
      if (!e.ok) {
        r.mismatch(e.failure);
        continue;
      }
      if (width == b.full_width) {
        full.push_back(e.wall_s);
        for (const auto& [k, v] : e.layer) layer[k].push_back(v);
      } else {
        one.push_back(e.wall_s);
      }
    }
  }
  if (full.empty() || one.empty()) {
    r.correct = false;
    r.notes.push_back("no successful evaluation to report");
    return;
  }

  const double setup = median(setup_s) + warmup_s;
  if (!o.trace) {
    // An evaluation is the operation: p50/p95 are its latency at full
    // width, sat_rps how many run back to back per second. A width-1
    // evaluation has no other core to even out a slow spell of its own
    // (full-width ones do, by stealing), so it is taken on a calm core, and
    // speedup compares the two widths at that same quantile.
    const double wall = median(full);
    r.end_to_end.push_back(Report::sampled("wall_s", "s", full));
    const double wall1 = r.add_calm("wall_1cap_s", "s", one);
    r.end_to_end.push_back(Report::one("speedup", "x", wall1 / quantile(full, kCalmQuantile)));
    r.notes.push_back("wall_1cap_s is the 5th percentile of the width-1 evaluations; speedup "
                      "is its ratio to the full-width 5th percentile");
    std::vector<double> ms;
    for (double s : full) ms.push_back(s * 1e3);
    r.end_to_end.push_back(Report::sampled("p50_ms", "ms", ms));
    Metric p95 = Report::sampled("p95_ms", "ms", ms);
    p95.value = windowed_quantile(ms, 0.95, kTailWindows);
    r.end_to_end.push_back(p95);
    r.extra.push_back(Report::sampled("p99_ms", "ms", ms));
    r.extra.back().value = quantile(ms, 0.99);
    r.end_to_end.push_back(Report::one("sat_rps", "1/s", 1.0 / wall));
    r.end_to_end.push_back({"setup_s", "s", setup,
                            quantile(setup_s, 0.25) + warmup_s,
                            quantile(setup_s, 0.75) + warmup_s, setup_s.size()});
    r.end_to_end.push_back(Report::one("peak_rss_mb", "MiB", peak_rss_mb()));
    return;
  }

  layer["setup.ctor_s"] = setup_s;
  layer["setup.warmup_s"] = {warmup_s};
  add_trace_overhead(static_cast<double>(tracer.spans().size() - spans0) /
                         static_cast<double>(2 * rounds),
                     median(full) * 1e3, layer, r);
  if (b.probe) b.probe(tracer, layer);
  layer["trace.spans"] = {static_cast<double>(tracer.spans().size())};
  add_layer_metrics(r, layer, o.workload);
}

}  // namespace perfbench
