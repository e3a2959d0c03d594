// The benchmark's workloads and the measuring loop the two batch ones
// share.
#pragma once

#include <functional>
#include <map>
#include <string>

#include "common.hpp"

namespace ph {
class Program;
}

namespace perfbench {

Report run_gph_sumeuler(const Options& o, Tracer& tracer);
Report run_eden_apsp(const Options& o, Tracer& tracer);
Report run_serve_small(const Options& o, Tracer& tracer);

/// Per-layer samples by metric name.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// One timed evaluation of a batch workload.
struct Evaluation {
  double wall_s = 0.0;  // the driver's run() only
  bool ok = false;      // value matched the host oracle, no deadlock
  std::string failure;  // why not ok
  std::map<std::string, double> layer;  // per-layer counters of this run
};

/// A batch workload. `setup` performs one complete set-up (program build,
/// bytecode compilation, system construction with its lint, input
/// marshalling); `evaluate` runs one evaluation at `width` capabilities
/// (or ring nodes) on a freshly constructed system; `probe`, run once in
/// the traced run, adds per-layer samples that need calls of their own.
struct Batch {
  std::uint32_t full_width = 1;
  std::function<void(Tracer&)> setup;
  std::function<Evaluation(std::uint32_t width, Tracer&, std::uint64_t op)> evaluate;
  std::function<void(Tracer&, LayerSamples&)> probe;
};

/// Set-up repetitions, the discarded cold evaluation, then full-width and
/// width-1 evaluations alternating for o.seconds. Fills every end-to-end
/// metric (or, traced, every per-layer metric).
void measure_batch(const Options& o, Tracer& tracer, const Batch& b, Report& r);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Appends every per-layer metric the benchmark knows, in a fixed order:
/// the median of `samples` where the workload observed it, else zero with
/// a note saying it is not observable on this workload.
void add_layer_metrics(Report& r, const LayerSamples& samples,
                       const std::string& workload);

/// The durations of the spans called `span`, in microseconds, added to
/// `samples` under `metric`.
void add_span_samples(const Tracer& t, const std::string& span,
                      const std::string& metric, LayerSamples& samples);

/// Clears the process-wide bytecode cache and compiles `prog` into it, as
/// a fresh process does once (span "eval.compile_program"). Machines and
/// daemons constructed afterwards find the cache warm, as they do in the
/// program, so set-up pays the compile exactly once.
void compile_fresh(Tracer& t, const ph::Program& prog);

/// Times lint_program on `prog` several times (span "core.lint_program")
/// and adds the samples as core.lint_us. Kept out of set-up: there the
/// Machine constructor lints, once, as it does in the program.
void probe_lint(Tracer& t, const ph::Program& prog, LayerSamples& samples);

/// The tracing overhead of a traced run: `spans_per_op` spans at the cost
/// of one begin/end pair, timed directly over many spans on a scratch
/// tracer, as trace.overhead_ms per operation and trace.overhead_frac of
/// `op_ms`, a median operation time. Every tracer call sits outside the
/// timed regions, so the measured figures exclude the tracer and their
/// traced-minus-untraced difference would be noise; a note in `r` says so.
void add_trace_overhead(double spans_per_op, double op_ms, LayerSamples& samples, Report& r);

}  // namespace perfbench
