// Shared pieces of the repository benchmark: command-line options, the
// wall clock, sample statistics, the span tracer and the result report.
//
// Every workload fills one Report. End-to-end metrics are measured with
// tracing off (--trace 0); a separate traced run (--trace 1) fills the
// per-layer metrics. The last line the benchmark prints is the Report as
// one JSON object; main.cpp also writes the full record (host, every
// metric's median, quartiles and sample count) and the spans to --out-dir.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time, set-up and warm-up excluded
  bool trace = false;
  std::string out_dir;    // results and spans; empty = write nothing
  std::uint32_t cores = 1;
};

// --- clock ----------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// splitmix64: every input, pool and schedule is derived from --seed by it.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- sample statistics ----------------------------------------------------

/// Linear-interpolation quantile of an unsorted sample (q in [0, 1]).
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

/// On a shared host one core's speed swings by up to 2x for seconds at a
/// time, with the neighbours' load, so the median time of anything one
/// core does follows how much of the run fell in slow spells. Such times
/// are taken instead at this quantile: the time on a calm core.
constexpr double kCalmQuantile = 0.05;

/// Cuts `xs` (in recording order) into `windows` consecutive slices of
/// equal length, takes the q-quantile of each and returns their median,
/// so that one stall of the host moves one slice, not the figure.
inline double windowed_quantile(const std::vector<double>& xs, double q,
                                std::size_t windows) {
  windows = std::max<std::size_t>(1, std::min(windows, xs.size()));
  std::vector<double> per;
  for (std::size_t w = 0; w < windows; ++w)
    per.push_back(quantile({xs.begin() + static_cast<std::ptrdiff_t>(w * xs.size() / windows),
                            xs.begin() + static_cast<std::ptrdiff_t>((w + 1) * xs.size() / windows)},
                           q));
  return median(per);
}

// --- spans ----------------------------------------------------------------

/// In-memory spans recorded by the benchmark around its calls into the
/// layers. Disabled tracers record nothing and read no clock.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint64_t op;      // operation (evaluation or request) it belongs to
    std::uint64_t t0_ns;
    std::uint64_t t1_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_ns_(now_ns()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint32_t begin(const char* name, std::uint64_t op, std::uint32_t parent = 0) {
    if (!enabled_) return 0;
    const std::uint32_t id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, id, parent, op, now_ns(), 0});
    return id;
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].t1_ns = now_ns();
  }
  /// Records a finished span with explicit bounds (e.g. a worker-reported
  /// execution time placed inside its request span).
  std::uint32_t add(const char* name, std::uint64_t op, std::uint32_t parent,
                    std::uint64_t t0_ns, std::uint64_t t1_ns) {
    if (!enabled_) return 0;
    const std::uint32_t id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({name, id, parent, op, t0_ns, t1_ns});
    return id;
  }

  /// Durations in microseconds of every closed span called `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.t1_ns >= s.t0_ns && s.t1_ns != 0 && name == s.name)
        out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    return out;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t epoch_ns() const { return epoch_ns_; }

 private:
  bool enabled_;
  std::uint64_t epoch_ns_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t op, std::uint32_t parent = 0)
      : t_(t), id_(t.begin(name, op, parent)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

// --- report ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;  // the reported figure (a median for sampled metrics)
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 1;   // samples behind `value`
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Figures printed and recorded with the end-to-end ones but too noisy
  /// on a shared host to carry a regression bound (the pooled p99, the
  /// medians of calm times).
  std::vector<Metric> extra;
  std::vector<std::string> notes;  // printed and recorded, never parsed

  /// A single measured value.
  static Metric one(std::string name, std::string unit, double v) {
    return {std::move(name), std::move(unit), v, v, v, 1};
  }
  /// A sampled value, reported as its median with quartiles.
  static Metric sampled(std::string name, std::string unit,
                        const std::vector<double>& xs) {
    return {std::move(name), std::move(unit), median(xs), quantile(xs, 0.25),
            quantile(xs, 0.75), xs.size()};
  }
  /// Adds a sampled time to end_to_end at kCalmQuantile, with its
  /// quartiles, and its median to extra as <name>_median. Returns the
  /// calm value.
  double add_calm(const std::string& name, const std::string& unit,
                  const std::vector<double>& xs) {
    Metric m = sampled(name, unit, xs);
    extra.push_back(m);
    extra.back().name += "_median";
    m.value = quantile(xs, kCalmQuantile);
    end_to_end.push_back(m);
    return m.value;
  }

  /// Counts one operation. Failures (wrong values, deadlocks, error
  /// replies, requests never answered) make up fail_frac.
  void op(bool ok) {
    attempted++;
    if (!ok) failed++;
  }
  /// A value that disagrees with its oracle: the run is incorrect.
  void mismatch(const std::string& what) {
    correct = false;
    notes.push_back("VALUE MISMATCH: " + what);
  }
};

}  // namespace perfbench
