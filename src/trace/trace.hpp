// EdenTV-style activity tracing (the paper's §I: "we exploit a custom
// approach to profiling, pending official support for profiling in GHC").
//
// Drivers record, per capability (or per Eden PE), contiguous time
// segments in one of the activity states the paper's timeline diagrams
// use:
//   Run     — executing Haskell code            (green in the paper)
//   Sync    — runnable but waiting for system    (yellow): GC barrier,
//             scheduler work, message handling
//   Gc      — inside the collector pause         (yellow in the paper;
//             kept distinct here for analysis)
//   Blocked — has threads, all blocked           (red)
//   Idle    — nothing to run                     (blue)
//
// The log renders as an ASCII timeline (one row per capability, one
// column per time bucket) and exports CSV for external plotting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ph {

enum class CapState : std::uint8_t { Run, Sync, Gc, Blocked, Idle };

const char* cap_state_name(CapState s);

struct Segment {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  CapState state = CapState::Idle;
};

/// A point annotation on a row's timeline: fault events (message drops,
/// retransmits, PE crashes and restarts), heap overflows, deadlock
/// verdicts. Exported with the CSV so recovery activity is visible in the
/// same artefact as the activity profile.
struct Note {
  std::uint32_t row = 0;
  std::uint64_t time = 0;
  std::string text;
};

class TraceLog {
 public:
  explicit TraceLog(std::uint32_t n_rows) : rows_(n_rows) {}

  /// Appends [start, end) in `state` to row `row`. Adjacent segments in
  /// the same state are merged; zero-length segments are dropped.
  void record(std::uint32_t row, std::uint64_t start, std::uint64_t end, CapState state);

  /// Attaches a point annotation to row `row` at `time`.
  void note(std::uint32_t row, std::uint64_t time, std::string text);
  const std::vector<Note>& notes() const { return notes_; }

  std::uint32_t n_rows() const { return static_cast<std::uint32_t>(rows_.size()); }
  const std::vector<Segment>& row(std::uint32_t i) const { return rows_.at(i); }
  std::uint64_t end_time() const;

  /// Fraction of [0, end_time()) row `i` spent in `state`.
  double fraction(std::uint32_t i, CapState state) const;

  /// One row per capability, `width` buckets wide; each bucket shows the
  /// state that dominated it: '#'=Run '~'=Sync 'G'=Gc 'x'=Blocked '.'=Idle.
  std::string render_ascii(std::uint32_t width = 100) const;

  /// Per-row utilisation summary table.
  std::string summary() const;

  /// "row,start,end,state" lines for external tooling (EdenTV-like),
  /// followed by one `note,row,time,"text"` line per annotation.
  std::string to_csv() const;

 private:
  std::vector<std::vector<Segment>> rows_;
  std::vector<Note> notes_;
};

}  // namespace ph
