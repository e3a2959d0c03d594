#include "trace/trace.hpp"

#include <algorithm>
#include <array>
#include <iomanip>
#include <sstream>

namespace ph {

const char* cap_state_name(CapState s) {
  switch (s) {
    case CapState::Run: return "run";
    case CapState::Sync: return "sync";
    case CapState::Gc: return "gc";
    case CapState::Blocked: return "blocked";
    case CapState::Idle: return "idle";
  }
  return "?";
}

namespace {
char state_char(CapState s) {
  switch (s) {
    case CapState::Run: return '#';
    case CapState::Sync: return '~';
    case CapState::Gc: return 'G';
    case CapState::Blocked: return 'x';
    case CapState::Idle: return '.';
  }
  return '?';
}
}  // namespace

void TraceLog::record(std::uint32_t row, std::uint64_t start, std::uint64_t end,
                      CapState state) {
  if (end <= start) return;
  auto& r = rows_.at(row);
  if (!r.empty() && r.back().state == state && r.back().end == start) {
    r.back().end = end;
    return;
  }
  r.push_back(Segment{start, end, state});
}

void TraceLog::note(std::uint32_t row, std::uint64_t time, std::string text) {
  notes_.push_back(Note{row, time, std::move(text)});
}

std::uint64_t TraceLog::end_time() const {
  std::uint64_t t = 0;
  for (const auto& r : rows_)
    if (!r.empty()) t = std::max(t, r.back().end);
  return t;
}

double TraceLog::fraction(std::uint32_t i, CapState state) const {
  const std::uint64_t total = end_time();
  if (total == 0) return 0.0;
  std::uint64_t in_state = 0;
  std::uint64_t covered = 0;
  for (const Segment& s : rows_.at(i)) {
    covered += s.end - s.start;
    if (s.state == state) in_state += s.end - s.start;
  }
  // Time not covered by any segment counts as Idle.
  if (state == CapState::Idle) in_state += total - covered;
  return static_cast<double>(in_state) / static_cast<double>(total);
}

std::string TraceLog::render_ascii(std::uint32_t width) const {
  const std::uint64_t total = end_time();
  std::ostringstream out;
  if (total == 0 || width == 0) return "<empty trace>\n";
  for (std::uint32_t i = 0; i < n_rows(); ++i) {
    out << "cap" << std::setw(2) << i << " |";
    // For each bucket pick the state with the largest overlap.
    std::size_t seg = 0;
    const auto& r = rows_[i];
    for (std::uint32_t b = 0; b < width; ++b) {
      const std::uint64_t b0 = total * b / width;
      const std::uint64_t b1 = std::max(b0 + 1, total * (b + 1) / width);
      std::array<std::uint64_t, 5> weight{};
      while (seg < r.size() && r[seg].end <= b0) seg++;
      for (std::size_t j = seg; j < r.size() && r[j].start < b1; ++j) {
        const std::uint64_t lo = std::max(r[j].start, b0);
        const std::uint64_t hi = std::min(r[j].end, b1);
        if (hi > lo) weight[static_cast<std::size_t>(r[j].state)] += hi - lo;
      }
      std::uint64_t covered = 0;
      for (auto w : weight) covered += w;
      weight[static_cast<std::size_t>(CapState::Idle)] += (b1 - b0) - covered;
      std::size_t best = 0;
      for (std::size_t s = 1; s < weight.size(); ++s)
        if (weight[s] > weight[best]) best = s;
      out << state_char(static_cast<CapState>(best));
    }
    out << "|\n";
  }
  out << "       time 0.." << total << "   #=run ~=sync G=gc x=blocked .=idle\n";
  return out.str();
}

std::string TraceLog::summary() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(1);
  out << "cap   run%  sync%    gc%  blkd%  idle%\n";
  for (std::uint32_t i = 0; i < n_rows(); ++i) {
    out << std::setw(3) << i;
    for (CapState s : {CapState::Run, CapState::Sync, CapState::Gc, CapState::Blocked,
                       CapState::Idle})
      out << std::setw(7) << 100.0 * fraction(i, s);
    out << "\n";
  }
  return out.str();
}

std::string TraceLog::to_csv() const {
  std::ostringstream out;
  out << "cap,start,end,state\n";
  for (std::uint32_t i = 0; i < n_rows(); ++i)
    for (const Segment& s : rows_[i])
      out << i << "," << s.start << "," << s.end << "," << cap_state_name(s.state) << "\n";
  for (const Note& n : notes_) {
    std::string quoted = n.text;
    std::string::size_type pos = 0;
    while ((pos = quoted.find('"', pos)) != std::string::npos) {
      quoted.insert(pos, 1, '"');
      pos += 2;
    }
    out << "note," << n.row << "," << n.time << ",\"" << quoted << "\"\n";
  }
  return out.str();
}

}  // namespace ph
