#include "serve/wire.hpp"

#include <cstring>

namespace ph::serve {

namespace {

/// Request names and error texts are short; a bound keeps a corrupt
/// length word from ballooning a decode.
constexpr std::size_t kMaxStringWords = 1024;
constexpr std::size_t kMaxParams = 64;

net::DataMsg ctrl(ServeOp op, std::uint64_t id) {
  net::DataMsg m;
  m.kind = net::MsgKind::Ctrl;
  m.channel = static_cast<std::uint64_t>(op);
  m.cseq = id;
  return m;
}

bool take(const std::vector<Word>& w, std::size_t& pos, std::uint64_t& out) {
  if (pos >= w.size()) return false;
  out = static_cast<std::uint64_t>(w[pos++]);
  return true;
}

}  // namespace

const char* serve_op_name(ServeOp op) {
  switch (op) {
    case ServeOp::Submit: return "Submit";
    case ServeOp::Cancel: return "Cancel";
    case ServeOp::Result: return "Result";
    case ServeOp::Error: return "Error";
    case ServeOp::Overloaded: return "Overloaded";
    case ServeOp::Shutdown: return "Shutdown";
    case ServeOp::WorkerStats: return "WorkerStats";
  }
  return "?";
}

const char* serve_error_name(ServeError e) {
  switch (e) {
    case ServeError::BadRequest: return "BadRequest";
    case ServeError::UnknownProgram: return "UnknownProgram";
    case ServeError::DeadlineExceeded: return "DeadlineExceeded";
    case ServeError::Cancelled: return "Cancelled";
    case ServeError::PeLost: return "PeLost";
    case ServeError::Draining: return "Draining";
    case ServeError::Stale: return "Stale";
    case ServeError::Internal: return "Internal";
  }
  return "?";
}

void pack_string(const std::string& s, std::vector<Word>& out) {
  out.push_back(static_cast<Word>(s.size()));
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + i, std::min<std::size_t>(8, s.size() - i));
    out.push_back(static_cast<Word>(w));
  }
}

std::optional<std::string> unpack_string(const std::vector<Word>& words,
                                         std::size_t& pos) {
  std::uint64_t len = 0;
  if (!take(words, pos, len)) return std::nullopt;
  // Bound the length word before any arithmetic on it: (len + 7) wraps
  // for the top seven values of a hostile 64-bit length.
  if (len > kMaxStringWords * 8) return std::nullopt;
  const std::size_t n_words = (len + 7) / 8;
  if (pos + n_words > words.size()) return std::nullopt;
  std::string s(static_cast<std::size_t>(len), '\0');
  for (std::size_t i = 0; i < len; i += 8) {
    std::uint64_t w = static_cast<std::uint64_t>(words[pos++]);
    std::memcpy(s.data() + i, &w, std::min<std::size_t>(8, len - i));
  }
  return s;
}

net::DataMsg encode_submit(const ServeRequest& req) {
  net::DataMsg m = ctrl(ServeOp::Submit, req.id);
  std::vector<Word>& w = m.packet.words;
  w.push_back(static_cast<Word>(req.deadline_us));
  pack_string(req.program, w);
  w.push_back(static_cast<Word>(req.params.size()));
  for (std::int64_t p : req.params) w.push_back(static_cast<Word>(p));
  return m;
}

net::DataMsg encode_cancel(std::uint64_t id) {
  return ctrl(ServeOp::Cancel, id);
}

net::DataMsg encode_shutdown() { return ctrl(ServeOp::Shutdown, 0); }

net::DataMsg encode_worker_stats(std::uint64_t executed, std::uint64_t killed) {
  net::DataMsg m = ctrl(ServeOp::WorkerStats, 0);
  m.packet.words = {static_cast<Word>(executed), static_cast<Word>(killed)};
  return m;
}

net::DataMsg encode_reply(const ServeReply& r) {
  net::DataMsg m = ctrl(r.op, r.id);
  std::vector<Word>& w = m.packet.words;
  switch (r.op) {
    case ServeOp::Result:
      w.push_back(static_cast<Word>(r.value));
      w.push_back(static_cast<Word>(r.exec_us));
      w.push_back(static_cast<Word>(r.worker_pe));
      break;
    case ServeOp::Error:
      w.push_back(static_cast<Word>(r.error));
      pack_string(r.error_text, w);
      break;
    case ServeOp::Overloaded:
      w.push_back(static_cast<Word>(r.queue_depth));
      w.push_back(static_cast<Word>(r.retry_after_us));
      break;
    default:
      break;
  }
  return m;
}

bool is_serve_op(const net::DataMsg& m) {
  return m.kind == net::MsgKind::Ctrl &&
         m.channel >= static_cast<std::uint64_t>(ServeOp::Submit) &&
         m.channel <= static_cast<std::uint64_t>(ServeOp::WorkerStats);
}

std::optional<ServeRequest> decode_submit(const net::DataMsg& m) {
  if (m.channel != static_cast<std::uint64_t>(ServeOp::Submit))
    return std::nullopt;
  const std::vector<Word>& w = m.packet.words;
  std::size_t pos = 0;
  ServeRequest req;
  req.id = m.cseq;
  std::uint64_t deadline = 0;
  if (!take(w, pos, deadline)) return std::nullopt;
  req.deadline_us = deadline;
  std::optional<std::string> name = unpack_string(w, pos);
  if (!name) return std::nullopt;
  req.program = *name;
  std::uint64_t n_params = 0;
  if (!take(w, pos, n_params)) return std::nullopt;
  if (n_params > kMaxParams || pos + n_params > w.size()) return std::nullopt;
  for (std::uint64_t i = 0; i < n_params; ++i)
    req.params.push_back(static_cast<std::int64_t>(w[pos++]));
  return req;
}

std::optional<ServeReply> decode_reply(const net::DataMsg& m) {
  if (!is_serve_op(m)) return std::nullopt;
  const std::vector<Word>& w = m.packet.words;
  std::size_t pos = 0;
  ServeReply r;
  r.op = static_cast<ServeOp>(m.channel);
  r.id = m.cseq;
  switch (r.op) {
    case ServeOp::Result: {
      std::uint64_t value = 0, exec = 0, pe = 0;
      if (!take(w, pos, value) || !take(w, pos, exec) || !take(w, pos, pe))
        return std::nullopt;
      r.value = static_cast<std::int64_t>(value);
      r.exec_us = exec;
      r.worker_pe = static_cast<std::uint32_t>(pe);
      return r;
    }
    case ServeOp::Error: {
      std::uint64_t code = 0;
      if (!take(w, pos, code)) return std::nullopt;
      r.error = static_cast<ServeError>(code);
      std::optional<std::string> text = unpack_string(w, pos);
      if (!text) return std::nullopt;
      r.error_text = *text;
      return r;
    }
    case ServeOp::Overloaded: {
      std::uint64_t depth = 0, retry = 0;
      if (!take(w, pos, depth) || !take(w, pos, retry)) return std::nullopt;
      r.queue_depth = depth;
      r.retry_after_us = retry;
      return r;
    }
    case ServeOp::Cancel:
    case ServeOp::Shutdown:
      return r;  // no payload
    case ServeOp::WorkerStats: {
      std::uint64_t executed = 0, killed = 0;
      if (!take(w, pos, executed) || !take(w, pos, killed))
        return std::nullopt;
      r.exec_us = executed;  // reused: executed count rides exec_us
      r.queue_depth = killed;
      return r;
    }
    case ServeOp::Submit:
      return std::nullopt;  // submits are not replies
  }
  return std::nullopt;
}

}  // namespace ph::serve
