#include "eden/eden.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "net/transport.hpp"
#include "sim/sim_driver.hpp"

namespace ph {

// ===========================================================================
// EdenSystem
// ===========================================================================

EdenSystem::EdenSystem(const Program& prog, EdenConfig cfg)
    : prog_(prog), cfg_(std::move(cfg)), injector_(cfg_.fault) {
  if (cfg_.n_pes == 0 || cfg_.n_cores == 0)
    throw ProgramError("Eden system needs at least one PE and one core");
  cfg_.pe_rts.n_caps = 1;  // one capability per PE: a sequential GHC runtime
  reliable_ = cfg_.fault.enabled();
  // The --eden-rt / --eden-transport flags (per-PE RTS config) override an
  // unset (Sim) transport choice; --eden-rt alone defaults to shm.
  if (cfg_.transport == EdenTransportKind::Sim) {
    if (cfg_.pe_rts.eden_transport != EdenTransportKind::Sim)
      cfg_.transport = cfg_.pe_rts.eden_transport;
    else if (cfg_.pe_rts.eden_rt)
      cfg_.transport = EdenTransportKind::Shm;
  }
  realtime_ = cfg_.transport != EdenTransportKind::Sim;
  // Process-per-PE mode: the supervisor replays send logs after a
  // respawn, so the reliable-channel protocol is always on.
  if (cfg_.transport == EdenTransportKind::Proc) reliable_ = true;
  if (realtime_) {
    // Crash plans are legal here: EdenProcDriver executes them as real
    // SIGKILLs at wall-clock offsets. Only the alloc-fault hook stays
    // sim-only (the injector's allocation counter is shared state).
    if (cfg_.fault.crashes() && cfg_.transport != EdenTransportKind::Proc)
      throw ProgramError("PE-crash fault plans need --eden-transport=proc "
                         "(only the process-per-PE driver can kill a PE)");
    if (cfg_.fault.alloc_fail_at != 0)
      throw ProgramError("alloc-fault plans are sim-only "
                         "(the injector's allocation counter is shared)");
    recording_ = false;
    rt_.reserve(cfg_.n_pes);
    for (std::uint32_t i = 0; i < cfg_.n_pes; ++i)
      rt_.push_back(std::make_unique<RtPe>());
  }
  alive_.assign(cfg_.n_pes, true);
  pes_.reserve(cfg_.n_pes);
  pe_now_.assign(cfg_.n_pes, 0);
  inboxes_.resize(cfg_.n_pes);
  for (std::uint32_t i = 0; i < cfg_.n_pes; ++i) {
    auto m = std::make_unique<Machine>(prog_, cfg_.pe_rts);
    m->pe_id = i;
    m->user_data = this;
    if (reliable_ && !realtime_) m->set_fault(&injector_);
    // Root the channel placeholders living in this PE's heap.
    m->add_root_walker([this, i](Gc& gc) {
      for (ChannelState& ch : channels_)
        if (ch.pe == i && ch.placeholder != nullptr) gc.evacuate(ch.placeholder);
    });
    pes_.push_back(std::move(m));
  }
}

EdenSystem::~EdenSystem() = default;

EdenSystem::Channel EdenSystem::new_channel(std::uint32_t pe) {
  Channel ch;
  ch.id = channels_.size();
  ch.pe = pe;
  ChannelState st;
  st.pe = pe;
  st.placeholder = pes_.at(pe)->new_placeholder(0, ch.id);
  channels_.push_back(st);
  return ch;
}

Obj* EdenSystem::placeholder_of(Channel ch) const {
  return channels_.at(ch.id).placeholder;
}

std::uint32_t EdenSystem::alive_pes() const {
  std::uint32_t n = 0;
  for (bool a : alive_)
    if (a) n++;
  return n;
}

void EdenSystem::note(std::uint32_t pe, std::uint64_t time, std::string text) {
  if (trace_ != nullptr && pe < trace_->n_rows()) trace_->note(pe, time, std::move(text));
}

void EdenSystem::enqueue(std::uint32_t src_pe, std::uint64_t channel, MsgKind kind,
                         Packet p) {
  if (realtime_) {
    rt_send(src_pe, channel, kind, std::move(p));
    return;
  }
  ChannelState& ch = channels_.at(channel);
  messages_sent_++;
  words_sent_ += p.size_words();
  if (reliable_) {
    // Reliable channel: log the send (the log doubles as retransmit buffer
    // and crash-replay source), then make the first transmission attempt
    // over the lossy link. Ordering is restored receiver-side by cseq.
    const std::uint64_t now = pe_now_.at(src_pe);
    net::SentRecord& r = ch.ep.log_send(kind, src_pe, now, injector_.plan().retry_timeout);
    transmit(channel, kind, p, r.cseq, r.epoch, src_pe, /*attempt=*/0, now);
    r.packet = std::move(p);
    return;
  }
  Msg m;
  m.data.channel = channel;
  m.data.kind = kind;
  m.seq = msg_seq_++;
  m.deliver_at = pe_now_.at(src_pe) + cfg_.cost.msg_latency +
                 (p.size_words() / 8) * cfg_.cost.msg_per_8words;
  // The middleware is FIFO per channel (PVM/TCP): a small message sent
  // later must not overtake a large one sent earlier.
  m.deliver_at = std::max(m.deliver_at, ch.last_deliver_at);
  ch.last_deliver_at = m.deliver_at;
  m.data.packet = std::move(p);
  inboxes_.at(ch.pe).push(std::move(m));
}

void EdenSystem::transmit(std::uint64_t channel, MsgKind kind, const Packet& p,
                          std::uint64_t cseq, std::uint64_t epoch,
                          std::uint32_t src_pe, std::uint32_t attempt,
                          std::uint64_t send_time) {
  ChannelState& ch = channels_.at(channel);
  if (!alive_.at(ch.pe)) return;  // receiver down; the record stays unacked
  FaultStats& fs = injector_.stats();
  if (injector_.drop_message(channel, cseq, attempt)) {
    fs.dropped++;
    return;
  }
  Msg m;
  m.deliver_at = send_time + cfg_.cost.msg_latency +
                 (p.size_words() / 8) * cfg_.cost.msg_per_8words;
  if (injector_.delay_message(channel, cseq, attempt)) {
    m.deliver_at += injector_.plan().delay_extra;
    fs.delayed++;
  }
  m.seq = msg_seq_++;
  m.data.channel = channel;
  m.data.kind = kind;
  m.data.packet = p;
  m.data.cseq = cseq;
  m.data.epoch = epoch;
  m.data.src_pe = src_pe;
  m.data.attempt = attempt;
  const bool dup = injector_.duplicate_message(channel, cseq, attempt);
  inboxes_.at(ch.pe).push(m);
  if (dup) {
    fs.duplicated++;
    m.deliver_at += 1;
    m.seq = msg_seq_++;
    inboxes_.at(ch.pe).push(std::move(m));
  }
}

void EdenSystem::send_ack(const net::DataMsg& data) {
  FaultStats& fs = injector_.stats();
  fs.acks++;
  if (injector_.drop_ack(data.channel, data.cseq)) {
    fs.dropped++;
    return;
  }
  if (!alive_.at(data.src_pe)) return;  // original sender has since died
  const std::uint32_t recv_pe = channels_.at(data.channel).pe;
  Msg a;
  a.deliver_at = pe_now_.at(recv_pe) + cfg_.cost.msg_latency;
  a.seq = msg_seq_++;
  a.data.channel = data.channel;
  a.data.kind = MsgKind::Ack;
  a.data.cseq = data.cseq;
  a.data.epoch = data.epoch;
  a.data.src_pe = recv_pe;
  inboxes_.at(data.src_pe).push(std::move(a));
}

void EdenSystem::service_retries(std::uint64_t now) {
  if (!reliable_) return;
  const FaultPlan& plan = injector_.plan();
  const auto dead_sender = [this](const net::SentRecord& r) {
    return !alive_.at(r.src_pe);
  };
  for (std::uint64_t ci = 0; ci < channels_.size(); ++ci) {
    ChannelState& ch = channels_[ci];
    if (!alive_.at(ch.pe)) continue;  // nobody to deliver to until re-pointed
    ch.ep.service_retries(
        now, plan, injector_.stats(), dead_sender,
        [&](net::SentRecord& r, std::uint32_t attempt) {
          note(r.src_pe, now,
               "retry ch" + std::to_string(ci) + " #" + std::to_string(r.cseq) +
                   " attempt " + std::to_string(attempt + 1));
          transmit(ci, r.kind, r.packet, r.cseq, r.epoch, r.src_pe, attempt, now);
        });
  }
}

std::optional<std::uint64_t> EdenSystem::next_retry_event() const {
  if (!reliable_) return std::nullopt;
  const FaultPlan& plan = injector_.plan();
  const auto dead_sender = [this](const net::SentRecord& r) {
    return !alive_.at(r.src_pe);
  };
  std::optional<std::uint64_t> ev;
  for (const ChannelState& ch : channels_) {
    if (!alive_.at(ch.pe)) continue;
    if (auto r = ch.ep.next_retry_at(plan, dead_sender))
      if (!ev || *r < *ev) ev = *r;
  }
  return ev;
}

// --- real-time mode ----------------------------------------------------------

void EdenSystem::attach_rt(net::Transport* t) {
  transport_ = t;
  rt_epoch_ = std::chrono::steady_clock::now();
}

void EdenSystem::rt_send(std::uint32_t src_pe, std::uint64_t channel, MsgKind kind,
                         Packet p) {
  ChannelState& ch = channels_.at(channel);
  net::DataMsg m;
  m.channel = channel;
  m.kind = kind;
  m.src_pe = src_pe;
  if (reliable_) {
    // Sender-side protocol state is only ever touched from this (the
    // producing PE's) thread; see the contract in net/channel.hpp.
    RtPe& rp = *rt_.at(src_pe);
    net::SentRecord& r = ch.ep.log_send(kind, src_pe, rt_now(),
                                        injector_.plan().retry_timeout);
    if (ch.ep.log().size() == 1) rp.produced.push_back(channel);
    rp.unacked.fetch_add(1, std::memory_order_acq_rel);
    m.cseq = r.cseq;
    m.epoch = r.epoch;
    r.packet = p;  // keep a copy for retransmission
  }
  m.packet = std::move(p);
  transport_->send(ch.pe, m);
}

bool EdenSystem::rt_drain(std::uint32_t pi) {
  bool any = false;
  RtPe* rp = realtime_ && reliable_ ? rt_.at(pi).get() : nullptr;
  while (std::optional<net::DataMsg> m = transport_->poll(pi)) {
    any = true;
    if (m->kind >= MsgKind::Heartbeat) {
      // Supervision control plane: `channel` is a ctrl opcode here, not a
      // channel id — it must not reach the channel table.
      if (rt_ctrl_) rt_ctrl_(*m);
      continue;
    }
    ChannelState& ch = channels_.at(m->channel);
    if (!reliable_) {
      apply_data(m->channel, m->kind, m->packet);
      continue;
    }
    if (m->kind == MsgKind::Ack) {
      // Acks come home to the data sender (us): settle the log record and
      // lower the quiescence supervisor's unacked count.
      const std::uint32_t settled = ch.ep.settle_ack(m->cseq, m->epoch);
      if (settled != 0) rp->unacked.fetch_sub(settled, std::memory_order_acq_rel);
      continue;
    }
    const bool ack = ch.ep.receive(
        *m, rp->fs,
        [this](const net::DataMsg& d) { apply_data(d.channel, d.kind, d.packet); });
    if (ack) {
      rp->fs.acks++;
      net::DataMsg a;
      a.channel = m->channel;
      a.kind = MsgKind::Ack;
      a.cseq = m->cseq;
      a.epoch = m->epoch;
      a.src_pe = pi;
      // The ack inherits the data transmission's attempt, so each
      // retransmission's ack gets its own deterministic loss draw.
      a.attempt = m->attempt;
      transport_->send(m->src_pe, a);
    }
  }
  return any;
}

void EdenSystem::rt_service_retries(std::uint32_t pi) {
  if (!reliable_) return;
  RtPe& rp = *rt_.at(pi);
  const std::uint64_t now = rt_now();
  const auto keep_all = [](const net::SentRecord&) { return false; };
  for (std::uint64_t chid : rp.produced) {
    ChannelState& ch = channels_.at(chid);
    ch.ep.service_retries(now, injector_.plan(), rp.fs, keep_all,
                          [&](net::SentRecord& r, std::uint32_t attempt) {
                            net::DataMsg m;
                            m.channel = chid;
                            m.kind = r.kind;
                            m.packet = r.packet;
                            m.cseq = r.cseq;
                            m.epoch = r.epoch;
                            m.src_pe = r.src_pe;
                            m.attempt = attempt;
                            transport_->send(ch.pe, m);
                          });
  }
}

std::uint64_t EdenSystem::rt_idle_park_us(std::uint32_t pi, std::uint64_t cap_us) const {
  std::uint64_t wait = std::min(cap_us, transport_->holdback_due_in_us(pi));
  if (!reliable_) return wait;
  const std::uint64_t now = rt_now();
  const auto keep_all = [](const net::SentRecord&) { return false; };
  for (std::uint64_t chid : rt_.at(pi)->produced)
    if (auto at = channels_.at(chid).ep.next_retry_at(injector_.plan(), keep_all))
      wait = std::min(wait, *at > now ? *at - now : 0);
  return wait;
}

void EdenSystem::rt_restart_notify(std::uint32_t pi, std::uint32_t restarted,
                                   const std::vector<std::uint64_t>& epochs) {
  // 1. Epoch alignment: a channel's epoch tracks its *consumer's*
  //    incarnation, so acks a dead consumer left on the wire can never
  //    settle a record addressed to its replacement. repoint() also
  //    resets receiver-half state, which only the consuming PE uses —
  //    harmless in everyone else's copy.
  for (ChannelState& ch : channels_)
    while (ch.ep.epoch() < epochs.at(ch.pe)) ch.ep.repoint();
  if (restarted == pi) return;  // a fresh incarnation aligning at startup
  // 2. Replay this PE's whole send log towards the restarted consumer:
  //    the replacement recomputes from scratch and needs every input
  //    again; its dedup absorbs whatever the old incarnation acked.
  RtPe& rp = *rt_.at(pi);
  const FaultPlan& plan = injector_.plan();
  const std::uint64_t t0 = rt_now();
  std::uint64_t newly = 0;
  for (std::uint64_t chid : rp.produced) {
    ChannelState& ch = channels_.at(chid);
    if (ch.pe != restarted) continue;
    for (net::SentRecord& r : ch.ep.log()) {
      if (r.acked) {
        r.acked = false;
        newly++;
      }
      r.epoch = ch.ep.epoch();
      net::DataMsg m;
      m.channel = chid;
      m.kind = r.kind;
      m.packet = r.packet;
      m.cseq = r.cseq;
      m.epoch = r.epoch;
      m.src_pe = r.src_pe;
      m.attempt = r.attempts++;
      transport_->send(ch.pe, m);
      r.cur_timeout = plan.retry_timeout;
      r.next_retry_at = rt_now() + r.cur_timeout;
      rp.fs.replayed++;
    }
  }
  if (newly != 0) rp.unacked.fetch_add(newly, std::memory_order_acq_rel);
  rp.fs.replay_us += rt_now() - t0;
}

void EdenSystem::send_value(std::uint32_t src_pe, std::uint64_t channel, Obj* nf_root) {
  enqueue(src_pe, channel, MsgKind::Value, pack_graph(nf_root));
}
void EdenSystem::send_stream_elem(std::uint32_t src_pe, std::uint64_t channel,
                                  Obj* nf_elem) {
  enqueue(src_pe, channel, MsgKind::StreamElem, pack_graph(nf_elem));
}
void EdenSystem::send_stream_close(std::uint32_t src_pe, std::uint64_t channel) {
  enqueue(src_pe, channel, MsgKind::StreamClose, Packet{});
}

void EdenSystem::deliver(const Msg& m) {
  ChannelState& ch = channels_.at(m.data.channel);
  if (reliable_) {
    if (m.data.kind == MsgKind::Ack) {
      // Routed back to the data sender: settle the matching log record.
      ch.ep.settle_ack(m.data.cseq, m.data.epoch);
      return;
    }
    if (!alive_.at(ch.pe)) return;  // receiver died while in flight
    // The endpoint runs dedup/reorder and applies in-order messages; a
    // true return means acknowledge (duplicates too — the first ack may
    // have been lost), false means a stale incarnation was dropped.
    const bool ack = ch.ep.receive(
        m.data, injector_.stats(),
        [this](const net::DataMsg& d) { apply_data(d.channel, d.kind, d.packet); });
    if (ack) send_ack(m.data);
    return;
  }
  apply_data(m.data.channel, m.data.kind, m.data.packet);
}

void EdenSystem::apply_data(std::uint64_t channel, MsgKind kind, const Packet& packet) {
  ChannelState& ch = channels_.at(channel);
  Machine& dm = *pes_.at(ch.pe);
  Capability& cap0 = dm.cap(0);
  if (ch.placeholder == nullptr)
    throw EvalError("message (kind " + std::string(net::msg_kind_name(kind)) +
                    ") arrived on closed channel " + std::to_string(channel));
  switch (kind) {
    case MsgKind::Value: {
      Obj* v = unpack_graph(dm, 0, packet);
      dm.fill_placeholder(cap0, ch.placeholder, v);
      ch.placeholder = nullptr;
      break;
    }
    case MsgKind::StreamElem: {
      // The list placeholder becomes Cons(elem, fresh placeholder).
      std::vector<Obj*> protect{unpack_graph(dm, 0, packet)};
      RootGuard guard(dm, protect);
      Obj* ph2 = dm.new_placeholder(0, channel);
      protect.push_back(ph2);
      Obj* cell = dm.alloc_with_gc(0, ObjKind::Con, 1, 2);
      cell->ptr_payload()[0] = protect[0];
      cell->ptr_payload()[1] = protect[1];
      dm.fill_placeholder(cap0, ch.placeholder, cell);
      ch.placeholder = protect[1];
      break;
    }
    case MsgKind::StreamClose:
      dm.fill_placeholder(cap0, ch.placeholder, dm.static_con(0));  // Nil
      ch.placeholder = nullptr;
      break;
    case MsgKind::Ack:
      throw EvalError("ack reached apply_data");  // handled in deliver()
    case MsgKind::Heartbeat:
    case MsgKind::Ctrl:
      throw EvalError("control frame reached apply_data");  // rt_drain intercepts
  }
}

// --- crash supervision -------------------------------------------------------

void EdenSystem::record_spawn(std::uint32_t pe, GlobalId f,
                              const std::vector<Obj*>& args, bool is_tuple,
                              std::size_t tuple_spec, std::uint64_t out_channel,
                              bool stream) {
  ProcessRecord rec;
  rec.pe = pe;
  rec.f = f;
  rec.is_tuple = is_tuple;
  rec.tuple_spec = tuple_spec;
  rec.out_channel = out_channel;
  rec.stream = stream;
  for (Obj* a : args) {
    Obj* o = follow(a);
    ArgSpec spec;
    if (o->kind == ObjKind::Placeholder && o->payload()[0] < channels_.size()) {
      spec.is_channel = true;
      spec.channel = o->payload()[0];
    } else {
      try {
        spec.packet = pack_graph(o);
      } catch (const PackError&) {
        // An argument we cannot capture (e.g. a thunk closing over a
        // placeholder): the process cannot be rebuilt elsewhere.
        rec.recoverable = false;
      }
    }
    rec.args.push_back(std::move(spec));
  }
  procs_.push_back(std::move(rec));
}

bool EdenSystem::outputs_complete(const ProcessRecord& rec) const {
  if (rec.is_tuple) {
    for (const TupleOut& to : tuple_specs_.at(rec.tuple_spec))
      if (channels_.at(to.first.id).placeholder != nullptr) return false;
    return true;
  }
  return channels_.at(rec.out_channel).placeholder == nullptr;
}

void EdenSystem::kill_pe(std::uint32_t pe, std::uint64_t now) {
  alive_.at(pe) = false;
  // The PE vanishes with everything addressed to it still undelivered.
  inboxes_.at(pe) = {};
  injector_.stats().crashes++;
  note(pe, now, "pe " + std::to_string(pe) + " crashed");
}

void EdenSystem::repoint_and_replay(std::uint64_t channel, std::uint32_t survivor,
                                    std::uint64_t now) {
  ChannelState& ch = channels_.at(channel);
  ch.pe = survivor;
  // Clear before allocating: new_placeholder may GC the survivor, and the
  // old placeholder (in the dead PE's heap) must not be treated as a root.
  ch.placeholder = nullptr;
  ch.placeholder = pes_.at(survivor)->new_placeholder(0, channel);
  ch.ep.repoint();  // fresh incarnation: expected cseq 0, old epoch dead
  ch.last_deliver_at = 0;
  const FaultPlan& plan = injector_.plan();
  for (net::SentRecord& r : ch.ep.log()) {
    // Records from a dead producer are dropped: the producer's own restart
    // resends them from a reset sender (same cseq, same pure values).
    if (!alive_.at(r.src_pe)) continue;
    r.acked = false;
    r.epoch = ch.ep.epoch();
    const std::uint32_t attempt = r.attempts++;
    transmit(channel, r.kind, r.packet, r.cseq, r.epoch, r.src_pe, attempt, now);
    r.cur_timeout = plan.retry_timeout;
    r.next_retry_at = now + r.cur_timeout;
    injector_.stats().replayed++;
  }
}

void EdenSystem::recover_pe(std::uint32_t pe, std::uint64_t now) {
  std::uint32_t survivor = FaultPlan::kNoPe;
  for (std::uint32_t d = 1; d < n_pes(); ++d) {
    const std::uint32_t cand = (pe + d) % n_pes();
    if (alive_.at(cand)) {
      survivor = cand;
      break;
    }
  }
  if (survivor == FaultPlan::kNoPe)
    throw ProgramError("no surviving PE to migrate processes to");
  note(pe, now, "pe " + std::to_string(pe) + " declared dead; migrating to pe " +
                    std::to_string(survivor));
  for (ProcessRecord& rec : procs_) {
    if (rec.pe != pe) continue;
    if (!rec.recoverable) {
      injector_.stats().lost_processes++;
      note(pe, now, "process lost: arguments were not capturable");
      continue;
    }
    if (outputs_complete(rec)) continue;  // its results were all delivered
    // 1. Give every input channel a fresh placeholder on the survivor and
    //    replay its history from the senders' logs.
    for (const ArgSpec& a : rec.args)
      if (a.is_channel && channels_.at(a.channel).pe == pe)
        repoint_and_replay(a.channel, survivor, now);
    // 2. Reset the sender side of its output channels: the restarted
    //    process recomputes and resends from cseq 0; the consumer's
    //    dedup absorbs the prefix it already applied (purity!).
    auto reset_out = [&](std::uint64_t chid) {
      channels_.at(chid).ep.reset_sender();
    };
    if (rec.is_tuple)
      for (const TupleOut& to : tuple_specs_.at(rec.tuple_spec)) reset_out(to.first.id);
    else
      reset_out(rec.out_channel);
    // 3. Rebuild the argument vector in the survivor's heap. Unpacking can
    //    GC, so every rebuilt arg is rooted while the rest materialise.
    Machine& sm = *pes_.at(survivor);
    std::vector<Obj*> built;
    RootGuard guard(sm, built);
    for (const ArgSpec& a : rec.args)
      built.push_back(a.is_channel ? channels_.at(a.channel).placeholder
                                   : unpack_graph(sm, 0, a.packet));
    // 4. Re-instantiate on the survivor (paying instantiation latency),
    //    without re-recording the spawn.
    recording_ = false;
    const std::uint64_t delay = now + cfg_.cost.spawn_process;
    if (rec.is_tuple)
      spawn_tuple_with_spec(survivor, rec.f, built, rec.tuple_spec, delay);
    else
      spawn_with_sender_frames(survivor, rec.f, built, nullptr,
                               Channel{rec.out_channel, channels_.at(rec.out_channel).pe},
                               rec.stream, delay);
    recording_ = true;
    rec.pe = survivor;
    injector_.stats().restarts++;
    note(survivor, now, "restarted process (f=" + std::to_string(rec.f) +
                            ") from pe " + std::to_string(pe));
  }
}

// --- native sender frames -----------------------------------------------------

namespace {
inline EdenSystem* sys_of(Machine& m) {
  auto* s = static_cast<EdenSystem*>(m.user_data);
  if (s == nullptr) throw EvalError("Eden frame run outside an Eden system");
  return s;
}
}  // namespace

NativeAction EdenSystem::nf_send_value(Machine& m, Capability&, Tso& t, std::size_t fi,
                                       Obj* v) {
  sys_of(m)->send_value(m.pe_id, t.stack[fi].aux, v);
  return NativeAction::Done;
}

NativeAction EdenSystem::nf_stream_step(Machine& m, Capability&, Tso& t, std::size_t fi,
                                        Obj* v) {
  EdenSystem* sys = sys_of(m);
  if (v->kind != ObjKind::Con) throw EvalError("stream sender over a non-list");
  Frame& f = t.stack[fi];
  if (v->tag == 0) {  // Nil: end of stream
    sys->send_stream_close(m.pe_id, f.aux);
    return NativeAction::Done;
  }
  if (v->tag != 1 || v->size != 2) throw EvalError("stream sender over a non-list");
  // Deep-force the head, then (in nf_stream_after_head) send it and
  // continue with the tail.
  Obj* head = v->ptr_payload()[0];
  Obj* tail = v->ptr_payload()[1];
  f.native = &EdenSystem::nf_stream_after_head;
  f.obj = tail;
  Frame force;
  force.kind = FrameKind::ForceDeep;
  force.obj = nullptr;
  t.stack.push_back(force);  // invalidates f
  t.code.mode = CodeMode::Enter;
  t.code.ptr = head;
  t.code.env.clear();
  return NativeAction::Retry;
}

NativeAction EdenSystem::nf_stream_after_head(Machine& m, Capability&, Tso& t,
                                              std::size_t fi, Obj* v) {
  EdenSystem* sys = sys_of(m);
  Frame& f = t.stack[fi];
  sys->send_stream_elem(m.pe_id, f.aux, v);
  Obj* tail = f.obj;
  f.obj = nullptr;
  f.native = &EdenSystem::nf_stream_step;
  t.code.mode = CodeMode::Enter;
  t.code.ptr = tail;
  t.code.env.clear();
  return NativeAction::Retry;
}

NativeAction EdenSystem::nf_tuple_split(Machine& m, Capability&, Tso& t, std::size_t fi,
                                        Obj* v) {
  EdenSystem* sys = sys_of(m);
  Frame& f = t.stack[fi];
  const auto& spec = sys->tuple_specs_.at(f.aux);
  if (v->kind != ObjKind::Con || v->size != spec.size())
    throw EvalError("tuple process result does not match its output channels");
  // One independent communication thread per tuple component (§II.A.1).
  const std::uint64_t now = sys->now_of(m.pe_id);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if (spec[i].second)
      sys->spawn_sender_stream(m.pe_id, v->ptr_payload()[i], spec[i].first, now);
    else
      sys->spawn_sender_value(m.pe_id, v->ptr_payload()[i], spec[i].first, now);
  }
  return NativeAction::Done;
}

// --- process / sender spawning ---------------------------------------------------

Tso* EdenSystem::spawn_with_sender_frames(std::uint32_t pe, GlobalId f,
                                          const std::vector<Obj*>& args, Obj* root,
                                          Channel out, bool stream,
                                          std::uint64_t start_delay) {
  // Record f-applied processes for crash recovery. Root-based senders are
  // not recorded: they are either re-created by their tuple process's
  // restart (nf_tuple_split) or belong to the irreplaceable root PE.
  if (reliable_ && recording_ && root == nullptr)
    record_spawn(pe, f, args, /*is_tuple=*/false, 0, out.id, stream);
  Machine& m = *pes_.at(pe);
  Tso* t = (root != nullptr) ? m.spawn_enter(root, 0)
                             : m.spawn_apply(f, args, 0);
  // Insert the communication frames *below* the evaluation frames.
  std::vector<Frame> bottom;
  Frame send;
  send.kind = FrameKind::Native;
  send.aux = out.id;
  if (stream) {
    send.native = &EdenSystem::nf_stream_step;
    bottom.push_back(std::move(send));
  } else {
    send.native = &EdenSystem::nf_send_value;
    bottom.push_back(std::move(send));
    Frame force;
    force.kind = FrameKind::ForceDeep;
    force.obj = nullptr;
    bottom.push_back(std::move(force));
  }
  t->stack.insert(t->stack.begin(), std::make_move_iterator(bottom.begin()),
                  std::make_move_iterator(bottom.end()));
  t->start_time = start_delay;
  return t;
}

Tso* EdenSystem::spawn_process_value(std::uint32_t pe, GlobalId f,
                                     const std::vector<Obj*>& args, Channel out,
                                     std::uint64_t start_delay) {
  return spawn_with_sender_frames(pe, f, args, nullptr, out, /*stream=*/false, start_delay);
}

Tso* EdenSystem::spawn_process_stream(std::uint32_t pe, GlobalId f,
                                      const std::vector<Obj*>& args, Channel out,
                                      std::uint64_t start_delay) {
  return spawn_with_sender_frames(pe, f, args, nullptr, out, /*stream=*/true, start_delay);
}

Tso* EdenSystem::spawn_sender_value(std::uint32_t pe, Obj* root, Channel out,
                                    std::uint64_t start_delay) {
  return spawn_with_sender_frames(pe, 0, {}, root, out, /*stream=*/false, start_delay);
}

Tso* EdenSystem::spawn_sender_stream(std::uint32_t pe, Obj* root, Channel out,
                                     std::uint64_t start_delay) {
  return spawn_with_sender_frames(pe, 0, {}, root, out, /*stream=*/true, start_delay);
}

Tso* EdenSystem::spawn_tuple_with_spec(std::uint32_t pe, GlobalId f,
                                       const std::vector<Obj*>& args, std::size_t spec,
                                       std::uint64_t start_delay) {
  Machine& m = *pes_.at(pe);
  Tso* t = m.spawn_apply(f, args, 0);
  Frame split;
  split.kind = FrameKind::Native;
  split.native = &EdenSystem::nf_tuple_split;
  split.aux = spec;
  t->stack.insert(t->stack.begin(), std::move(split));
  t->start_time = start_delay;
  return t;
}

Tso* EdenSystem::spawn_process_tuple(std::uint32_t pe, GlobalId f,
                                     const std::vector<Obj*>& args,
                                     std::vector<TupleOut> outs,
                                     std::uint64_t start_delay) {
  const std::size_t spec = tuple_specs_.size();
  tuple_specs_.push_back(std::move(outs));
  if (reliable_ && recording_) record_spawn(pe, f, args, /*is_tuple=*/true, spec, 0, false);
  return spawn_tuple_with_spec(pe, f, args, spec, start_delay);
}

Tso* EdenSystem::spawn_process_pair(std::uint32_t pe, GlobalId f,
                                    const std::vector<Obj*>& args, Channel out1,
                                    bool stream1, Channel out2, bool stream2,
                                    std::uint64_t start_delay) {
  return spawn_process_tuple(pe, f, args, {{out1, stream1}, {out2, stream2}}, start_delay);
}

// ===========================================================================
// EdenSimDriver
// ===========================================================================

EdenSimDriver::EdenSimDriver(EdenSystem& sys, TraceLog* trace)
    : sys_(sys), cost_(sys.cost()), trace_(trace),
      core_time_(sys.n_cores(), 0), core_rr_(sys.n_cores(), 0), pes_(sys.n_pes()),
      last_beat_(sys.n_pes(), 0), recovered_(sys.n_pes(), false) {
  if (sys.realtime())
    throw ProgramError("this Eden system is configured for a real transport; "
                       "drive it with EdenThreadedDriver");
  sys_.set_trace(trace);
  next_hb_check_ = sys_.injector_.plan().heartbeat_interval;
}

void EdenSimDriver::charge(std::uint32_t pi, std::uint64_t cost, CapState state) {
  const std::uint32_t c = core_of(pi);
  if (trace_ != nullptr) trace_->record(pi, core_time_[c], core_time_[c] + cost, state);
  core_time_[c] += cost;
}

void EdenSimDriver::collect_pe(std::uint32_t pi, bool force_major) {
  Machine& m = sys_.pe(pi);
  const std::uint64_t copied = m.collect(force_major);
  const std::uint64_t pause = cost_.gc_fixed + copied * cost_.gc_per_word;
  charge(pi, pause, CapState::Gc);
  result_.gc_count++;
  result_.gc_pause_total += pause;
}

void EdenSimDriver::service_faults(std::uint64_t now, Tso* root) {
  (void)root;
  if (!sys_.reliable_) return;
  const FaultPlan& plan = sys_.injector_.plan();
  if (plan.crashes() && !crash_done_ && now >= plan.crash_at) {
    crash_done_ = true;
    if (plan.crash_pe >= sys_.n_pes())
      throw ProgramError("fault plan crashes a PE that does not exist");
    if (plan.crash_pe == root_pe_)
      throw ProgramError("fault plan crashes the root PE; the root process "
                         "cannot be supervised");
    sys_.kill_pe(plan.crash_pe, now);
    pes_[plan.crash_pe].active = nullptr;
  }
  if (now >= next_hb_check_) {
    next_hb_check_ = now + plan.heartbeat_interval;
    for (std::uint32_t pe = 0; pe < sys_.n_pes(); ++pe) {
      if (sys_.alive_[pe] || recovered_[pe]) continue;
      if (now - last_beat_[pe] >= plan.heartbeat_timeout) {
        recovered_[pe] = true;
        sys_.recover_pe(pe, now);
      }
    }
  }
  sys_.service_retries(now);
}

std::optional<std::uint64_t> EdenSimDriver::next_fault_event() const {
  if (!sys_.reliable_) return std::nullopt;
  const FaultPlan& plan = sys_.injector_.plan();
  std::optional<std::uint64_t> ev;
  auto consider = [&](std::uint64_t t) {
    if (!ev || t < *ev) ev = t;
  };
  if (plan.crashes() && !crash_done_) consider(plan.crash_at);
  for (std::uint32_t pe = 0; pe < sys_.n_pes(); ++pe)
    if (!sys_.alive_[pe] && !recovered_[pe]) consider(next_hb_check_);
  if (auto r = sys_.next_retry_event()) consider(*r);
  return ev;
}

void EdenSimDriver::deliver_ready(std::uint32_t pi) {
  auto& inbox = sys_.inboxes_.at(pi);
  const std::uint64_t now = core_time_[core_of(pi)];
  while (!inbox.empty() && inbox.top().deliver_at <= now) {
    // Pop before delivering: delivery can push new messages (acks, sends
    // from co-located sender threads) into this very inbox, invalidating
    // any reference into its storage.
    EdenSystem::Msg m = inbox.top();
    inbox.pop();
    sys_.deliver(m);
  }
}

EdenSimResult EdenSimDriver::run(Tso* root) {
  // The root TSO pins its PE: crashing it is unsupportable (who would
  // supervise the supervisor?), so the fault plan must pick another PE.
  root_pe_ = 0;
  for (std::uint32_t pi = 0; pi < sys_.n_pes(); ++pi)
    if (root->id < sys_.pe(pi).tso_count() && sys_.pe(pi).tso(root->id) == root)
      root_pe_ = pi;

  while (!done_ && !deadlocked_) {
    // Core with the smallest clock runs next; cores hosting only dead PEs
    // are frozen (their clocks never advance again).
    std::uint32_t core = sys_.n_cores();
    for (std::uint32_t c = 0; c < sys_.n_cores(); ++c) {
      bool has_alive = false;
      for (std::uint32_t pi = c; pi < sys_.n_pes(); pi += sys_.n_cores())
        if (sys_.alive_[pi]) has_alive = true;
      if (!has_alive) continue;
      if (core == sys_.n_cores() || core_time_[c] < core_time_[core]) core = c;
    }
    if (core == sys_.n_cores()) break;  // unreachable: the root PE never dies

    service_faults(core_time_[core], root);

    // Round-robin over this core's live PEs until one makes progress.
    std::vector<std::uint32_t> mine;
    for (std::uint32_t pi = core; pi < sys_.n_pes(); pi += sys_.n_cores())
      if (sys_.alive_[pi]) mine.push_back(pi);
    bool progressed = false;
    for (std::size_t k = 0; k < mine.size() && !progressed && !done_; ++k) {
      const std::uint32_t pi = mine[(core_rr_[core] + k) % mine.size()];
      sys_.pe_now_[pi] = core_time_[core];
      last_beat_[pi] = core_time_[core];
      deliver_ready(pi);
      if (pe_slice(pi, root)) {
        core_rr_[core] = (core_rr_[core] + static_cast<std::uint32_t>(k) + 1) %
                         static_cast<std::uint32_t>(mine.size());
        progressed = true;
      }
    }
    if (done_) break;
    if (progressed) continue;

    // Core idle: advance time (to the next message or fault event if one
    // is scheduled).
    std::uint64_t next_event = core_time_[core] + cost_.idle_poll;
    std::uint64_t min_msg = std::numeric_limits<std::uint64_t>::max();
    for (const auto& inbox : sys_.inboxes_)
      if (!inbox.empty()) min_msg = std::min(min_msg, inbox.top().deliver_at);
    const bool msgs_pending = min_msg != std::numeric_limits<std::uint64_t>::max();
    if (msgs_pending) next_event = std::max(next_event, min_msg);
    const std::optional<std::uint64_t> fault_ev = next_fault_event();
    if (fault_ev) next_event = std::min(next_event, std::max(*fault_ev, core_time_[core] + 1));

    bool blocked_threads = false;
    for (std::uint32_t pi : mine)
      if (sys_.pe(pi).cap(0).n_blocked.load(std::memory_order_relaxed) > 0)
        blocked_threads = true;
    if (trace_ != nullptr)
      for (std::uint32_t pi : mine)
        trace_->record(pi, core_time_[core], next_event,
                       blocked_threads ? CapState::Blocked : CapState::Idle);
    core_time_[core] = next_event;

    // True quiescence — no thread running or runnable on any live PE, no
    // message in flight, no fault event (crash / heartbeat verdict /
    // retransmission) scheduled — is a deadlock *now*: nothing can ever
    // wake a blocked thread again. Ask the blocked-thread analysis of
    // every live PE why.
    if (!msgs_pending && !fault_ev) {
      bool any = false;
      for (std::uint32_t pi = 0; pi < sys_.n_pes(); ++pi)
        if (sys_.alive_[pi] &&
            (pes_[pi].active != nullptr || sys_.pe(pi).work_anywhere()))
          any = true;
      if (!any) {
        deadlocked_ = true;
        for (std::uint32_t pi = 0; pi < sys_.n_pes(); ++pi) {
          if (!sys_.alive_[pi]) continue;
          DeadlockDiagnosis d = sys_.pe(pi).diagnose_deadlock();
          if (d.kind != DeadlockKind::None) {
            d.pe = pi;
            result_.diagnosis = d;
            break;
          }
        }
        if (trace_ != nullptr)
          trace_->note(root_pe_, core_time_[core], result_.diagnosis.describe());
      }
    }
  }

  result_.makespan = 0;
  for (std::uint64_t t : core_time_) result_.makespan = std::max(result_.makespan, t);
  result_.value = root->result;
  result_.deadlocked = deadlocked_;
  result_.messages = sys_.messages_sent();
  result_.faults = sys_.injector_.stats();
  result_.alive_pes = sys_.alive_pes();
  return result_;
}

bool EdenSimDriver::pe_slice(std::uint32_t pi, Tso* root) {
  Machine& m = sys_.pe(pi);
  Capability& c = m.cap(0);
  Quantum& q = pes_[pi];
  const std::uint32_t core = core_of(pi);

  if (m.heap().gc_requested()) collect_pe(pi);

  if (q.active == nullptr) {
    Tso* t = m.schedule_next(c);
    if (t != nullptr && t->start_time > core_time_[core]) {
      // Not yet instantiated (process-creation latency): requeue.
      c.push_thread(t);
      return false;
    }
    if (t == nullptr) return false;
    q.active = t;
    t->state = ThreadState::Running;
    charge(pi, cost_.context_switch + (t->steps == 0 ? cost_.thread_create : 0),
           CapState::Sync);
    return true;
  }

  Tso* const t = q.active;
  const std::uint64_t start = core_time_[core];
  SimStepCharge hook(m, c, cost_, /*barrier=*/false);
  const QuantumEnd end = m.run_quantum(c, q, root, cost_.sim_slice_steps, hook);
  if (trace_ != nullptr) trace_->record(pi, start, start + hook.elapsed, CapState::Run);
  core_time_[core] = start + hook.elapsed;

  switch (end) {
    case QuantumEnd::Slice:
      return true;
    case QuantumEnd::NeedGc:
      // Distributed heap: collect immediately and locally — no barrier,
      // no other PE is disturbed (§VI.A).
      collect_pe(pi, q.force_major());
      return true;
    case QuantumEnd::Killed:
      result_.heap_overflows++;
      sys_.injector_.stats().heap_overflows++;
      sys_.note(pi, core_time_[core], "heap overflow: unwound tso " + std::to_string(t->id));
      if (t == root) {
        done_ = true;
        return true;
      }
      break;
    case QuantumEnd::RootDone:
      done_ = true;
      return true;
    case QuantumEnd::Released:
    case QuantumEnd::Expired:
      break;
  }
  charge(pi, cost_.context_switch, CapState::Sync);
  return true;
}

}  // namespace ph
