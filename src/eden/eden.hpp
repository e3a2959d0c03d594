// EdenSystem: the distributed-heap parallel runtime (paper §III.B).
//
// An Eden system is N independent Machines ("PEs" — one GHC runtime per
// processing element, each with its own heap and its own garbage
// collector), linked by a message-passing layer that plays the role of
// PVM/MPI-on-shared-memory middleware. There is no shared heap: values
// cross PE boundaries only by being reduced to normal form, packed
// (src/eden/pack) and shipped; the receiver synchronises through
// *placeholders* in its heap that arriving messages overwrite.
//
// Communication follows Eden's Trans semantics:
//   * plain values are sent in a single message after deep forcing;
//   * top-level lists are *streamed* element by element;
//   * tuple components are evaluated and sent by independent threads.
//
// Process instantiation, channel plumbing and the sender threads are
// implemented here on top of the Machine's native frames, mirroring how
// real Eden builds its coordination constructs on runtime primitives
// ("best seen as a systems programming task", §II.A.1).
//
// The system is driven by EdenSimDriver under the same virtual-time cost
// model as the shared-heap simulation; PEs may outnumber cores (the
// paper's 9- and 17-PE matmul runs on 8 cores), in which case a core
// time-slices its PEs like PVM virtual machines.
// Fault tolerance (when EdenConfig::fault is enabled): channels carry
// per-channel sequence numbers with acknowledgement, timeout-driven
// retransmission with exponential backoff and receiver-side reordering /
// deduplication, so arbitrary message loss, duplication and delay are
// survived. Every process instantiation is recorded (function, argument
// channels, packed constant arguments); when the heartbeat supervisor
// declares a PE dead its processes are re-instantiated on a surviving PE
// with their input channels re-pointed and replayed from the senders'
// logs. Replay is sound because Eden processes are pure: the same
// (channel, sequence-number) always denotes the same value.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "eden/pack.hpp"
#include "net/channel.hpp"
#include "rts/config.hpp"
#include "rts/fault.hpp"
#include "rts/machine.hpp"
#include "trace/trace.hpp"

namespace ph {

namespace net {
class Transport;
}

struct EdenConfig {
  std::uint32_t n_pes = 2;
  std::uint32_t n_cores = 2;  // physical cores the PEs are multiplexed onto
  RtsConfig pe_rts;           // per-PE runtime config (n_caps forced to 1)
  CostModel cost;
  /// Fault schedule; when enabled() the reliable-channel protocol and the
  /// crash supervisor are switched on (plain mode is byte-for-byte the
  /// baseline middleware, so fault-free figures are unaffected).
  FaultPlan fault;
  /// Which middleware carries messages: Sim is the virtual-time model
  /// driven by EdenSimDriver; Shm/Tcp are real transports (src/net)
  /// driven by EdenThreadedDriver against wall-clock time. pe_rts's
  /// --eden-rt / --eden-transport flags override Sim here.
  EdenTransportKind transport = EdenTransportKind::Sim;
};

class EdenSystem {
 public:
  EdenSystem(const Program& prog, EdenConfig cfg);
  ~EdenSystem();

  std::uint32_t n_pes() const { return static_cast<std::uint32_t>(pes_.size()); }
  std::uint32_t n_cores() const { return cfg_.n_cores; }
  Machine& pe(std::uint32_t i) { return *pes_.at(i); }
  const EdenConfig& config() const { return cfg_; }
  const CostModel& cost() const { return cfg_.cost; }

  // --- channels -------------------------------------------------------------
  /// A one-to-one channel delivering into `pe`'s heap.
  struct Channel {
    std::uint64_t id = ~0ull;
    std::uint32_t pe = 0;
  };
  Channel new_channel(std::uint32_t pe);
  /// The placeholder a consumer on the channel's PE should reference.
  /// (For stream channels this is the placeholder for the whole list.)
  Obj* placeholder_of(Channel ch) const;

  // --- sends (called from native sender frames, or host setup) ----------------
  void send_value(std::uint32_t src_pe, std::uint64_t channel, Obj* nf_root);
  void send_stream_elem(std::uint32_t src_pe, std::uint64_t channel, Obj* nf_elem);
  void send_stream_close(std::uint32_t src_pe, std::uint64_t channel);

  // --- processes & communication threads (topology setup) ----------------------
  /// Thread on `pe` evaluating `f args...` and sending the deeply forced
  /// result as a single value to `out`. `start_delay` models process-
  /// instantiation latency (charged from virtual time 0).
  Tso* spawn_process_value(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                           Channel out, std::uint64_t start_delay);
  /// Same, but the result (a list) is streamed element by element.
  Tso* spawn_process_stream(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                            Channel out, std::uint64_t start_delay);
  /// Result is a tuple (constructor with outs.size() fields); component i
  /// goes to outs[i].first, streamed when outs[i].second is true — each by
  /// its own sender thread (Eden's tuple semantics).
  using TupleOut = std::pair<Channel, bool>;
  Tso* spawn_process_tuple(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                           std::vector<TupleOut> outs, std::uint64_t start_delay);
  /// Convenience for the common 2-tuple case.
  Tso* spawn_process_pair(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                          Channel out1, bool stream1, Channel out2, bool stream2,
                          std::uint64_t start_delay);
  /// Sender thread on `pe` forcing `root` (already in pe's heap) to NF and
  /// sending it to `out` — how a parent ships inputs to its children.
  Tso* spawn_sender_value(std::uint32_t pe, Obj* root, Channel out,
                          std::uint64_t start_delay);
  Tso* spawn_sender_stream(std::uint32_t pe, Obj* root, Channel out,
                           std::uint64_t start_delay);

  // --- statistics ---------------------------------------------------------------
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t words_sent() const { return words_sent_; }

  // --- fault tolerance -----------------------------------------------------------
  FaultInjector& injector() { return injector_; }
  const FaultInjector& injector() const { return injector_; }
  bool pe_alive(std::uint32_t pe) const { return alive_.at(pe); }
  std::uint32_t alive_pes() const;
  /// Trace log for fault/recovery annotations (rows are PE ids).
  void set_trace(TraceLog* t) { trace_ = t; }

  // --- real-time mode (EdenThreadedDriver over a src/net Transport) ------------
  /// True when the config selects a real transport: sends route through
  /// `transport()` and the sim-only machinery (virtual clocks, crash
  /// supervision, the stateful alloc-fault hook) is disabled. The channel
  /// table must be frozen (all new_channel calls done) before the driver
  /// runs: PE threads index it concurrently.
  bool realtime() const { return realtime_; }
  net::Transport* transport() const { return transport_; }

 private:
  friend class EdenSimDriver;
  friend class EdenThreadedDriver;
  friend class EdenProcDriver;

  using MsgKind = net::MsgKind;

  /// A simulated in-flight message: the wire-level DataMsg plus the
  /// virtual-time envelope the priority-queue inboxes order by.
  struct Msg {
    std::uint64_t deliver_at = 0;
    std::uint64_t seq = 0;  // FIFO tie-break (per-channel ordering)
    net::DataMsg data;
    bool operator>(const Msg& o) const {
      return deliver_at != o.deliver_at ? deliver_at > o.deliver_at : seq > o.seq;
    }
  };

  struct ChannelState {
    std::uint32_t pe = 0;
    Obj* placeholder = nullptr;  // nullptr once closed/filled
    std::uint64_t last_deliver_at = 0;  // FIFO: later sends never overtake
    /// Reliable-channel protocol state (fault mode only): seq/ack/retry
    /// on the sender half, dedup/reorder/epoch on the receiver half. The
    /// same endpoint runs under both drivers.
    net::ChannelEndpoint ep;
  };

  /// Per-PE state owned by that PE's worker thread in real-time mode.
  /// `unacked` is the only cross-thread field (the quiescence supervisor
  /// reads it); everything else is thread-local by the field-partition
  /// contract in net/channel.hpp.
  struct RtPe {
    std::vector<std::uint64_t> produced;  // channels this PE has sent on
    std::atomic<std::uint64_t> unacked{0};
    FaultStats fs;  // merged into the result by the driver
  };

  /// How one argument of a recorded process can be rebuilt on another PE:
  /// either "the placeholder of channel N" or a packed constant graph.
  struct ArgSpec {
    bool is_channel = false;
    std::uint64_t channel = 0;
    Packet packet;
  };

  /// Everything needed to re-instantiate a process after its PE crashes.
  struct ProcessRecord {
    std::uint32_t pe = 0;
    GlobalId f = 0;
    std::vector<ArgSpec> args;
    bool recoverable = true;  // false when an argument could not be captured
    bool is_tuple = false;
    std::size_t tuple_spec = 0;    // into tuple_specs_ (when is_tuple)
    std::uint64_t out_channel = 0; // single-output processes
    bool stream = false;
  };

  void enqueue(std::uint32_t src_pe, std::uint64_t channel, MsgKind kind, Packet p);
  void deliver(const Msg& m);
  /// Applies a (deduplicated, in-order) data message to its placeholder.
  /// In real-time mode this runs on the consuming PE's thread.
  void apply_data(std::uint64_t channel, MsgKind kind, const Packet& packet);
  /// One transmission attempt over the (possibly lossy) link.
  void transmit(std::uint64_t channel, MsgKind kind, const Packet& p,
                std::uint64_t cseq, std::uint64_t epoch, std::uint32_t src_pe,
                std::uint32_t attempt, std::uint64_t send_time);
  void send_ack(const net::DataMsg& data);
  /// Retransmits every overdue unacknowledged record (fault mode).
  void service_retries(std::uint64_t now);
  /// Earliest pending retransmission deadline, if any.
  std::optional<std::uint64_t> next_retry_event() const;

  // Real-time mode (each called on PE `pi`'s worker thread).
  /// Routes one send through the transport, logging it when reliable.
  void rt_send(std::uint32_t src_pe, std::uint64_t channel, MsgKind kind, Packet p);
  /// Drains the transport's deliverable messages for PE `pi` (data →
  /// endpoint receive → placeholder; acks → settle the sender log).
  /// Returns true when anything was delivered.
  bool rt_drain(std::uint32_t pi);
  /// Retransmits overdue records on every channel PE `pi` produces.
  void rt_service_retries(std::uint32_t pi);
  /// How long idle PE `pi` may park: until its next retransmission or
  /// held-back delivery is due, at most `cap_us`.
  std::uint64_t rt_idle_park_us(std::uint32_t pi, std::uint64_t cap_us) const;
  /// Microseconds since the driver epoch — the real-time "now" (1 virtual
  /// cycle of the fault plan's retry/delay units = 1µs of wall clock).
  std::uint64_t rt_now() const {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - rt_epoch_).count());
  }
  /// Wires the driver's transport in and stamps the clock epoch. Called
  /// by EdenThreadedDriver::run before the PE threads launch.
  void attach_rt(net::Transport* t);
  /// Real-time crash recovery (process-per-PE mode). Called on PE `pi`
  /// when the supervisor announces that PE `restarted` is running a fresh
  /// incarnation, with `epochs[pe]` = restart count of every PE. Aligns
  /// every channel's epoch with its *consumer's* incarnation (stale acks
  /// a dead consumer left on the wire must not settle replayed records),
  /// then replays this PE's whole send log towards the restarted PE —
  /// the recomputing replacement needs every input again. Sound because
  /// processes are pure: (channel, cseq) always denotes the same value.
  void rt_restart_notify(std::uint32_t pi, std::uint32_t restarted,
                         const std::vector<std::uint64_t>& epochs);

  // Crash supervision.
  void kill_pe(std::uint32_t pe, std::uint64_t now);
  void recover_pe(std::uint32_t pe, std::uint64_t now);
  void repoint_and_replay(std::uint64_t channel, std::uint32_t survivor,
                          std::uint64_t now);
  void record_spawn(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                    bool is_tuple, std::size_t tuple_spec, std::uint64_t out_channel,
                    bool stream);
  bool outputs_complete(const ProcessRecord& rec) const;
  void note(std::uint32_t pe, std::uint64_t time, std::string text);

  /// Virtual "now" of the core hosting `pe` (maintained by the driver).
  std::uint64_t now_of(std::uint32_t pe) const { return pe_now_.at(pe); }

  Tso* spawn_with_sender_frames(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                                Obj* root, Channel out, bool stream,
                                std::uint64_t start_delay);
  Tso* spawn_tuple_with_spec(std::uint32_t pe, GlobalId f, const std::vector<Obj*>& args,
                             std::size_t spec, std::uint64_t start_delay);

  // Native frame handlers.
  static NativeAction nf_send_value(Machine&, Capability&, Tso&, std::size_t, Obj*);
  static NativeAction nf_stream_step(Machine&, Capability&, Tso&, std::size_t, Obj*);
  static NativeAction nf_stream_after_head(Machine&, Capability&, Tso&, std::size_t, Obj*);
  static NativeAction nf_tuple_split(Machine&, Capability&, Tso&, std::size_t, Obj*);

  const Program& prog_;
  EdenConfig cfg_;
  std::vector<std::unique_ptr<Machine>> pes_;
  std::vector<ChannelState> channels_;
  std::vector<std::vector<TupleOut>> tuple_specs_;  // frame.aux indexes here
  /// Per-destination-PE message queues, ordered by delivery time.
  std::vector<std::priority_queue<Msg, std::vector<Msg>, std::greater<Msg>>> inboxes_;
  std::vector<std::uint64_t> pe_now_;
  std::uint64_t msg_seq_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t words_sent_ = 0;

  // Fault tolerance.
  FaultInjector injector_;
  bool reliable_ = false;   // cfg_.fault.enabled(): reliable-channel protocol on
  bool recording_ = true;   // off while respawning (restart must not re-record)
  std::vector<bool> alive_;
  std::vector<ProcessRecord> procs_;
  TraceLog* trace_ = nullptr;

  // Real-time mode.
  bool realtime_ = false;
  net::Transport* transport_ = nullptr;  // owned by EdenThreadedDriver
  std::chrono::steady_clock::time_point rt_epoch_;
  std::vector<std::unique_ptr<RtPe>> rt_;
  /// Supervision control plane (process-per-PE mode): rt_drain hands
  /// Heartbeat/Ctrl frames here instead of the channel table — their
  /// `channel` field carries a ctrl opcode, not a channel id.
  std::function<void(const net::DataMsg&)> rt_ctrl_;
};

struct EdenSimResult {
  std::uint64_t makespan = 0;
  Obj* value = nullptr;
  bool deadlocked = false;
  DeadlockDiagnosis diagnosis;       // why (and on which PE), when deadlocked
  std::uint64_t gc_count = 0;        // summed over PEs (all independent!)
  std::uint64_t gc_pause_total = 0;  // summed pause time (never a barrier)
  std::uint64_t messages = 0;
  FaultStats faults;                 // what the injector did / recovery redid
  std::uint32_t alive_pes = 0;       // PEs still alive at the end of the run
  std::uint64_t heap_overflows = 0;  // TSOs killed by the overflow escalation
};

/// Deterministic virtual-time driver for an Eden system. Cores advance
/// under one global virtual clock; each core round-robins the PEs mapped
/// to it (PE k lives on core k mod n_cores). Every PE collects its own
/// heap independently, with no cross-PE synchronisation — the structural
/// advantage the paper's §VI.A attributes to the distributed-heap model.
class EdenSimDriver {
 public:
  explicit EdenSimDriver(EdenSystem& sys, TraceLog* trace = nullptr);

  /// Runs until `root` (a TSO on some PE, usually 0) finishes.
  EdenSimResult run(Tso* root);

 private:
  /// Runs one slice of PE `pi` on its core; returns true if it made
  /// progress (false = the PE is idle).
  bool pe_slice(std::uint32_t pi, Tso* root);
  void deliver_ready(std::uint32_t pi);
  void collect_pe(std::uint32_t pi, bool force_major = false);
  /// Fires due fault-plan events at virtual time `now`: the scheduled PE
  /// crash, heartbeat-based death detection (→ recovery) and overdue
  /// retransmissions.
  void service_faults(std::uint64_t now, Tso* root);
  /// Earliest pending fault event (crash, heartbeat check, retry), if any.
  std::optional<std::uint64_t> next_fault_event() const;
  std::uint32_t core_of(std::uint32_t pi) const { return pi % sys_.n_cores(); }
  void charge(std::uint32_t pi, std::uint64_t cost, CapState state);

  EdenSystem& sys_;
  CostModel cost_;
  TraceLog* trace_;
  std::vector<std::uint64_t> core_time_;
  std::vector<std::uint32_t> core_rr_;  // next PE offset per core
  std::vector<Quantum> pes_;  // each PE's running thread
  bool done_ = false;
  bool deadlocked_ = false;
  EdenSimResult result_;
  // Crash supervision (fault mode).
  std::uint32_t root_pe_ = 0;
  bool crash_done_ = false;
  std::vector<std::uint64_t> last_beat_;  // last slice offer per PE
  std::vector<bool> recovered_;           // dead PEs already handled
  std::uint64_t next_hb_check_ = 0;
};

}  // namespace ph
