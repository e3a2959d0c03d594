#include "heap/heap.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "rts/schedtest.hpp"
#include "rts/wsdeque.hpp"

namespace ph {
namespace {
// Allocation granularity: every object reserves at least one payload word
// so that it can be overwritten by a forwarding pointer during GC (nullary
// constructors would otherwise have no room).
inline std::size_t alloc_words(std::uint32_t payload_words) {
  return 1 + std::max<std::uint32_t>(1, payload_words);
}
inline std::size_t alloc_words(const Obj* o) { return alloc_words(o->size); }

constexpr std::size_t kStaticBlockWords = 64 * 1024;

inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point a,
                                std::chrono::steady_clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
}  // namespace

/// One parallel collection's shared team state: the from-space region
/// list, the root-shard work list, one gray-object deque per worker slot,
/// and the termination-detection counters. Owned by the leader's stack
/// frame in collect_parallel(); helpers hold a reference only between
/// joining and exiting, which the leader's exit barrier brackets.
struct GcShared {
  Heap& h;
  bool major;
  struct Region {
    const Word* lo;
    const Word* hi;
  };
  std::vector<Region> from;  // major: semispace + overflow slabs being vacated

  std::vector<Heap::RootWalker> shards;
  std::atomic<std::size_t> next_shard{0};

  std::uint32_t n_workers = 1;
  std::vector<std::unique_ptr<WsDeque<Obj*>>> deques;
  std::vector<std::unique_ptr<Gc>> workers;
  std::vector<GcWorkerSpan> spans;  // one slot per worker, single writer each
  std::chrono::steady_clock::time_point wall0;

  /// Workers currently in the working phase. A worker only produces gray
  /// work (deque pushes) or consumes shards while registered here, so
  /// busy == 0 combined with work_visible() == false is a stable "all
  /// reachable objects copied and scanned" state.
  std::atomic<std::int32_t> busy{1};
  std::atomic<bool> team_done{false};

  GcShared(Heap& heap, bool maj) : h(heap), major(maj) {}

  bool work_visible() const {
    if (next_shard.load(std::memory_order_acquire) < shards.size()) return true;
    for (const auto& d : deques)
      if (!d->empty()) return true;
    return false;
  }
};

Gc::~Gc() = default;

Heap::Heap(const HeapConfig& cfg) : cfg_(cfg) {
  if (cfg_.n_nurseries == 0) throw HeapError("heap needs at least one nursery");
  if (cfg_.nursery_words < 64) throw HeapError("nursery too small");
  gc_threads_ = std::max<std::uint32_t>(1, cfg_.gc_threads);
  cfg_.gc_block_words = std::max<std::size_t>(16, cfg_.gc_block_words);
  nursery_slab_words_ = cfg_.nursery_words * cfg_.n_nurseries;
  nursery_base_ = new Word[nursery_slab_words_];
  nurseries_.resize(cfg_.n_nurseries);
  remsets_.resize(cfg_.n_nurseries);
  for (std::uint32_t i = 0; i < cfg_.n_nurseries; ++i) {
    Word* start = nursery_base_ + static_cast<std::size_t>(i) * cfg_.nursery_words;
    nurseries_[i] = Nursery{start, start, start + cfg_.nursery_words, 0};
  }
  old_capacity_ = std::max(cfg_.old_words, nursery_slab_words_ * 2);
  old_base_ = new Word[old_capacity_];
  old_ptr_ = old_base_;
  old_end_ = old_base_ + old_capacity_;
  tail_base_ = old_base_;
}

Heap::~Heap() {
  delete[] nursery_base_;
  delete[] old_base_;
  for (const OverflowSlab& s : old_extra_) delete[] s.base;
  for (const StaticBlock& b : static_blocks_) delete[] b.base;
}

Obj* Heap::bump(Word*& ptr, Word* end, ObjKind kind, std::uint16_t tag,
                std::uint32_t payload_words) {
  const std::size_t need = alloc_words(payload_words);
  if (ptr + need > end) return nullptr;
  Obj* o = reinterpret_cast<Obj*>(ptr);
  ptr += need;
  o->kind = kind;
  o->flags = 0;
  o->tag = tag;
  o->size = payload_words;
  return o;
}

Obj* Heap::alloc(std::uint32_t nid, ObjKind kind, std::uint16_t tag,
                 std::uint32_t payload_words) {
  Nursery& n = nurseries_.at(nid);
  // Objects too large for a (fresh) nursery go straight to the old
  // generation ("large object space"); they may hold young pointers, so
  // they enter the remembered set.
  if (alloc_words(payload_words) > cfg_.nursery_words / 2) {
    Obj* o = nullptr;
    {
      std::lock_guard<std::mutex> lock(old_mutex_);
      o = bump(old_ptr_, old_end_, kind, tag, payload_words);
    }
    if (o == nullptr) {
      // Old generation full: ask for a collection (which majors — and
      // grows the semispace — when the old gen is tight) and let the
      // caller retry, exactly like a nursery failure.
      request_gc();
      return nullptr;
    }
    remsets_[nid].push_back(o);
    n.allocated += alloc_words(payload_words);
    return o;
  }
  Obj* o = bump(n.ptr, n.end, kind, tag, payload_words);
  // No shared counter here: words_allocated is derived from the per-nursery
  // single-writer `allocated` fields when stats() is read (was a data race).
  if (o != nullptr) n.allocated += alloc_words(payload_words);
  return o;
}

Obj* Heap::alloc_old(ObjKind kind, std::uint16_t tag, std::uint32_t payload_words) {
  std::lock_guard<std::mutex> lock(old_mutex_);
  Obj* o = bump(old_ptr_, old_end_, kind, tag, payload_words);
  if (o == nullptr)
    throw HeapError("old generation exhausted during large allocation; "
                    "increase HeapConfig::old_words");
  return o;
}

void Heap::remember(std::uint32_t nid, Obj* updated) {
  if (!in_nursery(updated) && !updated->is_static()) remsets_.at(nid).push_back(updated);
}

Obj* Heap::alloc_static(ObjKind kind, std::uint16_t tag, std::uint32_t payload_words) {
  std::lock_guard<std::mutex> lock(static_mutex_);
  const std::size_t need = alloc_words(payload_words);
  if (static_ptr_ == nullptr || static_ptr_ + need > static_end_) {
    const std::size_t block = std::max(kStaticBlockWords, need);
    static_blocks_.push_back(StaticBlock{new Word[block], block});
    static_ptr_ = static_blocks_.back().base;
    static_end_ = static_ptr_ + block;
  }
  Obj* o = bump(static_ptr_, static_end_, kind, tag, payload_words);
  o->flags |= kFlagStatic;
  return o;
}

bool Heap::in_static(const Obj* p) const {
  const Word* w = reinterpret_cast<const Word*>(p);
  for (const StaticBlock& b : static_blocks_)
    if (w >= b.base && w < b.base + b.words) return true;
  return false;
}

bool Heap::in_live_old(const Obj* p) const {
  const Word* w = reinterpret_cast<const Word*>(p);
  if (w >= tail_base_ && w < old_ptr_) return true;
  // Binary search the address-sorted closed segments for the last one
  // starting at or below w.
  std::size_t lo = 0, hi = old_segments_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (std::less_equal<const Word*>()(old_segments_[mid].start, w))
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo == 0) return false;
  const OldSegment& s = old_segments_[lo - 1];
  return w >= s.start && w < s.filled;
}

void Heap::walk_objects(const ObjVisitor& visit) {
  auto scan = [&](Word* p, const Word* limit, const char* region, std::uint32_t idx) {
    while (p < limit) {
      Obj* o = reinterpret_cast<Obj*>(p);
      visit(o, region, idx, limit);
      p += alloc_words(o);
    }
  };
  for (const OldSegment& s : old_segments_) scan(s.start, s.filled, "old", 0);
  scan(tail_base_, old_ptr_, "old", 0);
  for (std::uint32_t i = 0; i < nurseries_.size(); ++i)
    scan(nurseries_[i].start, nurseries_[i].ptr, "nursery", i);
}

std::size_t Heap::nursery_used(std::uint32_t nid) const {
  const Nursery& n = nurseries_.at(nid);
  return static_cast<std::size_t>(n.ptr - n.start);
}

void Heap::reset_nurseries() {
  for (Nursery& n : nurseries_) n.ptr = n.start;
}

HeapCensus Heap::census() const {
  HeapCensus c;
  auto scan = [&](const Word* p, const Word* end) {
    while (p < end) {
      const Obj* o = reinterpret_cast<const Obj*>(p);
      c.objects_by_kind[static_cast<std::size_t>(o->kind)]++;
      c.objects++;
      p += alloc_words(o);
    }
  };
  for (const OldSegment& s : old_segments_) scan(s.start, s.filled);
  scan(tail_base_, old_ptr_);
  for (const Nursery& n : nurseries_) {
    scan(n.start, n.ptr);
    c.nursery_used_words += static_cast<std::size_t>(n.ptr - n.start);
  }
  c.old_used_words = old_used();
  return c;
}

std::string HeapCensus::summary() const {
  static const char* kKindNames[8] = {"Int",       "Con", "Thunk",       "Ind",
                                      "BlackHole", "Pap", "Placeholder", "Fwd"};
  std::string s = std::to_string(objects) + " objects (old " +
                  std::to_string(old_used_words) + "w, nursery " +
                  std::to_string(nursery_used_words) + "w):";
  for (std::size_t k = 0; k < objects_by_kind.size(); ++k) {
    if (objects_by_kind[k] == 0) continue;
    s += " ";
    s += kKindNames[k];
    s += "=";
    s += std::to_string(objects_by_kind[k]);
  }
  return s;
}

// --- sequential collector ---------------------------------------------------
// Byte-for-byte the collector this repository always had (contiguous
// to-space bump allocation, one scan queue). It also accepts an old
// generation that earlier team collections left block-structured.

bool Gc::wants(const Obj* p) const {
  if (p->is_static()) return false;
  if (h_.in_nursery(p)) return true;
  if (!major_) return false;  // old objects move only on a major collection
  // Major: evacuate every old object outside the fresh to-space (the old
  // semispace and any overflow slabs); one already copied must not be
  // copied again (slots may be walked twice, e.g. when two roots alias or
  // a remembered object is revisited).
  const Word* w = reinterpret_cast<const Word*>(p);
  return w < h_.old_base_ || w >= h_.old_end_;
}

Obj* Gc::copy(Obj* p) {
  assert(p->kind != ObjKind::Fwd);
  const std::uint32_t payload = p->size;
  Obj* to = h_.bump(h_.old_ptr_, h_.old_end_, p->kind, p->tag, payload);
  if (to == nullptr)
    throw HeapError("to-space exhausted during collection; increase HeapConfig::old_words");
  std::memcpy(to->payload(), p->payload(),
              static_cast<std::size_t>(payload) * sizeof(Word));
  words_copied_ += alloc_words(payload);
  p->kind = ObjKind::Fwd;
  p->payload()[0] = reinterpret_cast<Word>(to);
  if (to->ptrs_last() > to->ptrs_first()) scan_queue_.push_back(to);
  return to;
}

void Gc::evacuate(Obj*& slot) {
  if (sh_ != nullptr) {
    evacuate_par(slot);
    return;
  }
  Obj* p = slot;
  assert(p != nullptr);
  // Short-circuit indirection chains while evacuating (GHC does the same):
  // the indirection cell itself is garbage once its target is reachable.
  while (p->kind == ObjKind::Ind) p = p->ind_target();
  while (p->kind == ObjKind::Fwd) p = reinterpret_cast<Obj*>(p->payload()[0]);
  if (!wants(p)) {
    slot = p;
    return;
  }
  slot = copy(p);
}

std::uint64_t Heap::collect(const RootWalker& walk_roots, bool force_major) {
  gc_requested_.store(false, std::memory_order_release);
  const auto wall0 = std::chrono::steady_clock::now();

  // Decide generation. A minor GC promotes into the current old space, so
  // there must be room for (worst case) every live nursery word.
  const std::size_t old_used_now = old_used();
  bool major = force_major ||
               old_used_now > static_cast<std::size_t>(
                                  static_cast<double>(old_capacity_) * cfg_.major_threshold) ||
               old_used_now + nursery_slab_words_ + 1024 > old_capacity_;

  Word* from_base = old_base_;
  std::vector<OverflowSlab> from_slabs;
  if (major) {
    from_slabs.swap(old_extra_);
    old_segments_.clear();
    // Fresh to-space, sized for everything that could survive.
    std::size_t need = old_used_now + nursery_slab_words_ + 1024;
    std::size_t cap = std::max(old_capacity_, cfg_.old_words);
    while (static_cast<double>(need) >
           static_cast<double>(cap) * cfg_.major_threshold)
      cap = cap * 2;
    old_base_ = new Word[cap];
    old_capacity_ = cap;
    old_ptr_ = old_base_;
    old_end_ = old_base_ + cap;
    tail_base_ = old_base_;
  }

  Gc gc(*this, major);
  walk_roots(gc);

  // Remembered set: old-generation slots that were mutated to point at
  // young data (thunk updates, placeholder fills, large-object fields).
  // Irrelevant on a major GC where everything is traced anyway.
  if (!major) {
    for (auto& rs : remsets_) {
      for (Obj* o : rs) {
        if (o->kind == ObjKind::Fwd) continue;  // unreachable from roots is fine; keep fields sane
        for (std::uint32_t i = o->ptrs_first(); i < o->ptrs_last(); ++i)
          gc.evacuate(o->ptr_payload()[i]);
      }
    }
  }
  for (auto& rs : remsets_) rs.clear();

  while (!gc.scan_queue_.empty()) {
    Obj* o = gc.scan_queue_.back();
    gc.scan_queue_.pop_back();
    for (std::uint32_t i = o->ptrs_first(); i < o->ptrs_last(); ++i)
      gc.evacuate(o->ptr_payload()[i]);
  }

  if (major) {
    delete[] from_base;
    for (const OverflowSlab& s : from_slabs) delete[] s.base;
    stats_.major_collections++;
    stats_.words_copied_major += gc.words_copied_;
  } else {
    stats_.minor_collections++;
    stats_.words_copied_minor += gc.words_copied_;
  }
  stats_.gc_elapsed_ns += elapsed_ns(wall0, std::chrono::steady_clock::now());
  last_live_words_ = gc.words_copied_;
  last_spans_.clear();
  reset_nurseries();
  return gc.words_copied_;
}

// --- parallel collector -----------------------------------------------------

bool Gc::wants_par(const Obj* p, std::uint8_t flags) const {
  if (flags & kFlagStatic) return false;
  if (h_.in_nursery(p)) return true;
  if (!major_) return false;
  const Word* w = reinterpret_cast<const Word*>(p);
  for (const GcShared::Region& r : sh_->from)
    if (w >= r.lo && w < r.hi) return true;
  return false;
}

Word* Heap::gc_carve(std::size_t words) {
  std::lock_guard<std::mutex> lock(old_mutex_);
  if (old_ptr_ + words <= old_end_) {
    Word* p = old_ptr_;
    old_ptr_ += words;
    return p;
  }
  if (!old_extra_.empty()) {
    OverflowSlab& s = old_extra_.back();
    if (s.ptr + words <= s.base + s.words) {
      Word* p = s.ptr;
      s.ptr += words;
      return p;
    }
  }
  // To-space exhausted mid-collection: grow the old generation with an
  // overflow slab (geometric, so a badly undersized heap converges in a
  // few grabs). The next major collection evacuates and frees these.
  const std::size_t slab = std::max(
      words, std::max(old_capacity_ / 4,
                      cfg_.gc_block_words * static_cast<std::size_t>(gc_threads_) * 8));
  old_extra_.push_back(OverflowSlab{new Word[slab], slab, nullptr});
  OverflowSlab& s = old_extra_.back();
  s.ptr = s.base + words;
  stats_.tospace_overflows++;
  return s.base;
}

void Gc::retire_block() {
  if (blk_start_ != nullptr && blk_ptr_ > blk_start_)
    segs_.emplace_back(blk_start_, blk_ptr_);
  blk_start_ = blk_ptr_ = blk_end_ = nullptr;
}

Obj* Gc::to_alloc(ObjKind kind, std::uint16_t tag, std::uint32_t payload_words) {
  const std::size_t need = alloc_words(payload_words);
  const std::size_t block = h_.cfg_.gc_block_words;
  Word* p;
  if (need > block / 2) {
    // Large object: a dedicated exact-fit block, closed immediately.
    p = h_.gc_carve(need);
    segs_.emplace_back(p, p + need);
  } else {
    if (blk_ptr_ == nullptr || blk_ptr_ + need > blk_end_) {
      retire_block();  // the hole left behind is < block/2 words
      blk_start_ = blk_ptr_ = h_.gc_carve(block);
      blk_end_ = blk_start_ + block;
    }
    p = blk_ptr_;
    blk_ptr_ += need;
  }
  Obj* o = reinterpret_cast<Obj*>(p);
  o->kind = kind;
  o->flags = 0;
  o->tag = tag;
  o->size = payload_words;
  return o;
}

void Gc::evacuate_par(Obj*& slot) {
  // `slot` may itself be a heap word: a remembered-set shard evacuates an
  // old Ind's target field while another worker short-circuits through the
  // same Ind. All slot stores are therefore release (publishing the copy
  // to whoever reads the pointer through the aliased word) and the Ind
  // target read below is the matching acquire.
  std::atomic_ref<Obj*> aslot(slot);
  Obj* p = aslot.load(std::memory_order_relaxed);
  assert(p != nullptr);
  for (;;) {
    // The header word is the arbitration point: another worker may CAS it
    // busy or release-publish a Fwd at any moment. Acquire pairs with that
    // publish so the forwarding word (and the copied payload) is visible.
    const Word h = header_word(p).load(std::memory_order_acquire);
    const Obj hd = unpack_header(h);
    if (hd.kind == ObjKind::Ind) {
      // Indirections are short-circuited, never claimed — but their target
      // word is not stable: a root shard may be rewriting it concurrently
      // (see above).
      p = std::atomic_ref<Obj*>(p->ptr_payload()[0]).load(std::memory_order_acquire);
      continue;
    }
    if (hd.flags & kFlagGcBusy) {
      // Another worker owns the copy; its Fwd header is imminent. The
      // yield point lets the schedule explorer serialise this window
      // (and park the loser while the winner publishes).
      sched_hook::point(SchedPoint::GcEvacSpin, reinterpret_cast<std::uint64_t>(p));
      continue;
    }
    if (hd.kind == ObjKind::Fwd) {
      aslot.store(reinterpret_cast<Obj*>(p->payload()[0]), std::memory_order_release);
      return;
    }
    if (!wants_par(p, hd.flags)) {
      aslot.store(p, std::memory_order_release);
      return;
    }
    // Claim the object by CASing its header to the busy form. Exactly one
    // racing worker succeeds; the rest loop back, observe busy, then the
    // published Fwd — so all agree on a single copy.
    sched_hook::point(SchedPoint::GcEvacClaim, reinterpret_cast<std::uint64_t>(p));
    Word expected = h;
    if (!header_word(p).compare_exchange_strong(
            expected, pack_header(hd.kind, hd.flags | kFlagGcBusy, hd.tag, hd.size),
            std::memory_order_acq_rel, std::memory_order_acquire))
      continue;
    Obj* to = to_alloc(hd.kind, hd.tag, hd.size);
    std::memcpy(to->payload(), p->payload(),
                static_cast<std::size_t>(hd.size) * sizeof(Word));
    p->payload()[0] = reinterpret_cast<Word>(to);
    sched_hook::point(SchedPoint::GcEvacPublish, reinterpret_cast<std::uint64_t>(p));
    // Release: whoever acquires the Fwd header also sees the forwarding
    // word and the payload copy written above.
    header_word(p).store(pack_header(ObjKind::Fwd, 0, hd.tag, hd.size),
                         std::memory_order_release);
    words_copied_ += alloc_words(hd.size);
    if (to->ptrs_last() > to->ptrs_first()) deque_->push(to);
    aslot.store(to, std::memory_order_release);
    return;
  }
}

void Gc::scavenge(Obj* o) {
  for (std::uint32_t i = o->ptrs_first(); i < o->ptrs_last(); ++i)
    evacuate_par(o->ptr_payload()[i]);
}

void Heap::gc_worker_loop(GcShared& sh, std::uint32_t worker) {
  Gc& g = *sh.workers[worker];
  WsDeque<Obj*>& dq = *sh.deques[worker];
  const auto t0 = std::chrono::steady_clock::now();
  bool done = false;
  while (!done) {
    bool did = false;
    // 1. Drain own gray objects (LIFO: depth-first, cache-warm).
    while (auto o = dq.pop()) {
      g.scavenge(*o);
      did = true;
    }
    // 2. Claim one root shard from the shared cursor.
    for (;;) {
      std::size_t i = sh.next_shard.load(std::memory_order_acquire);
      if (i >= sh.shards.size()) break;
      if (sh.next_shard.compare_exchange_weak(i, i + 1, std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        sh.shards[i](g);
        did = true;
        break;
      }
    }
    // 3. Steal gray work from another worker's deque.
    if (!did) {
      for (std::uint32_t k = 1; k < sh.n_workers; ++k) {
        const std::uint32_t v = (worker + k) % sh.n_workers;
        if (auto o = sh.deques[v]->steal()) {
          g.scavenge(*o);
          did = true;
          break;
        }
      }
    }
    if (did) continue;
    // Termination detection: deregister from the busy count, then either
    // see new work appear (some still-busy worker produced it — re-register
    // and go back) or see every worker idle with nothing visible: since
    // work is only produced by busy workers, that state is stable — done.
    sh.busy.fetch_sub(1, std::memory_order_acq_rel);
    for (;;) {
      sched_hook::point(SchedPoint::GcIdle, worker);
      if (sh.team_done.load(std::memory_order_acquire)) {
        done = true;
        break;
      }
      if (sh.work_visible()) {
        sh.busy.fetch_add(1, std::memory_order_acq_rel);
        break;
      }
      if (sh.busy.load(std::memory_order_acquire) == 0) {
        sh.team_done.store(true, std::memory_order_release);
        done = true;
        break;
      }
      std::this_thread::yield();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  GcWorkerSpan& sp = sh.spans[worker];
  sp.worker = worker;
  sp.start_ns = elapsed_ns(sh.wall0, t0);
  sp.end_ns = std::max<std::uint64_t>(sp.start_ns + 1, elapsed_ns(sh.wall0, t1));
  sp.words_copied = g.words_copied_;
}

bool Heap::join_session(std::unique_lock<std::mutex>& lk) {
  GcShared& sh = *session_;
  if (gc_joined_ >= gc_threads_ || sh.team_done.load(std::memory_order_acquire))
    return false;
  const std::uint32_t wid = gc_joined_++;
  // Register busy before releasing the lock: the termination barrier must
  // never observe zero busy workers while this joiner is on its way in.
  sh.busy.fetch_add(1, std::memory_order_acq_rel);
  gccv_.notify_all();  // the leader may be waiting out the assembly window
  lk.unlock();
  gc_worker_loop(sh, wid);
  lk.lock();
  gc_exited_.fetch_add(1, std::memory_order_release);
  return true;
}

bool Heap::try_help_collect() {
  if (gc_threads_ <= 1) return false;
  std::unique_lock<std::mutex> lk(gcs_mutex_);
  if (!gc_open_ || session_ == nullptr) return false;
  return join_session(lk);
}

std::uint64_t Heap::collect_parallel(std::vector<RootWalker> shards, bool force_major) {
  gc_requested_.store(false, std::memory_order_release);
  const auto wall0 = std::chrono::steady_clock::now();

  const std::size_t old_used_now = old_used();
  const bool major =
      force_major ||
      old_used_now > static_cast<std::size_t>(
                         static_cast<double>(old_capacity_) * cfg_.major_threshold) ||
      old_used_now + nursery_slab_words_ + 1024 > old_capacity_;

  GcShared sh(*this, major);
  sh.wall0 = wall0;
  std::vector<Word*> from_free;
  if (major) {
    // Everything currently backing the old generation becomes from-space.
    sh.from.push_back({old_base_, old_end_});
    from_free.push_back(old_base_);
    for (const OverflowSlab& s : old_extra_) {
      sh.from.push_back({s.base, s.base + s.words});
      from_free.push_back(s.base);
    }
    old_extra_.clear();
    old_segments_.clear();
    // Fresh to-space, sized for everything that could survive plus block-
    // allocator headroom (each worker may strand a partial block).
    std::size_t need = old_used_now + nursery_slab_words_ + 1024 +
                       static_cast<std::size_t>(gc_threads_) * cfg_.gc_block_words;
    std::size_t cap = std::max(old_capacity_, cfg_.old_words);
    while (static_cast<double>(need) >
           static_cast<double>(cap) * cfg_.major_threshold)
      cap = cap * 2;
    old_base_ = new Word[cap];
    old_capacity_ = cap;
    old_ptr_ = old_base_;
    old_end_ = old_base_ + cap;
    tail_base_ = old_base_;
  } else {
    // Close the mutator's allocation tail as a live segment; to-space
    // blocks carve above it.
    if (old_ptr_ > tail_base_) old_segments_.push_back({tail_base_, old_ptr_});
    // One shard scans all remembered sets: an old object updated from two
    // capabilities sits in two sets, and two workers scavenging the same
    // object would race on its slots.
    shards.push_back([this](Gc& g) {
      for (auto& rs : remsets_) {
        for (Obj* o : rs) {
          if (o->kind == ObjKind::Fwd) continue;  // keep fields sane either way
          for (std::uint32_t i = o->ptrs_first(); i < o->ptrs_last(); ++i)
            g.evacuate(o->ptr_payload()[i]);
        }
      }
    });
  }

  sh.shards = std::move(shards);
  sh.n_workers = gc_threads_;
  sh.spans.resize(sh.n_workers);
  sh.deques.reserve(sh.n_workers);
  sh.workers.reserve(sh.n_workers);
  for (std::uint32_t w = 0; w < sh.n_workers; ++w) {
    sh.deques.emplace_back(new WsDeque<Obj*>(256));
    sh.workers.emplace_back(new Gc(*this, major, sh, w, *sh.deques[w]));
  }

  // Open the session. The leader takes slot 0; the remaining slots are
  // claimed by threads polling try_help_collect() — the threaded driver's
  // parked capabilities.
  //
  // Gang assembly (GHC 6.10 gang-synchronises its gc_threads the same
  // way): give the team a bounded window to claim slots before the leader
  // starts copying, or on a busy host the leader would finish a small
  // heap alone every time. Bounded, so a missing helper (fewer pollers
  // than slots) costs 2ms, never a hang; a full team releases the leader
  // immediately.
  {
    std::unique_lock<std::mutex> lk(gcs_mutex_);
    session_ = &sh;
    gc_open_ = true;
    gc_joined_ = 1;
    gc_exited_.store(0, std::memory_order_relaxed);
    gccv_.wait_for(lk, std::chrono::milliseconds(2),
                   [&] { return gc_joined_ >= gc_threads_; });
  }

  std::uint32_t joined = 1;
  auto close_session = [&] {
    std::lock_guard<std::mutex> lk(gcs_mutex_);
    gc_open_ = false;
    session_ = nullptr;
    joined = gc_joined_;
  };
  try {
    gc_worker_loop(sh, 0);
  } catch (...) {
    // Close and wait the team out before propagating, or helpers would
    // reference a dead session.
    close_session();
    sh.team_done.store(true, std::memory_order_release);
    while (gc_exited_.load(std::memory_order_acquire) < joined - 1)
      std::this_thread::yield();
    throw;
  }
  close_session();
  // Helpers may still be taking their last trip through the idle loop;
  // their blocks and counters are merged only once all have exited. Spin
  // through a yield point so a serialised schedule can run them to done.
  while (gc_exited_.load(std::memory_order_acquire) < joined - 1) {
    sched_hook::point(SchedPoint::GcIdle, ~std::uint64_t{0});
    std::this_thread::yield();
  }

  // Merge per-worker results — every field below had a single writer (its
  // worker) until this point, mirroring the words_allocated discipline.
  std::uint64_t copied = 0, max_worker = 0, worker_ns = 0;
  last_spans_.clear();
  for (std::uint32_t w = 0; w < sh.n_workers; ++w) {
    Gc& g = *sh.workers[w];
    g.retire_block();
    for (const auto& s : g.segs_) old_segments_.push_back(OldSegment{s.first, s.second});
    copied += g.words_copied_;
    max_worker = std::max(max_worker, g.words_copied_);
    const GcWorkerSpan& sp = sh.spans[w];
    if (sp.end_ns != 0) {  // this slot actually ran
      last_spans_.push_back(sp);
      worker_ns += sp.end_ns - sp.start_ns;
    }
  }
  std::sort(old_segments_.begin(), old_segments_.end(),
            [](const OldSegment& a, const OldSegment& b) {
              return std::less<const Word*>()(a.start, b.start);
            });
  tail_base_ = old_ptr_;  // mutator large allocations resume above the blocks

  for (auto& rs : remsets_) rs.clear();
  if (major) {
    for (Word* f : from_free) delete[] f;
    stats_.major_collections++;
    stats_.words_copied_major += copied;
  } else {
    stats_.minor_collections++;
    stats_.words_copied_minor += copied;
  }
  stats_.parallel_collections++;
  stats_.gc_elapsed_ns += elapsed_ns(wall0, std::chrono::steady_clock::now());
  stats_.gc_worker_ns += worker_ns;
  stats_.last_gc_workers = joined;
  stats_.last_gc_balance =
      max_worker > 0 ? static_cast<double>(copied) / static_cast<double>(max_worker) : 1.0;
  last_live_words_ = copied;
  reset_nurseries();
  return copied;
}

std::uint64_t Heap::collect(std::vector<RootWalker> root_shards, bool force_major) {
  if (gc_threads_ <= 1) {
    return collect(
        [&root_shards](Gc& gc) {
          for (const RootWalker& shard : root_shards) shard(gc);
        },
        force_major);
  }
  return collect_parallel(std::move(root_shards), force_major);
}

}  // namespace ph
