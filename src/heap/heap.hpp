// Heap: per-capability allocation areas ("nurseries") over a shared
// two-generation store, with a stop-the-world copying collector — the
// structure of GHC 6.x's storage manager that the paper's §IV.A.1
// optimisations target.
//
// * Each capability bump-allocates from its own nursery; when any nursery
//   fills, a collection is requested and all capabilities must reach a
//   safe point (the GC barrier, whose promptness is a paper-level policy).
// * Minor GC evacuates live nursery objects into the old generation.
//   The only mutations in the runtime are thunk/placeholder updates, so a
//   remembered set of updated old-generation slots suffices for minor GCs.
// * Major GC copies the whole live graph into a fresh semispace when the
//   old generation passes a fill threshold.
//
// The collection itself runs either sequentially (the paper's baseline —
// GHC used a sequential STW collector) or on a team of up to gc_threads
// workers (the GHC 6.10-era parallel GC shape, DESIGN.md §10):
// block-structured to-space with per-worker allocation blocks refilled
// from a shared carve cursor, forwarding pointers installed by CAS on the
// header word, per-worker Chase–Lev deques of gray objects with work
// stealing, and a busy-counter termination barrier. The heap never starts
// a thread: the thread calling collect(shards) leads, and the rest of the
// team is whoever joins through try_help_collect() — the threaded
// driver's parked capabilities. Every other collection is sequential.
// Either way, callers guarantee all mutators are stopped.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "heap/object.hpp"

namespace ph {

template <typename T>
class WsDeque;  // rts/wsdeque.hpp — gray-object scavenge deques

struct HeapError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct HeapConfig {
  std::uint32_t n_nurseries = 1;
  /// Allocation-area size per capability, in words. GHC's default 0.5MB
  /// corresponds to 65536 words; the paper's "big allocation area" runs
  /// enlarge this substantially.
  std::size_t nursery_words = 64 * 1024;
  /// Initial old-generation semispace size in words (grows on demand).
  std::size_t old_words = 4 * 1024 * 1024;
  /// Trigger a major GC when old-gen usage exceeds this fraction.
  double major_threshold = 0.8;
  /// GC worker team size for collect(shards). 1 = the sequential
  /// collector, bit-for-bit the behaviour this repository always had; >1
  /// runs the parallel block-structured collector with up to this many
  /// workers. Machine couples this to -N via RtsConfig::gc_threads
  /// (--gc-threads=N).
  std::uint32_t gc_threads = 1;
  /// To-space allocation-block size in words (parallel collector only).
  /// Small values force frequent refills — the block-allocator regression
  /// tests exploit this; the default matches GHC's 4k blocks.
  std::size_t gc_block_words = 4096;
};

/// A population count of the heap at one instant — attached to
/// RtsInternalError so a consistency failure reports *what* the heap held,
/// not just that something broke.
struct HeapCensus {
  std::array<std::uint64_t, 8> objects_by_kind{};  // indexed by ObjKind
  std::uint64_t objects = 0;
  std::size_t old_used_words = 0;
  std::size_t nursery_used_words = 0;
  std::string summary() const;
};

struct GcStats {
  std::uint64_t minor_collections = 0;
  std::uint64_t major_collections = 0;
  std::uint64_t words_copied_minor = 0;
  std::uint64_t words_copied_major = 0;
  std::uint64_t words_allocated = 0;  // mutator allocation, cumulative
  // --- parallel collector ---------------------------------------------------
  std::uint64_t parallel_collections = 0;  // collections run by a worker team
  std::uint64_t tospace_overflows = 0;     // overflow slabs grabbed mid-GC
  std::uint64_t gc_elapsed_ns = 0;         // wall time inside collect(), cumulative
  std::uint64_t gc_worker_ns = 0;          // summed per-worker busy time, cumulative
  /// Copy-work balance of the last collection: total words copied divided
  /// by the words copied by the busiest worker — the parallel speedup the
  /// collection would achieve on one core per worker (on a single-core
  /// host wall time cannot show it; see DESIGN.md §10).
  double last_gc_balance = 1.0;
  std::uint32_t last_gc_workers = 1;  // workers that joined the last team
};

/// One worker's busy interval in the last parallel collection. Times are
/// nanoseconds relative to the start of the collection.
struct GcWorkerSpan {
  std::uint32_t worker = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t words_copied = 0;
};

class Heap;
struct GcShared;  // heap.cpp: one collection's team state

/// Handle passed to the root-walking callback during a collection. Roots
/// call evacuate() on every slot holding a heap pointer. Each parallel
/// worker owns one Gc; root shards are claimed whole by one worker, so a
/// given slot is only ever evacuated through one Gc (slot *values* may
/// alias across shards — the header CAS arbitrates those).
class Gc {
 public:
  void evacuate(Obj*& slot);
  ~Gc();  // public: team workers are held by unique_ptr in GcShared

 private:
  friend class Heap;
  Gc(Heap& h, bool major) : h_(h), major_(major) {}  // sequential
  Gc(Heap& h, bool major, GcShared& sh, std::uint32_t worker,
     WsDeque<Obj*>& deque)
      : h_(h), major_(major), sh_(&sh), worker_(worker), deque_(&deque) {}

  // Sequential path — unchanged baseline.
  Obj* copy(Obj* p);
  bool wants(const Obj* p) const;

  // Parallel path.
  void evacuate_par(Obj*& slot);
  bool wants_par(const Obj* p, std::uint8_t flags) const;
  Obj* to_alloc(ObjKind kind, std::uint16_t tag, std::uint32_t payload_words);
  void retire_block();
  void scavenge(Obj* o);

  Heap& h_;
  bool major_;
  std::vector<Obj*> scan_queue_;
  std::uint64_t words_copied_ = 0;  // single writer: this worker; summed by the leader

  GcShared* sh_ = nullptr;
  std::uint32_t worker_ = 0;
  WsDeque<Obj*>* deque_ = nullptr;
  // Private to-space allocation block (refilled from the shared carve
  // cursor under Heap::old_mutex_).
  Word* blk_start_ = nullptr;
  Word* blk_ptr_ = nullptr;
  Word* blk_end_ = nullptr;
  // Closed to-space chunks this worker filled; merged into
  // Heap::old_segments_ by the leader after the team disbands.
  std::vector<std::pair<Word*, Word*>> segs_;
};

class Heap {
 public:
  explicit Heap(const HeapConfig& cfg);
  ~Heap();
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // --- mutator interface (one nursery per capability) --------------------
  /// Allocates an object with `payload_words` payload words from nursery
  /// `nid`. Returns nullptr if the space is full (caller must request a
  /// GC and retry). Objects too large for a nursery go to the old gen;
  /// when that is full too, a GC is requested and nullptr returned (a
  /// major collection grows the old generation on demand).
  Obj* alloc(std::uint32_t nid, ObjKind kind, std::uint16_t tag, std::uint32_t payload_words);

  /// Records that `old_obj` (in the old generation) was updated to point
  /// at young data. Must be called after every thunk/placeholder update
  /// whose target may be old. Cheap no-op for nursery objects.
  void remember(std::uint32_t nid, Obj* updated);

  bool gc_requested() const { return gc_requested_.load(std::memory_order_acquire); }
  void request_gc() { gc_requested_.store(true, std::memory_order_release); }

  /// Runs a sequential collection (minor, or major if the old gen is past
  /// threshold or `force_major`). All mutators must be stopped.
  /// `walk_roots` is invoked once and must evacuate every root slot.
  /// Returns words copied.
  using RootWalker = std::function<void(Gc&)>;
  std::uint64_t collect(const RootWalker& walk_roots, bool force_major = false);

  /// Team flavour: each shard walks a disjoint set of root *slots* and is
  /// claimed whole by one GC worker (Machine partitions per capability:
  /// run queue + TSO stacks stripe, spark slots, CAF cells). With
  /// gc_threads > 1 the calling thread leads a parallel collection that
  /// up to gc_threads - 1 helpers join through try_help_collect(); with
  /// gc_threads == 1 the shards simply run in order on the sequential
  /// collector.
  std::uint64_t collect(std::vector<RootWalker> root_shards, bool force_major = false);

  /// Joins the currently open parallel collection as an extra worker, if
  /// one is open and a team slot is free; returns after working until the
  /// team's termination barrier. Returns false immediately when there is
  /// nothing to join — callers (the threaded driver's parked capabilities)
  /// poll this while their barrier epoch is unchanged, so a collection
  /// that opens and closes between two polls is simply missed, never
  /// waited on. Never blocks on the session opening.
  bool try_help_collect();

  std::uint32_t gc_threads() const { return gc_threads_; }

  /// Per-worker busy spans of the last collection (empty after a
  /// sequential one). Call at rest, like stats().
  const std::vector<GcWorkerSpan>& last_gc_spans() const { return last_spans_; }

  // --- statics ------------------------------------------------------------
  /// Allocates an immortal, immovable object (small-int cache, static
  /// function values, shared nullary constructors).
  Obj* alloc_static(ObjKind kind, std::uint16_t tag, std::uint32_t payload_words);

  /// Allocates directly in the old generation (large objects; CAF cells).
  /// The object is movable and collected normally. Callers creating it
  /// from mutator context must register it in a remembered set if it may
  /// point at young data.
  Obj* alloc_old(ObjKind kind, std::uint16_t tag, std::uint32_t payload_words);

  // --- introspection -------------------------------------------------------
  /// Walks the old generation and the nurseries counting objects by kind.
  /// Mutators must be stopped (same precondition as collect()).
  HeapCensus census() const;

  /// words_allocated is summed from the per-nursery counters on demand:
  /// each nursery has a single writer (its owning capability), so the
  /// mutator allocation fast path never touches shared mutable state.
  /// The parallel collector keeps the same discipline: words copied live
  /// in per-worker Gc fields and are summed by the leader at the end of
  /// the collection. Like census(), call at rest.
  const GcStats& stats() const {
    stats_.words_allocated = 0;
    for (const Nursery& n : nurseries_) stats_.words_allocated += n.allocated;
    return stats_;
  }
  std::size_t nursery_words() const { return cfg_.nursery_words; }
  std::size_t nursery_used(std::uint32_t nid) const;
  std::size_t old_used() const {
    std::size_t u = static_cast<std::size_t>(old_ptr_ - old_base_);
    for (const OverflowSlab& s : old_extra_) u += static_cast<std::size_t>(s.ptr - s.base);
    return u;
  }
  std::uint64_t live_words_after_last_gc() const { return last_live_words_; }
  /// Overflow slabs currently backing the old generation (to-space growth
  /// that happened mid-GC; freed by the next major collection).
  std::size_t old_overflow_regions() const { return old_extra_.size(); }

  bool in_old(const Obj* p) const {
    auto w = reinterpret_cast<const Word*>(p);
    if (w >= old_base_ && w < old_end_) return true;
    for (const OverflowSlab& s : old_extra_)
      if (w >= s.base && w < s.base + s.words) return true;
    return false;
  }

  /// Tighter than in_old: true only if `p` lies inside a *live* old-gen
  /// chunk — a closed to-space segment or the open allocation tail — not
  /// in a block-allocator hole or beyond the frontier. Binary search over
  /// the sorted segment list; for auditing (-DS), not hot paths.
  bool in_live_old(const Obj* p) const;

  bool in_nursery(const Obj* p) const {
    auto w = reinterpret_cast<const Word*>(p);
    return w >= nursery_base_ && w < nursery_base_ + nursery_slab_words_;
  }

  /// The nursery holding `p`, or kNoNursery for old-generation and static
  /// objects. A pure function of the address (the nursery slab never
  /// moves), cheap enough for Machine::lock_obj's bank choice.
  static constexpr std::uint32_t kNoNursery = ~std::uint32_t{0};
  std::uint32_t nursery_of(const Obj* p) const {
    const std::uintptr_t off = (reinterpret_cast<std::uintptr_t>(p) -
                                reinterpret_cast<std::uintptr_t>(nursery_base_)) /
                               sizeof(Word);
    if (off >= nursery_slab_words_) return kNoNursery;
    return static_cast<std::uint32_t>(off / cfg_.nursery_words);
  }

  /// True if `p` points into the static arena (immortal objects). Linear
  /// in the number of static blocks — fine for auditing, not for hot paths
  /// (mutators use the kFlagStatic header bit instead).
  bool in_static(const Obj* p) const;

  /// Walks every allocated object in the old generation and the live
  /// nursery prefixes. The old generation is enumerated as its live
  /// chunks (closed to-space segments in address order, then the open
  /// allocation tail); block-allocator holes are skipped. `visit`
  /// receives the object, a region label ("old" / "nursery"), the region
  /// index (nursery id; 0 for old), and the chunk's allocation limit — so
  /// an auditor can validate the header *before* the walk advances by its
  /// footprint (a corrupt size must make `visit` throw, or the walk would
  /// stride into garbage). Mutators must be stopped.
  using ObjVisitor =
      std::function<void(Obj* o, const char* region, std::uint32_t region_index,
                         const Word* limit)>;
  void walk_objects(const ObjVisitor& visit);

 private:
  friend class Gc;
  friend struct GcShared;
  Obj* bump(Word*& ptr, Word* end, ObjKind kind, std::uint16_t tag, std::uint32_t payload_words);
  void reset_nurseries();

  // Parallel collector.
  std::uint64_t collect_parallel(std::vector<RootWalker> shards, bool force_major);
  /// Carves a to-space chunk of `words` from the shared cursor (main
  /// semispace first, then the newest overflow slab, then a fresh
  /// overflow slab — the mid-GC old-gen growth path). Thread-safe.
  Word* gc_carve(std::size_t words);
  void gc_worker_loop(GcShared& sh, std::uint32_t worker);
  /// Claims a team slot in the open session (gcs_mutex_ held on entry and
  /// exit; released while working). Returns false if no slot was free.
  bool join_session(std::unique_lock<std::mutex>& lk);

  HeapConfig cfg_;

  // One contiguous slab holds all nurseries => a single range check
  // classifies "young" pointers.
  Word* nursery_base_ = nullptr;
  std::size_t nursery_slab_words_ = 0;
  // Each nursery's bump pointer and counter are written on every
  // allocation by its capability: a cache line of its own keeps that
  // traffic off the neighbouring capability's line.
  struct alignas(64) Nursery {
    Word* ptr = nullptr;
    Word* start = nullptr;
    Word* end = nullptr;
    std::uint64_t allocated = 0;  // lifetime words allocated via this nursery
  };
  std::vector<Nursery> nurseries_;

  // Old generation: semispace that is bump-allocated (promotion target and
  // large-object space) and copied wholesale on major GC.
  Word* old_base_ = nullptr;
  Word* old_ptr_ = nullptr;
  Word* old_end_ = nullptr;
  std::size_t old_capacity_ = 0;
  std::mutex old_mutex_;  // large-object allocation; GC block refills

  // Block-structured to-space bookkeeping (parallel collector). Until a
  // team collection runs, old_segments_ stays empty and tail_base_ ==
  // old_base_, making every accessor below degenerate to the contiguous
  // layout; a sequential major collection restores that layout.
  struct OldSegment {
    Word* start;
    Word* filled;
  };
  std::vector<OldSegment> old_segments_;  // closed live chunks, address-sorted
  Word* tail_base_ = nullptr;             // open tail: [tail_base_, old_ptr_)
  // Overflow slabs: to-space growth when the semispace runs out mid-GC.
  // GC-only — mutators never allocate here; the next major collection
  // evacuates and frees them.
  struct OverflowSlab {
    Word* base;
    std::size_t words;
    Word* ptr;  // carve cursor
  };
  std::vector<OverflowSlab> old_extra_;

  std::vector<std::vector<Obj*>> remsets_;  // per nursery/capability

  struct StaticBlock {
    Word* base;
    std::size_t words;
  };
  std::vector<StaticBlock> static_blocks_;
  Word* static_ptr_ = nullptr;
  Word* static_end_ = nullptr;
  std::mutex static_mutex_;

  std::atomic<bool> gc_requested_{false};
  mutable GcStats stats_;  // words_allocated refreshed by stats()
  std::uint64_t last_live_words_ = 0;

  // --- GC worker-team session ------------------------------------------------
  std::uint32_t gc_threads_ = 1;
  std::mutex gcs_mutex_;  // session open/close, joins
  std::condition_variable gccv_;
  GcShared* session_ = nullptr;  // non-null while a team is assembled
  bool gc_open_ = false;         // accepting joiners
  std::uint32_t gc_joined_ = 0;  // team slots claimed (leader = slot 0)
  std::atomic<std::uint32_t> gc_exited_{0};  // helpers done with this session
  std::vector<GcWorkerSpan> last_spans_;
};

}  // namespace ph
