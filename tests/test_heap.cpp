// Storage manager: allocation, minor/major collection, remembered sets,
// indirection short-circuiting, statics, nursery exhaustion.
#include <gtest/gtest.h>

#include <vector>

#include "heap/heap.hpp"

namespace ph {
namespace {

HeapConfig small_heap(std::uint32_t nurseries = 1, std::size_t nursery_words = 1024) {
  HeapConfig c;
  c.n_nurseries = nurseries;
  c.nursery_words = nursery_words;
  c.old_words = 64 * 1024;
  return c;
}

Obj* alloc_int(Heap& h, std::uint32_t nid, std::int64_t v) {
  Obj* o = h.alloc(nid, ObjKind::Int, 0, 1);
  if (o != nullptr) o->payload()[0] = static_cast<Word>(v);
  return o;
}

Obj* alloc_cons(Heap& h, std::uint32_t nid, Obj* head, Obj* tail) {
  Obj* o = h.alloc(nid, ObjKind::Con, 1, 2);
  if (o != nullptr) {
    o->ptr_payload()[0] = head;
    o->ptr_payload()[1] = tail;
  }
  return o;
}

TEST(Heap, BumpAllocationAndExhaustion) {
  Heap h(small_heap());
  std::size_t count = 0;
  while (h.alloc(0, ObjKind::Int, 0, 1) != nullptr) count++;
  // Each Int costs 2 words (header + 1 payload): the nursery must fill
  // close to capacity.
  EXPECT_GE(count, 1024 / 2 - 2);
  EXPECT_LE(h.nursery_used(0), 1024u);
}

TEST(Heap, MinorCollectionPreservesGraphAndDropsGarbage) {
  Heap h(small_heap());
  Obj* a = alloc_int(h, 0, 7);
  Obj* b = alloc_int(h, 0, 8);
  Obj* cell = alloc_cons(h, 0, a, b);
  for (int i = 0; i < 50; ++i) alloc_int(h, 0, i);  // garbage

  std::vector<Obj*> roots{cell};
  const std::uint64_t copied = h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  cell = roots[0];
  EXPECT_EQ(cell->kind, ObjKind::Con);
  EXPECT_EQ(cell->ptr_payload()[0]->int_value(), 7);
  EXPECT_EQ(cell->ptr_payload()[1]->int_value(), 8);
  EXPECT_FALSE(h.in_nursery(cell));
  // Only the cons cell and its two ints survive: 3+2+2 words.
  EXPECT_LE(copied, 8u);
  EXPECT_EQ(h.stats().minor_collections, 1u);
}

TEST(Heap, SharedStructureStaysShared) {
  Heap h(small_heap());
  Obj* shared = alloc_int(h, 0, 42);
  Obj* c1 = alloc_cons(h, 0, shared, shared);
  std::vector<Obj*> roots{c1};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  Obj* after = roots[0];
  EXPECT_EQ(after->ptr_payload()[0], after->ptr_payload()[1]);  // still one object
}

TEST(Heap, CyclesSurviveCollection) {
  Heap h(small_heap());
  // Two cons cells pointing at each other.
  Obj* x = alloc_cons(h, 0, alloc_int(h, 0, 1), nullptr);
  Obj* y = alloc_cons(h, 0, alloc_int(h, 0, 2), x);
  x->ptr_payload()[1] = y;
  std::vector<Obj*> roots{x};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  Obj* nx = roots[0];
  Obj* ny = nx->ptr_payload()[1];
  EXPECT_EQ(ny->ptr_payload()[1], nx);
  EXPECT_EQ(nx->ptr_payload()[0]->int_value(), 1);
  EXPECT_EQ(ny->ptr_payload()[0]->int_value(), 2);
}

TEST(Heap, IndirectionsAreShortCircuited) {
  Heap h(small_heap());
  Obj* v = alloc_int(h, 0, 9);
  Obj* ind = h.alloc(0, ObjKind::Ind, 0, 1);
  ind->ptr_payload()[0] = v;
  std::vector<Obj*> roots{ind};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  EXPECT_EQ(roots[0]->kind, ObjKind::Int);  // root now points directly at the value
  EXPECT_EQ(roots[0]->int_value(), 9);
}

TEST(Heap, RememberedSetCatchesOldToYoung) {
  Heap h(small_heap());
  // Promote a thunk-like object to the old generation...
  Obj* oldthunk = h.alloc(0, ObjKind::Thunk, 0, 1);
  oldthunk->payload()[0] = 5;  // fake ExprId
  std::vector<Obj*> roots{oldthunk};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  oldthunk = roots[0];
  ASSERT_FALSE(h.in_nursery(oldthunk));
  // ...then update it to point at a young value, as thunk update does.
  Obj* young = alloc_int(h, 0, 77);
  oldthunk->kind = ObjKind::Ind;
  oldthunk->ptr_payload()[0] = young;
  h.remember(0, oldthunk);
  // Minor GC with NO root for the young object other than the remset.
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  EXPECT_EQ(follow(roots[0])->int_value(), 77);
}

TEST(Heap, NullaryConstructorsSurviveViaPadding) {
  Heap h(small_heap());
  Obj* nil = h.alloc(0, ObjKind::Con, 0, 0);
  Obj* cell = alloc_cons(h, 0, alloc_int(h, 0, 1), nil);
  std::vector<Obj*> roots{cell};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  Obj* tail = roots[0]->ptr_payload()[1];
  EXPECT_EQ(tail->kind, ObjKind::Con);
  EXPECT_EQ(tail->tag, 0);
  EXPECT_EQ(tail->size, 0u);
}

TEST(Heap, StaticsNeverMove) {
  Heap h(small_heap());
  Obj* s = h.alloc_static(ObjKind::Int, 0, 1);
  s->payload()[0] = 5;
  Obj* cell = alloc_cons(h, 0, s, s);
  std::vector<Obj*> roots{cell};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  EXPECT_EQ(roots[0]->ptr_payload()[0], s);
  // Force a major collection too.
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  }, /*force_major=*/true);
  EXPECT_EQ(roots[0]->ptr_payload()[0], s);
  EXPECT_EQ(h.stats().major_collections, 1u);
}

TEST(Heap, MajorCollectionCompactsOldGeneration) {
  Heap h(small_heap());
  std::vector<Obj*> roots;
  // Fill the old gen with garbage via repeated promotions.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 100; ++i) alloc_int(h, 0, i);
    Obj* keep = alloc_int(h, 0, round);
    roots.assign(1, keep);
    h.collect([&](Gc& gc) {
      for (Obj*& r : roots) gc.evacuate(r);
    });
  }
  const std::size_t used_before = h.old_used();
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  }, /*force_major=*/true);
  EXPECT_LT(h.old_used(), used_before);
  EXPECT_EQ(follow(roots[0])->int_value(), 19);
}

TEST(Heap, LargeObjectsGoToOldGeneration) {
  Heap h(small_heap(1, 1024));
  Obj* big = h.alloc(0, ObjKind::Con, 3, 900);  // > nursery/2
  ASSERT_NE(big, nullptr);
  EXPECT_FALSE(h.in_nursery(big));
  Obj* young = alloc_int(h, 0, 41);
  ASSERT_NE(young, nullptr);
  for (std::uint32_t i = 0; i < 900; ++i) big->ptr_payload()[i] = young;
  std::vector<Obj*> roots{big};
  h.collect([&](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  // The remembered-set registration from alloc() keeps the young field
  // alive even though nothing else roots it.
  EXPECT_EQ(roots[0]->ptr_payload()[0]->int_value(), 41);
  EXPECT_EQ(roots[0]->ptr_payload()[899]->int_value(), 41);
}

TEST(Heap, GrowsOldGenerationOnDemand) {
  HeapConfig cfg = small_heap(1, 4096);
  cfg.old_words = 16 * 1024;
  Heap h(cfg);
  // Keep a growing live list so the old gen must expand.
  std::vector<Obj*> roots{nullptr};
  Obj* list = h.alloc(0, ObjKind::Con, 0, 0);
  roots[0] = list;
  for (int i = 0; i < 30000; ++i) {
    Obj* v = alloc_int(h, 0, i);
    if (v == nullptr) {
      h.collect([&](Gc& gc) {
        for (Obj*& r : roots) gc.evacuate(r);
      });
      v = alloc_int(h, 0, i);
      ASSERT_NE(v, nullptr);
    }
    Obj* cell = alloc_cons(h, 0, v, roots[0]);
    if (cell == nullptr) {
      std::vector<Obj*> tmp{v};
      h.collect([&](Gc& gc) {
        for (Obj*& r : roots) gc.evacuate(r);
        for (Obj*& r : tmp) gc.evacuate(r);
      });
      cell = alloc_cons(h, 0, tmp[0], roots[0]);
      ASSERT_NE(cell, nullptr);
    }
    roots[0] = cell;
  }
  // 30000 cells * 5 words > initial 16k: growth must have happened.
  std::size_t n = 0;
  for (Obj* p = follow(roots[0]); p->tag == 1; p = follow(p->ptr_payload()[1])) n++;
  EXPECT_EQ(n, 30000u);
}

// --- parallel-collector block-allocator regressions --------------------------
// A team collection led by the test thread with no helper joining: one
// worker still copies through the block-structured to-space.

std::uint64_t team_collect(Heap& h, std::vector<Obj*>& roots, bool force_major = false) {
  std::vector<Heap::RootWalker> shards;
  shards.push_back([&roots](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  });
  return h.collect(std::move(shards), force_major);
}

TEST(HeapBlocks, RefillAtExactBlockBoundary) {
  // gc_block_words = 16 (the clamp minimum); Ints with 7 payload words cost
  // exactly 8, so two fill a block with blk_ptr_ == blk_end_ — the refill
  // guard must fire on equality, not only on overflow.
  HeapConfig cfg = small_heap();
  cfg.gc_threads = 2;
  cfg.gc_block_words = 16;
  Heap h(cfg);
  std::vector<Obj*> roots;
  for (std::int64_t i = 0; i < 20; ++i) {
    Obj* o = h.alloc(0, ObjKind::Int, 0, 7);  // raw payload, no scan
    ASSERT_NE(o, nullptr);
    o->payload()[0] = static_cast<Word>(i);
    roots.push_back(o);
  }
  team_collect(h, roots);
  EXPECT_EQ(h.stats().parallel_collections, 1u);
  for (std::int64_t i = 0; i < 20; ++i) {
    EXPECT_FALSE(h.in_nursery(roots[static_cast<std::size_t>(i)]));
    EXPECT_TRUE(h.in_live_old(roots[static_cast<std::size_t>(i)]));
    EXPECT_EQ(roots[static_cast<std::size_t>(i)]->int_value(), i);
  }
  EXPECT_EQ(h.census().objects_by_kind[static_cast<std::size_t>(ObjKind::Int)], 20u);
}

TEST(HeapBlocks, BlockHolesAreNotLiveAndWalkSkipsThem) {
  // Ints with 6 payload words cost 7: two per 16-word block leave a 2-word
  // hole at each block end. The object walk must skip holes and in_live_old
  // must reject pointers into them.
  HeapConfig cfg = small_heap();
  cfg.gc_threads = 2;
  cfg.gc_block_words = 16;
  Heap h(cfg);
  std::vector<Obj*> roots;
  for (std::int64_t i = 0; i < 25; ++i) {
    Obj* o = h.alloc(0, ObjKind::Int, 0, 6);
    ASSERT_NE(o, nullptr);
    o->payload()[0] = static_cast<Word>(i);
    roots.push_back(o);
  }
  team_collect(h, roots);
  std::size_t walked = 0;
  std::int64_t sum = 0;
  h.walk_objects([&](Obj* o, const char*, std::uint32_t, const Word*) {
    ASSERT_EQ(o->kind, ObjKind::Int);  // a walk into a hole reads garbage
    walked++;
    sum += o->int_value();
  });
  EXPECT_EQ(walked, 25u);
  EXPECT_EQ(sum, 25 * 24 / 2);
  // The word right after a surviving object is block-hole or next header;
  // a pointer one word past the last object's footprint that lands between
  // segments must not be "live".
  for (Obj* r : roots) EXPECT_TRUE(h.in_live_old(r));
  // A Machine collects with a team only under ThreadedDriver, so the
  // sequential collector must take this layout over: a minor promotes into
  // the open tail above the segments, and a major restores one contiguous
  // old generation.
  roots.push_back(alloc_int(h, 0, 25));
  auto walk = [&roots](Gc& gc) {
    for (Obj*& r : roots) gc.evacuate(r);
  };
  h.collect(walk);
  EXPECT_EQ(h.stats().minor_collections, 2u);
  h.collect(walk, /*force_major=*/true);
  EXPECT_EQ(h.stats().parallel_collections, 1u);
  EXPECT_TRUE(h.last_gc_spans().empty());
  const HeapCensus c = h.census();  // a stale segment would add Fwd shells
  EXPECT_EQ(c.objects, 26u);
  EXPECT_EQ(c.objects_by_kind[static_cast<std::size_t>(ObjKind::Int)], 26u);
  for (std::int64_t i = 0; i <= 25; ++i) {
    EXPECT_TRUE(h.in_live_old(roots[static_cast<std::size_t>(i)]));
    EXPECT_EQ(roots[static_cast<std::size_t>(i)]->int_value(), i);
  }
}

TEST(HeapBlocks, LargeObjectsGetDedicatedExactBlocks) {
  // alloc_words > gc_block_words/2 takes the dedicated-block path: an
  // exact-size carve, no half-empty shared block.
  HeapConfig cfg = small_heap(1, 2048);
  cfg.gc_threads = 2;
  cfg.gc_block_words = 16;
  Heap h(cfg);
  Obj* shared = alloc_int(h, 0, 99);
  std::vector<Obj*> roots;
  for (int i = 0; i < 6; ++i) {
    Obj* big = h.alloc(0, ObjKind::Con, 2, 100);  // 101 words > 16/2
    ASSERT_NE(big, nullptr);
    for (std::uint32_t j = 0; j < 100; ++j) big->ptr_payload()[j] = shared;
    roots.push_back(big);
    roots.push_back(alloc_int(h, 0, i));  // interleave small survivors
  }
  team_collect(h, roots);
  EXPECT_EQ(h.stats().parallel_collections, 1u);
  EXPECT_EQ(h.stats().tospace_overflows, 0u);
  Obj* s = roots[0]->ptr_payload()[0];
  EXPECT_EQ(s->int_value(), 99);
  for (std::size_t i = 0; i < roots.size(); i += 2) {
    EXPECT_TRUE(h.in_live_old(roots[i]));
    EXPECT_EQ(roots[i]->size, 100u);
    // Sharing survives: every field of every big object is the same Int.
    EXPECT_EQ(roots[i]->ptr_payload()[57], s);
  }
}

TEST(HeapBlocks, ToSpaceExhaustionGrowsOldGenMidCollection) {
  // 67 objects of 342 words = 22914 live words fit the 32k semispace, and
  // the major-GC sizing (need = live + nursery + headroom = 26050) stays
  // under the 0.8 doubling threshold — but block-granular to-space needs
  // 34 blocks of 1024 = 34816 words (two objects per block, 340 wasted
  // each): mid-collection the carve cursor MUST fall off the semispace and
  // grab an overflow slab instead of throwing.
  for (bool sequential_next : {false, true}) {
    SCOPED_TRACE(sequential_next ? "sequential next major" : "team next major");
    HeapConfig cfg;
    cfg.n_nurseries = 1;
    cfg.nursery_words = 64;
    cfg.old_words = 32 * 1024;
    cfg.gc_threads = 2;
    cfg.gc_block_words = 1024;
    Heap h(cfg);
    std::vector<Obj*> roots;
    for (std::int64_t i = 0; i < 67; ++i) {
      Obj* o = h.alloc_old(ObjKind::Int, 0, 341);
      ASSERT_NE(o, nullptr);
      o->payload()[0] = static_cast<Word>(i);
      roots.push_back(o);
    }
    team_collect(h, roots, /*force_major=*/true);
    EXPECT_GE(h.stats().tospace_overflows, 1u);
    EXPECT_GE(h.old_overflow_regions(), 1u);
    for (std::int64_t i = 0; i < 67; ++i) {
      Obj* o = roots[static_cast<std::size_t>(i)];
      EXPECT_TRUE(h.in_live_old(o));
      EXPECT_EQ(o->int_value(), i);
    }
    // The next major evacuates the overflow slabs and frees them — the
    // sequential collector too, which a Machine runs outside
    // ThreadedDriver. The last objects copied are the ones in the slab.
    roots.erase(roots.begin(), roots.end() - 5);
    if (sequential_next) {
      h.collect([&roots](Gc& gc) {
        for (Obj*& r : roots) gc.evacuate(r);
      }, /*force_major=*/true);
    } else {
      team_collect(h, roots, /*force_major=*/true);
    }
    EXPECT_EQ(h.old_overflow_regions(), 0u);
    EXPECT_EQ(h.stats().parallel_collections, sequential_next ? 1u : 2u);
    for (std::int64_t i = 0; i < 5; ++i) {
      EXPECT_TRUE(h.in_live_old(roots[static_cast<std::size_t>(i)]));
      EXPECT_EQ(roots[static_cast<std::size_t>(i)]->int_value(), 62 + i);
    }
    const HeapCensus c = h.census();
    EXPECT_EQ(c.objects, 5u);
    EXPECT_EQ(c.objects_by_kind[static_cast<std::size_t>(ObjKind::Int)], 5u);
  }
}

}  // namespace
}  // namespace ph
