// The mutator stays off the C++ heap (DESIGN.md §15).
//
// Frames save their values on their thread's value stack, and the Code
// register and the value stack keep their capacity, so once a thread has
// warmed up a step never calls operator new. This binary replaces the
// global operator new to count the calls a whole sumEulerPar evaluation
// makes inside SimDriver::run on each engine. It is a binary of its own
// because the replacement is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "progs/sumeuler.hpp"
#include "rig.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ph::test {
namespace {

/// operator new calls made inside SimDriver::run of sumEulerPar 10 400
/// on one capability, with the value checked against the host oracle.
std::uint64_t news_in_sumeuler(bool bytecode) {
  RtsConfig cfg = config_plain(1);
  cfg.bytecode = bytecode;
  Rig r([](Builder& b) { build_sumeuler(b); }, cfg);
  Tso* t = r.m->spawn_apply(r.prog.find("sumEulerPar"),
                            {make_int(*r.m, 0, 10), make_int(*r.m, 0, 400)}, 0);
  SimDriver d(*r.m);
  g_news.store(0);
  g_counting.store(true);
  const SimResult res = d.run(t);
  g_counting.store(false);
  EXPECT_FALSE(res.deadlocked);
  EXPECT_EQ(read_int(res.value), sum_euler_reference(400));
  EXPECT_GT(r.m->heap().stats().minor_collections, 0u)
      << "the evaluation should cross at least one collection";
  return g_news.load();
}

// Before frames saved their values on the value stack, this evaluation
// made 2,067,141 operator new calls on the bytecode engine and 5,392,969
// on the interpreter: every suspension moved freshly allocated buffers
// into a frame. The bounds are 1% of those counts.
TEST(MutatorAllocation, BytecodeEvaluationStaysOffTheCxxHeap) {
  const std::uint64_t n = news_in_sumeuler(/*bytecode=*/true);
  RecordProperty("operator_new_calls", static_cast<int>(n));
  EXPECT_LT(n, 2'067'141u / 100) << n << " operator new calls";
}

TEST(MutatorAllocation, InterpreterEvaluationStaysOffTheCxxHeap) {
  const std::uint64_t n = news_in_sumeuler(/*bytecode=*/false);
  RecordProperty("operator_new_calls", static_cast<int>(n));
  EXPECT_LT(n, 5'392'969u / 100) << n << " operator new calls";
}

}  // namespace
}  // namespace ph::test
