// The Parker (rts/parker.hpp): the one doorbell every wall-clock idle wait
// parks on. These tests pin its eventcount contract — a ring inside the
// re-check window is never lost, an unrung park times out no sooner than
// asked, the caller's fds are polled on every exit, a ping-pong of 100k
// rings loses none, a doorbell in shared memory works across fork() — and
// that the drivers built on it keep their deadlock windows: five timed-out
// 1 ms parks, so never sooner than 5 ms.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "eden/eden_rt.hpp"
#include "rig.hpp"
#include "rts/parker.hpp"
#include "rts/threaded.hpp"

namespace ph::test {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

TEST(Parker, RingBeforeSleepReturnsRungAtOnce) {
  // The ring lands after the announce and before the sleep — the window a
  // lost wakeup would hide in. The park must notice it without sleeping.
  Parker p;
  const auto t0 = Clock::now();
  const Park r = p.park(
      [&] {
        p.ring();
        return false;
      },
      std::chrono::seconds(5));
  EXPECT_EQ(r, Park::Rung);
  EXPECT_LT(seconds_since(t0), 1.0);
}

TEST(Parker, PublishedStateBeforeParkReturnsReady) {
  // A ring with nobody parked costs a fence and a load and is not
  // remembered; what it announced is, by the state the predicate reads.
  Parker p;
  std::atomic<bool> flag{false};
  flag.store(true);
  p.ring();
  const auto t0 = Clock::now();
  EXPECT_EQ(p.park([&] { return flag.load(); }, std::chrono::seconds(5)), Park::Ready);
  EXPECT_LT(seconds_since(t0), 1.0);
}

TEST(Parker, ParkWithNoRingTimesOutNoSooner) {
  Parker p;
  const auto t0 = Clock::now();
  EXPECT_EQ(p.park([] { return false; }, milliseconds(20)), Park::TimedOut);
  EXPECT_GE(seconds_since(t0), 0.020);
}

TEST(Parker, CallersFdsArePolledOnEveryExit) {
  // A pollable doorbell's caller reads its own fds' revents after every
  // park, so they must be fresh even when the park ends before it sleeps:
  // a timeout already spent, or a ring inside the re-check window.
  ParkerWords words;
  Parker p(&words, /*pollable=*/true);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
  pollfd set[2] = {{p.fd(), POLLIN, 0}, {pipe_fds[0], POLLIN, 0}};
  EXPECT_EQ(p.park([] { return false; }, microseconds(0), set), Park::TimedOut);
  EXPECT_NE(set[1].revents & POLLIN, 0);
  set[1].revents = 0;
  const Park r = p.park(
      [&] {
        p.ring();
        return false;
      },
      std::chrono::seconds(5), set);
  EXPECT_EQ(r, Park::Rung);
  EXPECT_NE(set[1].revents & POLLIN, 0);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
}

TEST(Parker, PingPongOf100kRingsLosesNone) {
  // Two threads hand a turn back and forth 50k times each way, every hand
  // over a ring of the other's doorbell. A lost wakeup would cost a whole
  // 200 ms timeout; 100k of them would take hours.
  constexpr int kRounds = 50'000;
  constexpr milliseconds kTimeout{200};
  Parker bell[2];
  std::atomic<int> turn{0};
  std::atomic<int> timeouts{0};
  auto player = [&](int me) {
    for (int i = 0; i < kRounds; ++i) {
      while (turn.load() != me)
        if (bell[me].park([&] { return turn.load() == me; }, kTimeout) == Park::TimedOut)
          timeouts++;
      turn.store(1 - me);
      bell[1 - me].ring();
    }
  };
  const auto t0 = Clock::now();
  {
    std::jthread a(player, 0);
    std::jthread b(player, 1);
  }
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_LT(seconds_since(t0), 60.0);
}

class ParkerAcrossFork : public ::testing::TestWithParam<bool> {};

TEST_P(ParkerAcrossFork, ChildParkedInSharedMemoryIsRungByParent) {
  // The doorbell's words and a flag live in a MAP_SHARED page; the child
  // parks there (on a shared futex, or in poll() on the inherited eventfd
  // when pollable) and the parent's ring must wake it.
  struct Shared {
    ParkerWords words;
    std::atomic<int> flag{0};
  };
  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  Shared* sh = new (mem) Shared();
  Parker bell(&sh->words, /*pollable=*/GetParam());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const Park r = bell.park([&] { return sh->flag.load() != 0; }, std::chrono::seconds(10));
    std::_Exit(sh->flag.load() == 1 && r != Park::TimedOut ? 0 : 1);
  }
  // Ring once the child has parked (or after 2 s: the re-check then sees
  // the flag instead, which still must not time out).
  const auto t0 = Clock::now();
  while (sh->words.parked.load() == 0 && seconds_since(t0) < 2.0)
    std::this_thread::sleep_for(microseconds(100));
  sh->flag.store(1);
  bell.ring();
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_LT(seconds_since(t0), 9.0);
  munmap(mem, sizeof(Shared));
}

INSTANTIATE_TEST_SUITE_P(Wake, ParkerAcrossFork, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? std::string("eventfd") : std::string("futex");
                         });

TEST(ParkerDeadlockWindow, ThreadedDriverStillDiagnosesAfterFiveParks) {
  // A black hole that enters itself: every capability goes idle and
  // nothing will ever ring. Five timed-out 1 ms parks declare deadlock.
  Rig r(
      [](Builder& b) {
        b.fun("loop", {}, [](Ctx& c) {
          return c.letrec(
              {"x"}, [&] { return std::vector<E>{c.var("x")}; },
              [&] { return c.var("x"); });
        });
      },
      config_worksteal_eagerbh(2));
  Tso* t = r.m->spawn_apply(r.prog.find("loop"), {}, 0);
  ThreadedDriver d(*r.m);
  const ThreadedResult res = d.run(t);
  ASSERT_TRUE(res.deadlocked);
  EXPECT_EQ(res.diagnosis.kind, DeadlockKind::NonTermination);
  EXPECT_GE(res.seconds, 0.005);
}

TEST(ParkerDeadlockWindow, EdenThreadedDriverStillDiagnosesAfterFiveParks) {
  // The root waits on a channel nobody feeds: every PE parks idle and the
  // supervisor's five quiet timed-out parks freeze and diagnose.
  Program prog;
  Builder b(prog);
  build_prelude(b);
  prog.validate();
  EdenConfig cfg;
  cfg.n_pes = 2;
  cfg.n_cores = 2;
  cfg.pe_rts = config_worksteal_eagerbh(1);
  cfg.transport = EdenTransportKind::Shm;
  EdenSystem sys(prog, cfg);
  const auto out = sys.new_channel(0);
  Tso* root = sys.pe(0).spawn_enter(sys.placeholder_of(out), 0);
  EdenThreadedDriver d(sys);
  const EdenRtResult res = d.run(root);
  ASSERT_TRUE(res.deadlocked);
  EXPECT_EQ(res.diagnosis.kind, DeadlockKind::Starvation);
  EXPECT_GE(res.seconds, 0.005);
}

}  // namespace
}  // namespace ph::test
