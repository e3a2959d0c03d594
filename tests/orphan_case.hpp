// The supervisor-death case, shared by the chaos and serving suites. A
// forked helper process starts a supervisor, pipes its worker pids back
// and is SIGKILLed; its workers must notice that their supervisor is gone
// and exit on their own. This process makes itself a child subreaper, so
// the orphans are reparented here and it can reap them.
#pragma once

#include <gtest/gtest.h>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

namespace ph::test {

/// Called by the helper once its workers are up.
inline void report_worker_pids(int fd, const std::vector<pid_t>& pids) {
  const std::size_t bytes = pids.size() * sizeof(pid_t);
  if (::write(fd, pids.data(), bytes) != static_cast<ssize_t>(bytes)) std::_Exit(2);
}

/// Runs `helper_main(fd)` in a forked helper that must report `n_workers`
/// pids on `fd` and then keep supervising. Kills the helper and requires
/// every worker reaped within 2 s; a survivor is killed and reaped.
inline void expect_workers_exit_with_their_supervisor(
    std::size_t n_workers, const std::function<void(int)>& helper_main) {
  ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t helper = fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    ::close(fds[0]);
    try {
      helper_main(fds[1]);
    } catch (...) {
    }
    std::_Exit(1);  // a helper must be killed while it supervises
  }
  ::close(fds[1]);
  std::vector<pid_t> workers(n_workers);
  std::size_t got = 0;
  const std::size_t want = n_workers * sizeof(pid_t);
  while (got < want) {
    const ssize_t n =
        ::read(fds[0], reinterpret_cast<char*>(workers.data()) + got, want - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  ::kill(helper, SIGKILL);
  ::waitpid(helper, nullptr, 0);
  EXPECT_EQ(got, want) << "the helper died before reporting its workers";
  workers.resize(got / sizeof(pid_t));

  // The orphans are this process's children now. ECHILD means the helper
  // reaped the worker before it died, which also counts as gone.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<pid_t> alive = workers;
  while (!alive.empty() && std::chrono::steady_clock::now() < deadline) {
    alive.erase(std::remove_if(alive.begin(), alive.end(),
                               [](pid_t p) {
                                 const pid_t r = ::waitpid(p, nullptr, WNOHANG);
                                 return r == p || (r < 0 && errno == ECHILD);
                               }),
                alive.end());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (pid_t p : alive) {
    ADD_FAILURE() << "worker " << p << " outlived its supervisor by 2 s";
    ::kill(p, SIGKILL);
    ::waitpid(p, nullptr, 0);
  }
  prctl(PR_SET_CHILD_SUBREAPER, 0);
}

}  // namespace ph::test
