//===- harness/SweepRunner.cpp --------------------------------------------===//

#include "harness/SweepRunner.h"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

using namespace vmib;

unsigned vmib::defaultSweepThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

void vmib::pipelineSweep(size_t N, unsigned Threads,
                         const std::function<void(size_t)> &Capture,
                         const std::function<void(size_t)> &Replay) {
  if (N == 0)
    return;
  if (Threads < 1)
    Threads = 1;
  if (Threads > N)
    Threads = static_cast<unsigned>(N);

  std::exception_ptr FirstError;
  std::mutex ErrorMutex;
  auto Record = [&] {
    std::lock_guard<std::mutex> Lock(ErrorMutex);
    if (!FirstError)
      FirstError = std::current_exception();
  };

  // Producer state: workloads [0, CapturedUpTo) have completed capture
  // and may replay. CaptureFailed poisons the tail — replays of
  // uncaptured workloads are skipped, not run against missing traces.
  std::mutex Mutex;
  std::condition_variable Ready;
  size_t CapturedUpTo = 0;
  bool CaptureFailed = false;

  std::thread Producer([&] {
    for (size_t I = 0; I < N; ++I) {
      try {
        Capture(I);
      } catch (...) {
        Record();
        std::lock_guard<std::mutex> Lock(Mutex);
        CaptureFailed = true;
        Ready.notify_all();
        return;
      }
      std::lock_guard<std::mutex> Lock(Mutex);
      CapturedUpTo = I + 1;
      Ready.notify_all();
    }
  });

  std::atomic<size_t> Cursor{0};
  auto Worker = [&] {
    for (;;) {
      size_t I = Cursor.fetch_add(1, std::memory_order_relaxed);
      if (I >= N)
        return;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        Ready.wait(Lock, [&] { return CapturedUpTo > I || CaptureFailed; });
        if (CapturedUpTo <= I)
          return; // capture died before reaching this workload
      }
      try {
        Replay(I);
      } catch (...) {
        Record();
      }
    }
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  Producer.join();

  if (FirstError)
    std::rethrow_exception(FirstError);
}
