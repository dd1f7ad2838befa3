#include "sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"

namespace mfhttp::sim {

ParallelRunner::ParallelRunner(std::size_t workers) : workers_(workers) {
  MFHTTP_CHECK(workers_ >= 1);
}

void ParallelRunner::run(std::size_t count,
                         const std::function<void(std::size_t)>& fn) const {
  MFHTTP_CHECK(fn != nullptr);
  if (count == 0) return;

  static obs::Counter& runs_total =
      obs::metrics().counter("sim.parallel.runs_total");
  static obs::Counter& tasks_total =
      obs::metrics().counter("sim.parallel.tasks_total");
  runs_total.inc();
  tasks_total.inc(count);

  const std::size_t workers = std::min(workers_, count);
  if (workers == 1) {
    // Serial baseline: inline, index order. This is the path every parallel
    // run must reproduce bit for bit.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker_loop = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= count) return;
      try {
        fn(task);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(worker_loop);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mfhttp::sim
