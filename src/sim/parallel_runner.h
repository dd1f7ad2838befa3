// Executor for embarrassingly-parallel simulation batches (DESIGN.md §12):
// N independent tasks (one per scenario-matrix cell) spread over W worker
// threads, with results slotted by task index so the outcome of a run is a
// pure function of (tasks, task bodies) — never of thread scheduling.
//
// Determinism contract:
//   * Task bodies must be shared-nothing: each task owns its world (its RNG
//     streams, its middleware stack, its metric shards) and writes only to
//     its own result slot. The runner supplies the index; the caller
//     pre-sizes the result vector.
//   * The runner decides only WHERE and WHEN a task runs, never WHAT it
//     computes. run(count, fn) with one worker executes inline on the
//     calling thread in index order — the serial baseline any worker count
//     must reproduce bit for bit.
//   * Merging (by the caller) must iterate result slots in index order, not
//     completion order.
#pragma once

#include <cstddef>
#include <functional>

namespace mfhttp::sim {

class ParallelRunner {
 public:
  // workers >= 1; 1 is the serial baseline.
  explicit ParallelRunner(std::size_t workers);

  // Invoke fn(i) exactly once for every i in [0, count), blocking until all
  // are done. Threads are spawned per run (tasks are coarse; pool reuse
  // would buy microseconds) and take the next unclaimed index from one
  // shared counter, so a slow task never holds back the rest. A task that
  // throws aborts the batch: the first exception is rethrown on the caller
  // after every worker has joined.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t workers_;
};

}  // namespace mfhttp::sim
