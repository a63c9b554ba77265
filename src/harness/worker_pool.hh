/**
 * @file
 * Fixed-size worker pool for embarrassingly parallel experiment
 * sweeps.
 *
 * The paper's evaluation matrices (Fig. 13/14/15, Table IV) are
 * hundreds of *independent* simulations: each run owns its own
 * EventQueue, device, and observability island, so runs can execute
 * on any thread in any order as long as results are merged back in
 * spec order. The pool hands out task indices from an atomic counter;
 * callers write results into pre-sized slots keyed by index, which
 * keeps every merged artifact byte-identical regardless of the thread
 * count. The caller picks the thread count (the benches resolve
 * --jobs and KRISP_JOBS in bench::jobs).
 */

#ifndef KRISP_HARNESS_WORKER_POOL_HH
#define KRISP_HARNESS_WORKER_POOL_HH

#include <cstddef>
#include <functional>

namespace krisp
{
namespace harness
{

/** Runs indexed tasks over a fixed set of worker threads. */
class WorkerPool
{
  public:
    /** @param jobs worker threads to use; 0 is treated as 1. */
    explicit WorkerPool(unsigned jobs);

    unsigned jobs() const { return jobs_; }

    /**
     * Execute task(0) .. task(count - 1), each exactly once, across
     * min(jobs, count) threads; blocks until every task finished.
     * With jobs == 1 the tasks run inline on the calling thread, so
     * the sequential reference path involves no threading at all.
     *
     * A task that throws does not stop the remaining tasks (partial
     * sweeps would be hard to reason about); after everything
     * drained, the exception of the lowest-index failed task is
     * rethrown so failure handling is deterministic too.
     */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)> &task);

  private:
    unsigned jobs_;
};

} // namespace harness
} // namespace krisp

#endif // KRISP_HARNESS_WORKER_POOL_HH
