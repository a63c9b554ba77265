/**
 * @file
 * Progress-based processor-sharing job model.
 *
 * The GPU timing model treats each in-flight kernel as a "fluid" job:
 * an amount of remaining work that drains at a rate which depends on
 * the current contention (how many kernels share each CU and the
 * memory bus). Whenever the set of running jobs changes, the owner
 * recomputes every job's rate; the scheduler advances progress between
 * changes and fires a completion callback when a job's work reaches
 * zero. This is the standard technique for modelling bandwidth- and
 * compute-sharing without cycle-level simulation.
 */

#ifndef KRISP_SIM_FLUID_SCHEDULER_HH
#define KRISP_SIM_FLUID_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace krisp
{

/** Identifies a fluid job within one scheduler; 0 is invalid. */
using JobId = std::uint64_t;

constexpr JobId invalidJobId = 0;

/**
 * Tracks a set of jobs whose work drains at externally supplied rates.
 *
 * Protocol: after any add()/cancel() and after completion callbacks,
 * the scheduler calls the owner's rate function, which must call
 * setRate() for every active job (unset rates persist). Completion
 * callbacks may add new jobs; rate recomputation and event
 * rescheduling are deferred until the batch settles.
 */
class FluidScheduler
{
  public:
    /** Called once per completed job, in completion order. */
    using CompleteFn = std::function<void(JobId)>;
    /** Called when the job set changed; must refresh all rates. */
    using RateFn = std::function<void(FluidScheduler &)>;

    FluidScheduler(EventQueue &eq, RateFn rate_fn, CompleteFn complete_fn);

    FluidScheduler(const FluidScheduler &) = delete;
    FluidScheduler &operator=(const FluidScheduler &) = delete;
    ~FluidScheduler();

    /**
     * Add a job with @p work units of remaining work (arbitrary unit;
     * rates are in the same unit per tick). The rate function runs
     * before this returns (or at batch end if called re-entrantly).
     */
    JobId add(double work);

    /** Remove a job without completing it. */
    void cancel(JobId id);

    /** Set the drain rate (work units per tick) for an active job. */
    void setRate(JobId id, double rate);

    bool active(JobId id) const { return jobs_.count(id) != 0; }
    std::size_t activeCount() const { return jobs_.size(); }
    double remaining(JobId id) const;
    double rate(JobId id) const;

    /**
     * Ids of all active jobs. The order is unspecified but
     * deterministic: the same sequence of add/cancel/completion calls
     * yields the same order. GpuDevice's rate function takes it as
     * the order of its floating-point sums, its bandwidth ties and
     * (through the rates) its completions, so the golden files pin
     * it; changing the container changes simulated results.
     */
    std::vector<JobId> activeJobs() const;

    /**
     * Append the ids of all active jobs to @p out, in the order of
     * activeJobs(). Lets rate functions reuse a scratch vector
     * instead of allocating a copy on every resettle.
     */
    void appendActiveJobs(std::vector<JobId> &out) const;

    /**
     * Force progress advancement + rate recomputation now. Call when
     * rates must change for a reason other than a job set change
     * (e.g. a CU mask was reconfigured on a live queue).
     */
    void refresh();

  private:
    struct Job
    {
        double remaining;
        double rate;
    };

    /** Advance every job's progress from lastUpdate_ to now. */
    void advance();
    /** Recompute rates and (re)schedule the next completion event. */
    void resettle();
    /** Completion event body: retire all drained jobs, then resettle. */
    void onCompletionEvent();

    EventQueue &eq_;
    RateFn rate_fn_;
    CompleteFn complete_fn_;
    std::unordered_map<JobId, Job> jobs_;
    JobId next_id_ = 1;
    Tick last_update_ = 0;
    EventId pending_event_ = invalidEventId;
    /** Re-entrancy guard: depth of nested mutation batches. */
    int batch_depth_ = 0;
    bool dirty_ = false;
};

} // namespace krisp

#endif // KRISP_SIM_FLUID_SCHEDULER_HH
