/**
 * @file
 * Deterministic fault scenarios.
 *
 * A FaultPlan describes *what can go wrong* in one run: per-site fault
 * probabilities (and a few deterministic count-based knobs) plus the
 * recovery budget the handling layer works with. The plan is pure
 * data; all randomness lives in the FaultInjector, which draws from
 * seed-derived per-site streams so that two runs with equal plans
 * produce identical fault sequences — faults are scheduled in
 * simulated time and never consult the wall clock.
 *
 * The default-constructed plan injects nothing: every component
 * treats a disabled plan exactly like the absence of a fault layer,
 * so zero-fault runs are bit-identical to runs without one.
 */

#ifndef KRISP_FAULT_FAULT_PLAN_HH
#define KRISP_FAULT_FAULT_PLAN_HH

#include <cstdint>

#include "common/types.hh"

namespace krisp
{

/** One run's fault scenario + recovery budget. */
struct FaultPlan
{
    /** Seed for the per-site fault streams (independent of the load
     *  generator's arrival seed). */
    std::uint64_t seed = 0x5eedfa17ULL;

    // ---- site (a): kernel dispatch in gpu/gpu_device -------------
    /** A dispatched kernel hangs (never retires on its own). */
    double kernelHangProb = 0;
    /** A dispatched kernel runs slower by kernelSlowFactor. */
    double kernelSlowProb = 0;
    double kernelSlowFactor = 4.0;

    // ---- site (b): CU-mask ioctls in hsa/ioctl_service -----------
    /** The driver rejects the ioctl; its effect is not applied. */
    double ioctlFailProb = 0;
    /** Deterministically fail the first N ioctl attempts (tests). */
    unsigned ioctlFailBurst = 0;
    /** The ioctl occupies the driver ioctlDelayFactor times longer. */
    double ioctlDelayProb = 0;
    double ioctlDelayFactor = 8.0;

    // ---- site (c): completion decrements in hsa/signal -----------
    /** A kernel-completion signal decrement is lost. */
    double signalLossProb = 0;

    // ---- site (d): worker preprocess in the server ---------------
    /** Worker preprocessing stalls for an extra stallNs. */
    double stallProb = 0;
    Tick stallNs = ticksFromMs(5.0);

    // ---- site (e): whole-shard crashes (cluster layer) -----------
    /**
     * Poisson rate of shard crashes per shard, per simulated second:
     * the whole shard dies, its in-flight batches are lost and its
     * CU masks and stream state are invalidated. Crashes are not
     * drawn by the FaultInjector: the ClusterServer draws crash gaps
     * from a dedicated stream derived from this plan's forShard(i)
     * seed, so the crash schedule of shard i depends only on (plan
     * seed, i) — never on traffic, other shards, or the shard count.
     * Ignored outside the cluster layer.
     */
    double shardCrashRatePerSec = 0;
    /**
     * Warm-restart delay after a crash: the shard is down (router
     * health false, no admission) this long, then its whole KRISP
     * stack is rebuilt via setupPartitionPolicy and re-admitted.
     */
    Tick shardRestartNs = ticksFromMs(50.0);

    // ---- recovery budget -----------------------------------------
    /**
     * GPU watchdog: a kernel still running this long after start is
     * force-retired (driver-reset model) so a hang costs one request,
     * not the experiment. Armed only while the plan is enabled;
     * 0 disables the watchdog even then.
     */
    Tick watchdogTimeoutNs = ticksFromMs(50.0);

    /**
     * True if this plan can inject anything through the
     * FaultInjector. Shard crashes are deliberately excluded: they
     * are executed by the cluster layer without an injector, so a
     * crash-only plan must not force per-shard injector construction
     * (which would perturb zero-fault byte-identity).
     */
    bool
    enabled() const
    {
        return kernelHangProb > 0 || kernelSlowProb > 0 ||
               ioctlFailProb > 0 || ioctlFailBurst > 0 ||
               ioctlDelayProb > 0 || signalLossProb > 0 ||
               stallProb > 0;
    }

    /** The do-nothing plan (same as default construction). */
    static FaultPlan
    none()
    {
        return FaultPlan{};
    }

    /**
     * This plan re-seeded for shard @p shard of a cluster: the same
     * fault scenario with a SplitMix64-derived independent stream per
     * shard, so shard i's faults never depend on how many other
     * shards exist or what they drew.
     */
    FaultPlan
    forShard(unsigned shard) const
    {
        FaultPlan plan = *this;
        // Inline SplitMix64 step (common/random.hh depends on
        // logging; keep this header leaf-level).
        std::uint64_t z =
            seed + 0x9e3779b97f4a7c15ULL * (1 + shard);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        plan.seed = z ^ (z >> 31);
        return plan;
    }

    /** Same probability @p p at every probabilistic site. */
    static FaultPlan
    uniform(double p, std::uint64_t seed = 0x5eedfa17ULL)
    {
        FaultPlan plan;
        plan.seed = seed;
        plan.kernelHangProb = p;
        plan.kernelSlowProb = p;
        plan.ioctlFailProb = p;
        plan.ioctlDelayProb = p;
        plan.signalLossProb = p;
        plan.stallProb = p;
        return plan;
    }
};

} // namespace krisp

#endif // KRISP_FAULT_FAULT_PLAN_HH
