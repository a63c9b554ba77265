/**
 * @file
 * Tests of reconfiguration elision and kernel-group batching on the
 * emulated launch path (ReconfigPolicy), the released-mask allocator
 * cache behind it, and the failure-path hardening that rides along
 * (stream-lifetime safety across ioctl retries, backoff clamping).
 */

#include <gtest/gtest.h>

#include "core/krisp_runtime.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu_device.hh"
#include "harness/worker_pool.hh"
#include "sim/event_queue.hh"

namespace krisp
{
namespace
{

struct Fixture
{
    EventQueue eq;
    GpuConfig cfg = GpuConfig::mi50();
    GpuDevice device{eq, cfg};
    HipRuntime hip{eq, device};
    PerfDatabase db;
    MaskAllocator alloc{DistributionPolicy::Conserved, 0};

    explicit Fixture(std::size_t queue_capacity = 0)
        : cfg([queue_capacity] {
              GpuConfig c = GpuConfig::mi50();
              if (queue_capacity != 0)
                  c.queueCapacity = queue_capacity;
              return c;
          }())
    {
    }

    KernelDescPtr
    kernel(unsigned wgs = 600, double wg_ns = 50.0)
    {
        auto d = std::make_shared<KernelDescriptor>();
        d->name = "k";
        d->numWorkgroups = wgs;
        d->wgDurationNs = wg_ns;
        d->saturationWgsPerCu = 2;
        return d;
    }

    /** Launch a sequence kernel by kernel and run to completion. */
    void
    runEach(KrispRuntime &krisp, Stream &s,
            const std::vector<KernelDescPtr> &seq)
    {
        auto sig =
            HsaSignal::create(static_cast<std::int64_t>(seq.size()));
        for (const auto &k : seq)
            krisp.launch(s, k, sig);
        eq.run();
    }

    /** Launch a sequence through launchGroup and run to completion. */
    void
    runGroup(KrispRuntime &krisp, Stream &s,
             const std::vector<KernelDescPtr> &seq)
    {
        auto sig =
            HsaSignal::create(static_cast<std::int64_t>(seq.size()));
        krisp.launchGroup(s, seq, sig);
        eq.run();
    }
};

/** Fixture variant with two profiled kernel sizes (8 and 55 CUs). */
struct SizedFixture : Fixture
{
    KernelDescPtr small = kernel(30, 50.0);
    KernelDescPtr large = kernel(6000, 5.0);
    ProfiledSizer sizer{db, 60};

    explicit SizedFixture(std::size_t queue_capacity = 0)
        : Fixture(queue_capacity)
    {
        db.setMinCus(small->profileKey(), 8);
        db.setMinCus(large->profileKey(), 55);
    }
};

TEST(ReconfigPolicy, Names)
{
    EXPECT_STREQ(reconfigPolicyName(ReconfigPolicy::Always),
                 "always");
    EXPECT_STREQ(reconfigPolicyName(ReconfigPolicy::Elide), "elide");
    EXPECT_STREQ(reconfigPolicyName(ReconfigPolicy::Group), "group");
}

TEST(ReconfigPolicy, AlwaysPaysFullProtocolPerLaunch)
{
    Fixture fx;
    FixedSizer sizer(15);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    ASSERT_EQ(krisp.reconfigPolicy(), ReconfigPolicy::Always);
    Stream &s = fx.hip.createStream();
    fx.runEach(krisp, s, {fx.kernel(), fx.kernel(), fx.kernel()});
    const auto st = krisp.stats();
    EXPECT_EQ(st.launches, 3u);
    EXPECT_EQ(st.reconfigLaunches, 3u);
    EXPECT_EQ(st.reconfigElisions, 0u);
    EXPECT_EQ(st.groupedLaunches, 0u);
    EXPECT_EQ(s.hsaQueue().barriersPushed(), 6u);
    EXPECT_EQ(fx.hip.ioctlService().completed(), 3u);
}

TEST(ReconfigPolicy, ElideSkipsRepeatReconfigs)
{
    Fixture fx;
    FixedSizer sizer(15);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Elide);
    Stream &s = fx.hip.createStream();
    fx.runEach(krisp, s, {fx.kernel(), fx.kernel(), fx.kernel()});
    const auto st = krisp.stats();
    EXPECT_EQ(st.launches, 3u);
    EXPECT_EQ(st.reconfigLaunches, 1u);
    EXPECT_EQ(st.reconfigElisions, 2u);
    EXPECT_EQ(st.groupedLaunches, 0u);
    // One barrier pair and one ioctl for the whole same-size burst.
    EXPECT_EQ(s.hsaQueue().barriersPushed(), 2u);
    EXPECT_EQ(fx.hip.ioctlService().completed(), 1u);
    // The elided kernels still ran, under the installed mask.
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 3u);
    EXPECT_EQ(s.hsaQueue().cuMask().count(), 15u);
}

TEST(ReconfigPolicy, ElisionPreservesCompletionOrderAndTiming)
{
    // An elided launch must still respect stream ordering: kernels
    // complete in order, after the reconfigured leader.
    Fixture fx;
    FixedSizer sizer(30);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Elide);
    Stream &s = fx.hip.createStream();
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&] { done.push_back(fx.eq.now()); });
        krisp.launch(s, fx.kernel(), sig);
    }
    fx.eq.run();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_LT(done[0], done[1]);
    EXPECT_LT(done[1], done[2]);
}

TEST(ReconfigPolicy, ExternalMaskChangeBlocksElision)
{
    Fixture fx;
    FixedSizer sizer(15);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Elide);
    Stream &s = fx.hip.createStream();
    fx.runEach(krisp, s, {fx.kernel()});
    ASSERT_EQ(krisp.stats().reconfigLaunches, 1u);
    ASSERT_TRUE(s.installedMaskKnown());

    // The application changes the stream's mask behind KRISP's back.
    const std::uint64_t gen_before = s.maskGeneration();
    fx.hip.streamSetCuMask(s, CuMask::firstN(10));
    fx.eq.run();
    EXPECT_GT(s.maskGeneration(), gen_before);
    EXPECT_FALSE(s.installedMaskKnown());
    EXPECT_EQ(s.expectedCus(), 0u);

    // The next same-size launch must NOT elide against stale state.
    fx.runEach(krisp, s, {fx.kernel()});
    const auto st = krisp.stats();
    EXPECT_EQ(st.reconfigLaunches, 2u);
    EXPECT_EQ(st.reconfigElisions, 0u);
    EXPECT_EQ(s.hsaQueue().cuMask().count(), 15u);
}

TEST(ReconfigPolicy, GroupCoalescesEqualSizeRuns)
{
    SizedFixture fx;
    KrispRuntime krisp(fx.hip, fx.sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Group);
    Stream &s = fx.hip.createStream();
    // Runs: [small small][large large][small] -> three protocol
    // instances, two kernels riding a leader's reconfiguration.
    fx.runGroup(krisp, s,
                {fx.small, fx.small, fx.large, fx.large, fx.small});
    const auto st = krisp.stats();
    EXPECT_EQ(st.launches, 5u);
    EXPECT_EQ(st.reconfigLaunches, 3u);
    EXPECT_EQ(st.groupedLaunches, 2u);
    EXPECT_EQ(st.reconfigElisions, 0u);
    EXPECT_EQ(s.hsaQueue().barriersPushed(), 6u);
    EXPECT_EQ(fx.hip.ioctlService().completed(), 3u);
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 5u);
    // The last run's 8-CU mask is what remains installed.
    EXPECT_EQ(s.hsaQueue().cuMask().count(), 8u);
}

TEST(ReconfigPolicy, SecondGroupElidesAgainstTrailingSize)
{
    SizedFixture fx;
    KrispRuntime krisp(fx.hip, fx.sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Group);
    Stream &s = fx.hip.createStream();
    fx.runGroup(krisp, s, {fx.large, fx.small, fx.small});
    ASSERT_EQ(krisp.stats().reconfigLaunches, 2u);

    // A whole follow-up group of the trailing size needs no protocol.
    fx.runGroup(krisp, s, {fx.small, fx.small, fx.small});
    const auto st = krisp.stats();
    EXPECT_EQ(st.launches, 6u);
    EXPECT_EQ(st.reconfigLaunches, 2u);
    EXPECT_EQ(st.reconfigElisions, 3u);
    EXPECT_EQ(st.groupedLaunches, 1u);
    EXPECT_EQ(fx.hip.ioctlService().completed(), 2u);
}

TEST(ReconfigPolicy, QueueWrapEndsGroup)
{
    // Small ring: 64 slots. 20 alternating-size launches (no elision,
    // 3 packets each) leave the tail 4 slots before the wrap; a
    // 30-kernel group must then break at the wrap -- [B1][B2][K][K]
    // fills the ring exactly -- and the remainder, now matching the
    // expected size, elides.
    SizedFixture fx(64);
    KrispRuntime krisp(fx.hip, fx.sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Group);
    Stream &s = fx.hip.createStream();
    std::vector<KernelDescPtr> warmup;
    for (int i = 0; i < 10; ++i) {
        warmup.push_back(fx.small);
        warmup.push_back(fx.large);
    }
    fx.runEach(krisp, s, warmup);
    ASSERT_EQ(s.hsaQueue().pushed(), 60u);
    const auto before = krisp.stats();
    ASSERT_EQ(before.reconfigLaunches, 20u);

    fx.runGroup(krisp, s,
                std::vector<KernelDescPtr>(30, fx.small));
    const auto st = krisp.stats();
    EXPECT_EQ(st.launches, 50u);
    // One protocol instance for the 2 kernels that fit before the
    // wrap; the remaining 28 elide against the size it installed.
    EXPECT_EQ(st.reconfigLaunches - before.reconfigLaunches, 1u);
    EXPECT_EQ(st.groupedLaunches, 1u);
    EXPECT_EQ(st.reconfigElisions, 28u);
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 50u);
}

TEST(ReconfigPolicy, FaultFallbackBlocksElision)
{
    Fixture fx;
    FixedSizer sizer(15);
    FaultPlan plan;
    plan.ioctlFailBurst = 4; // eat the whole default retry budget
    FaultInjector inject(plan);
    fx.hip.attachFault(&inject);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Elide);
    Stream &s = fx.hip.createStream();
    fx.runEach(krisp, s, {fx.kernel()});
    const auto st1 = krisp.stats();
    EXPECT_EQ(st1.reconfigRetries, 3u);
    EXPECT_EQ(st1.reconfigFallbacks, 1u);
    EXPECT_EQ(st1.emulatedReconfigs, 0u);
    // The held kernel completed under the static queue mask.
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 1u);
    // The fallback invalidated the tracking...
    EXPECT_EQ(s.expectedCus(), 0u);
    EXPECT_FALSE(s.installedMaskKnown());

    // ...so the next same-size launch reconfigures instead of eliding
    // against a mask that never landed (burst exhausted: it succeeds).
    fx.runEach(krisp, s, {fx.kernel()});
    const auto st2 = krisp.stats();
    EXPECT_EQ(st2.reconfigLaunches, 2u);
    EXPECT_EQ(st2.reconfigElisions, 0u);
    EXPECT_EQ(st2.emulatedReconfigs, 1u);
    EXPECT_EQ(s.hsaQueue().cuMask().count(), 15u);
}

TEST(ReconfigPolicy, AccountingInvariantHolds)
{
    SizedFixture fx;
    KrispRuntime krisp(fx.hip, fx.sizer, fx.alloc,
                       EnforcementMode::Emulated);
    krisp.setReconfigPolicy(ReconfigPolicy::Group);
    Stream &s = fx.hip.createStream();
    fx.runGroup(krisp, s,
                {fx.small, fx.small, fx.large, fx.large, fx.small});
    fx.runEach(krisp, s, {fx.small, fx.large, fx.large});
    fx.runGroup(krisp, s, {fx.large, fx.large, fx.small});
    const auto st = krisp.stats();
    // Every emulated launch is exactly one of: paid the protocol,
    // elided it, or rode a group leader.
    EXPECT_EQ(st.launches, st.reconfigLaunches + st.reconfigElisions +
                               st.groupedLaunches);
    EXPECT_EQ(st.launches, 11u);
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 11u);
}

TEST(ReconfigPolicy, StreamDestroyedMidRetryIsSafe)
{
    // An ioctl retry crosses a simulated backoff delay during which
    // the stream is destroyed. The retry must not touch the dead
    // stream: the reconfiguration is abandoned (a fallback) and the
    // kernel held behind B2 still drains through the device-owned
    // queue.
    Fixture fx;
    FixedSizer sizer(15);
    FaultPlan plan;
    plan.ioctlFailBurst = 2;
    FaultInjector inject(plan);
    fx.hip.attachFault(&inject);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    IoctlRetryPolicy retry;
    retry.backoffNs = ticksFromMs(10.0);
    krisp.setIoctlRetryPolicy(retry);
    Stream &s = fx.hip.createStream();
    const StreamId sid = s.id();
    auto sig = HsaSignal::create(1);
    bool completed = false;
    sig->waitZero([&] { completed = true; });
    krisp.launch(s, fx.kernel(), sig);
    // Well after the first ioctl failure, well before its retry.
    fx.eq.scheduleIn(ticksFromMs(5.0),
                     [&] { fx.hip.destroyStream(sid); });
    fx.eq.run();
    const auto st = krisp.stats();
    EXPECT_EQ(st.reconfigRetries, 1u);
    EXPECT_EQ(st.reconfigFallbacks, 1u);
    EXPECT_EQ(st.emulatedReconfigs, 0u);
    EXPECT_TRUE(completed);
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 1u);
    EXPECT_EQ(fx.hip.streamOrNull(sid), nullptr);
}

TEST(ReconfigPolicy, BackoffClampBoundsAdversarialPolicies)
{
    // A huge multiplier would push the raw backoff product far past
    // the Tick range (the double -> integer cast is undefined there).
    // The clamp caps every delay at one simulated hour, so the run
    // terminates after ~2 clamped waits instead of misbehaving.
    Fixture fx;
    FixedSizer sizer(15);
    FaultPlan plan;
    plan.ioctlFailBurst = 4;
    FaultInjector inject(plan);
    fx.hip.attachFault(&inject);
    KrispRuntime krisp(fx.hip, sizer, fx.alloc,
                       EnforcementMode::Emulated);
    IoctlRetryPolicy retry;
    retry.maxAttempts = 4;
    retry.backoffNs = ticksFromMs(1.0);
    retry.backoffMultiplier = 1e12;
    krisp.setIoctlRetryPolicy(retry);
    Stream &s = fx.hip.createStream();
    fx.runEach(krisp, s, {fx.kernel()});
    const auto st = krisp.stats();
    EXPECT_EQ(st.reconfigRetries, 3u);
    EXPECT_EQ(st.reconfigFallbacks, 1u);
    // Delays: 1 ms, then twice the 1 h clamp.
    EXPECT_GE(fx.eq.now(), 2 * maxReconfigBackoffNs);
    EXPECT_LT(fx.eq.now(), 2 * maxReconfigBackoffNs +
                               ticksFromSec(1.0));
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 1u);
}

TEST(ReconfigPolicy, MetricsIdenticalAcrossJobCounts)
{
    // The policy sweep the benches run, as a determinism oracle: the
    // same (policy, sequence) islands produce byte-identical metrics
    // snapshots whether they run inline or on 8 worker threads.
    constexpr ReconfigPolicy policies[] = {ReconfigPolicy::Always,
                                           ReconfigPolicy::Elide,
                                           ReconfigPolicy::Group};
    auto sweep = [&](unsigned jobs) {
        std::vector<std::string> out(6);
        harness::WorkerPool pool(jobs);
        pool.forEachIndex(out.size(), [&](std::size_t idx) {
            SizedFixture fx;
            ObsContext obs;
            obs.trace.setClock(&fx.eq);
            fx.hip.attachObs(&obs);
            KrispRuntime krisp(fx.hip, fx.sizer, fx.alloc,
                               EnforcementMode::Emulated, &obs);
            krisp.setReconfigPolicy(policies[idx % 3]);
            Stream &s = fx.hip.createStream();
            std::vector<KernelDescPtr> seq = {fx.small, fx.small,
                                              fx.large, fx.small};
            if (idx < 3)
                fx.runGroup(krisp, s, seq);
            else
                fx.runEach(krisp, s, seq);
            out[idx] = obs.metrics.toJson();
        });
        return out;
    };
    const auto inline_run = sweep(1);
    const auto threaded_run = sweep(8);
    ASSERT_EQ(inline_run.size(), threaded_run.size());
    for (std::size_t i = 0; i < inline_run.size(); ++i)
        EXPECT_EQ(inline_run[i], threaded_run[i]) << "island " << i;
}

TEST(ReconfigPolicy, NativeModeIgnoresPolicy)
{
    SizedFixture fx;
    KrispRuntime krisp(fx.hip, fx.sizer, fx.alloc,
                       EnforcementMode::Native);
    krisp.setReconfigPolicy(ReconfigPolicy::Group);
    Stream &s = fx.hip.createStream();
    fx.runGroup(krisp, s, {fx.small, fx.small, fx.large});
    const auto st = krisp.stats();
    EXPECT_EQ(st.launches, 3u);
    EXPECT_EQ(st.reconfigLaunches, 0u);
    EXPECT_EQ(st.reconfigElisions, 0u);
    EXPECT_EQ(st.groupedLaunches, 0u);
    EXPECT_EQ(s.hsaQueue().barriersPushed(), 0u);
    EXPECT_EQ(fx.device.stats().krispAllocations, 3u);
}

// ---- released-mask allocator cache ------------------------------

TEST(MaskAllocatorCache, DisabledByDefault)
{
    const ArchParams arch = ArchParams::mi50();
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    EXPECT_FALSE(alloc.maskCacheEnabled());
    const CuMask m = alloc.allocate(19, mon);
    alloc.noteReleased(m);
    alloc.allocate(19, mon);
    EXPECT_EQ(alloc.stats().cacheHits, 0u);
}

TEST(MaskAllocatorCache, RepeatSizeHitsAndConsumes)
{
    const ArchParams arch = ArchParams::mi50();
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    alloc.setMaskCacheEnabled(true);
    const CuMask m = alloc.allocate(19, mon);
    alloc.noteReleased(m);
    const CuMask hit = alloc.allocate(19, mon);
    EXPECT_TRUE(hit == m); // grant-stable
    EXPECT_EQ(alloc.stats().cacheHits, 1u);
    // Consume-on-hit: without a new release the next request searches.
    alloc.allocate(19, mon);
    EXPECT_EQ(alloc.stats().cacheHits, 1u);
}

TEST(MaskAllocatorCache, BusyCusInvalidateTheSlot)
{
    const ArchParams arch = ArchParams::mi50();
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    alloc.setMaskCacheEnabled(true);
    const CuMask m = alloc.allocate(19, mon);
    alloc.noteReleased(m);
    mon.addKernel(m); // the released CUs are busy again
    alloc.allocate(19, mon);
    EXPECT_EQ(alloc.stats().cacheHits, 0u);
}

TEST(MaskAllocatorCache, KeyedBySize)
{
    const ArchParams arch = ArchParams::mi50();
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    alloc.setMaskCacheEnabled(true);
    alloc.noteReleased(alloc.allocate(19, mon));
    alloc.allocate(24, mon); // different size: no hit
    EXPECT_EQ(alloc.stats().cacheHits, 0u);
    alloc.allocate(19, mon); // the 19-CU slot is still there
    EXPECT_EQ(alloc.stats().cacheHits, 1u);
}

TEST(MaskAllocatorCache, DisablingDropsCachedMasks)
{
    const ArchParams arch = ArchParams::mi50();
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    alloc.setMaskCacheEnabled(true);
    alloc.noteReleased(alloc.allocate(19, mon));
    alloc.setMaskCacheEnabled(false);
    alloc.setMaskCacheEnabled(true);
    alloc.allocate(19, mon);
    EXPECT_EQ(alloc.stats().cacheHits, 0u);
}

} // namespace
} // namespace krisp
