/**
 * @file
 * Integration-level tests of the GPU device model: command-processor
 * packet handling, barrier semantics, CU-mask enforcement, contention
 * and power accounting.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/mask_allocator.hh"
#include "gpu/gpu_device.hh"
#include "kern/kernel_builder.hh"
#include "kern/timing_model.hh"

namespace krisp
{
namespace
{

const ArchParams arch = ArchParams::mi50();

KernelDescPtr
computeKernel(unsigned wgs, double wg_ns, unsigned sat = 1)
{
    auto d = std::make_shared<KernelDescriptor>();
    d->name = "synthetic";
    d->numWorkgroups = wgs;
    d->wgDurationNs = wg_ns;
    d->saturationWgsPerCu = sat;
    d->bytes = 0;
    return d;
}

struct Fixture
{
    EventQueue eq;
    GpuConfig cfg = GpuConfig::mi50();
    GpuDevice device{eq, cfg};

    Tick
    overheadNs() const
    {
        return cfg.packetProcessNs + cfg.kernelLaunchOverheadNs;
    }
};

TEST(GpuDevice, SingleKernelLatencyMatchesTimingModel)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    auto k = computeKernel(240, 100.0);
    Tick done_at = 0;
    auto sig = HsaSignal::create(1);
    sig->waitZero([&] { done_at = fx.eq.now(); });
    q.push(AqlPacket::dispatch(k, sig));
    fx.eq.run();

    const double model =
        timing::computeTimeNs(*k, CuMask::full(arch), arch);
    EXPECT_EQ(done_at,
              fx.overheadNs() + static_cast<Tick>(model));
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 1u);
    EXPECT_TRUE(fx.device.idle());
}

TEST(GpuDevice, BarrierBitSerialisesQueue)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    std::vector<Tick> done;
    for (int i = 0; i < 3; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&] { done.push_back(fx.eq.now()); });
        q.push(AqlPacket::dispatch(computeKernel(60, 100.0), sig,
                                   0, /*barrier_bit=*/true));
    }
    fx.eq.run();
    ASSERT_EQ(done.size(), 3u);
    // Strictly serialised: each completion at least a kernel apart.
    EXPECT_GT(done[1], done[0]);
    EXPECT_GT(done[2], done[1]);
    EXPECT_GE(done[1] - done[0], 100u);
}

TEST(GpuDevice, NonBarrierKernelsOverlap)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    std::vector<Tick> done;
    for (int i = 0; i < 2; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&] { done.push_back(fx.eq.now()); });
        q.push(AqlPacket::dispatch(computeKernel(60, 1000.0), sig,
                                   0, /*barrier_bit=*/false));
    }
    fx.eq.run();
    ASSERT_EQ(done.size(), 2u);
    // Overlapping: the second finishes well before 2x the solo time.
    EXPECT_LT(done[1] - done[0],
              static_cast<Tick>(1000));
}

TEST(GpuDevice, QueueCuMaskRestrictsKernels)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    fx.device.setQueueCuMask(q.id(), CuMask::firstN(15));
    auto k = computeKernel(600, 10.0);
    Tick done_at = 0;
    auto sig = HsaSignal::create(1);
    sig->waitZero([&] { done_at = fx.eq.now(); });
    q.push(AqlPacket::dispatch(k, sig));
    fx.eq.run();
    const double expect =
        timing::computeTimeNs(*k, CuMask::firstN(15), arch);
    EXPECT_EQ(done_at,
              fx.overheadNs() + static_cast<Tick>(expect));
}

TEST(GpuDevice, TwoQueuesRunConcurrently)
{
    Fixture fx;
    HsaQueue &qa = fx.device.createQueue();
    HsaQueue &qb = fx.device.createQueue();
    // Disjoint masks: no contention at all.
    fx.device.setQueueCuMask(qa.id(), CuMask::firstN(30));
    CuMask high;
    for (unsigned cu = 30; cu < 60; ++cu)
        high.set(cu);
    fx.device.setQueueCuMask(qb.id(), high);

    std::vector<Tick> done(2, 0);
    for (int i = 0; i < 2; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&, i] { done[i] = fx.eq.now(); });
        (i == 0 ? qa : qb)
            .push(AqlPacket::dispatch(computeKernel(300, 10.0), sig));
    }
    fx.eq.run();
    // Both finish at the same time: truly parallel.
    EXPECT_EQ(done[0], done[1]);
}

TEST(GpuDevice, SharedCusSlowBothDown)
{
    Fixture fx;
    HsaQueue &qa = fx.device.createQueue();
    HsaQueue &qb = fx.device.createQueue();
    // Both saturating kernels on the full device.
    Tick solo_done = 0;
    {
        EventQueue eq2;
        GpuDevice dev2(eq2, fx.cfg);
        HsaQueue &q2 = dev2.createQueue();
        auto sig = HsaSignal::create(1);
        sig->waitZero([&] { solo_done = eq2.now(); });
        q2.push(AqlPacket::dispatch(computeKernel(2400, 1000.0), sig));
        eq2.run();
    }
    std::vector<Tick> done(2, 0);
    for (int i = 0; i < 2; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&, i] { done[i] = fx.eq.now(); });
        (i == 0 ? qa : qb)
            .push(AqlPacket::dispatch(computeKernel(2400, 1000.0),
                                      sig));
    }
    fx.eq.run();
    // Two saturating kernels sharing all CUs take roughly twice the
    // solo time (plus the interference penalty).
    EXPECT_GT(done[0], solo_done + solo_done / 2);
    EXPECT_GT(done[1], solo_done + solo_done / 2);
}

TEST(GpuDevice, LowOccupancyKernelsShareWithoutSlowdown)
{
    // Two kernels that each need only ~12 CUs' worth of capacity can
    // co-run on the full device at solo speed — the MPS-default
    // behaviour for under-utilising models.
    Fixture fx;
    HsaQueue &qa = fx.device.createQueue();
    HsaQueue &qb = fx.device.createQueue();
    Tick solo_done = 0;
    {
        EventQueue eq2;
        GpuDevice dev2(eq2, fx.cfg);
        HsaQueue &q2 = dev2.createQueue();
        auto sig = HsaSignal::create(1);
        sig->waitZero([&] { solo_done = eq2.now(); });
        q2.push(AqlPacket::dispatch(computeKernel(48, 100.0, 4), sig));
        eq2.run();
    }
    std::vector<Tick> done(2, 0);
    for (int i = 0; i < 2; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&, i] { done[i] = fx.eq.now(); });
        (i == 0 ? qa : qb)
            .push(AqlPacket::dispatch(computeKernel(48, 100.0, 4),
                                      sig));
    }
    fx.eq.run();
    // Within the small interference penalty of solo latency.
    EXPECT_LT(done[0], solo_done + solo_done / 5);
    EXPECT_LT(done[1], solo_done + solo_done / 5);
}

/**
 * Push @p n copies of @p k onto the first @p n of @p queues at the
 * current tick, run them to completion, and expect each to finish
 * within one tick of start + overhead + solo compute time divided by
 * contentionPenalty^(n - 1): with summed demand <= 1 the occupancy
 * scale is 1, so the co-residency penalty is the only slowdown.
 */
void
expectPenalisedWave(Fixture &fx, const std::vector<HsaQueue *> &queues,
                    const KernelDescPtr &k, unsigned n)
{
    const Tick start = fx.eq.now();
    std::vector<Tick> done(n, 0);
    for (unsigned i = 0; i < n; ++i) {
        auto sig = HsaSignal::create(1);
        sig->waitZero([&, i] { done[i] = fx.eq.now(); });
        queues[i]->push(AqlPacket::dispatch(k, sig));
    }
    fx.eq.run();
    const double solo =
        timing::computeTimeNs(*k, CuMask::full(arch), arch);
    const double expect =
        static_cast<double>(start + fx.overheadNs()) +
        solo / std::pow(fx.cfg.contentionPenalty, n - 1.0);
    for (unsigned i = 0; i < n; ++i)
        EXPECT_NEAR(static_cast<double>(done[i]), expect, 1.0)
            << n << " co-resident kernels, kernel " << i;
}

TEST(GpuDevice, ContentionPenaltyCompoundsPerCoResidentKernel)
{
    // 6 workgroups at saturation 8 ask for 1/80 of the device each.
    const auto k = computeKernel(6, 1000.0, 8);
    for (unsigned n = 1; n <= 8; ++n) {
        Fixture fx;
        std::vector<HsaQueue *> queues;
        for (unsigned i = 0; i < n; ++i)
            queues.push_back(&fx.device.createQueue());
        expectPenalisedWave(fx, queues, k, n);
    }
}

TEST(GpuDevice, ContentionPenaltyHoldsAcrossWavesOfAnySize)
{
    // One device: the second wave needs penalty powers past the first
    // wave's, the third and fourth read back powers already held.
    Fixture fx;
    std::vector<HsaQueue *> queues;
    for (unsigned i = 0; i < 8; ++i)
        queues.push_back(&fx.device.createQueue());
    const auto k = computeKernel(6, 1000.0, 8);
    for (const unsigned n : {2u, 8u, 1u, 5u})
        expectPenalisedWave(fx, queues, k, n);
}

TEST(GpuDevice, BarrierAndWaitsForDependencies)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    auto dep = HsaSignal::create(1);
    auto done = HsaSignal::create(1);
    Tick done_at = 0;
    done->waitZero([&] { done_at = fx.eq.now(); });
    q.push(AqlPacket::barrier({dep}, done));
    fx.eq.scheduleIn(5000, [&] { dep->subtract(1); });
    fx.eq.run();
    EXPECT_GE(done_at, 5000u);
}

TEST(GpuDevice, BarrierWithSatisfiedDepsCompletes)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    auto dep = HsaSignal::create(0); // already satisfied
    auto done = HsaSignal::create(1);
    bool fired = false;
    done->waitZero([&] { fired = true; });
    q.push(AqlPacket::barrier({dep}, done));
    fx.eq.run();
    EXPECT_TRUE(fired);
}

TEST(GpuDevice, OnCompleteHookRuns)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    bool hook = false;
    AqlPacket pkt =
        AqlPacket::dispatch(computeKernel(60, 10.0), nullptr);
    pkt.onComplete = [&] { hook = true; };
    q.push(std::move(pkt));
    fx.eq.run();
    EXPECT_TRUE(hook);
}

TEST(GpuDevice, ResourceMonitorTracksRunningKernels)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    fx.device.setQueueCuMask(q.id(), CuMask::firstN(10));
    q.push(AqlPacket::dispatch(computeKernel(600, 1000.0), nullptr));
    // After dispatch the counters cover exactly the mask.
    fx.eq.run(fx.overheadNs() + 10);
    EXPECT_EQ(fx.device.monitor().residentKernels(), 1u);
    EXPECT_EQ(fx.device.monitor().busyCus(), 10u);
    EXPECT_EQ(fx.device.monitor().kernelsOnCu(0), 1u);
    EXPECT_EQ(fx.device.monitor().kernelsOnCu(10), 0u);
    fx.eq.run();
    EXPECT_EQ(fx.device.monitor().residentKernels(), 0u);
    EXPECT_EQ(fx.device.monitor().busyCus(), 0u);
}

TEST(GpuDevice, KrispAllocatorGeneratesPerKernelMasks)
{
    Fixture fx;
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    fx.device.setKrispAllocator(&alloc);
    HsaQueue &q = fx.device.createQueue();
    auto k = computeKernel(600, 10.0);
    Tick done_at = 0;
    auto sig = HsaSignal::create(1);
    sig->waitZero([&] { done_at = fx.eq.now(); });
    q.push(AqlPacket::dispatch(k, sig, /*requested_cus=*/15));
    fx.eq.run();
    EXPECT_EQ(fx.device.stats().krispAllocations, 1u);
    EXPECT_EQ(alloc.stats().requests, 1u);
    // Latency reflects a 15-CU partition plus the allocation stage.
    const double expect =
        timing::computeTimeNs(*k, CuMask::firstN(15), arch);
    EXPECT_EQ(done_at, fx.overheadNs() + fx.cfg.allocLatencyNs +
                           static_cast<Tick>(expect));
}

TEST(GpuDevice, RequestedCusIgnoredWithoutAllocator)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    auto k = computeKernel(600, 10.0);
    Tick done_at = 0;
    auto sig = HsaSignal::create(1);
    sig->waitZero([&] { done_at = fx.eq.now(); });
    q.push(AqlPacket::dispatch(k, sig, /*requested_cus=*/15));
    fx.eq.run();
    EXPECT_EQ(fx.device.stats().krispAllocations, 0u);
    const double full =
        timing::computeTimeNs(*k, CuMask::full(arch), arch);
    EXPECT_EQ(done_at, fx.overheadNs() + static_cast<Tick>(full));
}

TEST(GpuDevice, PowerIdleVsBusy)
{
    Fixture fx;
    EXPECT_DOUBLE_EQ(fx.device.power().currentPowerW(),
                     fx.cfg.power.idleW);
    HsaQueue &q = fx.device.createQueue();
    fx.device.setQueueCuMask(q.id(), CuMask::firstN(15)); // one SE
    q.push(AqlPacket::dispatch(computeKernel(1500, 1000.0), nullptr));
    fx.eq.run(fx.overheadNs() + 10);
    const double busy = fx.device.power().currentPowerW();
    EXPECT_NEAR(busy,
                fx.cfg.power.idleW + 15 * fx.cfg.power.cuActiveW +
                    fx.cfg.power.seUncoreW,
                1e-9);
    fx.eq.run();
    EXPECT_DOUBLE_EQ(fx.device.power().currentPowerW(),
                     fx.cfg.power.idleW);
    EXPECT_GT(fx.device.power().energyJoules(), 0.0);
}

TEST(GpuDevice, PowerCountsStartedKernelsOnly)
{
    // Kernel a runs on SE 0. Kernel b is dispatched on SE 1 so that
    // a completes inside b's launch overhead: Algorithm 1's monitor
    // already counts b, but b occupies no CU yet, so the re-rating at
    // a's completion leaves the board idle.
    Fixture fx;
    HsaQueue &qa = fx.device.createQueue();
    HsaQueue &qb = fx.device.createQueue();
    fx.device.setQueueCuMask(qa.id(), CuMask::firstN(15));
    CuMask se1;
    for (unsigned cu = 15; cu < 30; ++cu)
        se1.set(cu);
    fx.device.setQueueCuMask(qb.id(), se1);
    const auto ka = computeKernel(150, 1000.0);
    const Tick a_done =
        fx.overheadNs() + static_cast<Tick>(timing::computeTimeNs(
                              *ka, CuMask::firstN(15), arch));
    qa.push(AqlPacket::dispatch(ka, nullptr));
    const Tick b_pushed = a_done - fx.cfg.kernelLaunchOverheadNs / 2 -
                          fx.cfg.packetProcessNs;
    fx.eq.schedule(b_pushed, [&] {
        qb.push(AqlPacket::dispatch(computeKernel(150, 1000.0),
                                    nullptr));
    });
    const PowerParams &p = fx.cfg.power;
    const double one_se_busy = p.idleW + 15 * p.cuActiveW + p.seUncoreW;

    fx.eq.run(a_done - 1);
    EXPECT_NEAR(fx.device.power().currentPowerW(), one_se_busy, 1e-9);
    fx.eq.run(a_done);
    EXPECT_EQ(fx.device.stats().kernelsCompleted, 1u);
    EXPECT_EQ(fx.device.monitor().residentKernels(), 1u);
    EXPECT_EQ(fx.device.monitor().busyCus(), 15u);
    EXPECT_DOUBLE_EQ(fx.device.power().currentPowerW(), p.idleW);
    fx.eq.run(b_pushed + fx.overheadNs());
    EXPECT_NEAR(fx.device.power().currentPowerW(), one_se_busy, 1e-9);
    fx.eq.run();
    EXPECT_DOUBLE_EQ(fx.device.power().currentPowerW(), p.idleW);
}

TEST(GpuDevice, EnergyIntegratesOverTime)
{
    Fixture fx;
    // Idle for exactly one second.
    fx.eq.schedule(ticksFromSec(1.0), [] {});
    fx.eq.run();
    EXPECT_NEAR(fx.device.power().energyJoules(),
                fx.cfg.power.idleW, 1e-6);
}

TEST(GpuDevice, MemoryBoundKernelUsesBandwidthPower)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    auto k = std::make_shared<KernelDescriptor>(
        makeElementwise(arch, 64u << 20, "relu", 1));
    q.push(AqlPacket::dispatch(k, nullptr));
    fx.eq.run(fx.overheadNs() + 10);
    // Full-bandwidth streaming adds close to the max memory power.
    EXPECT_GT(fx.device.power().currentPowerW(),
              fx.cfg.power.idleW + fx.cfg.power.memMaxW * 0.8);
    fx.eq.run();
}

TEST(GpuDevice, ManyKernelsStatsConsistent)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    const int n = 50;
    auto sig = HsaSignal::create(n);
    bool all_done = false;
    sig->waitZero([&] { all_done = true; });
    for (int i = 0; i < n; ++i)
        q.push(AqlPacket::dispatch(computeKernel(60, 50.0), sig));
    fx.eq.run();
    EXPECT_TRUE(all_done);
    EXPECT_EQ(fx.device.stats().kernelsDispatched,
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(fx.device.stats().kernelsCompleted,
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(fx.device.stats().packetsProcessed,
              static_cast<std::uint64_t>(n));
    EXPECT_GT(fx.device.stats().kernelLatencyNs.mean(), 0.0);
}

TEST(GpuDevice, QueueLimitEnforced)
{
    Fixture fx;
    for (std::size_t i = 0; i < fx.cfg.maxQueues; ++i)
        fx.device.createQueue();
    EXPECT_EXIT(fx.device.createQueue(),
                ::testing::ExitedWithCode(1), "queue limit");
}

TEST(GpuDeviceDeath, EmptyQueueMaskRejected)
{
    Fixture fx;
    HsaQueue &q = fx.device.createQueue();
    EXPECT_EXIT(fx.device.setQueueCuMask(q.id(), CuMask()),
                ::testing::ExitedWithCode(1), "empty");
}

TEST(GpuDeviceDeath, MaskBeyondDeviceRejectedAtDispatch)
{
    // setQueueCuMask takes any non-empty mask; a CU above the
    // device's last one is caught when a kernel is dispatched on it.
    Fixture fx;
    ASSERT_EQ(fx.cfg.arch.totalCus(), 60u);
    HsaQueue &q = fx.device.createQueue();
    fx.device.setQueueCuMask(q.id(), CuMask::ofBits(std::uint64_t{1} << 60));
    q.push(AqlPacket::dispatch(computeKernel(60, 100.0),
                               HsaSignal::create(1)));
    EXPECT_DEATH(fx.eq.run(), "beyond the device");
}

} // namespace
} // namespace krisp
