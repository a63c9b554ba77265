/**
 * @file
 * Golden-file regression tests: miniature fig07 (allocation policies)
 * and fig12 (emulation overhead) configurations, plus one small run of
 * each serving loop (closed loop, open loop, cluster, LLM engine),
 * rendered to metrics JSON and byte-compared against snapshots in
 * tests/golden/. Serving-loop traces and timelines are pinned as an
 * FNV-1a digest plus record count (serving_digests.txt); the device
 * fluid model's retirements, energy and latency stats over seeded
 * random kernel mixes as one digest per device shape, mix and seed
 * (device_fluid_digests.txt); one trace sink driven by hand through
 * every record kind, phase and argument type, retained and streamed
 * (trace_sink_digests.txt).
 *
 * The simulator is deterministic end to end, so the comparison is
 * exact — any divergence is a real behaviour change. To review and
 * accept one, rerun with KRISP_UPDATE_GOLDEN=1 (the test then
 * rewrites the snapshot and passes) and commit the diff.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "common/fnv.hh"
#include "common/random.hh"
#include "core/krisp_runtime.hh"
#include "core/mask_allocator.hh"
#include "fault/fault_injector.hh"
#include "gpu/gpu_device.hh"
#include "models/model_zoo.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "server/inference_server.hh"
#include "server/llm_engine.hh"
#include "server/load_generator.hh"
#include "sim/event_queue.hh"

#ifndef KRISP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define KRISP_GOLDEN_DIR"
#endif

namespace krisp
{
namespace
{

std::string
goldenPath(const std::string &name)
{
    return std::string(KRISP_GOLDEN_DIR) + "/" + name;
}

bool
updateRequested()
{
    const char *env = std::getenv("KRISP_UPDATE_GOLDEN");
    return env != nullptr && env[0] == '1';
}

void
compareWithGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (updateRequested()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with KRISP_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "golden mismatch for " << name
        << "; if the change is intended, rerun with "
           "KRISP_UPDATE_GOLDEN=1 and commit the new snapshot";
}

/** Miniature fig07: 19 CUs under each policy, idle and loaded. */
TEST(Golden, Fig07MiniAllocPolicies)
{
    const ArchParams arch = ArchParams::mi50();
    MetricsRegistry m;
    for (const bool loaded : {false, true}) {
        ResourceMonitor mon(arch);
        if (loaded)
            mon.addKernel(CuMask::firstN(20));
        const std::string scenario = loaded ? "loaded" : "idle";
        for (const auto policy : {DistributionPolicy::Distributed,
                                  DistributionPolicy::Packed,
                                  DistributionPolicy::Conserved}) {
            MaskAllocator alloc(policy);
            const CuMask mask = alloc.allocate(19, mon);
            const std::string prefix =
                scenario + "." + distributionPolicyName(policy);
            for (unsigned se = 0; se < arch.numSe; ++se) {
                m.gauge(prefix + ".se" + std::to_string(se))
                    .set(static_cast<double>(
                        mask.countInSe(arch, se)));
            }
            m.label(prefix + ".mask").set(mask.toString(arch));
        }
    }
    compareWithGolden("fig07_mini.json", m.toJson());
}

/** One full inference pass; the end tick is the model latency. */
Tick
runMiniPass(const std::vector<KernelDescPtr> &seq,
            EnforcementMode mode)
{
    EventQueue eq;
    const GpuConfig gpu = GpuConfig::mi50();
    GpuDevice device(eq, gpu);
    HipRuntime hip(eq, device);
    FixedSizer sizer(gpu.arch.totalCus());
    MaskAllocator alloc(DistributionPolicy::Conserved);
    KrispRuntime krisp(hip, sizer, alloc, mode);
    Stream &s = hip.createStream();
    auto sig =
        HsaSignal::create(static_cast<std::int64_t>(seq.size()));
    Tick end = 0;
    sig->waitZero([&] { end = eq.now(); });
    for (const auto &k : seq)
        krisp.launch(s, k, sig);
    eq.run();
    return end;
}

/** Miniature fig12: native vs emulated latency for two models. */
TEST(Golden, Fig12MiniEmulationOverhead)
{
    ModelZoo zoo(ArchParams::mi50());
    MetricsRegistry m;
    for (const char *model : {"shufflenet", "resnet152"}) {
        const auto &seq = zoo.kernels(model, 8);
        const Tick native =
            runMiniPass(seq, EnforcementMode::Native);
        const Tick emulated =
            runMiniPass(seq, EnforcementMode::Emulated);
        const std::string prefix = model;
        m.gauge(prefix + ".kernels")
            .set(static_cast<double>(seq.size()));
        m.gauge(prefix + ".l_native_ns")
            .set(static_cast<double>(native));
        m.gauge(prefix + ".l_emulated_ns")
            .set(static_cast<double>(emulated));
        m.gauge(prefix + ".l_over_ns")
            .set(static_cast<double>(emulated - native));
    }
    compareWithGolden("fig12_mini.json", m.toJson());
}

// ---- serving loops ------------------------------------------------
//
// Every knob that would otherwise fall back to a KRISP_* environment
// default (reconfig policy, trace sampling, timeline window) is set
// explicitly, so the snapshots do not depend on the caller's env.

/** A context with a 10 ms timeline and explicit trace sampling. */
void
prepareObs(ObsContext &obs, std::uint64_t sample)
{
    obs.timeline.enable(10'000'000);
    obs.trace.setSample(sample);
}

/** "<name> records=<n> fnv=<hex>" over one serialised artifact. */
std::string
digestLine(const std::string &name, std::size_t records,
           const std::string &bytes)
{
    return name + " records=" + std::to_string(records) +
           " fnv=" + fnvHex(Fnv1a().add(bytes).value()) + "\n";
}

/** Trace and timeline digests of one run. */
std::string
obsDigests(const std::string &run, const ObsContext &obs)
{
    return digestLine(run + ".trace", obs.trace.size(),
                      obs.trace.toChromeJson()) +
           digestLine(run + ".timeline", obs.timeline.windows().size(),
                      obs.timeline.toJson());
}

/** Closed loop: two models, emulated KRISP-I, per-kernel protocol. */
std::string
runClosedLoop(ObsContext &obs)
{
    prepareObs(obs, 0);
    ServerConfig cfg;
    cfg.workerModels = {"shufflenet", "squeezenet"};
    cfg.batch = 4;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.enforcement = EnforcementMode::Emulated;
    cfg.reconfig = ReconfigPolicy::Always;
    cfg.warmupRequests = 1;
    cfg.measuredRequests = 4;
    cfg.obs = &obs;
    InferenceServer(cfg).run();
    return obs.metrics.toJson();
}

/** Open loop: native KRISP-I under overload (drops + deadline
 *  sheds), 1/8 request sampling. */
std::string
runOpenLoop(ObsContext &obs)
{
    prepareObs(obs, 8);
    OpenLoopConfig cfg;
    cfg.model = "shufflenet";
    cfg.numWorkers = 2;
    cfg.arrivalRatePerSec = 3000;
    cfg.maxBatch = 8;
    cfg.queueCapacity = 24;
    cfg.requestDeadlineNs = ticksFromMs(6.0);
    cfg.reconfig = ReconfigPolicy::Elide;
    cfg.warmupNs = ticksFromMs(10);
    cfg.measureNs = ticksFromMs(60);
    cfg.seed = 5;
    cfg.obs = &obs;
    OpenLoopServer(cfg).run();
    return obs.metrics.toJson();
}

/** Cluster: two emulated shards with resilience and one crash. */
std::string
runCluster(ObsContext &obs)
{
    prepareObs(obs, 4);
    ClusterConfig cfg;
    cfg.numShards = 2;
    cfg.models = {"squeezenet", "shufflenet"};
    cfg.workersPerShard = 2;
    cfg.enforcement = EnforcementMode::Emulated;
    cfg.reconfig = ReconfigPolicy::Group;
    cfg.arrivalRatePerSec = 300.0;
    cfg.warmupNs = ticksFromMs(20);
    cfg.measureNs = ticksFromMs(150);
    cfg.resilience.enabled = true;
    cfg.faults.shardCrashRatePerSec = 6.0;
    cfg.faults.shardRestartNs = ticksFromMs(15.0);
    cfg.seed = 3;
    cfg.obs = &obs;
    ClusterServer(cfg).run();
    return obs.metrics.toJson();
}

/** LLM engine: MPS continuous batching on two shards. */
std::string
runLlm(ObsContext &obs)
{
    prepareObs(obs, 0);
    LlmEngineConfig cfg;
    cfg.model = "llm-small";
    cfg.numShards = 2;
    cfg.policy = PartitionPolicy::MpsDefault;
    cfg.reconfig = ReconfigPolicy::Always;
    cfg.arrivalRatePerSec = 128.0;
    cfg.promptMinTokens = 16;
    cfg.promptMaxTokens = 64;
    cfg.outputMinTokens = 8;
    cfg.outputMaxTokens = 24;
    cfg.maxDecodeBatch = 4;
    cfg.kvBudgetBytes = 64.0 * 1024 * 1024;
    cfg.warmupNs = 10'000'000;
    cfg.measureNs = 60'000'000;
    cfg.seed = 7;
    cfg.obs = &obs;
    LlmEngine(cfg).run();
    return obs.metrics.toJson();
}

TEST(Golden, ServingClosedLoopMetrics)
{
    ObsContext obs;
    compareWithGolden("serving_closed.json", runClosedLoop(obs));
}

TEST(Golden, ServingOpenLoopMetrics)
{
    ObsContext obs;
    compareWithGolden("serving_open.json", runOpenLoop(obs));
}

TEST(Golden, ServingClusterMetrics)
{
    ObsContext obs;
    compareWithGolden("serving_cluster.json", runCluster(obs));
}

TEST(Golden, ServingLlmMetrics)
{
    ObsContext obs;
    compareWithGolden("serving_llm.json", runLlm(obs));
}

/** Chrome traces and timelines of the serving loops, as digests. */
TEST(Golden, ServingTraceDigests)
{
    std::string digests;
    {
        ObsContext obs;
        runClosedLoop(obs);
        digests += obsDigests("closed", obs);
    }
    {
        ObsContext obs;
        runOpenLoop(obs);
        digests += obsDigests("open", obs);
    }
    {
        ObsContext obs;
        runCluster(obs);
        digests += obsDigests("cluster", obs);
    }
    {
        ObsContext obs;
        runLlm(obs);
        digests += obsDigests("llm", obs);
    }
    compareWithGolden("serving_digests.txt", digests);
}

// ---- device fluid model -------------------------------------------

/** A mask of random CUs of @p arch, never empty. */
CuMask
randomDeviceMask(Rng &rng, const ArchParams &arch)
{
    const std::uint64_t device = CuMask::full(arch).bits();
    std::uint64_t bits = 0;
    while (bits == 0)
        bits = rng() & rng() & device; // about a quarter of the CUs
    return CuMask::ofBits(bits);
}

/** A random kernel: sometimes zero-byte, sometimes over-occupying. */
KernelDescPtr
randomKernel(Rng &rng, const ArchParams &arch)
{
    auto d = std::make_shared<KernelDescriptor>();
    d->name = "k" + std::to_string(rng.below(1000));
    d->numWorkgroups = static_cast<std::uint32_t>(
        1 + rng.below(4 * std::uint64_t(arch.totalCus())));
    d->wgDurationNs = rng.uniform(20.0, 400.0);
    d->saturationWgsPerCu = static_cast<unsigned>(rng.below(9));
    d->issueFactor = rng.uniform(0.25, 2.0);
    d->bytes = rng.chance(0.3) ? 0.0 : rng.uniform(1e3, 2e6);
    return d;
}

/**
 * One seeded closed-loop mix on a @p num_se x @p cus_per_se device:
 * 20 queues keep @p in_flight kernels in flight, each completion
 * launches the next. Kernels take whole-device or random partial
 * queue masks (changed as the run goes) or Algorithm 1 masks; with
 * @p whole_device_only every queue keeps the whole-device mask and no
 * kernel requests a partition (the MPS regime, where every busy CU is
 * covered by the same kernels). Half of the kernels reuse a few
 * shared descriptors so bandwidth demands tie; hung and slowed
 * kernels are injected and the watchdog kills the hung ones. The
 * digest folds every retirement, the energy bits and the kernel
 * latency moments.
 */
std::string
runDeviceMix(unsigned num_se, unsigned cus_per_se, std::uint64_t seed,
             unsigned in_flight = 24, bool whole_device_only = false)
{
    constexpr unsigned numQueues = 20;
    constexpr unsigned totalKernels = 1500;

    EventQueue eq;
    GpuConfig cfg = GpuConfig::mi50();
    cfg.arch.numSe = num_se;
    cfg.arch.cusPerSe = cus_per_se;
    // Board power dominated by the bandwidth term, with small
    // power-of-two CU and SE weights: power, and so the energy bits,
    // keep the low bits of every bandwidth grant, so a one-ulp change
    // in any kernel's rate shows in the digest.
    cfg.power.idleW = 0;
    cfg.power.cuActiveW = 0x1p-20;
    cfg.power.seUncoreW = 0x1p-16;
    cfg.power.memMaxW = 1000.0;
    const ArchParams &arch = cfg.arch;
    GpuDevice device(eq, cfg);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    device.setKrispAllocator(&alloc);
    FaultPlan plan;
    plan.seed = seed;
    plan.kernelHangProb = 0.01;
    plan.kernelSlowProb = 0.08;
    plan.watchdogTimeoutNs = 1'000'000;
    FaultInjector fault(plan);
    device.attachFault(&fault);

    Fnv1a fnv;
    device.setTraceFn([&](const KernelTraceEvent &ev) {
        fnv.add(std::uint64_t(ev.id))
            .add(std::uint64_t(ev.queue))
            .add(ev.mask.bits())
            .add(std::uint64_t(ev.dispatchTick))
            .add(std::uint64_t(ev.startTick))
            .add(std::uint64_t(ev.endTick));
    });

    Rng rng(seed);
    std::vector<KernelDescPtr> shared;
    for (int i = 0; i < 4; ++i)
        shared.push_back(randomKernel(rng, arch));
    std::vector<HsaQueue *> queues;
    for (unsigned q = 0; q < numQueues; ++q) {
        queues.push_back(&device.createQueue());
        if (!whole_device_only && rng.chance(0.5)) {
            device.setQueueCuMask(queues.back()->id(),
                                  randomDeviceMask(rng, arch));
        }
    }

    unsigned launched = 0;
    std::function<void()> launch = [&] {
        if (launched == totalKernels)
            return;
        ++launched;
        HsaQueue &q = *queues[rng.below(numQueues)];
        if (!whole_device_only && rng.chance(0.1)) {
            device.setQueueCuMask(q.id(),
                                  rng.chance(0.5)
                                      ? CuMask::full(arch)
                                      : randomDeviceMask(rng, arch));
        }
        KernelDescPtr k = rng.chance(0.5)
                              ? shared[rng.below(shared.size())]
                              : randomKernel(rng, arch);
        const unsigned requested =
            !whole_device_only && rng.chance(0.3)
                ? static_cast<unsigned>(1 + rng.below(arch.totalCus()))
                : 0;
        AqlPacket pkt = AqlPacket::dispatch(std::move(k), nullptr,
                                            requested, rng.chance(0.1));
        pkt.onComplete = [&] { launch(); };
        q.push(std::move(pkt));
    };
    for (unsigned i = 0; i < in_flight; ++i)
        launch();
    eq.run();

    const GpuDeviceStats &st = device.stats();
    EXPECT_EQ(st.kernelsCompleted, totalKernels);
    EXPECT_GE(st.concurrencyAtDispatch.max(),
              std::min(17.0, in_flight - 1.0))
        << "the mix must keep its kernels running at once (more than "
           "16 of them when it can)";
    EXPECT_GT(st.watchdogKills, 0u);
    EXPECT_TRUE(device.idle());

    fnv.add(device.power().energyJoules())
        .add(std::uint64_t(st.kernelLatencyNs.count()))
        .add(st.kernelLatencyNs.mean())
        .add(st.kernelLatencyNs.variance())
        .add(st.kernelLatencyNs.min())
        .add(st.kernelLatencyNs.max());
    return std::to_string(num_se) + "x" + std::to_string(cus_per_se) +
           (whole_device_only
                ? " whole-device in_flight=" + std::to_string(in_flight)
                : "") +
           " seed=" + std::to_string(seed) +
           " kernels=" + std::to_string(st.kernelsCompleted) +
           " killed=" + std::to_string(st.watchdogKills) +
           " peak_running=" +
           std::to_string(
               static_cast<unsigned>(st.concurrencyAtDispatch.max())) +
           " fnv=" + fnvHex(fnv.value()) + "\n";
}

/** The device model's retirements, energy and latency stats over
 *  seeded random mixes on five device shapes, and over whole-device
 *  (MPS) mixes with 2 and 24 kernels in flight on two of them. */
TEST(Golden, DeviceFluidRandomMixes)
{
    std::string digests;
    for (const auto &[se, cus] :
         std::vector<std::pair<unsigned, unsigned>>{
             {4, 15}, {8, 8}, {1, 64}, {64, 1}, {3, 5}}) {
        for (const std::uint64_t seed : {11u, 12u})
            digests += runDeviceMix(se, cus, seed);
    }
    for (const auto &[se, cus] :
         std::vector<std::pair<unsigned, unsigned>>{{4, 15}, {1, 64}}) {
        for (const unsigned in_flight : {2u, 24u}) {
            for (const std::uint64_t seed : {11u, 12u})
                digests += runDeviceMix(se, cus, seed, in_flight, true);
        }
    }
    compareWithGolden("device_fluid_digests.txt", digests);
}

// ---- trace sink ----------------------------------------------------

/** A name or string value that needs every class of JSON escape. */
const std::string kEscapes = std::string("q\"b\\s/n\nt\tr\rb\bf\f") +
                             '\x01' + '\x1f' + '\x7f' +
                             "caf\xc3\xa9 \xf0\x9f\x9a\x80";

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/** f64 extremes; NaN and the infinities are clamped to 0 and counted. */
const std::vector<double> kF64s = {
    -0.0, 5e-324, 1e300, std::nan(""),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(), 0.1, 1.0 / 3.0};

TraceArg
argU64(TraceSink &sink, const char *key, std::uint64_t v)
{
    return TraceArg::u64(sink.intern(key), v);
}

TraceArg
argF64(TraceSink &sink, const char *key, double v)
{
    return TraceArg::f64(sink.intern(key), v);
}

TraceArg
argStr(TraceSink &sink, const char *key, const std::string &v)
{
    return TraceArg::str(sink.intern(key), sink.intern(v));
}

TraceArg
argHex(TraceSink &sink, const char *key, std::uint64_t bits)
{
    return TraceArg::hex(sink.intern(key), bits);
}

/** A 1 ms timeline whose second window has no latency samples. */
void
fillTimeline(TimelineRecorder &tl)
{
    tl.enable(1'000'000);
    tl.recordRequest(100'000, 1.5);
    tl.recordRequest(200'000, 2.25);
    tl.recordDrop(300'000);
    tl.recordUtilization(1'200'000, 30, 150.0);
    tl.recordIoctl(1'300'000);
    tl.recordBarrier(1'400'000);
    tl.recordReconfig(1'500'000);
    tl.recordElision(1'600'000);
    tl.recordUtilization(2'100'000, 60, 300.5);
    tl.recordRequest(2'500'000, 0.125);
    tl.finish(3'000'001);
}

/**
 * Every domain helper, the generic instant / span / counter calls and
 * the timeline's counter tracks, stamped by a private event queue:
 * every TraceEventKind and phase, escaped names and string values,
 * u64 and mask extremes, f64 extremes, 1-, 4- and 64-SE workgroup
 * splits and 200 requests for the sampling filter to thin.
 */
void
driveTraceSink(TraceSink &sink, const TimelineRecorder &timeline)
{
    EventQueue eq;
    sink.setClock(&eq);
    Tick when = 0;
    const auto at = [&](Tick dt, std::function<void()> fn) {
        when += dt;
        eq.schedule(when, std::move(fn));
    };

    at(1'234'567, [&] {
        sink.kernelDispatch(7, 2, "conv2d_3x3", 12);
        sink.wgDispatch(7, 2, 100, std::vector<unsigned>{100});
        sink.wgDispatch(7, 2, 99, std::vector<unsigned>{25, 25, 25, 24});
        std::vector<unsigned> per_se(64);
        for (unsigned se = 0; se < 64; ++se)
            per_se[se] = se * 3;
        sink.wgDispatch(kU64Max, 0, 6048, per_se);
        sink.rightSize("conv2d_3x3", 12, "native");
        sink.rightSize(kEscapes, 0, "emulated");
        sink.kernelDispatch(kU64Max, 9, kEscapes, 0);
    });
    at(765'433, [&] {
        sink.kernelSpan(7, 2, "conv2d_3x3", 0x0fffull, 12, 1'234'567,
                        1'300'000, eq.now());
        sink.kernelSpan(kU64Max, 9, kEscapes, kU64Max, 64, 0, 0,
                        maxTick);
        sink.maskReconfig(0, 0, 0);
        sink.maskReconfig(3, kU64Max, 64);
        sink.barrierInject(1, "B1-drain");
        sink.barrierInject(2, kEscapes.c_str());
        sink.barrierProcess(1, 0);
        sink.barrierProcess(1, 4'000'000'000u);
    });
    at(1, [&] {
        sink.ioctlSubmit(0);
        sink.ioctlSubmit(std::numeric_limits<std::size_t>::max());
        sink.ioctlSpan(1'000'000, eq.now(), 999);
        sink.reconfigElide(1, 30, "elide");
        sink.reconfigElide(2, 0, "group");
    });
    for (std::uint64_t id = 0; id < 200; ++id) {
        at(1'001 + id, [&sink, &eq, id] {
            const Tick t = eq.now();
            const WorkerId worker = static_cast<WorkerId>(id % 3);
            const std::string model = id % 2 ? "resnet152" : kEscapes;
            const std::uint64_t rid = id == 199 ? kU64Max : id;
            sink.requestEnqueue(worker, model, rid);
            sink.requestFlowBegin(rid, tracePidServer, traceTidRouter);
            sink.requestFlowStep(rid, tracePidServer, worker);
            sink.requestPhase(worker, model, rid, "queue", t - 1'000, t);
            sink.requestPhase(worker, model, rid, "execute", t, t);
            sink.requestFlowEnd(rid, tracePidServer, worker);
            sink.requestSpan(worker, model, rid, t - 1'000, t);
            if (id % 7 == 0)
                sink.requestDrop(worker, model, rid, "deadline");
        });
    }
    at(5'000, [&] {
        sink.faultInject("kernel.hang", "conv", 0);
        sink.faultInject("kernel.slow", "", 2.5);
        for (const double m : kF64s)
            sink.faultInject("ioctl.delay", "x", m);
        sink.faultInject(kEscapes.c_str(), kEscapes, std::nan(""));
        sink.recovery("watchdog-kill", "conv", 7);
        sink.recovery("shard_drain", "", kU64Max);
        sink.recovery(kEscapes.c_str(), kEscapes, 0);
    });
    at(77, [&] {
        const Tick t = eq.now();
        const std::uint32_t pids[] = {tracePidGpu, tracePidHost,
                                      tracePidServer, 7};
        const std::uint32_t tids[] = {0, traceTidRuntime, traceTidFault,
                                      traceTidRouter, 5};
        for (unsigned k = 0;
             k <= static_cast<unsigned>(TraceEventKind::RequestFlow);
             ++k) {
            const auto kind = static_cast<TraceEventKind>(k);
            const std::uint32_t pid = pids[k % 4];
            const std::uint32_t tid = tids[k % 5];
            sink.instant(kind, kEscapes + std::to_string(k), pid, tid,
                         {argU64(sink, "zero", 0),
                          argU64(sink, "max", kU64Max),
                          argHex(sink, "mask0", 0),
                          argHex(sink, "mask1", kU64Max),
                          argStr(sink, kEscapes.c_str(), kEscapes),
                          argF64(sink, "f", kF64s[k % kF64s.size()])});
            sink.span(kind, "span", pid, tid, t - k, t + k);
        }
        sink.instant(TraceEventKind::RequestSpan, "", 3, 4);
        sink.span(TraceEventKind::KernelSpan, "whole", tracePidGpu, 1, 0,
                  maxTick);
        sink.counter("custom", tracePidGpu, t,
                     {argF64(sink, "neg0", -0.0),
                      argU64(sink, "n", kU64Max),
                      argF64(sink, "inf", kF64s[4]),
                      argHex(sink, "m", 0xf0f0ull)});
        sink.counter(kEscapes, 7, 0, {});
        timeline.emitCounterTracks(sink);
    });
    eq.run();
    sink.setClock(nullptr);
}

/** Retained and streamed digests of one sink configuration. */
std::string
traceSinkDigests(const std::string &label, std::uint64_t sample,
                 std::size_t limit, bool reuse)
{
    TimelineRecorder timeline;
    fillTimeline(timeline);
    const auto drive = [&](TraceSink &sink) {
        sink.setSample(sample);
        sink.setLimit(limit);
        driveTraceSink(sink, timeline);
        if (reuse) {
            sink.clear();
            driveTraceSink(sink, timeline);
        }
    };

    TraceSink kept;
    const std::uint64_t nonfinite0 = json::nonFiniteCount();
    drive(kept);
    const std::uint64_t kept_nonfinite =
        json::nonFiniteCount() - nonfinite0;

    const std::string path = ::testing::TempDir() + "trace_sink_" +
                             label + ".stream.json";
    TraceSink streamed;
    EXPECT_TRUE(streamed.openStream(path));
    const std::uint64_t nonfinite1 = json::nonFiniteCount();
    drive(streamed);
    const std::uint64_t streamed_nonfinite =
        json::nonFiniteCount() - nonfinite1;
    streamed.closeStream();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());

    return digestLine(label + ".retained", kept.size(),
                      kept.toChromeJson()) +
           label + ".retained dropped=" + std::to_string(kept.dropped()) +
           " nonfinite=" + std::to_string(kept_nonfinite) + "\n" +
           digestLine(label + ".streamed", streamed.size(), bytes.str()) +
           label + ".streamed dropped=" +
           std::to_string(streamed.dropped()) +
           " nonfinite=" + std::to_string(streamed_nonfinite) + "\n";
}

/** Every record kind, phase and argument type through one sink,
 *  under request sampling, a tripped record limit and clear(). */
TEST(Golden, TraceSinkRecordKinds)
{
    constexpr std::size_t noLimit = 4'000'000;
    std::string digests;
    digests += traceSinkDigests("sample1", 1, noLimit, false);
    digests += traceSinkDigests("sample3", 3, noLimit, false);
    digests += traceSinkDigests("sample64", 64, noLimit, false);
    digests += traceSinkDigests("limit300", 0, 300, false);
    digests += traceSinkDigests("reuse", 3, noLimit, true);
    compareWithGolden("trace_sink_digests.txt", digests);
}

} // namespace
} // namespace krisp
