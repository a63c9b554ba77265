/**
 * @file
 * Golden-file regression tests: miniature fig07 (allocation policies)
 * and fig12 (emulation overhead) configurations, plus one small run of
 * each serving loop (closed loop, open loop, cluster, LLM engine),
 * rendered to metrics JSON and byte-compared against snapshots in
 * tests/golden/. Serving-loop traces and timelines are pinned as an
 * FNV-1a digest plus record count (serving_digests.txt).
 *
 * The simulator is deterministic end to end, so the comparison is
 * exact — any divergence is a real behaviour change. To review and
 * accept one, rerun with KRISP_UPDATE_GOLDEN=1 (the test then
 * rewrites the snapshot and passes) and commit the diff.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "common/fnv.hh"
#include "core/krisp_runtime.hh"
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

} // namespace
} // namespace krisp
