/**
 * @file
 * Layer replays: single layers driven through public functions on
 * bare components, with a workload's kernel mix, so their wall cost
 * can be read apart from everything a serving run does around them.
 */

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.hh"
#include "cluster/gpu_shard.hh"
#include "cluster/parallel_engine.hh"
#include "gpu/gpu_device.hh"
#include "hip/hip_runtime.hh"
#include "obs/metrics.hh"
#include "server/partition_setup.hh"

using namespace krisp;

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The single-device serving stack InferenceServer and OpenLoopServer
 * build at the top of run(): device, host runtime, one stream per
 * sequence of @p streams, zoo lowering and the shared partition-policy
 * set-up with the sequences of @p profiled in the Required-CUs table.
 */
struct DeviceStack
{
    EventQueue eq;
    GpuDevice device{eq, GpuConfig::mi50()};
    HipRuntime hip{eq, device, HostRuntimeParams{}};
    ModelZoo zoo{GpuConfig::mi50().arch};
    std::vector<const std::vector<KernelDescPtr> *> seqs;
    std::vector<Stream *> streams;
    PartitionSetup setup;

    DeviceStack(const KernelMix &streamMix, const KernelMix &profiled)
        : seqs(streamMix(zoo))
    {
        std::vector<PartitionWorker> workers;
        for (const auto *seq : seqs) {
            streams.push_back(&hip.createStream());
            workers.push_back(PartitionWorker{streams.back(), seq});
        }
        const KernelProfiler kprof(device.config(), ProfilerConfig{});
        setup = setupPartitionPolicy(
            hip, PartitionPolicy::KrispIsolated, EnforcementMode::Native,
            kprof, workers, profiled(zoo), std::nullopt,
            IoctlRetryPolicy{}, ReconfigPolicy::Always, nullptr);
    }
};

/** Algorithm 1 behind a wall-clock timer, one sample per call. */
class TimedAllocator : public MaskAllocatorIface
{
  public:
    explicit TimedAllocator(MaskAllocatorIface &inner) : inner_(inner) {}

    CuMask
    allocate(unsigned requested_cus,
             const ResourceMonitor &monitor) override
    {
        const auto t0 = Clock::now();
        const CuMask mask = inner_.allocate(requested_cus, monitor);
        const auto t1 = Clock::now();
        ns_.add(std::chrono::duration<double, std::nano>(t1 - t0)
                    .count());
        return mask;
    }

    const PercentileTracker &ns() const { return ns_; }

  private:
    MaskAllocatorIface &inner_;
    PercentileTracker ns_;
};

std::size_t
kernelsIn(const std::vector<const std::vector<KernelDescPtr> *> &seqs)
{
    std::size_t n = 0;
    for (const auto *seq : seqs)
        n += seq->size();
    return n;
}

} // namespace

std::size_t
setUpSingleDevice(const KernelMix &streams, const KernelMix &profiled)
{
    const DeviceStack stack(streams, profiled);
    return stack.setup.db->size();
}

AllocatorReplay
replayAllocator(const KernelMix &mix, std::size_t allocations)
{
    DeviceStack s(mix, mix);
    TimedAllocator timed(*s.setup.allocator);
    // Replaces the allocator KrispRuntime installed as the firmware
    // extension; the runtime's native path only tags packets.
    s.device.setKrispAllocator(&timed);
    while (timed.ns().count() < allocations) {
        for (std::size_t i = 0; i < s.seqs.size(); ++i) {
            auto done = HsaSignal::create(
                static_cast<std::int64_t>(s.seqs[i]->size()));
            s.setup.krisp->launchGroup(*s.streams[i], *s.seqs[i], done);
        }
        s.eq.run();
    }
    const MaskAllocatorStats &stats = s.setup.allocator->stats();
    AllocatorReplay out;
    const std::size_t n = timed.ns().count();
    out.p50Ns = Percentile{timed.ns().percentile(0.50), n, 0.50};
    out.p99Ns = Percentile{timed.ns().percentile(0.99), n, 0.99};
    out.shortGrantFrac =
        stats.requests > 0 ? static_cast<double>(stats.shortGrants) /
                                 static_cast<double>(stats.requests)
                           : 0.0;
    return out;
}

double
replayBareStreams(const KernelMix &mix, std::size_t kernels)
{
    EventQueue eq;
    GpuDevice device(eq, GpuConfig::mi50());
    HipRuntime hip(eq, device, HostRuntimeParams{});
    const ModelZoo zoo(GpuConfig::mi50().arch);
    const auto seqs = mix(zoo);
    std::vector<Stream *> streams;
    for (std::size_t i = 0; i < seqs.size(); ++i)
        streams.push_back(&hip.createStream());

    const std::size_t per_round = kernelsIn(seqs);
    std::size_t launched = 0;
    const auto t0 = Clock::now();
    while (launched < kernels) {
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            auto done = HsaSignal::create(
                static_cast<std::int64_t>(seqs[i]->size()));
            for (const KernelDescPtr &k : *seqs[i])
                streams[i]->launchWithSignal(k, done);
        }
        eq.run();
        launched += per_round;
    }
    return secondsSince(t0) * 1e9 / static_cast<double>(launched);
}

EmulatedReplay
replayEmulatedLaunch(const std::string &model, unsigned batch,
                     unsigned context, std::size_t launches)
{
    EventQueue eq;
    GpuShardConfig sc;
    sc.policy = PartitionPolicy::KrispIsolated;
    sc.enforcement = EnforcementMode::Emulated;
    sc.numWorkers = 1;
    sc.maxBatch = 1;
    sc.models = {model};
    sc.reconfig = ReconfigPolicy::Always;
    GpuShard shard(eq, sc);
    KrispRuntime &krisp = *shard.krisp();
    Stream &stream = shard.workerStream(0);
    const auto &step = shard.zoo().llmDecodeKernels(model, batch, context);

    std::size_t launched = 0;
    const auto t0 = Clock::now();
    while (launched < launches) {
        auto done =
            HsaSignal::create(static_cast<std::int64_t>(step.size()));
        for (const KernelDescPtr &k : step)
            krisp.launch(stream, k, done);
        eq.run();
        launched += step.size();
    }
    EmulatedReplay out;
    out.nsPerLaunch =
        secondsSince(t0) * 1e9 / static_cast<double>(launched);

    const KrispRuntimeStats ks = krisp.stats();
    Layers &c = out.counters;
    c["krisp.launches"] = static_cast<double>(ks.launches);
    c["krisp.reconfig_launches"] = static_cast<double>(ks.reconfigLaunches);
    c["krisp.reconfig_elisions"] = static_cast<double>(ks.reconfigElisions);
    c["krisp.grouped_launches"] = static_cast<double>(ks.groupedLaunches);
    c["krisp.reconfig_fallbacks"] =
        static_cast<double>(ks.reconfigFallbacks);
    c["krisp.reconfig_retries"] = static_cast<double>(ks.reconfigRetries);
    c["krisp.requested_cus.mean"] =
        ks.launches > 0 ? static_cast<double>(ks.requestedCusTotal) /
                              static_cast<double>(ks.launches)
                        : 0.0;
    MetricsRegistry m;
    shard.device().publishMetrics(m);
    for (const char *name :
         {"gpu.kernels_dispatched", "gpu.krisp_allocations",
          "gpu.barriers_processed", "gpu.queue_mask_reconfigs",
          "gpu.concurrency_at_dispatch.mean",
          "gpu.kernel_latency_ns.mean"})
        c[name] = m.gauge(name).value();
    const IoctlService &ioctl = shard.hip().ioctlService();
    c["host.ioctls_completed"] = static_cast<double>(ioctl.completed());
    c["host.ioctl_queue_delay_ns.mean"] = ioctl.queueDelayNs().mean();
    return out;
}

double
replayFabric(unsigned shards, Tick lookaheadNs, double eventsPerLpSimS,
             double crossShare, std::size_t events)
{
    EngineConfig ec;
    ec.engine = ClusterEngine::Sequential;
    ec.workers = 1;
    ec.windowNs = 0;
    auto fab = makeClusterFabric(ec, shards, lookaheadNs);
    const Tick period = std::max<Tick>(
        1, static_cast<Tick>(1e9 / std::max(eventsPerLpSimS, 1e-9)));
    // Every k-th local event also posts one cross-LP message.
    const std::uint64_t every = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(1.0 / std::max(crossShare, 1e-9))));

    struct Chain
    {
        ClusterFabric *fab;
        unsigned lp;
        unsigned shards;
        Tick period;
        Tick lookahead;
        std::uint64_t every;
        std::uint64_t fired = 0;
        std::size_t *budget;

        void
        fire()
        {
            if (*budget == 0)
                return;
            --*budget;
            EventQueue &q = fab->lpQueue(lp);
            if (++fired % every == 0) {
                // Control fans out to a shard at once; a shard answers
                // the control plane no sooner than the lookahead.
                if (lp == 0)
                    fab->post(0, 1 + static_cast<unsigned>(fired % shards),
                              q.now(), [] {});
                else
                    fab->post(lp, 0, q.now() + lookahead, [] {});
            }
            q.scheduleIn(period, [this] { fire(); });
        }
    };

    std::size_t budget = events;
    std::vector<Chain> chains;
    chains.reserve(shards + 1);
    for (unsigned lp = 0; lp <= shards; ++lp)
        chains.push_back(Chain{fab.get(), lp, shards, period, lookaheadNs,
                               every, 0, &budget});
    for (unsigned lp = 0; lp <= shards; ++lp) {
        // Staggered phases, so LP heads interleave as in a serving run.
        Chain *c = &chains[lp];
        fab->lpQueue(lp).schedule(period * lp / (shards + 1),
                                  [c] { c->fire(); });
    }
    const auto t0 = Clock::now();
    fab->run(maxTick);
    return secondsSince(t0) * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(1, fab->firedTotal()));
}

} // namespace perfbench
