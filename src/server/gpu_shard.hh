/**
 * @file
 * One GPU's worth of serving stack.
 *
 * A shard bundles what every device-plane serving loop needs: the
 * simulated device (with its HSA queues), the host runtime and worker
 * streams, the partition-policy machinery (shared
 * setupPartitionPolicy) and a fault injector for the shard's fault
 * plan. The open-loop server runs one shard; the cluster runs one per
 * GPU, each on its own device-plane event queue (a ClusterFabric
 * logical process); the LLM engine runs its shards on one queue.
 *
 * Observability: the shard reports into a caller-owned ObsContext
 * (GpuShardConfig::obs). KrispRuntime, FaultInjector and the device
 * publish under fixed metric names ("krisp.*", "fault.*", "gpu.*"),
 * so an owner of several shards gives each its own context and merges
 * the snapshots (the cluster under "cluster.shard<i>." prefixes).
 */

#ifndef KRISP_SERVER_GPU_SHARD_HH
#define KRISP_SERVER_GPU_SHARD_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "gpu/gpu_device.hh"
#include "hip/hip_runtime.hh"
#include "models/model_zoo.hh"
#include "obs/obs.hh"
#include "server/partition_setup.hh"

namespace krisp
{

/** Everything one shard needs to come up. */
struct GpuShardConfig
{
    unsigned index = 0;
    PartitionPolicy policy = PartitionPolicy::KrispIsolated;
    EnforcementMode enforcement = EnforcementMode::Native;
    unsigned numWorkers = 2;
    unsigned maxBatch = 8;
    /**
     * Profiling envelope for resident LLM models (ignored for CNNs):
     * the shard pre-profiles every decode step up to this batch and
     * every prefill chunk of this many tokens across the model's
     * context buckets, so right-sizing never has to fall back to the
     * full GPU on the serving path.
     */
    unsigned llmMaxDecodeBatch = 8;
    unsigned llmPrefillChunkTokens = 256;
    /**
     * Models this shard profiles and right-sizes for (its "resident"
     * models). Under affinity routing this is the shard's home set;
     * other routing policies make every model resident everywhere.
     * Non-resident models can still be served — the sizer falls back
     * to its default partition size for unknown kernels.
     */
    std::vector<std::string> models;
    /** Shard-local fault scenario (already re-seeded via forShard). */
    FaultPlan faults;
    /** Reconfiguration-elision policy (see ServerConfig::reconfig). */
    ReconfigPolicy reconfig = ReconfigPolicy::Always;
    /**
     * Context the shard reports into (owned by the caller, must
     * outlive the shard; null = no telemetry). Enable its timeline
     * before construction: components wire their feeds once.
     */
    ObsContext *obs = nullptr;
};

/** One simulated GPU plus its serving runtime. */
class GpuShard
{
  public:
    /** @param eq the event queue the shard's device plane runs on. */
    GpuShard(EventQueue &eq, GpuShardConfig config);

    GpuShard(const GpuShard &) = delete;
    GpuShard &operator=(const GpuShard &) = delete;

    GpuDevice &device() { return *device_; }
    HipRuntime &hip() { return *hip_; }
    ModelZoo &zoo() { return *zoo_; }
    /** Null for the static partition policies. */
    KrispRuntime *krisp() { return setup_.krisp.get(); }
    FaultInjector *fault() { return fault_.get(); }

    Stream &workerStream(unsigned worker);

    /**
     * Launch @p seq on @p worker's stream under the shard's partition
     * policy (PartitionSetup::launch).
     */
    void launch(unsigned worker, const std::vector<KernelDescPtr> &seq,
                const HsaSignalPtr &completion);

    bool isResident(const std::string &model) const;

    /**
     * Health signal for the failover monitor: launches degraded to
     * the static queue mask after ioctl retries ran out (0 when no
     * KRISP runtime is active).
     */
    std::uint64_t reconfigFallbacks() const;

    /**
     * Brownout degradation: clamp right-size grants to @p cap CUs
     * (0 = uncapped). No-op for static partition policies.
     */
    void setGrantCapCus(unsigned cap);

    /**
     * True when the device's resource monitor holds no resident
     * kernels and no busy CUs — the pristine-release invariant: every
     * grant this shard ever handed out has been returned. Hedge
     * cancellation and crash recovery must keep this true at end of
     * run.
     */
    bool allocatorPristine() const;

  private:
    GpuShardConfig config_;
    std::unique_ptr<GpuDevice> device_;
    std::unique_ptr<HipRuntime> hip_;
    std::unique_ptr<ModelZoo> zoo_;
    std::unique_ptr<FaultInjector> fault_;
    std::vector<Stream *> streams_;
    PartitionSetup setup_;
};

} // namespace krisp

#endif // KRISP_SERVER_GPU_SHARD_HH
