#include "server/gpu_shard.hh"

#include <algorithm>

#include "common/logging.hh"

namespace krisp
{

GpuShard::GpuShard(EventQueue &eq, GpuShardConfig config)
    : config_(std::move(config))
{
    fatal_if(config_.numWorkers == 0,
             "shard needs at least one worker");
    fatal_if(config_.models.empty(),
             "shard needs at least one resident model");
    fatal_if(config_.maxBatch == 0, "max batch must be non-zero");

    device_ = std::make_unique<GpuDevice>(eq, GpuConfig::mi50());
    device_->setName("shard" + std::to_string(config_.index));
    hip_ = std::make_unique<HipRuntime>(eq, *device_);
    if (config_.obs != nullptr)
        hip_->attachObs(config_.obs);
    if (config_.faults.enabled()) {
        fault_ = std::make_unique<FaultInjector>(config_.faults,
                                                 config_.obs);
        hip_->attachFault(fault_.get());
    }
    zoo_ = std::make_unique<ModelZoo>(device_->config().arch);

    streams_.reserve(config_.numWorkers);
    for (unsigned i = 0; i < config_.numWorkers; ++i)
        streams_.push_back(&hip_->createStream());

    // Right-size basis per worker: workers cycle over the resident
    // models, each sized for the largest batch it can be handed. An
    // LLM resident's basis is its heaviest decode step — the steady
    // state the worker spends almost all its time in.
    KernelProfiler kprof(device_->config());
    std::vector<PartitionWorker> workers;
    for (unsigned i = 0; i < config_.numWorkers; ++i) {
        const std::string &model =
            config_.models[i % config_.models.size()];
        const std::vector<KernelDescPtr> *basis =
            ModelZoo::isLlm(model)
                ? &zoo_->llmDecodeKernels(
                      model, config_.llmMaxDecodeBatch,
                      ModelZoo::llmInfo(model).maxContext)
                : &zoo_->kernels(model, config_.maxBatch);
        workers.push_back(PartitionWorker{streams_[i], basis});
    }
    // KRISP perf database: every kernel the frontend can assemble for
    // a resident model — (model, batch) pairs for CNNs; for LLMs the
    // full serving envelope: each decode batch at each context bucket
    // plus each prefill chunk position. Misses on the serving path
    // would silently fall back to full-GPU grants, so cover it all.
    std::vector<const std::vector<KernelDescPtr> *> profile_seqs;
    for (const std::string &model : config_.models) {
        if (ModelZoo::isLlm(model)) {
            const LlmParams &p = ModelZoo::llmInfo(model);
            const unsigned granule = ModelZoo::contextBucket(1);
            for (unsigned past = 0; past < p.maxContext;
                 past += granule)
                profile_seqs.push_back(&zoo_->llmPrefillKernels(
                    model, config_.llmPrefillChunkTokens, past));
            for (unsigned b = 1; b <= config_.llmMaxDecodeBatch; ++b)
                for (unsigned ctx = granule; ctx <= p.maxContext;
                     ctx += granule)
                    profile_seqs.push_back(
                        &zoo_->llmDecodeKernels(model, b, ctx));
        } else {
            for (unsigned b = 1; b <= config_.maxBatch; ++b)
                profile_seqs.push_back(&zoo_->kernels(model, b));
        }
    }

    setup_ = setupPartitionPolicy(
        *hip_, config_.policy, config_.enforcement, kprof, workers,
        profile_seqs, std::nullopt, IoctlRetryPolicy{},
        config_.reconfig, config_.obs);
}

Stream &
GpuShard::workerStream(unsigned worker)
{
    fatal_if(worker >= streams_.size(), "worker out of range");
    return *streams_[worker];
}

void
GpuShard::launch(unsigned worker, const std::vector<KernelDescPtr> &seq,
                 const HsaSignalPtr &completion)
{
    setup_.launch(workerStream(worker), seq, completion);
}

bool
GpuShard::isResident(const std::string &model) const
{
    return std::find(config_.models.begin(), config_.models.end(),
                     model) != config_.models.end();
}

std::uint64_t
GpuShard::reconfigFallbacks() const
{
    return setup_.krisp ? setup_.krisp->stats().reconfigFallbacks
                        : 0;
}

void
GpuShard::setGrantCapCus(unsigned cap)
{
    if (setup_.krisp)
        setup_.krisp->setGrantCapCus(cap);
}

bool
GpuShard::allocatorPristine() const
{
    const ResourceMonitor &mon = device_->monitor();
    return mon.residentKernels() == 0 && mon.busyCus() == 0;
}

} // namespace krisp
