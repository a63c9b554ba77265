#include "harness/experiment.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "harness/worker_pool.hh"

namespace krisp
{

ExperimentContext::ExperimentContext(ServerConfig base)
    : base_(std::move(base))
{
}

ExperimentContext::RunKey
ExperimentContext::isolatedKey(const std::string &model)
{
    return {{model}, PartitionPolicy::MpsDefault, std::nullopt};
}

ExperimentContext::RunKey
ExperimentContext::keyOf(const EvalSpec &spec)
{
    fatal_if(spec.workers == 0, "need at least one worker");
    return {std::vector<std::string>(spec.workers, spec.model),
            spec.policy, spec.overlapLimit};
}

void
ExperimentContext::runMissing(const std::vector<RunKey> &keys,
                              unsigned jobs)
{
    // Each missing config once, in first-asked order.
    std::vector<RunKey> todo;
    for (const RunKey &key : keys)
        if (runs_.count(key) == 0 &&
            std::find(todo.begin(), todo.end(), key) == todo.end())
            todo.push_back(key);
    panic_if(jobs > 1 && todo.size() > 1 && base_.obs != nullptr,
             "parallel runs cannot share the base config's "
             "ObsContext");

    std::vector<ServerResult> results(todo.size());
    harness::WorkerPool(jobs).forEachIndex(
        todo.size(), [&](std::size_t i) {
            ServerConfig cfg = base_;
            cfg.workerModels = todo[i].models;
            cfg.policy = todo[i].policy;
            cfg.overlapLimitOverride = todo[i].overlapLimit;
            results[i] = InferenceServer(cfg).run();
        });
    for (std::size_t i = 0; i < todo.size(); ++i)
        runs_.emplace(std::move(todo[i]), std::move(results[i]));
}

const ServerResult &
ExperimentContext::run(const RunKey &key)
{
    runMissing({key}, 1);
    return runs_.at(key);
}

void
ExperimentContext::prefetch(const std::vector<EvalSpec> &specs,
                            unsigned jobs)
{
    std::vector<RunKey> keys;
    for (const EvalSpec &spec : specs) {
        // Baseline for normalisation / SLO bound of this model.
        keys.push_back(isolatedKey(spec.model));
        keys.push_back(keyOf(spec));
    }
    runMissing(keys, jobs);
}

void
ExperimentContext::prefetchMixedPairs(
    const std::vector<std::pair<std::string, std::string>> &pairs,
    const std::vector<PartitionPolicy> &policies, unsigned jobs)
{
    std::vector<RunKey> keys;
    for (const auto &[a, b] : pairs) {
        keys.push_back(isolatedKey(a));
        keys.push_back(isolatedKey(b));
        for (const PartitionPolicy policy : policies)
            keys.push_back({{a, b}, policy, std::nullopt});
    }
    runMissing(keys, jobs);
}

const ServerResult &
ExperimentContext::isolated(const std::string &model)
{
    return run(isolatedKey(model));
}

EvalPoint
ExperimentContext::toPoint(const std::string &model,
                           PartitionPolicy policy, unsigned workers,
                           const ServerResult &result)
{
    const ServerResult &base = isolated(model);
    EvalPoint point;
    point.model = model;
    point.policy = policy;
    point.workers = workers;
    point.totalRps = result.totalRps;
    point.normalizedRps =
        base.totalRps > 0 ? result.totalRps / base.totalRps : 0.0;
    point.p95Ms = result.maxP95Ms;
    point.sloMs = 2.0 * base.maxP95Ms;
    point.sloViolated = point.p95Ms > point.sloMs;
    point.energyPerInferenceJ = result.energyPerInferenceJ;
    point.energyRatio =
        base.energyPerInferenceJ > 0
            ? result.energyPerInferenceJ / base.energyPerInferenceJ
            : 0.0;
    point.avgPowerW = result.avgPowerW;
    return point;
}

EvalPoint
ExperimentContext::evaluate(const std::string &model,
                            PartitionPolicy policy, unsigned workers)
{
    const ServerResult &result =
        run(keyOf({model, policy, workers, std::nullopt}));
    return toPoint(model, policy, workers, result);
}

EvalPoint
ExperimentContext::evaluateWithOverlap(const std::string &model,
                                       PartitionPolicy policy,
                                       unsigned workers,
                                       unsigned overlap_limit)
{
    fatal_if(!isKrispPolicy(policy),
             "overlap limit only applies to KRISP policies");
    const ServerResult &result =
        run(keyOf({model, policy, workers, overlap_limit}));
    return toPoint(model, policy, workers, result);
}

double
ExperimentContext::evaluateMixedPair(const std::string &model_a,
                                     const std::string &model_b,
                                     PartitionPolicy policy)
{
    const ServerResult &result =
        run({{model_a, model_b}, policy, std::nullopt});
    panic_if(result.workers.size() != 2, "expected two workers");
    double aggregate = 0;
    for (const auto &w : result.workers) {
        const ServerResult &base = isolated(w.model);
        if (base.totalRps > 0)
            aggregate += w.rps / base.totalRps;
    }
    return aggregate;
}

} // namespace krisp
