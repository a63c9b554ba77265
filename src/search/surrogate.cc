#include "search/surrogate.hh"

#include <algorithm>

#include "common/logging.hh"
#include "models/model_zoo.hh"
#include "profile/kernel_profiler.hh"
#include "profile/model_profiler.hh"

namespace krisp
{

namespace
{

/** The device every cluster shard models. */
const GpuConfig mi50 = GpuConfig::mi50();

/** Latency multiplier applied per unit of overload (rho > 1). */
constexpr double overloadPenalty = 20.0;
/** Queueing sensitivity of round-robin vs least-outstanding. */
constexpr double roundRobinImbalance = 1.15;
/** Fraction of the reconfig protocol paid per launch: Elide and
 *  Group skip most reconfigs in steady state. */
constexpr double elideFactor = 0.3;
constexpr double groupFactor = 0.15;
/** Memory-system share of dynamic power (vs compute). */
constexpr double memPowerShare = 0.2;

} // namespace

SurrogateModel::SurrogateModel(const PlacementProblem &problem)
    : problem_(problem), totalCus_(mi50.arch.totalCus())
{
    problem_.validate();
    ModelZoo zoo(mi50.arch);
    KernelProfiler kprof(mi50);
    ModelProfiler mprof(kprof);
    envelopes_.resize(problem_.models.size());
    for (unsigned m = 0; m < problem_.models.size(); ++m) {
        const std::string &name = problem_.models[m];
        fatal_if(!ModelZoo::isModel(name), "unknown model: ", name);
        fatal_if(ModelZoo::isLlm(name),
                 "placement search scores CNN workloads; LLM "
                 "envelopes are not modelled yet: ", name);
        const auto &seq = zoo.kernels(name, problem_.base.maxBatch);
        ModelEnvelope &env = envelopes_[m];
        env.latencyNs.assign(totalCus_ + 1, 0.0);
        for (unsigned c = 1; c <= totalCus_; ++c)
            env.latencyNs[c] = mprof.modelLatencyNs(seq, c);
        env.rightSizeCus = mprof.rightSizeCus(seq);
        env.kernelCount = static_cast<unsigned>(seq.size());
    }
}

SurrogateModel::Estimate
SurrogateModel::estimate(const PlacementCandidate &in) const
{
    const PlacementCandidate cand = in.canonical(problem_);
    const ClusterConfig &base = problem_.base;
    const double lambda = base.arrivalRatePerSec;
    const double total_weight =
        static_cast<double>(problem_.totalWeight());
    const double reconfig_share =
        cand.reconfig == ReconfigPolicy::Always
            ? 1.0
            : (cand.reconfig == ReconfigPolicy::Elide ? elideFactor
                                                      : groupFactor);

    // Fluid traffic split: affinity sends a model only to its homes,
    // the load-oblivious policies spread everything over all shards.
    const bool affinity =
        cand.routing == RoutingPolicy::ModelAffinity;

    struct Flow
    {
        unsigned model;
        unsigned shard;
        double ratePerSec;
        double perReqLatMs;  // before queueing inflation
        double perReqCuSec;  // CU-seconds of device time
    };
    std::vector<Flow> flows;
    std::vector<double> rho(problem_.numShards, 0.0);

    for (unsigned m = 0; m < problem_.models.size(); ++m) {
        const double w =
            static_cast<double>(problem_.weights[m]) / total_weight;
        const std::uint64_t mask = cand.homes[m];
        const unsigned replicas =
            static_cast<unsigned>(__builtin_popcountll(mask));
        for (unsigned s = 0; s < problem_.numShards; ++s) {
            const bool home = (mask & (1ULL << s)) != 0;
            if (affinity && !home)
                continue;
            const double rate =
                lambda * w /
                (affinity ? replicas : problem_.numShards);
            const unsigned cap = cand.grantCapCus[s] == 0
                                     ? totalCus_
                                     : cand.grantCapCus[s];
            const ModelEnvelope &env = envelopes_[m];
            const unsigned c_eff =
                std::min(env.rightSizeCus, cap);
            // Reconfig protocol: one masked launch per kernel pays a
            // policy-dependent share of the ioctl round trip.
            const double service_ns =
                env.latencyNs[c_eff] +
                reconfig_share * env.kernelCount *
                    static_cast<double>(
                        HostRuntimeParams{}.ioctlLatencyNs);
            // Steady-state batch: arrivals of this flow during one
            // service time, clamped to the configured window.
            const double batch = std::clamp(
                rate * service_ns / 1e9, 1.0,
                static_cast<double>(base.maxBatch));
            Flow f;
            f.model = m;
            f.shard = s;
            f.ratePerSec = rate;
            f.perReqLatMs =
                (static_cast<double>(base.preprocessNs) +
                 service_ns +
                 static_cast<double>(base.postprocessNs)) /
                1e6;
            f.perReqCuSec = service_ns / 1e9 * c_eff / batch;
            flows.push_back(f);
            rho[s] += rate * f.perReqCuSec /
                      static_cast<double>(cap);
        }
    }

    // Queueing inflation per shard: M/M/1-flavoured below saturation,
    // linear-in-overload above it (continuous at the knee).
    const double imbalance =
        cand.routing == RoutingPolicy::RoundRobin ? roundRobinImbalance
                                                  : 1.0;
    std::vector<double> qfactor(problem_.numShards, 1.0);
    for (unsigned s = 0; s < problem_.numShards; ++s) {
        const double r = rho[s] * imbalance;
        qfactor[s] =
            r < 0.95
                ? 1.0 / (1.0 - r)
                : 20.0 + overloadPenalty * (r - 0.95) * 100.0;
    }

    // Per-CU-second dynamic power: active CU + amortised uncore +
    // a memory-system share; board idle amortises over throughput.
    const PowerParams &pw = mi50.power;
    const double cu_sec_watts =
        pw.cuActiveW +
        pw.seUncoreW / static_cast<double>(mi50.arch.cusPerSe) +
        pw.memMaxW * memPowerShare / static_cast<double>(totalCus_);

    Estimate est;
    double energy_dynamic = 0;
    for (const Flow &f : flows) {
        const double share = f.ratePerSec / lambda;
        est.latencyMs += share * f.perReqLatMs * qfactor[f.shard];
        energy_dynamic += share * f.perReqCuSec * cu_sec_watts;
    }
    est.energyJ = energy_dynamic +
                  pw.idleW * problem_.numShards / lambda;
    return est;
}

double
SurrogateModel::latencyMs(const PlacementCandidate &cand) const
{
    return estimate(cand).latencyMs;
}

double
SurrogateModel::energyPerRequestJ(const PlacementCandidate &cand) const
{
    return estimate(cand).energyJ;
}

double
SurrogateModel::score(const PlacementCandidate &cand) const
{
    const Estimate est = estimate(cand);
    return est.latencyMs * est.energyJ;
}

} // namespace krisp
