/**
 * @file
 * Fig. 15 reproduction: co-located *mixed* inference models. Every
 * pair of distinct workloads runs concurrently (one worker each);
 * the aggregate of the two workers' individually normalized
 * throughputs is reported per policy as a distribution.
 *
 * Paper expectation: KRISP-I and Model-Right-Size beat MPS-Default,
 * with KRISP-I generally matching or outperforming Model-Right-Size.
 */

#include <algorithm>
#include <utility>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "models/model_zoo.hh"

using namespace krisp;

namespace
{

struct BoxStats
{
    double min, q1, median, q3, max, mean;
};

BoxStats
box(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        const double rank = q * (v.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        const double frac = rank - lo;
        return v[lo] * (1 - frac) + v[hi] * frac;
    };
    double sum = 0;
    for (double x : v)
        sum += x;
    return BoxStats{v.front(), at(0.25), at(0.5), at(0.75), v.back(),
                    sum / v.size()};
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "fig15_mixed_models",
        "Fig. 15 (mixed-model pair throughput boxplot)");

    ExperimentContext ctx(bench::paperConfig(32));
    const std::vector<PartitionPolicy> policies = {
        PartitionPolicy::MpsDefault,
        PartitionPolicy::ModelRightSize,
        PartitionPolicy::KrispOversubscribed,
        PartitionPolicy::KrispIsolated,
    };

    const auto &workloads = ModelZoo::workloads();
    std::vector<std::pair<std::string, std::string>> model_pairs;
    for (std::size_t i = 0; i < workloads.size(); ++i)
        for (std::size_t j = i + 1; j < workloads.size(); ++j)
            model_pairs.emplace_back(workloads[i].name,
                                     workloads[j].name);
    ctx.prefetchMixedPairs(model_pairs, policies, bench::jobs(argc, argv));
    TextTable pairs({"pair", "mps-default", "model-right-size",
                     "krisp-o", "krisp-i"});
    std::map<PartitionPolicy, std::vector<double>> dist;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        for (std::size_t j = i + 1; j < workloads.size(); ++j) {
            pairs.row().cell(workloads[i].name + "+" +
                             workloads[j].name);
            for (const PartitionPolicy policy : policies) {
                const double agg = ctx.evaluateMixedPair(
                    workloads[i].name, workloads[j].name, policy);
                dist[policy].push_back(agg);
                pairs.cell(agg, 2);
            }
        }
    }
    pairs.print("aggregate normalized throughput per model pair");

    TextTable summary({"policy", "min", "q1", "median", "q3", "max",
                       "mean"});
    for (const PartitionPolicy policy : policies) {
        const BoxStats b = box(dist[policy]);
        const std::string prefix = partitionPolicyName(policy);
        report.set(prefix + ".median_agg_norm_rps", b.median);
        report.set(prefix + ".mean_agg_norm_rps", b.mean);
        summary.row()
            .cell(partitionPolicyName(policy))
            .cell(b.min, 2)
            .cell(b.q1, 2)
            .cell(b.median, 2)
            .cell(b.q3, 2)
            .cell(b.max, 2)
            .cell(b.mean, 2);
    }
    summary.print("fig15 boxplot statistics over the 28 pairs");
    report.write();
    return 0;
}
