/**
 * @file
 * Fig. 14 reproduction: batch-size sensitivity. Geomean of the
 * normalized throughput across all models at batch sizes 16 and 8,
 * for 1/2/4 concurrent workers and all five policies.
 *
 * Paper expectation: at smaller batches contention matters less, so
 * MPS-Default closes the gap on the restrictive static policies, but
 * KRISP-I still leads at 4 workers.
 */

#include <map>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "models/model_zoo.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "fig14_batch_sensitivity",
        "Fig. 14 (geomean normalized RPS, batch 16 and 8)");

    const unsigned jobs = bench::jobs(argc, argv);
    for (const unsigned batch : {16u, 8u}) {
        ExperimentContext ctx(bench::paperConfig(batch));
        std::vector<EvalSpec> specs;
        for (const auto &info : ModelZoo::workloads())
            for (const PartitionPolicy policy : allPartitionPolicies())
                for (const unsigned w : {1u, 2u, 4u})
                    specs.push_back(
                        {info.name, policy, w, std::nullopt});
        ctx.prefetch(specs, jobs);
        std::map<PartitionPolicy, std::map<unsigned,
                                           std::vector<double>>>
            acc;
        for (const auto &info : ModelZoo::workloads()) {
            for (const PartitionPolicy policy :
                 allPartitionPolicies()) {
                for (const unsigned w : {1u, 2u, 4u}) {
                    acc[policy][w].push_back(
                        ctx.evaluate(info.name, policy, w)
                            .normalizedRps);
                }
            }
        }
        TextTable table({"policy", "x1", "x2", "x4"});
        for (const PartitionPolicy policy : allPartitionPolicies()) {
            const std::string prefix =
                "batch" + std::to_string(batch) + "." +
                partitionPolicyName(policy);
            report.set(prefix + ".geo_norm_rps_x2",
                       geomean(acc[policy][2]));
            report.set(prefix + ".geo_norm_rps_x4",
                       geomean(acc[policy][4]));
            table.row()
                .cell(partitionPolicyName(policy))
                .cell(geomean(acc[policy][1]), 2)
                .cell(geomean(acc[policy][2]), 2)
                .cell(geomean(acc[policy][4]), 2);
        }
        table.print("batch " + std::to_string(batch) +
                    ": geomean normalized RPS");
    }
    report.write();
    return 0;
}
