/**
 * @file
 * Co-located serving demo: four resnet152 workers share the GPU under
 * each spatial partitioning policy; prints throughput, tail latency
 * and energy per inference — a miniature of the paper's Fig. 13.
 *
 * Usage: colocated_serving [model] [workers 1-64] [batch 1-1024]
 */

#include <cstdio>
#include <string>

#include "common/parse.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    const std::string model = argc > 1 ? argv[1] : "resnet152";
    const unsigned workers =
        argc > 2 ? static_cast<unsigned>(
                       parseUnsigned(argv[2], "workers", 1, 64))
                 : 4;
    const unsigned batch =
        argc > 3 ? static_cast<unsigned>(
                       parseUnsigned(argv[3], "batch", 1, 1024))
                 : 32;

    ServerConfig base;
    base.batch = batch;
    base.measuredRequests = 30;
    ExperimentContext ctx(base);

    const ServerResult &iso = ctx.isolated(model);
    std::printf("%s, batch %u: isolated rps %.2f, p95 %.2f ms, "
                "%.2f J/inf\n",
                model.c_str(), batch, iso.totalRps, iso.maxP95Ms,
                iso.energyPerInferenceJ);

    TextTable table({"policy", "workers", "norm_rps", "p95_ms",
                     "slo_ms", "violated", "J_per_inf", "avg_W"});
    for (const PartitionPolicy policy : allPartitionPolicies()) {
        const EvalPoint p = ctx.evaluate(model, policy, workers);
        table.row()
            .cell(partitionPolicyName(policy))
            .cell(workers)
            .cell(p.normalizedRps, 2)
            .cell(p.p95Ms, 1)
            .cell(p.sloMs, 1)
            .cell(p.sloViolated ? "yes" : "no")
            .cell(p.energyPerInferenceJ, 2)
            .cell(p.avgPowerW, 1);
    }
    table.print(model + " x" + std::to_string(workers) + " co-location");
    return 0;
}
