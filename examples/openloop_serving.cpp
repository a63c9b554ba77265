/**
 * @file
 * Open-loop serving demo: Poisson client arrivals flow through the
 * frontend's batching queue into four workers; compares unrestricted
 * sharing against KRISP at a configurable request rate.
 *
 * Usage: openloop_serving [model] [rate_rps, up to 1e6] [workers 1-64]
 */

#include <cstdio>
#include <string>

#include "common/parse.hh"
#include "common/table.hh"
#include "server/load_generator.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    const std::string model = argc > 1 ? argv[1] : "resnet152";
    const double rate =
        argc > 2 ? parsePositiveReal(argv[2], "rate_rps", 1e6) : 800.0;
    const unsigned workers =
        argc > 3 ? static_cast<unsigned>(
                       parseUnsigned(argv[3], "workers", 1, 64))
                 : 4;

    TextTable table({"policy", "achieved_rps", "p50_ms", "p95_ms",
                     "p99_ms", "mean_batch", "queue_ms",
                     "J_per_req"});
    for (const PartitionPolicy policy :
         {PartitionPolicy::MpsDefault, PartitionPolicy::StaticEqual,
          PartitionPolicy::KrispIsolated}) {
        OpenLoopConfig cfg;
        cfg.model = model;
        cfg.numWorkers = workers;
        cfg.policy = policy;
        cfg.arrivalRatePerSec = rate;
        const OpenLoopResult r = OpenLoopServer(cfg).run();
        table.row()
            .cell(partitionPolicyName(policy))
            .cell(r.achievedRps, 1)
            .cell(r.p50Ms, 1)
            .cell(r.p95Ms, 1)
            .cell(r.p99Ms, 1)
            .cell(r.meanBatchSize, 1)
            .cell(r.meanQueueDelayMs, 2)
            .cell(r.energyPerRequestJ, 3);
    }
    table.print(model + " @ " + formatFixed(rate, 0) +
                " req/s, " + std::to_string(workers) + " workers");
    return 0;
}
