/**
 * @file
 * Fig. 16 reproduction: KRISP sensitivity to the CU oversubscription
 * (overlap) limit. Normalized throughput for 2 and 4 workers as the
 * number of CUs allowed to host multiple kernels varies from 0
 * (KRISP-I) to 60 (KRISP-O).
 *
 * Paper expectation: performance generally increases as the allowed
 * overlap shrinks; 4 workers gain more than 2; spikes appear at
 * limits 16/31/46 where the limit interacts with the SE structure
 * (sharing 15/30/45 CUs guarantees whole SEs).
 */

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "models/model_zoo.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "fig16_overlap_limit",
        "Fig. 16 (oversubscription-limit sensitivity)");

    ExperimentContext ctx(bench::paperConfig(32));
    // Contention-sensitive workloads dominate this effect.
    const std::vector<std::string> models = {"resnet152",
                                             "densenet201",
                                             "shufflenet"};
    std::vector<unsigned> limits = {0,  4,  8,  12, 15, 16, 20, 24,
                                    28, 31, 36, 40, 45, 46, 52, 60};

    // Run every cell up front on the worker pool; the table loop
    // below replays cached results, so the output is identical for
    // any --jobs / KRISP_JOBS value.
    std::vector<EvalSpec> specs;
    for (const unsigned limit : limits)
        for (const auto &m : models)
            for (const unsigned w : {2u, 4u})
                specs.push_back(
                    {m, PartitionPolicy::KrispIsolated, w, limit});
    ctx.prefetch(specs, bench::jobs(argc, argv));

    TextTable table({"overlap_limit", "norm_rps_x2", "norm_rps_x4"});
    for (const unsigned limit : limits) {
        std::vector<double> x2, x4;
        for (const auto &m : models) {
            x2.push_back(ctx.evaluateWithOverlap(
                              m, PartitionPolicy::KrispIsolated, 2,
                              limit)
                             .normalizedRps);
            x4.push_back(ctx.evaluateWithOverlap(
                              m, PartitionPolicy::KrispIsolated, 4,
                              limit)
                             .normalizedRps);
        }
        const std::string prefix =
            "limit" + std::to_string(limit);
        report.set(prefix + ".geo_norm_rps_x2", geomean(x2));
        report.set(prefix + ".geo_norm_rps_x4", geomean(x4));
        table.row()
            .cell(limit)
            .cell(geomean(x2), 3)
            .cell(geomean(x4), 3);
    }
    table.print("geomean normalized RPS vs allowed CU overlap (" +
                std::to_string(models.size()) + " models)");
    std::printf("\nlimit 0 == KRISP-I, limit 60 == KRISP-O.\n");
    report.write();
    return 0;
}
