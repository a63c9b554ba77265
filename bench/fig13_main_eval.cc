/**
 * @file
 * Fig. 13 reproduction — the paper's main result. For every Table
 * III workload, run 1, 2 and 4 concurrent workers under the five
 * spatial partitioning policies at maximum load and report:
 *   (a) throughput normalized to the isolated single worker,
 *   (b) p95 tail latency against the SLO (2x isolated p95),
 *   (c) energy per inference.
 *
 * Paper expectation: Model-Right-Size is the best prior policy at 2
 * workers; KRISP-I gives the highest overall throughput (~2x average
 * vs ~1.5x for the others), is the only policy still improving at 4
 * workers (~1.22x over Static-Equal), and cuts energy per inference
 * by ~30% at 2-4 workers.
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
        "fig13_main_eval",
        "Fig. 13a/b/c + headline claims (Sec. VI-B)");

    ExperimentContext ctx(bench::paperConfig(32));
    const std::vector<unsigned> worker_counts = {1, 2, 4};

    // Run the whole matrix (plus isolated baselines) up front on the
    // parallel harness; the table loops below replay cached results,
    // so the output is identical for any --jobs / KRISP_JOBS value.
    std::vector<EvalSpec> specs;
    for (const auto &info : ModelZoo::workloads())
        for (const PartitionPolicy policy : allPartitionPolicies())
            for (const unsigned w : worker_counts)
                specs.push_back({info.name, policy, w, std::nullopt});
    ctx.prefetch(specs, bench::jobs(argc, argv));

    // policy -> worker count -> normalized RPS / energy ratios.
    std::map<PartitionPolicy, std::map<unsigned, std::vector<double>>>
        rps_acc, energy_acc;

    for (const auto &info : ModelZoo::workloads()) {
        TextTable table({"policy", "workers", "norm_rps", "p95_ms",
                         "slo_ms", "slo_ok", "J_per_inf",
                         "J_vs_isolated"});
        for (const PartitionPolicy policy : allPartitionPolicies()) {
            for (const unsigned w : worker_counts) {
                const EvalPoint p = ctx.evaluate(info.name, policy, w);
                rps_acc[policy][w].push_back(p.normalizedRps);
                energy_acc[policy][w].push_back(p.energyRatio);
                table.row()
                    .cell(partitionPolicyName(policy))
                    .cell(w)
                    .cell(p.normalizedRps, 2)
                    .cell(p.p95Ms, 1)
                    .cell(p.sloMs, 1)
                    .cell(p.sloViolated ? "VIOLATED" : "ok")
                    .cell(p.energyPerInferenceJ, 3)
                    .cell(p.energyRatio, 2);
            }
        }
        table.print("fig13: " + info.name + " (batch 32)");
    }

    // Summary in the shape of the paper's headline claims.
    TextTable summary({"policy", "geo_norm_rps_x2", "geo_norm_rps_x4",
                       "geo_energy_ratio_x4"});
    for (const PartitionPolicy policy : allPartitionPolicies()) {
        const std::string prefix = partitionPolicyName(policy);
        report.set(prefix + ".geo_norm_rps_x2",
                   geomean(rps_acc[policy][2]));
        report.set(prefix + ".geo_norm_rps_x4",
                   geomean(rps_acc[policy][4]));
        report.set(prefix + ".geo_energy_ratio_x4",
                   geomean(energy_acc[policy][4]));
        summary.row()
            .cell(partitionPolicyName(policy))
            .cell(geomean(rps_acc[policy][2]), 2)
            .cell(geomean(rps_acc[policy][4]), 2)
            .cell(geomean(energy_acc[policy][4]), 2);
    }
    summary.print("fig13 summary (geomean across models)");

    const double krisp4 =
        geomean(rps_acc[PartitionPolicy::KrispIsolated][4]);
    const double static4 =
        geomean(rps_acc[PartitionPolicy::StaticEqual][4]);
    const double energy4 =
        geomean(energy_acc[PartitionPolicy::KrispIsolated][4]);
    std::printf("\nKRISP-I vs Static-Equal at 4 workers: %.2fx "
                "(paper: 1.22x)\n", krisp4 / static4);
    std::printf("KRISP-I normalized throughput at 4 workers: %.2fx "
                "(paper: ~2x)\n", krisp4);
    std::printf("KRISP-I energy per inference vs isolated at 4 "
                "workers: %.0f%% reduction (paper: 33%%)\n",
                100.0 * (1.0 - energy4));
    report.set("krisp_i_vs_static_equal_x4", krisp4 / static4);
    report.set("krisp_i_energy_reduction_pct_x4",
               100.0 * (1.0 - energy4));
    report.write();
    return 0;
}
