/**
 * @file
 * Table IV reproduction: the maximum number of concurrent model
 * workers each policy sustains without violating the SLO (2x the
 * isolated p95 tail latency).
 *
 * Paper expectation: KRISP-I achieves the best concurrency for most
 * models (4 workers for resnet152, resnext101, shufflenet,
 * squeezenet, vgg19); densenet201 cannot be scaled to 4 by any
 * policy; alexnet reaches 4 under every policy.
 */

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "models/model_zoo.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "table4_max_concurrency",
        "Table IV (max concurrent models without SLO violation)");

    ExperimentContext ctx(bench::paperConfig(32));
    const std::vector<unsigned> worker_counts = {1, 2, 4};

    std::vector<EvalSpec> specs;
    for (const auto &info : ModelZoo::workloads())
        for (const PartitionPolicy policy : allPartitionPolicies())
            for (const unsigned w : worker_counts)
                specs.push_back({info.name, policy, w, std::nullopt});
    ctx.prefetch(specs, bench::jobs(argc, argv));

    TextTable table({"model", "mps-default", "static-equal",
                     "model-right-size", "krisp-o", "krisp-i",
                     "best"});
    for (const auto &info : ModelZoo::workloads()) {
        table.row().cell(info.name);
        unsigned best = 0;
        std::vector<unsigned> maxima;
        for (const PartitionPolicy policy : allPartitionPolicies()) {
            unsigned max_ok = 0;
            for (const unsigned w : worker_counts) {
                const EvalPoint p = ctx.evaluate(info.name, policy, w);
                if (!p.sloViolated)
                    max_ok = w;
            }
            maxima.push_back(max_ok);
            best = std::max(best, max_ok);
            report.set(info.name + "." +
                           partitionPolicyName(policy),
                       static_cast<double>(max_ok));
        }
        for (const unsigned m : maxima)
            table.cell(m);
        // Mark which policies achieve the best concurrency.
        std::string winners;
        for (std::size_t i = 0; i < maxima.size(); ++i) {
            if (maxima[i] == best) {
                if (!winners.empty())
                    winners += ",";
                winners +=
                    partitionPolicyName(allPartitionPolicies()[i]);
            }
        }
        table.cell(winners);
    }
    table.print("max concurrent workers meeting the 2x-isolated SLO");
    report.write();
    return 0;
}
