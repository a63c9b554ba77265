/**
 * @file
 * Extension experiment: multi-GPU cluster scaling. Sweeps GPU shard
 * count x routing policy under open-loop Poisson load and reports
 * throughput, tail latency and shed rate per point.
 *
 * Load model: the offered rate grows with the cluster (a fixed
 * per-shard rate times the shard count), the way capacity planning
 * adds GPUs to absorb traffic. Expectation: served throughput scales
 * near-linearly with shards while p99 stays flat — each shard runs
 * at the same operating point — with least-outstanding routing
 * smoothing the Poisson imbalance round-robin lets through, and
 * model-affinity trading a little balance for resident right-sized
 * masks.
 *
 * Every point is an independent island, so the sweep runs on the
 * WorkerPool and the report is byte-identical for any --jobs value.
 * KRISP_ENGINE / KRISP_ENGINE_WORKERS pick the engine of every point
 * (byte-identical too, DESIGN.md §14).
 */

#include "bench/bench_util.hh"
#include "cluster/cluster_server.hh"
#include "common/table.hh"
#include "harness/worker_pool.hh"

using namespace krisp;

namespace
{

/** Offered load added per shard (requests per second). */
constexpr double kPerShardRps = 250.0;

struct Point
{
    unsigned shards = 0;
    RoutingPolicy routing = RoutingPolicy::RoundRobin;
    ClusterResult result;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "ext_cluster_scaling",
        "extension: cluster throughput/p99/shed vs GPU shard count "
        "per routing policy (fixed per-shard offered rate)");

    const std::vector<unsigned> shard_counts = {1, 2, 4, 8};
    const std::vector<RoutingPolicy> routings = {
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastOutstanding,
        RoutingPolicy::ModelAffinity,
    };

    std::vector<Point> points;
    for (const RoutingPolicy routing : routings)
        for (const unsigned shards : shard_counts)
            points.push_back(Point{shards, routing, {}});

    const unsigned jobs = bench::jobs(argc, argv);
    const EngineConfig engine = bench::engine();
    harness::WorkerPool pool(jobs);
    pool.forEachIndex(points.size(), [&](std::size_t i) {
        Point &p = points[i];
        ClusterConfig cfg;
        cfg.engine = engine;
        cfg.numShards = p.shards;
        cfg.routing = p.routing;
        cfg.models = {"resnet152", "vgg19"};
        cfg.workersPerShard = 2;
        cfg.policy = PartitionPolicy::KrispIsolated;
        cfg.arrivalRatePerSec = kPerShardRps * p.shards;
        cfg.maxBatch = 8;
        cfg.requestDeadlineNs = ticksFromMs(200.0);
        cfg.measureNs = bench::quickMode() ? ticksFromMs(500.0)
                                           : ticksFromSec(2.0);
        p.result = ClusterServer(cfg).run();
    });

    for (const RoutingPolicy routing : routings) {
        TextTable table({"shards", "offered_rps", "achieved_rps",
                         "p50_ms", "p99_ms", "drop_rate",
                         "shed_rate", "mean_batch"});
        for (const Point &p : points) {
            if (p.routing != routing)
                continue;
            const ClusterResult &r = p.result;
            const std::string prefix =
                std::string(routingPolicyName(routing)) + ".shards" +
                std::to_string(p.shards);
            report.set(prefix + ".offered_rps", r.offeredRps);
            report.set(prefix + ".achieved_rps", r.achievedRps);
            report.set(prefix + ".p99_ms", r.p99Ms);
            report.set(prefix + ".drop_rate", r.dropRate);
            report.set(prefix + ".shed_rate", r.shedRate);
            table.row()
                .cell(p.shards, 0)
                .cell(r.offeredRps, 0)
                .cell(r.achievedRps, 1)
                .cell(r.p50Ms, 1)
                .cell(r.p99Ms, 1)
                .cell(r.dropRate, 3)
                .cell(r.shedRate, 3)
                .cell(r.meanBatchSize, 1);
        }
        table.print(std::string("cluster scaling, ") +
                    routingPolicyName(routing) +
                    " routing (KRISP-I, resnet152+vgg19)");
    }

    // Headline scaling factor: served throughput at 4 shards over 1,
    // least-outstanding routing (>= 3x expected at flat p99).
    double served1 = 0, served4 = 0;
    for (const Point &p : points) {
        if (p.routing != RoutingPolicy::LeastOutstanding)
            continue;
        if (p.shards == 1)
            served1 = p.result.achievedRps;
        if (p.shards == 4)
            served4 = p.result.achievedRps;
    }
    report.set("least-outstanding.speedup_4x_over_1x",
               served1 > 0 ? served4 / served1 : 0);

    report.write();
    return 0;
}
