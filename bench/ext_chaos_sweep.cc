/**
 * @file
 * Extension experiment: deterministic chaos sweep. Subjects the
 * cluster to seed-driven chaos schedules — shard crash storms, fault
 * injection at every site, and overload bursts beyond capacity — and
 * sweeps the resilience layer on/off at three chaos levels, reporting
 * availability, per-class SLO attainment and the recovery-machinery
 * counters for each cell.
 *
 * Expectation: without resilience, availability collapses as chaos
 * grows (crashed and watchdog-failed requests are lost outright, the
 * backlog blows deadlines); with admission control, retry budgets,
 * hedging and warm restarts, availability stays >= 99% at the mid
 * chaos point while the batch class is shed at the door first.
 *
 * Request conservation (injected == completed + shed + dropped +
 * failed + in_flight) is asserted for every cell — chaos must never
 * lose a request silently.
 *
 * Every cell is an independent island, so the sweep runs on the
 * WorkerPool and the report is byte-identical for any --jobs value.
 *
 * Environment knobs (see EXPERIMENTS.md; ranges in bench_util.hh):
 *   KRISP_CHAOS_SEED        base seed for all cells (uint64)
 *   KRISP_CHAOS_CRASH_RATE  multiplier on every level's crash rate
 *   KRISP_CHAOS_FAULT_RATE  multiplier on every level's fault prob
 *   KRISP_CHAOS_OVERLOAD    multiplier on every level's offered load
 *   KRISP_ENGINE[_WORKERS]  cluster engine of every cell
 */

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cluster/cluster_server.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/worker_pool.hh"

using namespace krisp;

namespace
{

/** Sustainable cluster capacity estimate (requests per second) for
 *  the small-model mix below; admission buckets are sized from it. */
constexpr double kCapacityRps = 2000.0;
constexpr unsigned kShards = 2;
constexpr double kInteractiveFraction = 0.7;

struct ChaosLevel
{
    const char *name;
    /** Offered load as a multiple of kCapacityRps. */
    double overload;
    /** Per-site fault probability (FaultPlan::uniform). */
    double faultProb;
    /** Shard crashes per second, per shard. */
    double crashRatePerSec;
};

struct Cell
{
    ChaosLevel level;
    bool resilient = false;
    ClusterResult result;
};

/** The configuration of @p cell, on top of the sweep's @p base. */
ClusterConfig
cellConfig(const Cell &cell, const ClusterConfig &base)
{
    ClusterConfig cfg = base;
    cfg.numShards = kShards;
    cfg.routing = RoutingPolicy::LeastOutstanding;
    cfg.models = {"squeezenet", "shufflenet"};
    cfg.workersPerShard = 2;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.arrivalRatePerSec =
        kCapacityRps * cell.level.overload;
    cfg.maxBatch = 8;
    cfg.warmupNs = ticksFromMs(250.0);
    cfg.measureNs = bench::quickMode() ? ticksFromMs(400.0)
                                       : ticksFromMs(1500.0);
    cfg.requestDeadlineNs = ticksFromMs(250.0);
    cfg.batchWatchdogNs = ticksFromMs(60.0);
    cfg.interactiveFraction = kInteractiveFraction;
    cfg.sloMs = 100.0;

    FaultPlan plan = FaultPlan::uniform(cell.level.faultProb);
    plan.shardCrashRatePerSec = cell.level.crashRatePerSec;
    plan.shardRestartNs = ticksFromMs(40.0);
    cfg.faults = plan;

    // Re-admit quickly but with a grace window, so a shard restarted
    // into an ongoing fault storm is not immediately re-drained.
    cfg.drainNs = ticksFromMs(50.0);
    cfg.readmitGraceNs = ticksFromMs(30.0);

    if (cell.resilient) {
        ResilienceConfig &res = cfg.resilience;
        res.enabled = true;
        // Admission sized to capacity: overload is shed at the door
        // (mostly Batch under brownout) instead of blowing deadlines.
        res.admission[0].ratePerSec =
            kCapacityRps * kInteractiveFraction;
        res.admission[0].burst = 64;
        res.admission[1].ratePerSec =
            kCapacityRps * (1.0 - kInteractiveFraction);
        res.admission[1].burst = 32;
        res.brownoutHighWatermark = 96;
        res.brownoutLowWatermark = 24;
        // Generous budget: chaos loses whole shards' worth of work,
        // and every lost request deserves a second chance.
        res.retryBudgetRatio = 0.5;
        res.retryBudgetFloor = 64;
        res.maxAttempts = 6;
        res.breakerFailureThreshold = 4;
        res.breakerCooldownNs = ticksFromMs(60.0);
        res.rerouteBackoffNs = ticksFromMs(15.0);
        res.hedging = true;
        res.hedgeQuantile = 0.99;
        res.hedgeMinSamples = 64;
        res.hedgeMinDelayNs = ticksFromMs(5.0);
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "ext_chaos_sweep",
        "extension: availability + per-class SLO attainment under "
        "crash storms, fault injection and overload, resilience "
        "on/off per chaos level");

    const double crash_scale =
        bench::env::real("KRISP_CHAOS_CRASH_RATE").value_or(1.0);
    const double fault_scale =
        bench::env::real("KRISP_CHAOS_FAULT_RATE").value_or(1.0);
    const double load_scale =
        bench::env::real("KRISP_CHAOS_OVERLOAD").value_or(1.0);
    ClusterConfig base;
    base.seed = bench::env::count("KRISP_CHAOS_SEED").value_or(0xC4A05ULL);
    base.engine = bench::engine();

    // name, overload (x capacity), fault prob, crashes/s/shard
    std::vector<ChaosLevel> levels = {
        {"low", 0.50, 0.0001, 0.25},
        {"mid", 1.10, 0.0003, 1.00},
        {"high", 2.50, 0.0030, 2.00},
    };
    for (ChaosLevel &lvl : levels) {
        lvl.overload *= load_scale;
        lvl.faultProb *= fault_scale;
        lvl.crashRatePerSec *= crash_scale;
    }

    std::vector<Cell> cells;
    for (const ChaosLevel &lvl : levels)
        for (const bool resilient : {false, true})
            cells.push_back(Cell{lvl, resilient, {}});

    const unsigned jobs = bench::jobs(argc, argv);
    harness::WorkerPool pool(jobs);
    pool.forEachIndex(cells.size(), [&](std::size_t i) {
        Cell &cell = cells[i];
        cell.result = ClusterServer(cellConfig(cell, base)).run();
        // Chaos must never lose a request silently: the conservation
        // invariant holds exactly in every cell, on or off.
        fatal_if(cell.result.resilience.conservationDelta() != 0,
                 "request conservation violated in chaos cell ",
                 cell.level.name,
                 cell.resilient ? ".on" : ".off", ": delta = ",
                 cell.result.resilience.conservationDelta());
    });

    TextTable table({"level", "resilience", "availability",
                     "slo_interactive", "slo_batch", "shed",
                     "retries", "hedges", "crashes", "recovered",
                     "failed"});
    for (const Cell &cell : cells) {
        const ClusterResult &r = cell.result;
        const ResilienceStats &res = r.resilience;
        const std::string prefix =
            std::string(cell.level.name) +
            (cell.resilient ? ".on" : ".off");
        report.set(prefix + ".availability", r.availability);
        report.set(prefix + ".slo_interactive", r.sloAttainment[0]);
        report.set(prefix + ".slo_batch", r.sloAttainment[1]);
        report.set(prefix + ".injected",
                   static_cast<double>(res.injected));
        report.set(prefix + ".completed",
                   static_cast<double>(res.completed));
        report.set(prefix + ".shed",
                   static_cast<double>(res.shed));
        report.set(prefix + ".shed_batch",
                   static_cast<double>(res.shedByClass[1]));
        report.set(prefix + ".failed",
                   static_cast<double>(res.failed));
        report.set(prefix + ".retries",
                   static_cast<double>(res.retries));
        report.set(prefix + ".hedges",
                   static_cast<double>(res.hedges));
        report.set(prefix + ".hedges_won",
                   static_cast<double>(res.hedgesWon));
        report.set(prefix + ".crashes",
                   static_cast<double>(res.crashes));
        report.set(prefix + ".recoveries",
                   static_cast<double>(res.recoveries));
        report.set(prefix + ".brownout_enters",
                   static_cast<double>(res.brownoutEnters));
        report.set(prefix + ".capped_grants",
                   static_cast<double>(res.cappedGrants));
        report.set(prefix + ".conservation_delta",
                   static_cast<double>(res.conservationDelta()));
        report.set(prefix + ".allocators_pristine",
                   r.allocatorsPristine ? 1.0 : 0.0);
        table.row()
            .cell(cell.level.name)
            .cell(cell.resilient ? "on" : "off")
            .cell(r.availability, 4)
            .cell(r.sloAttainment[0], 3)
            .cell(r.sloAttainment[1], 3)
            .cell(static_cast<double>(res.shed), 0)
            .cell(static_cast<double>(res.retries), 0)
            .cell(static_cast<double>(res.hedges), 0)
            .cell(static_cast<double>(res.crashes), 0)
            .cell(static_cast<double>(res.recoveries), 0)
            .cell(static_cast<double>(res.failed), 0);
    }
    table.print("chaos sweep (2 shards, squeezenet+shufflenet, "
                "crash storms x faults x overload)");

    // Headline: the availability gap the resilience layer buys at
    // the mid chaos point.
    double on_mid = 0, off_mid = 0;
    for (const Cell &cell : cells) {
        if (std::string(cell.level.name) != "mid")
            continue;
        (cell.resilient ? on_mid : off_mid) =
            cell.result.availability;
    }
    report.set("mid.availability_gain", on_mid - off_mid);

    report.write();
    return 0;
}
