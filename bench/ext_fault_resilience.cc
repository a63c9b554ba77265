/**
 * @file
 * Extension experiment (robustness): tail latency and availability
 * under injected faults. Sweeps a uniform per-site fault probability
 * (kernel hangs/slowdowns, reconfig-ioctl failures/delays, lost
 * completion signals, preprocess stalls) against the closed-loop
 * server running KRISP with emulated enforcement — the configuration
 * that exercises every handling path: ioctl retry/backoff, the
 * static-mask fallback, the GPU watchdog, and request shedding.
 *
 * Availability = completed / (completed + deadline misses + watchdog
 * failures) over the measurement window. Expectation: availability
 * degrades gracefully with the fault rate instead of the experiment
 * dying, and the fault layer at rate 0 reproduces the fault-free
 * numbers exactly.
 */

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "harness/worker_pool.hh"
#include "obs/obs.hh"
#include "server/inference_server.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "ext_fault_resilience",
        "extension: graceful degradation under injected faults "
        "(deterministic fault plan, Sec. V-B emulation path)");

    ServerConfig base;
    base.workerModels = {"squeezenet", "squeezenet"};
    base.batch = 8;
    base.policy = PartitionPolicy::KrispOversubscribed;
    base.enforcement = EnforcementMode::Emulated;
    base.warmupRequests = 2;
    base.measuredRequests = bench::quickMode() ? 10 : 30;
    base.requestDeadlineNs = ticksFromMs(60.0);
    base.requestTimeoutNs = ticksFromMs(120.0);
    base.maxSimNs = ticksFromSec(120);

    // Per-site, per-event probabilities. A squeezenet request runs
    // ~90 kernels, so even these small rates translate into sizable
    // per-request fault odds (a 0.02 signal-loss rate already fails
    // ~84% of requests).
    std::vector<double> rates = {0.0, 0.001, 0.002, 0.005, 0.02};
    if (const auto rate = bench::env::real("KRISP_FAULT_RATE"))
        rates = {*rate};

    // One island per fault rate, each with its own metrics-only
    // context; results land in rate order, so the table below is
    // identical for any job count.
    std::vector<ServerResult> results(rates.size());
    std::vector<ObsContext> obs(rates.size());
    harness::WorkerPool(bench::jobs(argc, argv))
        .forEachIndex(rates.size(), [&](std::size_t i) {
            ServerConfig cfg = base;
            cfg.faults = FaultPlan::uniform(rates[i]);
            // Hangs at the sweep rate stall entire workers for the
            // full watchdog budget; keep them an order rarer so the
            // sweep shows degradation rather than a cliff.
            cfg.faults.kernelHangProb = rates[i] / 10.0;
            cfg.faults.watchdogTimeoutNs = ticksFromMs(40.0);
            obs[i].trace.setEnabled(false);
            cfg.obs = &obs[i];
            results[i] = InferenceServer(cfg).run();
        });

    TextTable table({"fault_rate", "completed", "ddl_miss", "failed",
                     "availability", "p95_ms", "rps", "wd_kills",
                     "fallbacks", "timed_out"});
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const double rate = rates[i];
        const ServerResult &r = results[i];

        const double attempts = static_cast<double>(
            r.completed + r.deadlineMisses + r.failedRequests);
        const double availability =
            attempts > 0 ? static_cast<double>(r.completed) / attempts
                         : 0.0;
        const double wd_kills =
            obs[i].metrics.gauge("gpu.watchdog_kills").value();
        const double fallbacks = static_cast<double>(
            obs[i].metrics.counter("krisp.reconfig_fallbacks").value());

        const std::string prefix =
            "rate" + std::to_string(static_cast<int>(rate * 1000));
        report.addServerResult(prefix, r);
        report.set(prefix + ".availability", availability);
        report.set(prefix + ".deadline_misses",
                   static_cast<double>(r.deadlineMisses));
        report.set(prefix + ".failed_requests",
                   static_cast<double>(r.failedRequests));
        report.set(prefix + ".watchdog_kills", wd_kills);
        report.set(prefix + ".reconfig_fallbacks", fallbacks);

        table.row()
            .cell(rate, 3)
            .cell(static_cast<double>(r.completed), 0)
            .cell(static_cast<double>(r.deadlineMisses), 0)
            .cell(static_cast<double>(r.failedRequests), 0)
            .cell(availability, 3)
            .cell(r.maxP95Ms, 1)
            .cell(r.totalRps, 1)
            .cell(wd_kills, 0)
            .cell(fallbacks, 0)
            .cell(r.timedOut ? 1.0 : 0.0, 0);
    }
    table.print("squeezenet x2 workers, KRISP-O emulated, "
                "uniform fault-rate sweep");
    report.write();
    return 0;
}
