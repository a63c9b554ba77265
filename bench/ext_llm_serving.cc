/**
 * @file
 * Extension experiment: LLM serving with continuous vs static
 * batching. Sweeps Poisson arrival rates against the llm-small
 * workload on a KRISP-partitioned shard and compares the two
 * schedulers on goodput (requests meeting the end-to-end SLO),
 * token throughput, TTFT, inter-token latency and KV-cache pressure.
 *
 * Expectation: throughput matches at every rate (both schedulers
 * eventually emit the same tokens), but continuous batching joins
 * requests into the running decode batch between steps instead of
 * holding them for a full batch slot, so its TTFT and end-to-end
 * tails — and with them goodput — are strictly better once the
 * offered rate approaches capacity. The mid-rate goodput gain is the
 * headline and is gated in CI.
 *
 * KV conservation (allocated == active + freed, never over budget)
 * is fatal-checked inside the engine on every transition; each cell
 * additionally asserts a clean drain (zero leaked bytes).
 *
 * Every cell is an independent island on its own EventQueue, so the
 * sweep runs on the WorkerPool and the report is byte-identical for
 * any --jobs value.
 *
 * Environment knobs (see EXPERIMENTS.md; ranges in bench_util.hh):
 *   KRISP_LLM_SEED        base seed for all cells (uint64)
 *   KRISP_LLM_MODEL       zoo LLM name (default llm-small)
 *   KRISP_LLM_RATE_SCALE  multiplier on every cell's arrival rate
 *   KRISP_LLM_KV_MB       per-shard KV budget in MiB (default 256)
 *   KRISP_LLM_SLO_MS      end-to-end goodput SLO (default 400 ms)
 */

#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "harness/worker_pool.hh"
#include "server/llm_engine.hh"

using namespace krisp;

namespace
{

struct RatePoint
{
    const char *name;
    double ratePerSec;
};

struct Cell
{
    RatePoint rate;
    LlmScheduler scheduler = LlmScheduler::Static;
    LlmResult result;
};

/** The sweep's shared configuration, from the KRISP_LLM_* knobs. */
LlmEngineConfig
baseConfig()
{
    LlmEngineConfig cfg;
    // LlmEngine rejects a name that is not a zoo LLM.
    if (const char *model = bench::env::text("KRISP_LLM_MODEL"))
        cfg.model = model;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.kvBudgetBytes =
        bench::env::real("KRISP_LLM_KV_MB").value_or(256.0) * 1024 *
        1024;
    cfg.e2eSloNs = static_cast<Tick>(
        bench::env::real("KRISP_LLM_SLO_MS").value_or(400.0) * 1e6);
    cfg.warmupNs = ticksFromMs(20.0);
    cfg.measureNs = bench::quickMode() ? ticksFromMs(120.0)
                                       : ticksFromMs(400.0);
    cfg.seed = bench::env::count("KRISP_LLM_SEED").value_or(0x11AA5ULL);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report(
        "ext_llm_serving",
        "extension: continuous vs static batching for "
        "autoregressive LLM serving (prefill/decode, KV cache)");

    const LlmEngineConfig base = baseConfig();
    const double rate_scale =
        bench::env::real("KRISP_LLM_RATE_SCALE").value_or(1.0);
    std::vector<RatePoint> rates = {
        {"low", 64.0},
        {"mid", 256.0},
        {"high", 512.0},
    };
    for (RatePoint &r : rates)
        r.ratePerSec *= rate_scale;

    std::vector<Cell> cells;
    for (const RatePoint &r : rates)
        for (const LlmScheduler s :
             {LlmScheduler::Static, LlmScheduler::Continuous})
            cells.push_back(Cell{r, s, {}});

    const unsigned jobs = bench::jobs(argc, argv);
    harness::WorkerPool pool(jobs);
    pool.forEachIndex(cells.size(), [&](std::size_t i) {
        Cell &cell = cells[i];
        LlmEngineConfig cfg = base;
        cfg.scheduler = cell.scheduler;
        cfg.arrivalRatePerSec = cell.rate.ratePerSec;
        cell.result = LlmEngine(cfg).run();
        // The engine fatal-checks the KV ledger on every transition;
        // the cell-level gate is the end state: everything allocated
        // came back, nothing leaked past the drain.
        fatal_if(cell.result.kvAllocatedCum !=
                     cell.result.kvFreedCum +
                         cell.result.kvLeakBytes,
                 "KV conservation violated in cell ",
                 cell.rate.name, ".",
                 llmSchedulerName(cell.scheduler));
        fatal_if(!cell.result.timedOut &&
                     cell.result.kvLeakBytes != 0,
                 "KV cache leaked in cell ", cell.rate.name, ".",
                 llmSchedulerName(cell.scheduler));
    });

    TextTable table({"rate", "scheduler", "served", "goodput_rps",
                     "tok_per_s", "ttft_p50", "ttft_p99", "itl_p50",
                     "e2e_p99", "batch", "preempt", "kv_peak_mb"});
    for (const Cell &cell : cells) {
        const LlmResult &r = cell.result;
        const std::string prefix =
            std::string(cell.rate.name) + "." +
            llmSchedulerName(cell.scheduler);
        report.set(prefix + ".offered_rps", r.offeredRps);
        report.set(prefix + ".served",
                   static_cast<double>(r.served));
        report.set(prefix + ".dropped",
                   static_cast<double>(r.dropped));
        report.set(prefix + ".goodput_rps", r.goodputRps);
        report.set(prefix + ".tokens_per_sec", r.tokensPerSec);
        report.set(prefix + ".ttft_p50_ms", r.ttftP50Ms);
        report.set(prefix + ".ttft_p99_ms", r.ttftP99Ms);
        report.set(prefix + ".itl_p50_ms", r.itlP50Ms);
        report.set(prefix + ".itl_p99_ms", r.itlP99Ms);
        report.set(prefix + ".e2e_p50_ms", r.e2eP50Ms);
        report.set(prefix + ".e2e_p99_ms", r.e2eP99Ms);
        report.set(prefix + ".mean_decode_batch",
                   r.meanDecodeBatch);
        report.set(prefix + ".decode_steps",
                   static_cast<double>(r.decodeSteps));
        report.set(prefix + ".prefill_chunks",
                   static_cast<double>(r.prefillChunks));
        report.set(prefix + ".preemptions",
                   static_cast<double>(r.preemptions));
        report.set(prefix + ".recomputed_tokens",
                   static_cast<double>(r.recomputedTokens));
        report.set(prefix + ".kv_peak_bytes",
                   static_cast<double>(r.kvPeakBytes));
        report.set(prefix + ".conservation_delta",
                   static_cast<double>(r.kvAllocatedCum -
                                       r.kvFreedCum -
                                       r.kvLeakBytes));
        report.set(prefix + ".timed_out", r.timedOut ? 1.0 : 0.0);
        table.row()
            .cell(cell.rate.name)
            .cell(llmSchedulerName(cell.scheduler))
            .cell(static_cast<double>(r.served), 0)
            .cell(r.goodputRps, 1)
            .cell(r.tokensPerSec, 0)
            .cell(r.ttftP50Ms, 2)
            .cell(r.ttftP99Ms, 2)
            .cell(r.itlP50Ms, 3)
            .cell(r.e2eP99Ms, 2)
            .cell(r.meanDecodeBatch, 2)
            .cell(static_cast<double>(r.preemptions), 0)
            .cell(static_cast<double>(r.kvPeakBytes) / (1024 * 1024),
                  1);
    }
    table.print("LLM serving sweep (llm-small, 1 shard, "
                "continuous vs static batching)");

    // Headline: the goodput continuous batching buys at the mid
    // rate, where static batching's batch-assembly waits start
    // blowing the SLO but the machine itself still keeps up.
    double cont_mid = 0, stat_mid = 0;
    for (const Cell &cell : cells) {
        if (std::string(cell.rate.name) != "mid")
            continue;
        (cell.scheduler == LlmScheduler::Continuous ? cont_mid
                                                    : stat_mid) =
            cell.result.goodputRps;
    }
    report.set("mid.goodput_gain", cont_mid - stat_mid);

    report.write();
    return 0;
}
