/**
 * @file
 * Autoregressive serving engine: continuous batching over GpuShards.
 *
 * A CNN request is one kernel sequence; an LLM request is a prompt
 * *prefill* followed by one memory-bound *decode* step per generated
 * token, holding a KV cache that grows every step. The engine turns
 * that into discrete-event work on the shared EventQueue:
 *
 *  - Continuous batching (Orca-style): requests join and leave the
 *    running decode batch between steps. Each engine step launches at
 *    most one prefill chunk (chunked prefill, interleaved with decode
 *    so long prompts cannot stall token generation) plus one decode
 *    step over every running request, as a single launch group on the
 *    shard's worker stream.
 *  - Static batching (the baseline): requests are grouped by a
 *    DynamicBatcher, prefilled, then decoded in lock-step until the
 *    longest generation in the batch finishes; early finishers waste
 *    their decode slots and hold their KV until the batch retires.
 *
 * KV accounting is exact and fatal-checked: every byte allocated
 * against the per-shard budget is freed on completion or preemption
 * (allocated == active + freed at all times). Admission is gated on
 * free budget — a waiting request only enters the prefill slot when
 * its first chunk fits without evicting anyone. When the growth of
 * already-admitted requests overruns the budget, the newest running
 * request is preempted: its cache is dropped and recomputed from
 * scratch when it is readmitted (vLLM's recompute policy).
 */

#ifndef KRISP_SERVER_LLM_ENGINE_HH
#define KRISP_SERVER_LLM_ENGINE_HH

#include <cstdint>
#include <string>

#include "server/gpu_shard.hh"
#include "server/policies.hh"

namespace krisp
{

/** How the engine forms decode batches. */
enum class LlmScheduler
{
    /** Fixed batches: assemble, prefill, decode until all finish. */
    Static,
    /** Requests join/leave the running batch between decode steps. */
    Continuous,
};

const char *llmSchedulerName(LlmScheduler s);

/** Full configuration of one LLM serving run. */
struct LlmEngineConfig
{
    /** A ModelZoo::llmWorkloads() name. */
    std::string model = "llm-small";
    unsigned numShards = 1;
    LlmScheduler scheduler = LlmScheduler::Continuous;
    PartitionPolicy policy = PartitionPolicy::KrispIsolated;
    EnforcementMode enforcement = EnforcementMode::Native;
    ReconfigPolicy reconfig = ReconfigPolicy::Always;

    /** Poisson arrival rate across the whole engine. */
    double arrivalRatePerSec = 64.0;
    /** Prompt / output token counts, uniform inclusive. */
    unsigned promptMinTokens = 32;
    unsigned promptMaxTokens = 512;
    unsigned outputMinTokens = 16;
    unsigned outputMaxTokens = 128;

    /** Upper bound on the running decode batch per shard. */
    unsigned maxDecodeBatch = 8;
    /** Prompt tokens prefilled per engine step (chunked prefill). */
    unsigned prefillChunkTokens = 256;
    /**
     * Per-shard KV budget in bytes. Must hold at least one maximal
     * request (prompt + generation); the static scheduler, which
     * cannot preempt, must fit a full batch of them.
     */
    double kvBudgetBytes = 256.0 * 1024 * 1024;
    /** Admission bound on each shard's waiting queue. */
    unsigned queueCapacity = 4096;

    /** A request is goodput iff its end-to-end latency meets this. */
    Tick e2eSloNs = 400'000'000;

    Tick warmupNs = 20'000'000;
    Tick measureNs = 400'000'000;
    /** Safety cap on simulated time (0 = none). */
    Tick maxSimNs = 60'000'000'000;
    std::uint64_t seed = 1;

    ObsContext *obs = nullptr;
};

/** End-of-run summary. */
struct LlmResult
{
    double offeredRps = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;
    /** Requests whose end-to-end latency met e2eSloNs. */
    std::uint64_t good = 0;
    double servedRps = 0;
    double goodputRps = 0;
    /** Decode tokens emitted per measured second. */
    double tokensPerSec = 0;
    std::uint64_t tokens = 0;

    double ttftP50Ms = 0, ttftP99Ms = 0;
    double itlP50Ms = 0, itlP99Ms = 0;
    double e2eP50Ms = 0, e2eP99Ms = 0;
    double meanDecodeBatch = 0;
    std::uint64_t decodeSteps = 0;
    std::uint64_t prefillChunks = 0;

    std::uint64_t preemptions = 0;
    /** Prompt+generated tokens re-prefilled after preemption. */
    std::uint64_t recomputedTokens = 0;
    std::uint64_t kvPeakBytes = 0;
    std::uint64_t kvAllocatedCum = 0;
    std::uint64_t kvFreedCum = 0;
    /** Bytes still held at end of run (0 unless timedOut). */
    std::uint64_t kvLeakBytes = 0;

    bool timedOut = false;
};

/** Runs one configuration to completion (single-use). */
class LlmEngine
{
  public:
    explicit LlmEngine(LlmEngineConfig config);

    LlmResult run();

  private:
    LlmEngineConfig config_;
};

} // namespace krisp

#endif // KRISP_SERVER_LLM_ENGINE_HH
