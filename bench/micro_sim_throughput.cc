/**
 * @file
 * Simulator throughput microbench: how fast the discrete-event kernel
 * itself retires events (events/sec), how fast one bare GpuDevice
 * retires kernels (kernels/sec), and the end-to-end event rate of a
 * real server simulation. Tracks the hot-path work on EventQueue (flat
 * slots, lazy cancellation + compaction) and on the device's fluid
 * rate recomputation (cached per-kernel constants, busy-CU-only
 * passes, one lookup per running kernel) — diff
 * BENCH_micro_sim_throughput.json across revisions.
 *
 * Wall-clock numbers are host-dependent; unlike the figure benches
 * this summary is NOT expected to be byte-stable.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/mask_allocator.hh"
#include "gpu/gpu_device.hh"
#include "obs/obs.hh"
#include "server/inference_server.hh"
#include "sim/event_queue.hh"

using namespace krisp;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Ring of self-rescheduling events: the pure schedule+fire path. */
double
chainEventsPerSec(std::uint64_t total_events, unsigned ring)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> hop = [&] {
        if (++fired < total_events)
            eq.scheduleIn(1 + fired % 7, hop);
    };
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < ring; ++i)
        eq.scheduleIn(1 + i, hop);
    eq.run();
    return static_cast<double>(eq.firedCount()) / secondsSince(start);
}

/**
 * Deadline pattern: every fired event schedules a companion that is
 * immediately cancelled, exercising lazy deletion + compaction.
 */
double
cancelHeavyEventsPerSec(std::uint64_t total_events)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> hop = [&] {
        const EventId doomed =
            eq.scheduleIn(1'000'000, [] {});
        eq.deschedule(doomed);
        if (++fired < total_events)
            eq.scheduleIn(1 + fired % 5, hop);
    };
    const auto start = std::chrono::steady_clock::now();
    eq.scheduleIn(1, hop);
    eq.run();
    const double handled = static_cast<double>(eq.firedCount()) +
                           static_cast<double>(eq.cancelledCount());
    return handled / secondsSince(start);
}

/**
 * Device-only rate: @p streams HSA queues on one GpuDevice, each
 * relaunching its kernel as soon as the last one completes, until
 * @p total kernels retired. With @p krisp every launch asks Algorithm
 * 1 for a 15-CU partition (KRISP-style partial masks); without it
 * every kernel runs on the whole device (MPS). Each stream has its
 * own kernel, half of them moving DRAM traffic.
 */
double
deviceKernelsPerSec(unsigned streams, bool krisp, std::uint64_t total)
{
    EventQueue eq;
    const GpuConfig cfg = GpuConfig::mi50();
    GpuDevice device(eq, cfg);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    if (krisp)
        device.setKrispAllocator(&alloc);
    std::uint64_t launched = 0;
    std::vector<std::function<void()>> relaunch(streams);
    for (unsigned s = 0; s < streams; ++s) {
        auto k = std::make_shared<KernelDescriptor>();
        k->name = "stream" + std::to_string(s);
        k->numWorkgroups = 60 + 37 * s;
        k->wgDurationNs = 400.0 + 50.0 * s;
        k->saturationWgsPerCu = 4;
        k->bytes = s % 2 == 0 ? 0.0 : 2e5;
        HsaQueue *q = &device.createQueue();
        relaunch[s] = [&, s, k, q] {
            if (launched == total)
                return;
            ++launched;
            AqlPacket pkt =
                AqlPacket::dispatch(k, nullptr, krisp ? 15 : 0);
            pkt.onComplete = [&relaunch, s] { relaunch[s](); };
            q->push(std::move(pkt));
        };
    }
    const auto start = std::chrono::steady_clock::now();
    for (auto &fn : relaunch)
        fn();
    eq.run();
    return static_cast<double>(device.stats().kernelsCompleted) /
           secondsSince(start);
}

/** Whole-stack rate: one closed-loop server run, events from obs. */
double
serverEventsPerSec(double &out_events)
{
    ObsContext obs;
    obs.trace.setEnabled(false);
    ServerConfig cfg;
    cfg.workerModels = {"squeezenet", "squeezenet"};
    cfg.batch = 16;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.warmupRequests = 2;
    cfg.measuredRequests = bench::quickMode() ? 8 : 20;
    cfg.obs = &obs;
    const auto start = std::chrono::steady_clock::now();
    InferenceServer(cfg).run();
    const double secs = secondsSince(start);
    out_events = obs.metrics.gauge("sim.events_fired").value();
    return out_events / secs;
}

} // namespace

int
main()
{
    bench::BenchReport report(
        "micro_sim_throughput",
        "infrastructure: event-core events/sec and device "
        "kernels/sec (not a paper figure)");

    const std::uint64_t n =
        bench::quickMode() ? 200'000 : 2'000'000;

    const double chain = chainEventsPerSec(n, /*ring=*/16);
    const double cancel = cancelHeavyEventsPerSec(n);
    double server_events = 0;
    const double server = serverEventsPerSec(server_events);

    TextTable table({"workload", "events/sec"});
    table.row().cell("chain x16").cell(chain, 0);
    table.row().cell("cancel-heavy").cell(cancel, 0);
    table.row().cell("server squeezenet x2").cell(server, 0);
    table.print("event core throughput");

    const std::uint64_t kernels =
        bench::quickMode() ? 20'000 : 200'000;
    TextTable device_table({"masks", "streams", "kernels/sec"});
    for (const bool krisp : {true, false}) {
        const std::string masks = krisp ? "krisp" : "whole";
        for (const unsigned streams : {1u, 4u, 16u}) {
            const double rate =
                deviceKernelsPerSec(streams, krisp, kernels);
            device_table.row().cell(masks).cell(streams).cell(rate, 0);
            report.set("device_" + masks + "_streams" +
                           std::to_string(streams) + "_kernels_per_sec",
                       rate);
        }
    }
    device_table.print("device fluid model throughput");

    report.set("chain_events_per_sec", chain);
    report.set("cancel_heavy_events_per_sec", cancel);
    report.set("server_events_per_sec", server);
    report.set("server_events_fired", server_events);
    report.write();
    return 0;
}
