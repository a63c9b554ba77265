/**
 * @file
 * Simulator throughput microbench: how fast the discrete-event kernel
 * itself retires events (events/sec), how fast one bare GpuDevice
 * retires kernels (kernels/sec), how fast a trace sink keeps
 * kernel-shaped records (records/sec), and the end-to-end event rate
 * of a real server simulation. Tracks the hot-path work on EventQueue
 * (flat slots, lazy cancellation + compaction), on the device's fluid
 * rate recomputation (cached per-kernel constants, busy-CU-only
 * passes, one lookup per running kernel) and on TraceSink (compact
 * typed records, per-sink interning, chunked storage) — diff
 * BENCH_micro_sim_throughput.json across revisions.
 *
 * Wall-clock numbers are host-dependent; unlike the figure benches
 * this summary is NOT expected to be byte-stable.
 */

#include <chrono>
#include <cstdio>
#include <string>
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

/**
 * Trace-sink rate: the four records a traced kernel writes (dispatch,
 * a 4-SE workgroup split, the right-size decision and the execution
 * span) into a retained sink, timed after a warm-up pass that interns
 * the kernel names.
 */
double
traceKernelRecordsPerSec(std::uint64_t kernels)
{
    const std::string names[] = {
        "resnet152.layer3.conv2d_3x3_bn_relu_b32",
        "resnet152.layer4.conv2d_1x1_bn_b32",
        "resnet152.fc.gemm_2048x1000_b32"};
    const std::vector<unsigned> per_se = {25, 25, 25, 24};
    TraceSink sink;
    const auto kernel = [&](std::uint64_t id) {
        const std::string &name = names[id % 3];
        const QueueId queue = static_cast<QueueId>(id % 4);
        sink.kernelDispatch(id, queue, name, 15);
        sink.wgDispatch(id, queue, 99, per_se);
        sink.rightSize(name, 15, "native");
        sink.kernelSpan(id, queue, name, 0x7fffull, 15, 10 * id,
                        10 * id + 3, 10 * id + 9);
    };
    constexpr std::uint64_t warmup = 16;
    for (std::uint64_t id = 0; id < warmup; ++id)
        kernel(id);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t id = 0; id < kernels; ++id)
        kernel(id);
    const double secs = secondsSince(start);
    return static_cast<double>(sink.size() - 4 * warmup) / secs;
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

    const double trace_records = traceKernelRecordsPerSec(
        bench::quickMode() ? 25'000 : 100'000);
    TextTable trace_table({"records", "records/sec"});
    trace_table.row().cell("kernel-shaped").cell(trace_records, 0);
    trace_table.print("trace sink throughput");
    report.set("trace_kernel_records_per_sec", trace_records);

    report.set("chain_events_per_sec", chain);
    report.set("cancel_heavy_events_per_sec", cancel);
    report.set("server_events_per_sec", server);
    report.set("server_events_fired", server_events);
    report.write();
    return 0;
}
