/**
 * @file
 * Fig. 12 / Sec. V-B reproduction: the emulation overhead model.
 * For every workload, measure a full inference pass under
 *   - native kernel-scoped partition instances (proposed KRISP), and
 *   - the barrier-packet emulation on stream-scoped CU masking
 *     (the paper's evaluation vehicle),
 * both with the resource mask fixed to all active CUs, and report
 * L_over = L_emu - L_native and its per-kernel cost.
 *
 * Paper expectation: L_over scales with the number of kernel calls
 * (each pays two barriers, a runtime callback and a serialised
 * ioctl), which is why Sec. V-B normalises results against the
 * emulated baseline.
 *
 * The emulated pass is additionally swept over ReconfigPolicy
 * {Always, Elide, Group}: with the mask fixed to the full GPU, every
 * launch after the first requests the size already in effect, so
 * elision and grouping collapse the per-kernel protocol and the
 * sweep bounds how much of L_over they recover (the ECLIP
 * observation). Barrier-packet and ioctl counts per policy — and the
 * Group-vs-Always reduction — land in the BENCH summary.
 *
 * Runs the (model x policy) points on the parallel harness; pass
 * --jobs N (or KRISP_JOBS). Results are byte-identical for any job
 * count.
 */

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "core/krisp_runtime.hh"
#include "gpu/gpu_device.hh"
#include "harness/worker_pool.hh"
#include "models/model_zoo.hh"
#include "obs/obs.hh"
#include "sim/event_queue.hh"

using namespace krisp;

namespace
{

/** One full inference pass, an isolated simulation island. */
struct ModelRun
{
    Tick end = 0;
    std::uint64_t barriers = 0; ///< barrier packets pushed
    std::uint64_t ioctls = 0;   ///< reconfig ioctls completed
    KrispRuntimeStats krisp;
};

ModelRun
runModel(const std::vector<KernelDescPtr> &seq, EnforcementMode mode,
         ReconfigPolicy policy, ObsContext *obs = nullptr)
{
    EventQueue eq;
    const GpuConfig gpu = GpuConfig::mi50();
    GpuDevice device(eq, gpu);
    HipRuntime hip(eq, device);
    if (obs != nullptr) {
        obs->trace.setClock(&eq);
        hip.attachObs(obs);
    }
    FixedSizer sizer(gpu.arch.totalCus()); // full mask: pure overhead
    MaskAllocator alloc(DistributionPolicy::Conserved);
    KrispRuntime krisp(hip, sizer, alloc, mode, obs);
    krisp.setReconfigPolicy(policy);
    if (policy != ReconfigPolicy::Always)
        alloc.setMaskCacheEnabled(true);
    Stream &s = hip.createStream();
    auto sig =
        HsaSignal::create(static_cast<std::int64_t>(seq.size()));
    ModelRun run;
    sig->waitZero([&] { run.end = eq.now(); });
    krisp.launchGroup(s, seq, sig);
    eq.run();
    run.barriers = s.hsaQueue().barriersPushed();
    run.ioctls = hip.ioctlService().completed();
    run.krisp = krisp.stats();
    return run;
}

constexpr ReconfigPolicy kPolicies[] = {ReconfigPolicy::Always,
                                        ReconfigPolicy::Elide,
                                        ReconfigPolicy::Group};
constexpr std::size_t kNumPolicies = 3;

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report("fig12_emulation_overhead",
                              "Fig. 12 / Sec. V-B (L_over accounting)");

    ModelZoo zoo(ArchParams::mi50());
    const auto &workloads = ModelZoo::workloads();
    const std::size_t num_models = workloads.size();

    // The zoo memoizes sequences on first use; warm it up front so
    // the parallel workers below only ever read the cache.
    std::vector<const std::vector<KernelDescPtr> *> seqs;
    seqs.reserve(num_models);
    for (const auto &info : workloads)
        seqs.push_back(&zoo.kernels(info.name, 32));

    // Point layout per model: [native, emu/always, emu/elide,
    // emu/group]; slots are merged in this fixed order so the report
    // is byte-identical for any --jobs value.
    const std::size_t points_per_model = 1 + kNumPolicies;
    std::vector<ModelRun> runs(num_models * points_per_model);
    harness::WorkerPool pool(bench::jobs(argc, argv));
    pool.forEachIndex(runs.size(), [&](std::size_t idx) {
        const std::size_t m = idx / points_per_model;
        const std::size_t p = idx % points_per_model;
        const auto &seq = *seqs[m];
        runs[idx] =
            p == 0 ? runModel(seq, EnforcementMode::Native,
                              ReconfigPolicy::Always)
                   : runModel(seq, EnforcementMode::Emulated,
                              kPolicies[p - 1]);
    });

    TextTable table({"model", "kernels", "L_native_ms", "L_emu_ms",
                     "L_over_ms", "L_over_per_kernel_us",
                     "overhead_pct"});
    TextTable policy_table({"model", "policy", "L_emu_ms",
                            "recovered_pct", "barriers", "ioctls",
                            "elided", "grouped"});
    std::uint64_t always_barriers = 0, always_ioctls = 0;
    std::uint64_t group_barriers = 0, group_ioctls = 0;
    for (std::size_t m = 0; m < num_models; ++m) {
        const std::string &name = workloads[m].name;
        const auto &seq = *seqs[m];
        const ModelRun &native = runs[m * points_per_model];
        const ModelRun &always = runs[m * points_per_model + 1];
        const Tick over = always.end - native.end;
        report.set(name + ".l_native_ms", ticksToMs(native.end));
        report.set(name + ".l_emulated_ms", ticksToMs(always.end));
        report.set(name + ".l_over_per_kernel_us",
                   ticksToUs(over) /
                       static_cast<double>(seq.size()));
        table.row()
            .cell(name)
            .cell(seq.size())
            .cell(ticksToMs(native.end), 2)
            .cell(ticksToMs(always.end), 2)
            .cell(ticksToMs(over), 2)
            .cell(ticksToUs(over) / static_cast<double>(seq.size()),
                  1)
            .cell(100.0 * static_cast<double>(over) /
                      static_cast<double>(always.end),
                  1);

        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            const ModelRun &run = runs[m * points_per_model + 1 + p];
            const std::string prefix =
                name + "." + reconfigPolicyName(kPolicies[p]);
            report.set(prefix + ".l_emulated_ms",
                       ticksToMs(run.end));
            report.set(prefix + ".barriers",
                       static_cast<double>(run.barriers));
            report.set(prefix + ".ioctls",
                       static_cast<double>(run.ioctls));
            report.set(prefix + ".elided",
                       static_cast<double>(
                           run.krisp.reconfigElisions));
            report.set(prefix + ".grouped",
                       static_cast<double>(
                           run.krisp.groupedLaunches));
            // Share of the emulation overhead this policy recovers.
            const double recovered =
                over > 0 ? 100.0 *
                               static_cast<double>(always.end -
                                                   run.end) /
                               static_cast<double>(over)
                         : 0.0;
            policy_table.row()
                .cell(name)
                .cell(reconfigPolicyName(kPolicies[p]))
                .cell(ticksToMs(run.end), 2)
                .cell(recovered, 1)
                .cell(run.barriers)
                .cell(run.ioctls)
                .cell(run.krisp.reconfigElisions)
                .cell(run.krisp.groupedLaunches);
        }

        const ModelRun &group = runs[m * points_per_model + 3];
        always_barriers += always.barriers;
        always_ioctls += always.ioctls;
        group_barriers += group.barriers;
        group_ioctls += group.ioctls;
        report.set(name + ".group.barrier_reduction_pct",
                   100.0 *
                       static_cast<double>(always.barriers -
                                           group.barriers) /
                       static_cast<double>(always.barriers));
        report.set(name + ".group.ioctl_reduction_pct",
                   100.0 *
                       static_cast<double>(always.ioctls -
                                           group.ioctls) /
                       static_cast<double>(always.ioctls));
    }
    table.print("emulation overhead per model (full-GPU masks)");
    std::printf("\nL_over per kernel should be roughly constant "
                "across models (barriers + callback + serialised "
                "ioctl per launch).\n");
    policy_table.print(
        "reconfig-policy sweep (emulated, full-GPU right-size: every "
        "launch after the first is a repeat)");

    const double barrier_red =
        100.0 *
        static_cast<double>(always_barriers - group_barriers) /
        static_cast<double>(always_barriers);
    const double ioctl_red =
        100.0 *
        static_cast<double>(always_ioctls - group_ioctls) /
        static_cast<double>(always_ioctls);
    report.set("group.total_barrier_reduction_pct", barrier_red);
    report.set("group.total_ioctl_reduction_pct", ioctl_red);
    std::printf("\nGroup vs Always across all models: %.1f%% fewer "
                "barrier packets, %.1f%% fewer reconfig ioctls.\n",
                barrier_red, ioctl_red);

    // One representative emulated pass with the trace sink attached:
    // every kernel span is book-ended by the two barrier packets and
    // the serialized ioctl that make up L_over.
    ObsContext obs;
    runModel(zoo.kernels("shufflenet", 32),
             EnforcementMode::Emulated, ReconfigPolicy::Always, &obs);
    const std::string trace = report.tracePath("shufflenet_emulated");
    obs.trace.writeChromeJsonFile(trace);
    std::printf("emulated-pass trace: %s "
                "(open at https://ui.perfetto.dev)\n", trace.c_str());
    report.write();
    return 0;
}
