/**
 * @file
 * Model profiling tool: prints, for every Table III workload, the
 * kernel count, isolated latency, model-wise right-size and min-CU
 * distribution — the data behind Fig. 3 / Fig. 4 / Table III — and
 * compares against the paper's measurements.
 *
 * Usage: profile_models [batch 1-1024]
 */

#include <cstdio>
#include <map>

#include "common/parse.hh"
#include "common/table.hh"
#include "kern/timing_model.hh"
#include "models/model_zoo.hh"
#include "profile/model_profiler.hh"

using namespace krisp;

int
main(int argc, char **argv)
{
    const unsigned batch =
        argc > 1 ? static_cast<unsigned>(
                       parseUnsigned(argv[1], "batch", 1, 1024))
                 : 32;

    const GpuConfig gpu = GpuConfig::mi50();
    ModelZoo zoo(gpu.arch);
    KernelProfiler kprof(gpu);
    ModelProfiler mprof(kprof);

    TextTable table({"model", "kernels", "paper_kernels", "rightsize",
                     "paper_rightsize", "iso_lat_ms", "paper_p95_ms",
                     "avg_minCU", "share<=20CU", "mem_frac",
                     "lat_x_at_15cu"});

    for (const auto &info : ModelZoo::workloads()) {
        const auto &seq = zoo.kernels(info.name, batch);
        const unsigned rs = mprof.rightSizeCus(seq);
        const double lat =
            mprof.modelLatencyNs(seq, gpu.arch.totalCus()) / 1e6;

        double mincu_sum = 0;
        double time_below20 = 0;
        double time_total = 0;
        double mem_time = 0;
        const CuMask full = kprof.sweepMask(gpu.arch.totalCus());
        for (const auto &k : seq) {
            const unsigned mc = kprof.minCus(*k);
            mincu_sum += mc;
            const double t = kprof.latencyNs(*k, gpu.arch.totalCus());
            time_total += t;
            if (mc <= 20)
                time_below20 += t;
            const double tc = timing::computeTimeNs(*k, full, gpu.arch);
            const double tm =
                timing::memoryTimeNs(*k, gpu.arch.totalCus(), gpu.arch);
            if (tm > tc)
                mem_time += t;
        }

        table.row()
            .cell(info.name)
            .cell(seq.size())
            .cell(info.paperKernelCount)
            .cell(rs)
            .cell(info.paperRightSizeCus)
            .cell(lat, 2)
            .cell(info.paperP95Ms, 1)
            .cell(mincu_sum / static_cast<double>(seq.size()), 1)
            .cell(time_below20 / time_total, 2)
            .cell(mem_time / time_total, 2)
            .cell(mprof.modelLatencyNs(seq, 15) /
                      mprof.modelLatencyNs(seq, 60),
                  2);
    }
    table.print("model profile, batch " + std::to_string(batch));
    return 0;
}
