/**
 * @file
 * Sec. IV-D3 microbenchmark: wall-clock cost of the partition
 * resource mask generation (Algorithm 1). The paper reports a 1 us
 * tail for its software implementation; the command-processor
 * firmware budget in the device model (allocLatencyNs) is derived
 * from this.
 *
 * Also measures the released-mask cache added for the reconfig
 * elision/grouping work: when a partition of the requested size was
 * just released and its CUs are still idle, the allocator returns it
 * in O(1) instead of re-running the shape search. BM_AllocateCacheHit
 * vs BM_AllocateIdle is that repeat-path saving.
 *
 * Uses google-benchmark; run with --benchmark_filter=... as usual.
 * The custom main additionally writes a BENCH summary
 * (cold vs cache-hit latency + hit rate) for the experiment index.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.hh"
#include "common/random.hh"
#include "core/mask_allocator.hh"

using namespace krisp;

namespace
{

const ArchParams arch = ArchParams::mi50();

/** Monitor preloaded with n random resident kernels. */
ResourceMonitor
loadedMonitor(unsigned kernels, std::uint64_t seed)
{
    ResourceMonitor mon(arch);
    Rng rng(seed);
    for (unsigned i = 0; i < kernels; ++i) {
        CuMask m;
        const unsigned count = 1 + rng.below(40);
        while (m.count() < count)
            m.set(static_cast<unsigned>(rng.below(60)));
        mon.addKernel(m);
    }
    return mon;
}

void
BM_AllocateIdle(benchmark::State &state)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    const auto cus = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.allocate(cus, idle));
    }
}
BENCHMARK(BM_AllocateIdle)->Arg(8)->Arg(19)->Arg(32)->Arg(60);

void
BM_AllocateLoaded(benchmark::State &state)
{
    ResourceMonitor mon =
        loadedMonitor(static_cast<unsigned>(state.range(0)), 42);
    MaskAllocator alloc(DistributionPolicy::Conserved, 0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.allocate(24, mon));
    }
}
BENCHMARK(BM_AllocateLoaded)->Arg(1)->Arg(8)->Arg(31);

void
BM_AllocatePolicies(benchmark::State &state)
{
    ResourceMonitor mon = loadedMonitor(8, 7);
    MaskAllocator alloc(
        static_cast<DistributionPolicy>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.allocate(24, mon));
    }
}
BENCHMARK(BM_AllocatePolicies)
    ->Arg(static_cast<int>(DistributionPolicy::Distributed))
    ->Arg(static_cast<int>(DistributionPolicy::Packed))
    ->Arg(static_cast<int>(DistributionPolicy::Conserved));

/**
 * Repeat-size path with the released-mask cache: every iteration
 * releases the previous grant and asks for the same size again, so
 * allocate() is one idle-overlap check plus a copy.
 */
void
BM_AllocateCacheHit(benchmark::State &state)
{
    ResourceMonitor idle(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    alloc.setMaskCacheEnabled(true);
    const auto cus = static_cast<unsigned>(state.range(0));
    const CuMask grant = alloc.allocate(cus, idle);
    for (auto _ : state) {
        alloc.noteReleased(grant);
        benchmark::DoNotOptimize(alloc.allocate(cus, idle));
    }
}
BENCHMARK(BM_AllocateCacheHit)->Arg(8)->Arg(19)->Arg(32)->Arg(60);

/**
 * Cache enabled but the cached mask's CUs are busy: the O(1)
 * validation rejects the slot and the normal shape search runs. This
 * bounds the cost the cache adds to a miss.
 */
void
BM_AllocateCacheBusyMiss(benchmark::State &state)
{
    ResourceMonitor mon(arch);
    MaskAllocator alloc(DistributionPolicy::Conserved);
    alloc.setMaskCacheEnabled(true);
    const CuMask grant = alloc.allocate(24, mon);
    mon.addKernel(grant); // cached CUs stay busy -> never hits
    alloc.noteReleased(grant);
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.allocate(24, mon));
    }
}
BENCHMARK(BM_AllocateCacheBusyMiss);

/**
 * One kernel arriving and leaving: the counter update the device runs
 * on every dispatch and retirement. 8 CUs is a typical KRISP grant,
 * 60 the whole-device mask every MPS kernel carries.
 */
void
BM_ResourceMonitorUpdate(benchmark::State &state)
{
    ResourceMonitor mon(arch);
    const CuMask m =
        CuMask::firstN(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        mon.addKernel(m);
        mon.removeKernel(m);
    }
}
BENCHMARK(BM_ResourceMonitorUpdate)->Arg(8)->Arg(30)->Arg(60);

/** Mean wall-clock ns of @p fn over enough iterations to be stable. */
template <typename Fn>
double
meanNs(Fn &&fn)
{
    const int iters = bench::quickMode() ? 20'000 : 200'000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(end - start)
               .count() /
           iters;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchReport report("micro_allocator_latency",
                              "Sec. IV-D3 (Algorithm 1 latency)");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // BENCH summary: the repeat-allocation saving the reconfig
    // policies lean on, measured directly.
    ResourceMonitor idle(arch);

    MaskAllocator cold(DistributionPolicy::Conserved);
    const double cold_ns =
        meanNs([&] { benchmark::DoNotOptimize(
                         cold.allocate(19, idle)); });

    MaskAllocator cached(DistributionPolicy::Conserved);
    cached.setMaskCacheEnabled(true);
    const CuMask grant = cached.allocate(19, idle);
    const double hit_ns = meanNs([&] {
        cached.noteReleased(grant);
        benchmark::DoNotOptimize(cached.allocate(19, idle));
    });
    const auto &stats = cached.stats();
    const double hit_rate =
        stats.requests > 0
            ? static_cast<double>(stats.cacheHits) /
                  static_cast<double>(stats.requests)
            : 0.0;

    report.set("allocate_cold_ns", cold_ns);
    report.set("allocate_cache_hit_ns", hit_ns);
    report.set("cache_hit_rate", hit_rate);
    report.set("cache_speedup",
               hit_ns > 0.0 ? cold_ns / hit_ns : 0.0);
    std::printf("\nrepeat-size allocation: cold %.0f ns, cache hit "
                "%.0f ns (%.1fx), hit rate %.3f\n",
                cold_ns, hit_ns,
                hit_ns > 0.0 ? cold_ns / hit_ns : 0.0, hit_rate);
    report.write();
    return 0;
}
