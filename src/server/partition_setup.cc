#include "server/partition_setup.hh"

#include "profile/model_profiler.hh"

namespace krisp
{

namespace
{

/** Disjoint equal split: worker w gets CUs [w*T/N, (w+1)*T/N). */
CuMask
staticEqualMask(const ArchParams &arch, unsigned worker,
                unsigned num_workers)
{
    const unsigned total = arch.totalCus();
    const unsigned lo = worker * total / num_workers;
    const unsigned hi = (worker + 1) * total / num_workers;
    CuMask mask;
    for (unsigned cu = lo; cu < hi; ++cu)
        mask.set(cu);
    return mask;
}

} // namespace

void
PartitionSetup::launch(Stream &stream,
                       const std::vector<KernelDescPtr> &seq,
                       const HsaSignalPtr &completion) const
{
    if (krisp) {
        krisp->launchGroup(stream, seq, completion);
        return;
    }
    for (const auto &k : seq)
        stream.launchWithSignal(k, completion);
}

PartitionSetup
setupPartitionPolicy(HipRuntime &hip, PartitionPolicy policy,
                     EnforcementMode enforcement,
                     const KernelProfiler &kprof,
                     const std::vector<PartitionWorker> &workers,
                     const std::vector<const std::vector<KernelDescPtr> *>
                         &profile_seqs,
                     std::optional<unsigned> overlap_limit_override,
                     const IoctlRetryPolicy &ioctl_retry,
                     ReconfigPolicy reconfig, ObsContext *obs)
{
    PartitionSetup setup;
    const GpuConfig &gpu = kprof.gpuConfig();
    const unsigned num_workers =
        static_cast<unsigned>(workers.size());

    switch (policy) {
      case PartitionPolicy::MpsDefault:
        break;

      case PartitionPolicy::StaticEqual:
        for (unsigned i = 0; i < num_workers; ++i) {
            hip.streamSetCuMask(
                *workers[i].stream,
                staticEqualMask(gpu.arch, i, num_workers));
        }
        break;

      case PartitionPolicy::ModelRightSize: {
        // Prior work: each model gets its kneepoint-sized partition;
        // partitions avoid each other while the GPU has room and
        // overlap once it does not (open-circle cases in Fig. 13).
        ModelProfiler mprof(kprof);
        MaskAllocator setup_alloc(DistributionPolicy::Conserved);
        ResourceMonitor setup_mon(gpu.arch);
        for (const PartitionWorker &w : workers) {
            const unsigned cus = mprof.rightSizeCus(*w.seq);
            const CuMask mask = setup_alloc.allocate(cus, setup_mon);
            setup_mon.addKernel(mask);
            hip.streamSetCuMask(*w.stream, mask);
        }
        break;
      }

      case PartitionPolicy::KrispOversubscribed:
      case PartitionPolicy::KrispIsolated: {
        setup.db = std::make_unique<PerfDatabase>();
        for (const auto *seq : profile_seqs)
            kprof.profileInto(*setup.db, *seq);
        unsigned limit = policy == PartitionPolicy::KrispIsolated
                             ? 0u
                             : gpu.arch.totalCus();
        if (overlap_limit_override)
            limit = *overlap_limit_override;
        setup.allocator = std::make_unique<MaskAllocator>(
            DistributionPolicy::Conserved, limit);
        setup.sizer = std::make_unique<ProfiledSizer>(
            *setup.db, gpu.arch.totalCus());
        setup.krisp = std::make_unique<KrispRuntime>(
            hip, *setup.sizer, *setup.allocator, enforcement, obs);
        setup.krisp->setIoctlRetryPolicy(ioctl_retry);
        setup.krisp->setReconfigPolicy(reconfig);
        // The elision policies are the repeat-size fast path; give
        // them the matching O(1), grant-stable allocator path too.
        if (reconfig != ReconfigPolicy::Always)
            setup.allocator->setMaskCacheEnabled(true);
        break;
      }
    }
    return setup;
}

} // namespace krisp
