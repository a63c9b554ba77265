#include "gpu/gpu_device.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "gpu/bandwidth.hh"
#include "gpu/cu_share.hh"

namespace krisp
{

void
maxMinFairShareInto(const std::vector<double> &demands, double capacity,
                    std::vector<double> &grants,
                    std::vector<std::size_t> &order)
{
    grants.assign(demands.size(), 0.0);
    if (demands.empty() || capacity <= 0)
        return;

    // Process demands in ascending order; each unsatisfied claimant
    // gets an equal share of what remains. Equal demands get
    // different grants in the last bit depending on their order, so
    // the order is std::sort's: up to 16 entries libstdc++ runs a
    // stable insertion sort, done inline here without the call.
    const std::size_t n = demands.size();
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
    const auto less = [&](std::size_t a, std::size_t b) {
        return demands[a] < demands[b];
    };
    if (n <= 16) {
        for (std::size_t i = 1; i < n; ++i) {
            const std::size_t v = order[i];
            std::size_t j = i;
            for (; j > 0 && less(v, order[j - 1]); --j)
                order[j] = order[j - 1];
            order[j] = v;
        }
    } else {
        std::sort(order.begin(), order.end(), less);
    }

    double remaining = capacity;
    std::size_t left = n;
    for (const std::size_t i : order) {
        const double fair = remaining / static_cast<double>(left);
        const double grant = std::min(demands[i], fair);
        grants[i] = grant;
        remaining -= grant;
        --left;
    }
}

std::vector<double>
maxMinFairShare(const std::vector<double> &demands, double capacity)
{
    std::vector<double> grants;
    std::vector<std::size_t> order;
    maxMinFairShareInto(demands, capacity, grants, order);
    return grants;
}

std::uint64_t
cuShareSums(std::span<const CuLoad> loads,
            std::span<const double> contention, std::span<double> sums)
{
    panic_if(sums.size() != loads.size() ||
                 contention.size() < loads.size(),
             "cuShareSums: ", loads.size(), " loads, ", sums.size(),
             " sums, ", contention.size(), " contention entries");
    std::uint64_t busy = 0;
    for (const CuLoad &k : loads)
        busy |= k.mask;
    if (busy == 0)
        return 0;

    // Split the busy CUs into classes of identically covered CUs,
    // refining by each kernel in job order: a class the kernel covers
    // only in part splits, its outside part keeping the demand sum and
    // residency so far, and every class inside the mask takes the
    // kernel's demand. Classes are disjoint and non-empty, so at most
    // one per CU. Neither array below is cleared: only classes[0, n)
    // is read, and cu_factor only at busy CUs after it is filled.
    // Clearing both costs about as much as a whole evaluation of one
    // class.
    struct CuClass
    {
        std::uint64_t cus;
        double demand;
        unsigned kernels;
        double factor;
    };
    std::array<CuClass, 64> classes;
    classes[0] = CuClass{busy, 0.0, 0, 0.0};
    std::size_t n = 1;
    for (const CuLoad &k : loads) {
        std::uint64_t left = k.mask;
        for (std::size_t c = 0, end = n; c < end && left != 0; ++c) {
            CuClass &cls = classes[c];
            const std::uint64_t in = cls.cus & k.mask;
            if (in == 0)
                continue;
            if (in != cls.cus) {
                classes[n++] = CuClass{cls.cus & ~k.mask, cls.demand,
                                       cls.kernels, 0.0};
                cls.cus = in;
            }
            cls.demand += k.demand;
            ++cls.kernels;
            left &= ~in;
        }
    }

    // A class whose aggregate demand exceeds its capacity scales
    // everyone proportionally; the interference penalty applies per
    // co-resident kernel regardless. min(1, 1/d) is exactly 1 unless
    // d > 1, so only those classes divide. `penalised` marks the CUs
    // whose factor is not exactly 1.
    std::uint64_t penalised = 0;
    for (std::size_t c = 0; c < n; ++c) {
        CuClass &cls = classes[c];
        const double d = cls.demand;
        cls.factor =
            (d > 1.0 ? 1.0 / d : 1.0) * contention[cls.kernels - 1];
        if (cls.factor != 1.0)
            penalised |= cls.cus;
    }

    // Per-CU factors, filled (for every class) the first time a mask
    // spanning several classes needs a sum in CU index order.
    std::array<double, 64> cu_factor;
    bool filled = false;
    std::uint64_t prev_mask = 0;
    double prev_sum = 0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const std::uint64_t mask = loads[i].mask;
        double sum = 0;
        if (mask == prev_mask) {
            sum = prev_sum;
        } else if ((mask & penalised) == 0) {
            // Adding ones in index order gives exactly the CU count.
            sum = std::popcount(mask);
        } else {
            std::size_t c = 0;
            while (c < n && classes[c].cus != mask)
                ++c;
            if (c < n) {
                // One class: its factor added once per CU, with no
                // per-CU fill. Every multi-kernel evaluation of a
                // whole-device (MPS) fleet takes this path; through
                // the fill, the cluster16_mps benchmark ran 5% slower
                // (one pinned core of a 4-core x86-64 host).
                for (int cu = std::popcount(mask); cu > 0; --cu)
                    sum += classes[c].factor;
            } else {
                if (!filled) {
                    for (std::size_t f = 0; f < n; ++f) {
                        for (std::uint64_t b = classes[f].cus; b != 0;
                             b &= b - 1)
                            cu_factor[std::countr_zero(b)] =
                                classes[f].factor;
                    }
                    filled = true;
                }
                for (std::uint64_t b = mask; b != 0; b &= b - 1)
                    sum += cu_factor[std::countr_zero(b)];
            }
        }
        sums[i] = sum;
        prev_mask = mask;
        prev_sum = sum;
    }
    return busy;
}

namespace
{

/** Floor for compute time to keep fluid rates finite. */
constexpr double minComputeNs = 1.0;

} // namespace

GpuDevice::GpuDevice(EventQueue &eq, GpuConfig config)
    : eq_(eq), config_(config), monitor_(config.arch),
      se0_cus_(CuMask::firstN(config.arch.cusPerSe).bits()),
      power_(eq, config.power),
      fluid_(
          eq, [this](FluidScheduler &fs) { recomputeRates(fs); },
          [this](JobId job) { onKernelComplete(job); })
{
}

std::span<const double>
GpuDevice::contentionPows(std::size_t n)
{
    while (contention_pow_.size() < n) {
        contention_pow_.push_back(std::pow(
            config_.contentionPenalty,
            static_cast<double>(contention_pow_.size())));
    }
    return contention_pow_;
}

GpuDevice::RunningKernel &
GpuDevice::adoptRunning(JobId job, RunningKernel rk)
{
    // Cache the kernel's occupancy demand: a kernel that cannot fill
    // its CUs (few workgroups relative to the saturation occupancy)
    // leaves slack that co-resident kernels use for free — this is why
    // unrestricted MPS sharing works well for under-utilising models
    // (Sec. VI-B).
    const double sat = std::max(1u, rk.desc->saturationWgsPerCu);
    rk.cuCount = rk.mask.count();
    rk.demand = std::min(1.0, double(rk.desc->numWorkgroups) /
                                  (double(rk.cuCount) * sat));
    rk.tCompute = std::max(
        timing::computeTimeNs(*rk.desc, rk.mask, config_.arch),
        minComputeNs);
    rk.bytes = rk.desc->bytes;
    rk.issueFactor = rk.desc->issueFactor;
    return running_.emplace(job, std::move(rk)).first->second;
}

GpuDevice::RunningKernel
GpuDevice::removeRunning(JobId job)
{
    const auto it = running_.find(job);
    panic_if(it == running_.end(), "no running-kernel record for job ",
             job);
    RunningKernel rk = std::move(it->second);
    running_.erase(it);
    return rk;
}

HsaQueue &
GpuDevice::createQueue()
{
    fatal_if(queues_.size() >= config_.maxQueues,
             "device queue limit reached (", config_.maxQueues, ")");
    const QueueId id = static_cast<QueueId>(queues_.size());
    auto ctx = std::make_unique<QueueCtx>();
    ctx->queue = std::make_unique<HsaQueue>(
        id, config_.queueCapacity, CuMask::full(config_.arch));
    QueueCtx *raw = ctx.get();
    ctx->queue->setDoorbell([this, raw] { tryProcess(*raw); });
    ctx->queue->setTraceSink(trace_);
    queues_.push_back(std::move(ctx));
    return *queues_.back()->queue;
}

HsaQueue &
GpuDevice::queue(QueueId id)
{
    panic_if(id >= queues_.size(), "unknown queue id ", id);
    return *queues_[id]->queue;
}

void
GpuDevice::setQueueCuMask(QueueId id, CuMask mask)
{
    fatal_if(mask.empty(), "setting an empty queue CU mask");
    queue(id).setCuMask(mask);
}

void
GpuDevice::setKrispAllocator(MaskAllocatorIface *allocator)
{
    allocator_ = allocator;
}

void
GpuDevice::attachObs(ObsContext *obs)
{
    trace_ = obs != nullptr ? &obs->trace : nullptr;
    if (trace_ != nullptr)
        trace_->setClock(&eq_);
    for (const auto &ctx : queues_)
        ctx->queue->setTraceSink(trace_);
    kernel_agg_enabled_ = obs != nullptr;
    timeline_ = obs != nullptr && obs->timeline.enabled()
                    ? &obs->timeline
                    : nullptr;
    if (timeline_ != nullptr) {
        // Seed the piecewise-constant utilization signal at the
        // attach point so the first window integrates from idle.
        timeline_->recordUtilization(eq_.now(), 0,
                                     power_.currentPowerW());
    }
}

void
GpuDevice::attachFault(FaultInjector *fault)
{
    fault_ = fault != nullptr && fault->armed() ? fault : nullptr;
}

void
GpuDevice::publishMetrics(MetricsRegistry &metrics) const
{
    if (fault_ != nullptr) {
        metrics.gauge("gpu.watchdog_kills")
            .set(static_cast<double>(stats_.watchdogKills));
    }
    metrics.gauge("gpu.kernels_dispatched")
        .set(static_cast<double>(stats_.kernelsDispatched));
    metrics.gauge("gpu.kernels_completed")
        .set(static_cast<double>(stats_.kernelsCompleted));
    metrics.gauge("gpu.packets_processed")
        .set(static_cast<double>(stats_.packetsProcessed));
    metrics.gauge("gpu.barriers_processed")
        .set(static_cast<double>(stats_.barriersProcessed));
    metrics.gauge("gpu.krisp_allocations")
        .set(static_cast<double>(stats_.krispAllocations));
    metrics.gauge("gpu.kernel_latency_ns.mean")
        .set(stats_.kernelLatencyNs.mean());
    if (stats_.kernelLatencyNs.count() > 0) {
        metrics.gauge("gpu.kernel_latency_ns.max")
            .set(stats_.kernelLatencyNs.max());
    }
    metrics.gauge("gpu.concurrency_at_dispatch.mean")
        .set(stats_.concurrencyAtDispatch.mean());
    std::uint64_t reconfigs = 0;
    for (const auto &ctx : queues_)
        reconfigs += ctx->queue->reconfigs();
    metrics.gauge("gpu.queue_mask_reconfigs")
        .set(static_cast<double>(reconfigs));
    metrics.gauge("gpu.energy_joules").set(power_.energyJoules());

    // Fold per-descriptor totals by kernel name (several descriptor
    // instances can share a name across streams) into name-ordered
    // gauges; the report tool ranks these by CU-seconds.
    std::map<std::string, KernelAgg> by_name;
    for (const auto &[desc, agg] : kernel_agg_) {
        auto &out = by_name[desc->name];
        out.completions += agg.completions;
        out.cuNs += agg.cuNs;
    }
    for (const auto &[kname, agg] : by_name) {
        metrics.gauge("gpu.kernel." + kname + ".completions")
            .set(static_cast<double>(agg.completions));
        metrics.gauge("gpu.kernel." + kname + ".cu_seconds")
            .set(agg.cuNs / 1e9);
    }
}

bool
GpuDevice::idle() const
{
    if (!running_.empty())
        return false;
    for (const auto &ctx : queues_) {
        if (!ctx->queue->empty() || ctx->processing ||
            ctx->outstanding > 0) {
            return false;
        }
    }
    return true;
}

void
GpuDevice::tryProcess(QueueCtx &ctx)
{
    if (ctx.processing || ctx.queue->empty())
        return;
    ctx.processing = true;
    if (ctx.queue->front().barrierBit && ctx.outstanding > 0) {
        // Stall on the AQL barrier bit until this queue quiesces.
        ctx.waitingQuiesce = true;
        return;
    }
    eq_.scheduleIn(config_.packetProcessNs,
                   [this, &ctx] { handlePacket(ctx); });
}

void
GpuDevice::handlePacket(QueueCtx &ctx)
{
    panic_if(ctx.queue->empty(), "handlePacket on empty queue");
    ++stats_.packetsProcessed;
    if (ctx.queue->front().type == AqlPacketType::BarrierAnd) {
        handleBarrier(ctx);
        return;
    }

    // Kernel dispatch. Copy the packet out so async steps below can
    // outlive the ring slot.
    AqlPacket pkt = ctx.queue->front();
    ctx.queue->pop();

    if (allocator_ != nullptr && pkt.requestedCus > 0) {
        // KRISP firmware path: run the partition resource mask
        // generation (Algorithm 1), then dispatch with the result.
        eq_.scheduleIn(config_.allocLatencyNs,
                       [this, &ctx, pkt = std::move(pkt)] {
            const CuMask mask =
                allocator_->allocate(pkt.requestedCus, monitor_);
            ++stats_.krispAllocations;
            dispatchKernel(ctx, pkt, mask);
            ctx.processing = false;
            tryProcess(ctx);
        });
        return;
    }

    // Baseline path: the stream-scoped queue mask applies.
    dispatchKernel(ctx, pkt, ctx.queue->cuMask());
    ctx.processing = false;
    tryProcess(ctx);
}

void
GpuDevice::handleBarrier(QueueCtx &ctx)
{
    ++stats_.barriersProcessed;
    const AqlPacket &pkt = ctx.queue->front();

    auto pending = std::make_shared<unsigned>(0);
    for (const auto &dep : pkt.depSignals) {
        if (dep && dep->value() > 0)
            ++*pending;
    }
    KRISP_TRACE_EVENT(trace_,
                      barrierProcess(ctx.queue->id(), *pending));
    if (*pending == 0) {
        finishBarrier(ctx);
        return;
    }
    for (const auto &dep : pkt.depSignals) {
        if (dep && dep->value() > 0) {
            dep->waitZero([this, &ctx, pending] {
                panic_if(*pending == 0, "barrier dep count underflow");
                if (--*pending == 0)
                    finishBarrier(ctx);
            });
        }
    }
}

void
GpuDevice::finishBarrier(QueueCtx &ctx)
{
    AqlPacket pkt = ctx.queue->front();
    ctx.queue->pop();
    if (pkt.completionSignal)
        pkt.completionSignal->subtract(1);
    if (pkt.onComplete)
        pkt.onComplete();
    ctx.processing = false;
    tryProcess(ctx);
}

void
GpuDevice::dispatchKernel(QueueCtx &ctx, const AqlPacket &pkt,
                          CuMask mask)
{
    panic_if(mask.empty(), "dispatching kernel with empty CU mask");
    panic_if((mask.bits() & ~CuMask::full(config_.arch).bits()) != 0,
             "dispatching kernel on CUs beyond the device: mask ",
             mask.bits());
    panic_if(!pkt.kernel, "dispatching packet without kernel");

    monitor_.addKernel(mask);
    ++ctx.outstanding;
    ++stats_.kernelsDispatched;
    stats_.concurrencyAtDispatch.add(
        static_cast<double>(running_.size()));

    RunningKernel rk;
    rk.id = next_kernel_id_++;
    rk.qid = ctx.queue->id();
    rk.desc = pkt.kernel;
    rk.mask = mask;
    rk.completion = pkt.completionSignal;
    rk.onComplete = pkt.onComplete;
    rk.dispatchTick = eq_.now();

    if (fault_ != nullptr) {
        const auto fault = fault_->kernelFault(rk.desc->name);
        rk.hung = fault.hang;
        rk.slowFactor = fault.slowFactor;
        // Completion decrements of kernel completion signals may be
        // lost (site c); barrier handshake signals are never wired up
        // or the emulation protocol itself would wedge.
        if (rk.completion)
            rk.completion->setFaultInjector(fault_);
    }

    if (trace_ != nullptr && trace_->enabled()) {
        trace_->kernelDispatch(rk.id, rk.qid, rk.desc->name,
                               pkt.requestedCus);
        // Even WG split across shader engines active in the mask —
        // the dispatch behaviour behind Fig. 8's imbalance spikes.
        // Every SE holds at least one CU, so the monitor's CU bound
        // bounds the SE count.
        const ArchParams &arch = config_.arch;
        std::array<unsigned, ResourceMonitor::maxCus> per_se{};
        const unsigned active = mask.activeSeCount(arch);
        const unsigned wgs = rk.desc->numWorkgroups;
        unsigned nth = 0;
        for (unsigned se = 0; se < arch.numSe && active > 0; ++se) {
            if (mask.countInSe(arch, se) > 0) {
                per_se[se] =
                    wgs / active + (nth < wgs % active ? 1 : 0);
                ++nth;
            }
        }
        trace_->wgDispatch(rk.id, rk.qid, wgs,
                           std::span<const unsigned>(per_se.data(),
                                                     arch.numSe));
    }

    eq_.scheduleIn(config_.kernelLaunchOverheadNs,
                   [this, rk = std::move(rk)]() mutable {
        rk.startTick = eq_.now();
        // Work in slowFactor units at unchanged per-unit rates: an
        // injected slowdown multiplies the kernel's duration.
        const double work = rk.slowFactor;
        staging_ = std::move(rk);
        const JobId job = fluid_.add(work);
        panic_if(staging_.has_value(),
                 "rate recomputation did not adopt staged kernel ",
                 job);
        if (fault_ != nullptr &&
            fault_->plan().watchdogTimeoutNs > 0) {
            running_.at(job).watchdog =
                eq_.scheduleIn(fault_->plan().watchdogTimeoutNs,
                               [this, job] { watchdogFire(job); });
        }
    });
}

void
GpuDevice::watchdogFire(JobId job)
{
    RunningKernel rk = removeRunning(job);
    ++stats_.watchdogKills;
    warn("GPU watchdog on ", name_, " killed kernel ", rk.id, " (",
         rk.desc->name, ") after ", eq_.now() - rk.startTick, " ns",
         rk.hung ? " [injected hang]" : "");
    if (fault_ != nullptr)
        fault_->noteWatchdogKill(rk.id, rk.desc->name);
    fluid_.cancel(job);
    retireKernel(std::move(rk), true);
}

void
GpuDevice::onKernelComplete(JobId job)
{
    retireKernel(removeRunning(job), false);
}

void
GpuDevice::retireKernel(RunningKernel rk, bool killed)
{
    if (rk.watchdog != invalidEventId && !killed)
        eq_.deschedule(rk.watchdog);

    monitor_.removeKernel(rk.mask);
    ++stats_.kernelsCompleted;
    stats_.kernelLatencyNs.add(
        static_cast<double>(eq_.now() - rk.dispatchTick));

    if (trace_fn_) {
        KernelTraceEvent ev;
        ev.id = rk.id;
        ev.queue = rk.qid;
        ev.name = rk.desc->name;
        ev.mask = rk.mask;
        ev.dispatchTick = rk.dispatchTick;
        ev.startTick = rk.startTick;
        ev.endTick = eq_.now();
        trace_fn_(ev);
    }
    KRISP_TRACE_EVENT(trace_,
                      kernelSpan(rk.id, rk.qid, rk.desc->name,
                                 rk.mask.bits(), rk.mask.count(),
                                 rk.dispatchTick, rk.startTick,
                                 eq_.now()));
    if (kernel_agg_enabled_) {
        auto &agg = kernel_agg_[rk.desc];
        ++agg.completions;
        agg.cuNs += static_cast<double>(rk.mask.count()) *
                    static_cast<double>(eq_.now() - rk.startTick);
    }

    QueueCtx &ctx = *queues_.at(rk.qid);
    panic_if(ctx.outstanding == 0, "queue outstanding underflow");
    --ctx.outstanding;

    if (rk.completion)
        rk.completion->subtract(1);
    if (rk.onComplete)
        rk.onComplete();

    if (ctx.waitingQuiesce && ctx.outstanding == 0) {
        ctx.waitingQuiesce = false;
        eq_.scheduleIn(config_.packetProcessNs,
                       [this, &ctx] { handlePacket(ctx); });
    }
}

void
GpuDevice::recomputeRates(FluidScheduler &fs)
{
    const ArchParams &arch = config_.arch;

    // Each job's running kernel, looked up once. The one job without
    // a record is the kernel staged by dispatchKernel (fluid_.add
    // triggers this callback before add() returns the new job id):
    // adopt it here. The job order fixes the order of every sum and
    // bandwidth tie below.
    scratch_jobs_.clear();
    fs.appendActiveJobs(scratch_jobs_);
    const std::vector<JobId> &jobs = scratch_jobs_;
    scratch_kernels_.clear();
    scratch_loads_.clear();
    for (const JobId job : jobs) {
        auto it = running_.find(job);
        RunningKernel *rk = nullptr;
        if (it != running_.end()) {
            rk = &it->second;
        } else {
            panic_if(!staging_.has_value(), "active job ", job,
                     " has no running-kernel record");
            rk = &adoptRunning(job, std::move(*staging_));
            staging_.reset();
        }
        scratch_kernels_.push_back(rk);
        scratch_loads_.push_back(CuLoad{rk->mask.bits(), rk->demand});
    }

    // Every running kernel's CU share sum, from the per-class share
    // factors of the CUs it covers: a CU whose aggregate occupancy
    // demand exceeds its capacity scales everyone proportionally, and
    // a multiplicative interference penalty applies per co-resident
    // kernel regardless. Hung kernels count in both.
    scratch_share_sums_.resize(jobs.size());
    const std::uint64_t busy =
        cuShareSums(scratch_loads_, contentionPows(jobs.size()),
                    scratch_share_sums_);

    scratch_evals_.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        RunningKernel &rk = *scratch_kernels_[i];
        if (rk.hung) {
            // A hung kernel never progresses (rate 0 jobs schedule no
            // completion) but keeps its CUs resident, contending with
            // healthy kernels until the watchdog reclaims them.
            rk.bwAlloc = 0;
            fs.setRate(jobs[i], 0.0);
            continue;
        }
        const double share_sum = scratch_share_sums_[i];
        const double avg_share = share_sum / rk.cuCount;
        const double compute_rate = avg_share / rk.tCompute;

        double demand = 0;
        if (rk.bytes > 0) {
            // Issue limit: each enabled CU contributes its share of
            // per-CU streaming bandwidth.
            const double issue_cap = std::min(
                share_sum * arch.perCuIssueBytesPerNs * rk.issueFactor,
                arch.memBwBytesPerNs);
            demand = std::min(compute_rate * rk.bytes, issue_cap);
        }
        scratch_evals_.push_back(RateEval{jobs[i], &rk, compute_rate,
                                          demand});
    }

    scratch_demands_.clear();
    for (const auto &e : scratch_evals_)
        scratch_demands_.push_back(e.demandBw);
    maxMinFairShareInto(scratch_demands_, arch.memBwBytesPerNs,
                        scratch_grants_, scratch_order_);

    double bw_used = 0;
    for (std::size_t i = 0; i < scratch_evals_.size(); ++i) {
        const RateEval &e = scratch_evals_[i];
        double rate = e.computeRate;
        if (e.rk->bytes > 0)
            rate = std::min(rate, scratch_grants_[i] / e.rk->bytes);
        e.rk->bwAlloc = scratch_grants_[i];
        bw_used += scratch_grants_[i];
        fs.setRate(e.job, rate);
    }

    // Power state follows the started kernels: the busy CUs are the
    // union of their masks, and an SE is active when it holds one.
    // Not monitor_: Algorithm 1 counts a kernel from dispatch on, but
    // the kernel occupies no CU during its launch overhead.
    const auto busy_cus = static_cast<unsigned>(std::popcount(busy));
    unsigned active_ses = 0;
    for (unsigned se = 0; se < arch.numSe; ++se)
        active_ses += ((busy >> (se * arch.cusPerSe)) & se0_cus_) != 0;
    power_.update(busy_cus, active_ses,
                  bw_used / arch.memBwBytesPerNs);
    if (timeline_ != nullptr) {
        timeline_->recordUtilization(eq_.now(), busy_cus,
                                     power_.currentPowerW());
    }
}

} // namespace krisp
