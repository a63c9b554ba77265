#include "gpu/gpu_device.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_injector.hh"
#include "gpu/bandwidth.hh"

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
    // gets an equal share of what remains.
    order.resize(demands.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](auto a, auto b) {
        return demands[a] < demands[b];
    });

    double remaining = capacity;
    std::size_t left = demands.size();
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

namespace
{

/** Floor for compute time to keep fluid rates finite. */
constexpr double minComputeNs = 1.0;

} // namespace

GpuDevice::GpuDevice(EventQueue &eq, GpuConfig config)
    : eq_(eq), config_(config), monitor_(config.arch),
      power_(eq, config.power),
      fluid_(
          eq, [this](FluidScheduler &fs) { recomputeRates(fs); },
          [this](JobId job) { onKernelComplete(job); }),
      resident_(config_.arch.totalCus(), 0),
      scratch_cu_demand_(config_.arch.totalCus(), 0.0),
      scratch_cu_share_(config_.arch.totalCus(), 0.0)
{
}

double
GpuDevice::contentionPow(unsigned k)
{
    while (contention_pow_.size() <= k) {
        contention_pow_.push_back(std::pow(
            config_.contentionPenalty,
            static_cast<double>(contention_pow_.size())));
    }
    return contention_pow_[k];
}

void
GpuDevice::adoptRunning(JobId job, RunningKernel rk)
{
    // Cache the kernel's occupancy demand: a kernel that cannot fill
    // its CUs (few workgroups relative to the saturation occupancy)
    // leaves slack that co-resident kernels use for free — this is why
    // unrestricted MPS sharing works well for under-utilising models
    // (Sec. VI-B).
    const double sat = std::max(1u, rk.desc->saturationWgsPerCu);
    rk.demand = std::min(1.0, double(rk.desc->numWorkgroups) /
                                  (double(rk.mask.count()) * sat));
    for (std::uint64_t bits = rk.mask.bits(); bits != 0;
         bits &= bits - 1) {
        ++resident_[static_cast<unsigned>(std::countr_zero(bits))];
    }
    running_.emplace(job, std::move(rk));
}

GpuDevice::RunningKernel
GpuDevice::removeRunning(JobId job)
{
    const auto it = running_.find(job);
    panic_if(it == running_.end(), "no running-kernel record for job ",
             job);
    RunningKernel rk = std::move(it->second);
    running_.erase(it);
    for (std::uint64_t bits = rk.mask.bits(); bits != 0;
         bits &= bits - 1) {
        const auto cu = static_cast<unsigned>(std::countr_zero(bits));
        panic_if(resident_[cu] == 0, "CU residency underflow");
        --resident_[cu];
    }
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
        const ArchParams &arch = config_.arch;
        std::vector<unsigned> per_se(arch.numSe, 0);
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
        trace_->wgDispatch(rk.id, rk.qid, wgs, per_se);
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
    const unsigned total_cus = arch.totalCus();

    scratch_jobs_.clear();
    fs.appendActiveJobs(scratch_jobs_);
    const std::vector<JobId> &jobs = scratch_jobs_;

    // Adopt a kernel staged by dispatchKernel (fluid_.add triggers
    // this callback before add() returns the new job id). Adoption
    // updates the incremental residency map; retirement and watchdog
    // kills decrement it, so it never needs rebuilding here.
    if (staging_.has_value()) {
        for (const JobId job : jobs) {
            if (!running_.count(job)) {
                adoptRunning(job, std::move(*staging_));
                staging_.reset();
                break;
            }
        }
    }

    // Aggregate occupancy demand per CU from the running kernels'
    // cached per-kernel demands (job order fixes the summation order).
    std::fill(scratch_cu_demand_.begin(), scratch_cu_demand_.end(),
              0.0);
    for (const JobId job : jobs) {
        const auto it = running_.find(job);
        panic_if(it == running_.end(), "active job ", job,
                 " has no running-kernel record");
        const RunningKernel &rk = it->second;
        for (std::uint64_t bits = rk.mask.bits(); bits != 0;
             bits &= bits - 1) {
            scratch_cu_demand_[static_cast<unsigned>(
                std::countr_zero(bits))] += rk.demand;
        }
    }

    // Per-CU share factor: a CU whose aggregate occupancy demand
    // exceeds its capacity scales everyone proportionally; a
    // multiplicative interference penalty applies per co-resident
    // kernel regardless. Both depend on the CU alone, so each CU's
    // factor is computed once here rather than once per kernel.
    for (unsigned cu = 0; cu < total_cus; ++cu) {
        const unsigned n = resident_[cu];
        if (n == 0)
            continue;
        scratch_cu_share_[cu] =
            std::min(1.0, 1.0 / scratch_cu_demand_[cu]) *
            contentionPow(n - 1);
    }

    scratch_evals_.clear();

    for (const JobId job : jobs) {
        RunningKernel &rk = running_.at(job);
        if (rk.hung) {
            // A hung kernel never progresses (rate 0 jobs schedule no
            // completion) but keeps its CUs resident, contending with
            // healthy kernels until the watchdog reclaims them.
            rk.bwAlloc = 0;
            fs.setRate(job, 0.0);
            continue;
        }
        double share_sum = 0;
        for (std::uint64_t bits = rk.mask.bits(); bits != 0;
             bits &= bits - 1) {
            const auto cu =
                static_cast<unsigned>(std::countr_zero(bits));
            panic_if(resident_[cu] == 0, "running kernel on idle CU");
            share_sum += scratch_cu_share_[cu];
        }
        const double avg_share = share_sum / rk.mask.count();
        const double t_compute = std::max(
            timing::computeTimeNs(*rk.desc, rk.mask, arch),
            minComputeNs);
        const double compute_rate = avg_share / t_compute;

        double demand = 0;
        if (rk.desc->bytes > 0) {
            // Issue limit: each enabled CU contributes its share of
            // per-CU streaming bandwidth.
            const double issue_cap = std::min(
                share_sum * arch.perCuIssueBytesPerNs *
                    rk.desc->issueFactor,
                arch.memBwBytesPerNs);
            demand = std::min(compute_rate * rk.desc->bytes, issue_cap);
        }
        scratch_evals_.push_back(RateEval{job, &rk, compute_rate,
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
        if (e.rk->desc->bytes > 0)
            rate = std::min(rate, scratch_grants_[i] / e.rk->desc->bytes);
        e.rk->bwAlloc = scratch_grants_[i];
        bw_used += scratch_grants_[i];
        fs.setRate(e.job, rate);
    }

    // Power state follows the running set.
    unsigned busy_cus = 0;
    for (unsigned cu = 0; cu < total_cus; ++cu)
        if (resident_[cu] > 0)
            ++busy_cus;
    unsigned active_ses = 0;
    for (unsigned se = 0; se < arch.numSe; ++se) {
        for (unsigned cu = 0; cu < arch.cusPerSe; ++cu) {
            if (resident_[CuMask::cuIndex(arch, se, cu)] > 0) {
                ++active_ses;
                break;
            }
        }
    }
    power_.update(busy_cus, active_ses,
                  bw_used / arch.memBwBytesPerNs);
    if (timeline_ != nullptr) {
        timeline_->recordUtilization(eq_.now(), busy_cus,
                                     power_.currentPowerW());
    }
}

} // namespace krisp
