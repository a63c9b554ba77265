#include "core/krisp_runtime.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace krisp
{

const char *
enforcementModeName(EnforcementMode mode)
{
    switch (mode) {
      case EnforcementMode::Native: return "native";
      case EnforcementMode::Emulated: return "emulated";
    }
    panic("unknown enforcement mode");
}

const char *
reconfigPolicyName(ReconfigPolicy policy)
{
    switch (policy) {
      case ReconfigPolicy::Always: return "always";
      case ReconfigPolicy::Elide: return "elide";
      case ReconfigPolicy::Group: return "group";
    }
    panic("unknown reconfig policy");
}

KrispRuntime::KrispRuntime(HipRuntime &hip, const KernelSizer &sizer,
                           MaskAllocator &allocator,
                           EnforcementMode mode, ObsContext *obs)
    : hip_(hip), sizer_(sizer), allocator_(allocator), mode_(mode)
{
    if (mode_ == EnforcementMode::Native)
        hip_.device().setKrispAllocator(&allocator_);

    MetricsRegistry &reg =
        obs != nullptr ? obs->metrics : own_metrics_;
    launches_ = &reg.counter("krisp.launches");
    emulated_reconfigs_ = &reg.counter("krisp.emulated_reconfigs");
    requested_cus_total_ = &reg.counter("krisp.requested_cus_total");
    reconfig_retries_ = &reg.counter("krisp.reconfig_retries");
    reconfig_fallbacks_ = &reg.counter("krisp.reconfig_fallbacks");
    reconfig_launches_ = &reg.counter("krisp.reconfig_launches");
    reconfig_elisions_ = &reg.counter("krisp.reconfig_elisions");
    grouped_launches_ = &reg.counter("krisp.grouped_launches");
    capped_grants_ = &reg.counter("krisp.capped_grants");
    requested_cus_ = &reg.accumulator("krisp.requested_cus");
    if (obs != nullptr) {
        trace_ = &obs->trace;
        if (obs->timeline.enabled())
            timeline_ = &obs->timeline;
        reg.label("krisp.enforcement").set(enforcementModeName(mode_));
        policy_label_ = &reg.label("krisp.reconfig_policy");
        policy_label_->set(reconfigPolicyName(policy_));
    }
}

void
KrispRuntime::setReconfigPolicy(ReconfigPolicy policy)
{
    policy_ = policy;
    if (policy_label_ != nullptr)
        policy_label_->set(reconfigPolicyName(policy));
}

void
KrispRuntime::setIoctlRetryPolicy(IoctlRetryPolicy policy)
{
    fatal_if(policy.maxAttempts == 0,
             "ioctl retry policy needs at least one attempt");
    fatal_if(policy.backoffMultiplier < 1.0,
             "ioctl retry backoff multiplier must be >= 1: ",
             policy.backoffMultiplier);
    retry_ = policy;
}

KrispRuntimeStats
KrispRuntime::stats() const
{
    KrispRuntimeStats s;
    s.launches = launches_->value();
    s.emulatedReconfigs = emulated_reconfigs_->value();
    s.requestedCusTotal = requested_cus_total_->value();
    s.reconfigRetries = reconfig_retries_->value();
    s.reconfigFallbacks = reconfig_fallbacks_->value();
    s.reconfigLaunches = reconfig_launches_->value();
    s.reconfigElisions = reconfig_elisions_->value();
    s.groupedLaunches = grouped_launches_->value();
    s.cappedGrants = capped_grants_->value();
    return s;
}

unsigned
KrispRuntime::cappedCus(unsigned cus) const
{
    return grant_cap_ != 0 && cus > grant_cap_ ? grant_cap_ : cus;
}

void
KrispRuntime::accountLaunch(const KernelDescriptor &kernel,
                            unsigned cus)
{
    launches_->inc();
    // Natural size recomputed (cheap lookup) so every launched kernel
    // counts its clamp exactly once, no matter which dispatch path or
    // group-run membership delivered it.
    if (grant_cap_ != 0 && sizer_.rightSize(kernel) > grant_cap_)
        capped_grants_->inc();
    requested_cus_total_->inc(cus);
    requested_cus_->add(static_cast<double>(cus));
    KRISP_TRACE_EVENT(trace_, rightSize(kernel.name, cus,
                                        enforcementModeName(mode_)));
}

bool
KrispRuntime::canElide(const Stream &stream, unsigned cus) const
{
    // The comparison is against the right-size in effect at the queue
    // *tail* (not the currently-installed mask): launches enqueue
    // before earlier reconfiguration ioctls have landed, and in-order
    // stream semantics guarantee those land before this kernel runs.
    return policy_ != ReconfigPolicy::Always &&
           stream.expectedCus() == cus;
}

void
KrispRuntime::launch(Stream &stream, KernelDescPtr kernel,
                     HsaSignalPtr completion)
{
    fatal_if(!kernel, "KRISP launch of a null kernel");
    const unsigned cus = cappedCus(sizer_.rightSize(*kernel));
    panic_if(cus == 0, "sizer returned zero CUs");
    accountLaunch(*kernel, cus);

    if (mode_ == EnforcementMode::Native) {
        launchNative(stream, std::move(kernel), std::move(completion),
                     cus);
    } else if (canElide(stream, cus)) {
        launchElided(stream, std::move(kernel), std::move(completion),
                     cus, "elide");
    } else {
        launchEmulated(stream, std::move(kernel),
                       std::move(completion), cus);
    }
}

void
KrispRuntime::launchGroup(Stream &stream,
                          const std::vector<KernelDescPtr> &kernels,
                          HsaSignalPtr completion)
{
    if (mode_ == EnforcementMode::Native ||
        policy_ != ReconfigPolicy::Group) {
        // Per-kernel semantics; launch() still elides under Elide.
        for (const auto &k : kernels)
            launch(stream, k, completion);
        return;
    }

    const HsaQueue &queue = stream.hsaQueue();
    const std::size_t cap = queue.capacity();
    std::size_t i = 0;
    while (i < kernels.size()) {
        fatal_if(!kernels[i], "KRISP launch of a null kernel");
        const unsigned cus = cappedCus(sizer_.rightSize(*kernels[i]));
        panic_if(cus == 0, "sizer returned zero CUs");

        // A run is a maximal stretch of equal right-sizes (after the
        // grant cap: capping makes sizes *more* equal, so brownout
        // degradation composes with grouping rather than breaking it).
        std::size_t j = i + 1;
        while (j < kernels.size() && kernels[j] &&
               cappedCus(sizer_.rightSize(*kernels[j])) == cus)
            ++j;
        std::size_t count = j - i;

        // ...that does not span the AQL ring's wrap point: the
        // barrier pair plus its kernels are written as one contiguous
        // region, so a run reaching the wrap ends there and the next
        // run restarts the protocol at the ring's base. With fewer
        // than 3 slots before the wrap not even [B1][B2][K] fits in
        // front of it, and the region simply starts across it.
        const std::size_t to_wrap =
            cap - static_cast<std::size_t>(queue.pushed() % cap);
        if (to_wrap >= 3)
            count = std::min(count, to_wrap - 2);

        if (canElide(stream, cus)) {
            for (std::size_t k = i; k < i + count; ++k) {
                accountLaunch(*kernels[k], cus);
                launchElided(stream, kernels[k], completion, cus,
                             "elide");
            }
        } else {
            for (std::size_t k = i; k < i + count; ++k)
                accountLaunch(*kernels[k], cus);
            launchRunEmulated(stream, &kernels[i], count, completion,
                              cus);
        }
        i += count;
    }
}

void
KrispRuntime::launchNative(Stream &stream, KernelDescPtr kernel,
                           HsaSignalPtr completion, unsigned cus)
{
    // The right-size rides in the AQL packet; the command processor
    // does the rest.
    stream.launchWithSignal(std::move(kernel), std::move(completion),
                            cus);
}

void
KrispRuntime::launchElided(Stream &stream, KernelDescPtr kernel,
                           HsaSignalPtr completion, unsigned cus,
                           const char *how)
{
    // The queue (tail) already carries the right mask: launch behind
    // whatever is enqueued, no barriers, no allocator pass, no ioctl.
    reconfig_elisions_->inc();
    KRISP_TRACE_EVENT(trace_, reconfigElide(stream.hsaQueue().id(),
                                            cus, how));
    if (timeline_ != nullptr)
        timeline_->recordElision(hip_.eventQueue().now());
    stream.launchWithSignal(std::move(kernel), std::move(completion),
                            /*requested_cus=*/0);
}

void
KrispRuntime::launchEmulated(Stream &stream, KernelDescPtr kernel,
                             HsaSignalPtr completion, unsigned cus)
{
    launchRunEmulated(stream, &kernel, 1, std::move(completion), cus);
}

void
KrispRuntime::launchRunEmulated(Stream &stream,
                                const KernelDescPtr *kernels,
                                std::size_t count,
                                HsaSignalPtr completion, unsigned cus)
{
    // Fig. 11b: [B1][B2][K...]. B1 drains prior kernels and triggers
    // the runtime callback; B2 blocks the kernels until the new queue
    // mask landed. One protocol instance covers the whole run.
    auto drained = HsaSignal::create(1);   // B1 completion
    auto mask_ready = HsaSignal::create(1); // set after the ioctl

    const QueueId qid = stream.hsaQueue().id();
    AqlPacket b1 = AqlPacket::barrier({}, drained,
                                      /*barrier_bit=*/true);
    KRISP_TRACE_EVENT(trace_, barrierInject(qid, "B1-drain"));
    if (timeline_ != nullptr)
        timeline_->recordBarrier(hip_.eventQueue().now());
    stream.enqueuePacket(std::move(b1));

    AqlPacket b2 = AqlPacket::barrier({mask_ready}, nullptr,
                                      /*barrier_bit=*/true);
    KRISP_TRACE_EVENT(trace_, barrierInject(qid, "B2-hold"));
    if (timeline_ != nullptr)
        timeline_->recordBarrier(hip_.eventQueue().now());
    stream.enqueuePacket(std::move(b2));

    reconfig_launches_->inc();
    stream.launchWithSignal(kernels[0], completion,
                            /*requested_cus=*/0);
    for (std::size_t i = 1; i < count; ++i) {
        grouped_launches_->inc();
        KRISP_TRACE_EVENT(trace_, reconfigElide(qid, cus, "group"));
        stream.launchWithSignal(kernels[i], completion,
                                /*requested_cus=*/0);
    }

    // Record the enqueue-time intent so later launches can compare
    // against the size that will be in effect at the tail. Pure host
    // state: under ReconfigPolicy::Always it is maintained but never
    // consulted, keeping that policy byte-identical.
    stream.noteReconfigRequested(cus);

    const StreamId sid = stream.id();
    drained->waitZero([this, sid, mask_ready, cus] {
        // Host-side async handler: right-sizing already resolved to
        // `cus`; run resource allocation against the live counters,
        // then reconfigure the queue mask through the ioctl. The
        // stream travels by id — it can be destroyed while this
        // callback (or a retry below) is pending.
        //
        // Protocol wait starts here — at quiesce, not at enqueue —
        // so overlap with the previous kernels' execution is not
        // billed as reconfiguration overhead.
        const Tick proto_start = hip_.eventQueue().now();
        hip_.deferCallback([this, sid, mask_ready, cus, proto_start] {
            if (hip_.streamOrNull(sid) == nullptr) {
                abandonReconfig(mask_ready, "stream-destroyed");
                return;
            }
            const CuMask mask = allocator_.allocate(
                cus, hip_.device().monitor());
            tryReconfig(sid, mask, mask_ready, 1, 1.0, proto_start);
        });
    });
}

void
KrispRuntime::tryReconfig(StreamId sid, CuMask mask,
                          HsaSignalPtr mask_ready, unsigned attempt,
                          double backoff_scale, Tick proto_start)
{
    Stream *stream = hip_.streamOrNull(sid);
    if (stream == nullptr) {
        abandonReconfig(mask_ready, "stream-destroyed");
        return;
    }
    const std::uint64_t generation = stream->maskGeneration();
    hip_.submitMaskReconfig(
        *stream, mask,
        [this, sid, mask, generation, mask_ready, proto_start] {
            emulated_reconfigs_->inc();
            if (timeline_ != nullptr)
                timeline_->recordReconfig(hip_.eventQueue().now());
            if (Stream *s = hip_.streamOrNull(sid)) {
                // The drain barrier retired this stream's work under
                // the previous mask, so it can go back to the
                // allocator's reuse cache before the new one is
                // recorded.
                if (s->installedMaskKnown())
                    allocator_.noteReleased(s->installedMask());
                s->noteMaskInstalled(mask, generation);
                s->addProtocolWait(hip_.eventQueue().now() -
                                   proto_start);
            }
            mask_ready->subtract(1);
        },
        [this, sid, mask, mask_ready, attempt, backoff_scale,
         proto_start] {
            if (attempt < retry_.maxAttempts) {
                reconfig_retries_->inc();
                // Exponential backoff: 1x, mult x, mult^2 x, ... The
                // scale is carried across attempts (O(1) per retry);
                // the delay is clamped before the double -> Tick cast,
                // which is undefined past the Tick range.
                const double scaled =
                    static_cast<double>(retry_.backoffNs) *
                    backoff_scale;
                const Tick delay =
                    scaled >=
                            static_cast<double>(maxReconfigBackoffNs)
                        ? maxReconfigBackoffNs
                        : static_cast<Tick>(scaled);
                KRISP_TRACE_EVENT(
                    trace_, recovery("ioctl-retry", "", attempt));
                debug("reconfig ioctl failed (attempt ", attempt,
                      "); retrying in ", delay, " ns");
                const double next_scale =
                    backoff_scale * retry_.backoffMultiplier;
                hip_.eventQueue().scheduleIn(
                    delay, [this, sid, mask, mask_ready, attempt,
                            next_scale, proto_start] {
                        tryReconfig(sid, mask, mask_ready,
                                    attempt + 1, next_scale,
                                    proto_start);
                    });
                return;
            }
            // Retry budget exhausted: release the held kernels under
            // the queue's current stream-scoped mask. Right-sizing is
            // lost for this run (MPS-style static partition) but the
            // requests still complete. The tracking is invalidated so
            // no later launch elides against a mask that never landed.
            reconfig_fallbacks_->inc();
            KRISP_TRACE_EVENT(trace_,
                              recovery("mask-fallback", "", attempt));
            warn("reconfig ioctl failed ", attempt,
                 " times; falling back to the static queue mask");
            if (Stream *s = hip_.streamOrNull(sid)) {
                s->invalidateMaskTracking();
                s->addProtocolWait(hip_.eventQueue().now() -
                                   proto_start);
            }
            mask_ready->subtract(1);
        });
}

void
KrispRuntime::abandonReconfig(HsaSignalPtr mask_ready, const char *why)
{
    // The stream handle is gone but its HSA queue (and any kernels
    // held behind B2) live on; release them under the queue's current
    // static mask so the queue drains instead of deadlocking.
    reconfig_fallbacks_->inc();
    KRISP_TRACE_EVENT(trace_, recovery(why, "", 0));
    warn("stream destroyed with a reconfiguration in flight; "
         "releasing held kernels under the static queue mask");
    mask_ready->subtract(1);
}

} // namespace krisp
