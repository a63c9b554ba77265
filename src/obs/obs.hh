/**
 * @file
 * Umbrella observability context: one trace sink plus one metrics
 * registry, threaded by pointer through the components of a run
 * (device, HSA queues, ioctl service, KRISP runtime, server).
 *
 * Ownership stays with the caller (a bench, example or test); the
 * simulated components only ever hold non-owning pointers, and a null
 * context disables all instrumentation at the cost of one branch.
 */

#ifndef KRISP_OBS_OBS_HH
#define KRISP_OBS_OBS_HH

#include <memory>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/trace_sink.hh"

namespace krisp
{

/** Trace sink + metrics registry + timeline for one run. */
struct ObsContext
{
    TraceSink trace;
    MetricsRegistry metrics;
    /**
     * Windowed time-series; disabled until timeline.enable(). Enable
     * it before handing the context to components (attachObs reads
     * enabled() once to decide whether to wire the feeds).
     */
    TimelineRecorder timeline;
};

/**
 * A context for one component whose metrics and timeline are merged
 * into @p parent (MetricsRegistry / TimelineRecorder::mergeInto): the
 * timeline mirrors the parent's window, and the trace sink is off,
 * because merging carries no trace records over. Null without a
 * parent.
 */
inline std::unique_ptr<ObsContext>
makeMergeChild(const ObsContext *parent)
{
    if (parent == nullptr)
        return nullptr;
    auto child = std::make_unique<ObsContext>();
    child->trace.setEnabled(false);
    if (parent->timeline.enabled())
        child->timeline.enable(parent->timeline.windowNs());
    return child;
}

/**
 * Snapshot an event queue's lifetime counters into @p metrics under
 * "sim.events_*" gauges (the sim layer cannot depend on obs, so the
 * pull direction is inverted here).
 */
inline void
snapshotEventQueue(const EventQueue &eq, MetricsRegistry &metrics)
{
    metrics.gauge("sim.events_scheduled")
        .set(static_cast<double>(eq.scheduledCount()));
    metrics.gauge("sim.events_fired")
        .set(static_cast<double>(eq.firedCount()));
    metrics.gauge("sim.events_cancelled")
        .set(static_cast<double>(eq.cancelledCount()));
    metrics.gauge("sim.final_tick_ns")
        .set(static_cast<double>(eq.now()));
}

/**
 * Publish the observability layer's own health into its metrics:
 * trace records dropped at the sink limit ("obs.trace_dropped") and
 * non-finite doubles serialised as 0 ("obs.nonfinite_values").
 * Top-up deltas, so calling it repeatedly (each serving layer calls
 * it at end of run) never double-counts.
 */
inline void
publishObsHealth(ObsContext &obs)
{
    auto &dropped = obs.metrics.counter("obs.trace_dropped");
    if (obs.trace.dropped() > dropped.value())
        dropped.inc(obs.trace.dropped() - dropped.value());
    auto &nonfinite = obs.metrics.counter("obs.nonfinite_values");
    if (json::nonFiniteCount() > nonfinite.value())
        nonfinite.inc(json::nonFiniteCount() - nonfinite.value());
}

} // namespace krisp

#endif // KRISP_OBS_OBS_HH
