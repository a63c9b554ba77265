/**
 * @file
 * Windowed time-series recorder.
 *
 * TimelineRecorder folds simulation activity into fixed-width
 * simulated-time windows (10 ms by default): per-window request and
 * drop counts, latency percentiles, the CU-occupancy and power
 * integrals, and protocol activity (ioctls, barrier packets,
 * reconfigurations, elisions). The producers — GpuDevice,
 * KrispRuntime, IoctlService and the serving layers — feed it at
 * record time under the same determinism contract as TraceSink:
 * recording never schedules simulation events, so enabling the
 * timeline cannot change simulated-time results, and two identical
 * runs serialise to byte-identical JSON.
 *
 * Utilization and power are piecewise-constant signals sampled at
 * rate-change boundaries; recordUtilization() integrates the previous
 * level up to the new sample point, splitting the integral exactly at
 * window boundaries so each window owns precisely its share.
 *
 * Export: deterministic JSON (windows in time order) and Chrome 'C'
 * counter events so Perfetto renders live req/s, latency, occupancy
 * and power tracks next to the kernel spans.
 */

#ifndef KRISP_OBS_TIMELINE_HH
#define KRISP_OBS_TIMELINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace krisp
{

class TraceSink;

/** Accumulated activity for one fixed-width time window. */
struct TimelineWindow
{
    std::uint64_t requests = 0; ///< requests completed in the window
    std::uint64_t drops = 0;    ///< requests shed in the window
    std::uint64_t ioctls = 0;   ///< serialised ioctls completed
    std::uint64_t barriers = 0; ///< barrier packets injected
    std::uint64_t reconfigs = 0; ///< CU-mask reconfigurations applied
    std::uint64_t elisions = 0; ///< launches that skipped the protocol

    /** Integral of busy CUs over covered time (CU * ns). */
    double cuBusyIntegral = 0;
    /** Integral of estimated power over covered time (W * ns). */
    double wattsIntegral = 0;
    /** Simulated ns of the window covered by utilization samples. */
    Tick coveredNs = 0;

    /** Latencies (ms) of requests completed in the window. */
    PercentileTracker latencyMs;
};

/**
 * Fixed-width window accumulator. Disabled (all record calls are
 * cheap no-ops) until enable() sets a non-zero window width.
 */
class TimelineRecorder
{
  public:
    TimelineRecorder() = default;

    TimelineRecorder(const TimelineRecorder &) = delete;
    TimelineRecorder &operator=(const TimelineRecorder &) = delete;

    /** Turn recording on with @p windowNs-wide windows (0 disables). */
    void enable(Tick windowNs);
    bool enabled() const { return window_ns_ != 0; }
    Tick windowNs() const { return window_ns_; }

    // ---- record-time feeds (no-ops while disabled) --------------
    /** A request completed at @p t with end-to-end @p latencyMs. */
    void recordRequest(Tick t, double latencyMs);
    /** A request was shed at @p t. */
    void recordDrop(Tick t);
    /** A serialised ioctl completed at @p t. */
    void recordIoctl(Tick t);
    /** A barrier packet was injected at @p t. */
    void recordBarrier(Tick t);
    /** A CU-mask reconfiguration was applied at @p t. */
    void recordReconfig(Tick t);
    /** A launch skipped the reconfiguration protocol at @p t. */
    void recordElision(Tick t);

    /**
     * New utilization level from @p t onward: @p busyCus CUs busy,
     * estimated draw @p watts. Integrates the previous level up to
     * @p t first (piecewise-constant). Feed every rate change; the
     * GPU device calls this from its rate recomputation.
     */
    void recordUtilization(Tick t, unsigned busyCus, double watts);

    /**
     * Close the run at @p endNs: integrates the tail of the
     * utilization signal and clamps the timeline end. Call once,
     * after the event loop finishes.
     */
    void finish(Tick endNs);

    /**
     * Fold @p other (same window width) into this timeline: counts
     * and integrals add, latency samples merge, covered time takes
     * the maximum — overlay semantics, so merging per-shard timelines
     * that span the same simulated time yields cluster-wide totals
     * with means still normalised by wall-window time.
     */
    void mergeInto(TimelineRecorder &dst) const;

    const std::vector<TimelineWindow> &windows() const
    {
        return windows_;
    }
    Tick endNs() const { return end_ns_; }

    // ---- export -------------------------------------------------
    /**
     * Deterministic JSON: {"window_ns", "end_ns", "windows": [...]}
     * with one object per window in time order. Empty trailing
     * windows are kept so consumers can rely on uniform spacing.
     */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;
    bool writeJsonFile(const std::string &path) const;

    /**
     * Emit per-window Chrome 'C' counter samples into @p sink:
     * timeline.rps + timeline.latency_ms on the server process,
     * timeline.cu_busy + timeline.watts on the GPU process,
     * timeline.protocol on the host process. Call after finish().
     */
    void emitCounterTracks(TraceSink &sink) const;

  private:
    TimelineWindow &windowAt(Tick t);
    /** Integrate the current utilization level up to @p t. */
    void advanceTo(Tick t);

    Tick window_ns_ = 0;
    std::vector<TimelineWindow> windows_;
    Tick end_ns_ = 0;

    // Piecewise-constant utilization state.
    Tick util_ts_ = 0;
    unsigned cur_busy_cus_ = 0;
    double cur_watts_ = 0;
    /** True once a device fed a sample; gates tail integration. */
    bool util_seen_ = false;
};

} // namespace krisp

#endif // KRISP_OBS_TIMELINE_HH
