/**
 * @file
 * Kernel-level trace sink.
 *
 * TraceSink records typed events — kernel dispatch/start/complete,
 * CU-mask reconfigurations, barrier-packet injection, serialised
 * ioctls, per-SE workgroup dispatch, request lifecycle — stamped with
 * simulated time, and exports them as Chrome trace-event JSON (loads
 * directly in Perfetto / chrome://tracing).
 *
 * Cost model: every record helper is guarded by enabled(); callers
 * additionally wrap call sites in KRISP_TRACE_EVENT so a disabled
 * sink costs one pointer test and argument evaluation is skipped.
 * Recording never schedules simulation events, so enabling
 * tracing cannot change simulated-time results.
 *
 * Determinism: records carry only simulated time and component state;
 * two identical runs serialise to byte-identical output, so traces
 * can be diffed in tests.
 */

#ifndef KRISP_OBS_TRACE_SINK_HH
#define KRISP_OBS_TRACE_SINK_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace krisp
{

/** Event taxonomy (see DESIGN.md "Observability"). */
enum class TraceEventKind : std::uint8_t
{
    KernelDispatch, ///< packet accepted by the command processor
    KernelSpan,     ///< kernel execution window (start -> retire)
    WgDispatch,     ///< per-SE workgroup split at dispatch
    MaskReconfig,   ///< queue CU mask changed (ioctl landed)
    BarrierInject,  ///< emulation layer injected a barrier packet
    BarrierProcess, ///< command processor handled a barrier packet
    IoctlSubmit,    ///< ioctl entered the serialised driver queue
    IoctlSpan,      ///< ioctl service window (start -> applied)
    RightSize,      ///< KRISP runtime per-launch right-size decision
    ReconfigElide,  ///< launch skipped the reconfiguration protocol
    RequestEnqueue, ///< inference request admitted
    RequestSpan,    ///< inference request lifetime (start -> complete)
    FaultInject,    ///< fault layer injected a failure
    RequestDrop,    ///< request shed (backlog overflow / deadline)
    RecoveryAction, ///< handling layer recovered from a fault
    CounterSample,  ///< timeline counter sample ('C' track value)
    RequestPhase,   ///< one phase of a request (queue / batch / exec)
    RequestFlow,    ///< flow arrow linking router -> shard -> finish
};

const char *traceEventKindName(TraceEventKind kind);

/** Chrome trace "process" ids used to group tracks. */
constexpr std::uint32_t tracePidGpu = 0;
constexpr std::uint32_t tracePidHost = 1;
constexpr std::uint32_t tracePidServer = 2;

/** Track ids within the host process. */
constexpr std::uint32_t traceTidIoctl = 0;
constexpr std::uint32_t traceTidRuntime = 1;
constexpr std::uint32_t traceTidFault = 2;

/**
 * Track id for the cluster router inside the server process. High so
 * it can never collide with a real worker / frontend track.
 */
constexpr std::uint32_t traceTidRouter = 0xFFFFu;

/** One key plus a pre-encoded JSON value. */
struct TraceArg
{
    std::string key;
    std::string json;

    static TraceArg u64(std::string key, std::uint64_t v);
    static TraceArg f64(std::string key, double v);
    static TraceArg str(std::string key, const std::string &v);
    /** 64-bit mask rendered as a hex string ("0x0fff..."). */
    static TraceArg hex(std::string key, std::uint64_t bits);
};

/** One recorded event. */
struct TraceRecord
{
    std::uint64_t seq = 0; ///< stable tie-break, insertion order
    Tick ts = 0;           ///< event start, simulated ns
    Tick dur = 0;          ///< span duration (0 for instants)
    Tick recordedAt = 0;   ///< simulated time the record was made
    TraceEventKind kind{};
    /** Chrome phase: 'X' span, 'i' instant, 'C' counter, 's'/'t'/'f' flow. */
    char phase = 'i';
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    /** Flow-binding id ('s'/'t'/'f' phases); 0 everywhere else. */
    std::uint64_t flowId = 0;
    std::string name;
    std::vector<TraceArg> args;
};

/** Records typed events in simulated-time order and exports them. */
class TraceSink
{
  public:
    /** @param clock source of simulated time for implicit stamps. */
    explicit TraceSink(const EventQueue *clock = nullptr);
    /** Finalises a still-open stream file. */
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Rebind the simulated clock (one sink can outlive a run). */
    void setClock(const EventQueue *clock) { clock_ = clock; }

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Recording stops (with one warning) past this many records. */
    void setLimit(std::size_t limit) { limit_ = limit; }

    /** Records dropped because the limit tripped (obs.trace_dropped). */
    std::uint64_t dropped() const { return dropped_; }

    // ---- request sampling ---------------------------------------
    /**
     * Keep only every Nth request's lifecycle events (enqueue, span,
     * drop, phase, flow). 0 or 1 keeps everything. Selection hashes
     * the request id, so which requests are kept is byte-identical
     * for any --jobs value and independent of event arrival order.
     * Kernel / protocol events are unaffected.
     */
    void setSample(std::uint64_t n) { sample_ = n; }
    std::uint64_t sample() const { return sample_; }

    /** True if request @p id survives the sampling filter. */
    bool sampleRequest(std::uint64_t id) const;

    // ---- streaming export ---------------------------------------
    /**
     * Stream records to @p path as they are recorded instead of
     * retaining them in memory: the record limit no longer applies
     * and records() stays empty. Metadata (process / thread names)
     * is appended on closeStream() — Perfetto accepts 'M' events
     * anywhere in the array. The file is finalised by closeStream()
     * or the destructor.
     */
    bool openStream(const std::string &path);
    void closeStream();
    bool streaming() const { return stream_ != nullptr; }

    // ---- generic record API -------------------------------------
    void instant(TraceEventKind kind, std::string name,
                 std::uint32_t pid, std::uint32_t tid,
                 std::vector<TraceArg> args = {});
    void span(TraceEventKind kind, std::string name, std::uint32_t pid,
              std::uint32_t tid, Tick start, Tick end,
              std::vector<TraceArg> args = {});

    // ---- domain helpers (one per taxonomy entry) ----------------
    void kernelDispatch(KernelId id, QueueId queue,
                        const std::string &name, unsigned requestedCus);
    void kernelSpan(KernelId id, QueueId queue, const std::string &name,
                    std::uint64_t maskBits, unsigned cus, Tick dispatch,
                    Tick start, Tick end);
    void wgDispatch(KernelId id, QueueId queue, unsigned workgroups,
                    const std::vector<unsigned> &perSeWgs);
    void maskReconfig(QueueId queue, std::uint64_t maskBits,
                      unsigned cus);
    void barrierInject(QueueId queue, const char *which);
    void barrierProcess(QueueId queue, unsigned deps);
    void ioctlSubmit(std::size_t backlog);
    void ioctlSpan(Tick start, Tick end, Tick queuedNs);
    void rightSize(const std::string &kernel, unsigned requestedCus,
                   const char *mode);
    /** @p how is "elide" (repeat size) or "group" (rode a leader). */
    void reconfigElide(QueueId queue, unsigned requestedCus,
                       const char *how);
    void requestEnqueue(WorkerId worker, const std::string &model,
                        std::uint64_t request);
    void requestSpan(WorkerId worker, const std::string &model,
                     std::uint64_t request, Tick start, Tick end);
    void faultInject(const char *site, const std::string &target,
                     double magnitude);
    void requestDrop(WorkerId worker, const std::string &model,
                     std::uint64_t request, const char *reason);
    void recovery(const char *action, const std::string &target,
                  std::uint64_t value);
    /**
     * One phase of a request's life as a span named "phase.<name>" on
     * the server track, nested under the request span in Perfetto.
     */
    void requestPhase(WorkerId worker, const std::string &model,
                      std::uint64_t request, const char *phaseName,
                      Tick start, Tick end);
    /** Flow arrows tying the router decision to shard execution. */
    void requestFlowBegin(std::uint64_t request, std::uint32_t pid,
                          std::uint32_t tid);
    void requestFlowStep(std::uint64_t request, std::uint32_t pid,
                         std::uint32_t tid);
    void requestFlowEnd(std::uint64_t request, std::uint32_t pid,
                        std::uint32_t tid);
    /**
     * Chrome 'C' counter sample: one point per series key in @p
     * values at simulated time @p ts. Not subject to request
     * sampling.
     */
    void counter(const std::string &name, std::uint32_t pid, Tick ts,
                 std::vector<TraceArg> values);

    // ---- inspection / export ------------------------------------
    const std::vector<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    void clear();

    /**
     * Chrome trace-event JSON ("traceEvents" array plus process /
     * thread name metadata). Timestamps are microseconds as the
     * format requires; args keep exact nanosecond values.
     */
    void writeChromeJson(std::ostream &os) const;
    std::string toChromeJson() const;
    bool writeChromeJsonFile(const std::string &path) const;

  private:
    Tick now() const { return clock_ != nullptr ? clock_->now() : 0; }
    void push(TraceRecord rec);
    void serializeRecord(std::ostream &os, const TraceRecord &rec) const;
    void noteTrack(const TraceRecord &rec);

    const EventQueue *clock_;
    bool enabled_ = true;
    std::size_t limit_ = 4'000'000;
    bool limit_warned_ = false;
    std::uint64_t dropped_ = 0;
    std::uint64_t sample_ = 0;
    std::uint64_t next_seq_ = 0;
    std::vector<TraceRecord> records_;

    std::unique_ptr<std::ofstream> stream_;
    bool stream_first_ = true;
    /** Tracks seen while streaming; metadata written at close. */
    std::set<std::pair<std::uint32_t, std::uint32_t>> stream_tracks_;
};

/**
 * Guarded trace call: evaluates @p call (a TraceSink member call,
 * e.g. kernelSpan(...)) only when @p sink is attached and enabled.
 */
#define KRISP_TRACE_EVENT(sink, call)                                     \
    do {                                                                  \
        if ((sink) != nullptr && (sink)->enabled())                       \
            (sink)->call;                                                 \
    } while (0)

} // namespace krisp

#endif // KRISP_OBS_TRACE_SINK_HH
