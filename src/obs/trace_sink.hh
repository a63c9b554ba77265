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
 * Record layout: a TraceRecord is a fixed 64-byte value that owns
 * nothing. Its name is an id into the sink's string table, and its
 * arguments are an (offset, count) slice of the sink's argument store,
 * where each TraceArg is 16 bytes: an interned key id, a type tag and
 * a 64-bit payload (u64, f64 bits, interned string id or hex mask).
 * JSON is rendered only at export — or, while streaming, as each
 * record is made — with the same formatters either way, so the bytes
 * do not depend on how a record was stored.
 *
 * Interning is per sink: there is no global table, so sinks on
 * parallel islands share nothing and traces are byte-identical at any
 * --jobs. The domain helpers' keys and fixed names have constant ids;
 * the recording path hashes only kernel / model names and string
 * values. Records and arguments live in chunked storage (std::deque),
 * so growth never copies them; once its strings are interned, a
 * record makes no heap allocation of its own beyond the occasional
 * new chunk (about 0.25 per kernel-shaped record).
 *
 * One path: every helper fills one record and its arguments and hands
 * them to record(), which drops them (disabled sink, record limit),
 * keeps them, or serialises them straight to the open stream.
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

#include <bit>
#include <cstdint>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/json.hh"
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

/** Id of a string interned in one TraceSink (a name, key or value). */
using TraceStrId = std::uint32_t;

/** One argument: an interned key plus a typed 64-bit payload. */
struct TraceArg
{
    enum class Type : std::uint8_t
    {
        U64, ///< unsigned integer
        F64, ///< finite double, stored as its bits
        Str, ///< interned string id, rendered quoted and escaped
        Hex, ///< 64-bit mask, rendered "0x%016llx" in quotes
    };

    std::uint64_t payload = 0;
    TraceStrId key = 0;
    Type type = Type::U64;

    static TraceArg
    u64(TraceStrId key, std::uint64_t v)
    {
        return {v, key, Type::U64};
    }

    /**
     * A non-finite @p v is clamped to 0 and counted here, where the
     * argument is made (json::finiteOrZero), whether or not the
     * record is then kept.
     */
    static TraceArg
    f64(TraceStrId key, double v)
    {
        return {std::bit_cast<std::uint64_t>(json::finiteOrZero(v)), key,
                Type::F64};
    }

    /** @p value is an id from the same sink's intern(). */
    static TraceArg
    str(TraceStrId key, TraceStrId value)
    {
        return {value, key, Type::Str};
    }

    /** 64-bit mask rendered as a hex string ("0x0fff..."). */
    static TraceArg
    hex(TraceStrId key, std::uint64_t bits)
    {
        return {bits, key, Type::Hex};
    }
};
static_assert(sizeof(TraceArg) == 16, "TraceArg is one 16-byte value");

/** One recorded event; owns nothing (see the file comment). */
struct TraceRecord
{
    std::uint64_t seq = 0; ///< stable tie-break, insertion order
    Tick ts = 0;           ///< event start, simulated ns
    Tick dur = 0;          ///< span duration (0 for instants)
    Tick recordedAt = 0;   ///< simulated time the record was made
    /** Flow-binding id ('s'/'t'/'f' phases); 0 everywhere else. */
    std::uint64_t flowId = 0;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    TraceStrId nameId = 0;       ///< read back with TraceSink::name()
    std::uint32_t argOffset = 0; ///< first argument in the sink's store
    std::uint32_t argCount = 0;  ///< read back with TraceSink::args()
    TraceEventKind kind{};
    /** Chrome phase: 'X' span, 'i' instant, 'C' counter, 's'/'t'/'f' flow. */
    char phase = 'i';
};
static_assert(sizeof(TraceRecord) == 64, "TraceRecord is one 64-byte value");

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

    // ---- strings ------------------------------------------------
    /** Id of @p s in this sink's string table, added if new. */
    TraceStrId intern(std::string_view s);
    /** Text of an id from intern() (or of a helper's fixed string). */
    std::string_view str(TraceStrId id) const;

    // ---- generic record API -------------------------------------
    void instant(TraceEventKind kind, std::string_view name,
                 std::uint32_t pid, std::uint32_t tid,
                 std::initializer_list<TraceArg> args = {});
    void span(TraceEventKind kind, std::string_view name,
              std::uint32_t pid, std::uint32_t tid, Tick start, Tick end,
              std::initializer_list<TraceArg> args = {});

    // ---- domain helpers (one per taxonomy entry) ----------------
    void kernelDispatch(KernelId id, QueueId queue,
                        const std::string &name, unsigned requestedCus);
    void kernelSpan(KernelId id, QueueId queue, const std::string &name,
                    std::uint64_t maskBits, unsigned cus, Tick dispatch,
                    Tick start, Tick end);
    /** @p perSeWgs holds one workgroup count per shader engine. */
    void wgDispatch(KernelId id, QueueId queue, unsigned workgroups,
                    std::span<const unsigned> perSeWgs);
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
    void counter(std::string_view name, std::uint32_t pid, Tick ts,
                 std::initializer_list<TraceArg> values);

    // ---- inspection / export ------------------------------------
    const std::deque<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    /** A kept record's name, as exported. */
    std::string_view name(const TraceRecord &rec) const
    {
        return str(rec.nameId);
    }
    /** A kept record's arguments as (key, JSON value) pairs. */
    std::vector<std::pair<std::string, std::string>>
    args(const TraceRecord &rec) const;
    /** Drops every record and restarts seq; interned ids stay valid. */
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
    /** An instant named @p name at now(); record() fills the rest. */
    TraceRecord instantAt(TraceEventKind kind, TraceStrId name,
                          std::uint32_t pid, std::uint32_t tid) const;
    TraceRecord spanOver(TraceEventKind kind, TraceStrId name,
                         std::uint32_t pid, std::uint32_t tid, Tick start,
                         Tick end) const;
    TraceRecord flowAt(char phase, std::uint64_t request,
                       std::uint32_t pid, std::uint32_t tid) const;
    /**
     * The one record path: drop @p rec (disabled, or at the limit),
     * keep it with a copy of @p args, or serialise both to the open
     * stream.
     */
    void record(TraceRecord rec, std::span<const TraceArg> args);
    void
    record(const TraceRecord &rec, std::initializer_list<TraceArg> args)
    {
        record(rec, std::span<const TraceArg>(args.begin(), args.size()));
    }
    /** Key "se<i>", interned on first use. */
    TraceStrId seKey(std::size_t se);

    const EventQueue *clock_;
    bool enabled_ = true;
    std::size_t limit_ = 4'000'000;
    bool limit_warned_ = false;
    std::uint64_t dropped_ = 0;
    std::uint64_t sample_ = 0;
    std::uint64_t next_seq_ = 0;
    std::deque<TraceRecord> records_;
    /** Kept records' arguments, in record order. */
    std::deque<TraceArg> args_;

    /** Interned strings; a deque, so views into it stay valid. */
    std::deque<std::string> strings_;
    std::unordered_map<std::string_view, TraceStrId> ids_;
    std::vector<TraceStrId> se_keys_;
    /** A workgroup split's arguments, reused. */
    std::vector<TraceArg> arg_buf_;

    std::unique_ptr<std::ofstream> stream_;
    bool stream_first_ = true;
    /** One streamed event's JSON, reused. */
    std::string stream_buf_;
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
