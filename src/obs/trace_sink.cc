#include "obs/trace_sink.hh"

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "obs/json.hh"

namespace krisp
{

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::KernelDispatch: return "kernel.dispatch";
      case TraceEventKind::KernelSpan: return "kernel.span";
      case TraceEventKind::WgDispatch: return "wg.dispatch";
      case TraceEventKind::MaskReconfig: return "mask.reconfig";
      case TraceEventKind::BarrierInject: return "barrier.inject";
      case TraceEventKind::BarrierProcess: return "barrier.process";
      case TraceEventKind::IoctlSubmit: return "ioctl.submit";
      case TraceEventKind::IoctlSpan: return "ioctl.span";
      case TraceEventKind::RightSize: return "krisp.rightsize";
      case TraceEventKind::ReconfigElide: return "krisp.elide";
      case TraceEventKind::RequestEnqueue: return "request.enqueue";
      case TraceEventKind::RequestSpan: return "request.span";
      case TraceEventKind::FaultInject: return "fault.inject";
      case TraceEventKind::RequestDrop: return "request.drop";
      case TraceEventKind::RecoveryAction: return "recovery.action";
      case TraceEventKind::CounterSample: return "counter.sample";
      case TraceEventKind::RequestPhase: return "request.phase";
      case TraceEventKind::RequestFlow: return "request.flow";
    }
    return "?";
}

namespace
{

/** Chrome "cat" field per event kind. */
const char *
kindCategory(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::KernelDispatch:
      case TraceEventKind::KernelSpan:
        return "kernel";
      case TraceEventKind::WgDispatch: return "wg";
      case TraceEventKind::MaskReconfig: return "mask";
      case TraceEventKind::BarrierInject:
      case TraceEventKind::BarrierProcess:
        return "barrier";
      case TraceEventKind::IoctlSubmit:
      case TraceEventKind::IoctlSpan:
        return "ioctl";
      case TraceEventKind::RightSize:
      case TraceEventKind::ReconfigElide:
        return "krisp";
      case TraceEventKind::RequestEnqueue:
      case TraceEventKind::RequestSpan:
      case TraceEventKind::RequestDrop:
      case TraceEventKind::RequestPhase:
      case TraceEventKind::RequestFlow:
        return "request";
      case TraceEventKind::FaultInject:
      case TraceEventKind::RecoveryAction:
        return "fault";
      case TraceEventKind::CounterSample: return "timeline";
    }
    return "?";
}

std::string
processName(std::uint32_t pid)
{
    switch (pid) {
      case tracePidGpu: return "gpu";
      case tracePidHost: return "host";
      case tracePidServer: return "server";
    }
    return "pid" + std::to_string(pid);
}

std::string
threadName(std::uint32_t pid, std::uint32_t tid)
{
    switch (pid) {
      case tracePidGpu: return "queue " + std::to_string(tid);
      case tracePidHost:
        if (tid == traceTidIoctl)
            return "ioctl";
        return tid == traceTidFault ? "fault" : "krisp-runtime";
      case tracePidServer:
        if (tid == traceTidRouter)
            return "router";
        return "worker " + std::to_string(tid);
    }
    return "tid" + std::to_string(tid);
}

/**
 * FNV-1a over the request id bytes: the sampling decision must be a
 * pure function of the id so it is identical for any --jobs value
 * and any event ordering, and must decorrelate from sequentially
 * assigned ids so "every Nth kept" is not "one contiguous burst".
 */
std::uint64_t
hashRequestId(std::uint64_t id)
{
    return fnv1aStepU64(fnv1aOffsetBasis, id);
}

/** Microseconds with nanosecond precision, stable formatting. */
std::string
ticksToUsJson(Tick t)
{
    return json::number(static_cast<double>(t) / 1e3);
}

/**
 * Keys and names of the domain helpers, with fixed ids (their index)
 * in every sink; a sink's own interned strings get ids after them.
 */
constexpr std::string_view fixedStrings[] = {
    "kid", "requested_cus", "mask", "cus", "dispatch_ns",
    "queue_delay_ns", "wgs", "queue", "which", "deps", "backlog",
    "queued_ns", "kernel", "mode", "how", "model", "request", "worker",
    "site", "target", "magnitude", "reason", "value", "phase",
    "wg-dispatch", "mask-reconfig", "barrier-inject", "barrier",
    "ioctl-submit", "ioctl", "right-size", "elide", "enqueue", "drop",
    "request.flow",
};
constexpr auto numFixedStrings =
    static_cast<TraceStrId>(std::size(fixedStrings));

/** Id of a fixed string; one missing from the table does not compile. */
consteval TraceStrId
fixed(std::string_view s)
{
    for (TraceStrId id = 0; id < numFixedStrings; ++id) {
        if (fixedStrings[id] == s)
            return id;
    }
    throw "not a fixed trace string";
}

/** An argument's JSON value, with today's formatters. */
void
appendArgValue(std::string &out, const TraceSink &sink,
               const TraceArg &arg)
{
    switch (arg.type) {
      case TraceArg::Type::U64:
        out += json::number(arg.payload);
        return;
      case TraceArg::Type::F64:
        out += json::number(std::bit_cast<double>(arg.payload));
        return;
      case TraceArg::Type::Str:
        out += json::quote(sink.str(static_cast<TraceStrId>(arg.payload)));
        return;
      case TraceArg::Type::Hex: {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                      static_cast<unsigned long long>(arg.payload));
        out += buf;
        return;
      }
    }
}

/**
 * Write one Chrome trace event to the "traceEvents" array on @p os,
 * preceded by a comma unless it is @p first; @p arg .. @p end are its
 * arguments and @p out is a reused buffer.
 */
template <class ArgIt>
void
writeEvent(std::ostream &os, std::string &out, bool &first,
           const TraceSink &sink, const TraceRecord &rec, ArgIt arg,
           ArgIt end)
{
    out.clear();
    if (!first)
        out += ',';
    first = false;
    out += "{\"name\":";
    out += json::quote(sink.str(rec.nameId));
    out += ",\"cat\":";
    out += json::quote(kindCategory(rec.kind));
    out += ",\"ph\":\"";
    out += rec.phase;
    out += "\",\"ts\":";
    out += ticksToUsJson(rec.ts);
    if (rec.phase == 'X') {
        out += ",\"dur\":";
        out += ticksToUsJson(rec.dur);
    }
    if (rec.phase == 'i')
        out += ",\"s\":\"t\"";
    if (rec.phase == 's' || rec.phase == 't' || rec.phase == 'f') {
        out += ",\"id\":";
        out += json::number(rec.flowId);
        // Bind the terminating arrow to the enclosing slice so
        // Perfetto draws it into the request span, not past it.
        if (rec.phase == 'f')
            out += ",\"bp\":\"e\"";
    }
    out += ",\"pid\":";
    out += json::number(std::uint64_t(rec.pid));
    out += ",\"tid\":";
    out += json::number(std::uint64_t(rec.tid));
    out += ",\"args\":{";
    // Counter tracks render every arg as a series; keep them pure
    // numbers (no "kind" tag, which would become a bogus series).
    bool first_arg = true;
    if (rec.phase != 'C') {
        out += "\"kind\":";
        out += json::quote(traceEventKindName(rec.kind));
        first_arg = false;
    }
    for (; arg != end; ++arg) {
        if (!first_arg)
            out += ',';
        first_arg = false;
        out += json::quote(sink.str(arg->key));
        out += ':';
        appendArgValue(out, sink, *arg);
    }
    out += "}}";
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

} // namespace

TraceSink::TraceSink(const EventQueue *clock) : clock_(clock) {}

TraceSink::~TraceSink()
{
    closeStream();
}

bool
TraceSink::sampleRequest(std::uint64_t id) const
{
    if (sample_ <= 1)
        return true;
    return hashRequestId(id) % sample_ == 0;
}

TraceStrId
TraceSink::intern(std::string_view s)
{
    const auto it = ids_.find(s);
    if (it != ids_.end())
        return it->second;
    const auto id =
        static_cast<TraceStrId>(numFixedStrings + strings_.size());
    ids_.emplace(strings_.emplace_back(s), id);
    return id;
}

std::string_view
TraceSink::str(TraceStrId id) const
{
    if (id < numFixedStrings)
        return fixedStrings[id];
    return strings_[id - numFixedStrings];
}

TraceStrId
TraceSink::seKey(std::size_t se)
{
    while (se_keys_.size() <= se)
        se_keys_.push_back(
            intern("se" + std::to_string(se_keys_.size())));
    return se_keys_[se];
}

void
TraceSink::record(TraceRecord rec, std::span<const TraceArg> args)
{
    if (!enabled_)
        return;
    if (stream_ == nullptr && records_.size() >= limit_) {
        ++dropped_;
        if (!limit_warned_) {
            warn("trace sink hit its record limit (", limit_,
                 "); further events are dropped and counted in "
                 "obs.trace_dropped");
            limit_warned_ = true;
        }
        return;
    }
    rec.seq = next_seq_++;
    rec.recordedAt = now();
    if (stream_ != nullptr) {
        // Streaming mode: serialise immediately, retain nothing, so
        // the record limit (a memory bound) does not apply.
        stream_tracks_.insert({rec.pid, rec.tid});
        writeEvent(*stream_, stream_buf_, stream_first_, *this, rec,
                   args.begin(), args.end());
        return;
    }
    panic_if(args.size() > std::numeric_limits<std::uint32_t>::max() -
                               args_.size(),
             "trace argument store overflows its 32-bit offsets");
    rec.argOffset = static_cast<std::uint32_t>(args_.size());
    rec.argCount = static_cast<std::uint32_t>(args.size());
    for (const TraceArg &arg : args)
        args_.push_back(arg);
    records_.push_back(rec);
}

TraceRecord
TraceSink::instantAt(TraceEventKind kind, TraceStrId name,
                     std::uint32_t pid, std::uint32_t tid) const
{
    TraceRecord rec;
    rec.ts = now();
    rec.kind = kind;
    rec.phase = 'i';
    rec.pid = pid;
    rec.tid = tid;
    rec.nameId = name;
    return rec;
}

TraceRecord
TraceSink::spanOver(TraceEventKind kind, TraceStrId name,
                    std::uint32_t pid, std::uint32_t tid, Tick start,
                    Tick end) const
{
    panic_if(end < start, "trace span ends before it starts");
    TraceRecord rec;
    rec.ts = start;
    rec.dur = end - start;
    rec.kind = kind;
    rec.phase = 'X';
    rec.pid = pid;
    rec.tid = tid;
    rec.nameId = name;
    return rec;
}

TraceRecord
TraceSink::flowAt(char phase, std::uint64_t request, std::uint32_t pid,
                  std::uint32_t tid) const
{
    TraceRecord rec = instantAt(TraceEventKind::RequestFlow,
                                fixed("request.flow"), pid, tid);
    rec.phase = phase;
    rec.flowId = request;
    return rec;
}

void
TraceSink::instant(TraceEventKind kind, std::string_view name,
                   std::uint32_t pid, std::uint32_t tid,
                   std::initializer_list<TraceArg> args)
{
    record(instantAt(kind, intern(name), pid, tid), args);
}

void
TraceSink::span(TraceEventKind kind, std::string_view name,
                std::uint32_t pid, std::uint32_t tid, Tick start,
                Tick end, std::initializer_list<TraceArg> args)
{
    record(spanOver(kind, intern(name), pid, tid, start, end), args);
}

void
TraceSink::kernelDispatch(KernelId id, QueueId queue,
                          const std::string &name,
                          unsigned requestedCus)
{
    record(instantAt(TraceEventKind::KernelDispatch, intern(name),
                     tracePidGpu, queue),
           {TraceArg::u64(fixed("kid"), id),
            TraceArg::u64(fixed("requested_cus"), requestedCus)});
}

void
TraceSink::kernelSpan(KernelId id, QueueId queue,
                      const std::string &name, std::uint64_t maskBits,
                      unsigned cus, Tick dispatch, Tick start, Tick end)
{
    record(spanOver(TraceEventKind::KernelSpan, intern(name),
                    tracePidGpu, queue, start, end),
           {TraceArg::u64(fixed("kid"), id),
            TraceArg::hex(fixed("mask"), maskBits),
            TraceArg::u64(fixed("cus"), cus),
            TraceArg::u64(fixed("dispatch_ns"), dispatch),
            TraceArg::u64(fixed("queue_delay_ns"), start - dispatch)});
}

void
TraceSink::wgDispatch(KernelId id, QueueId queue, unsigned workgroups,
                      std::span<const unsigned> perSeWgs)
{
    arg_buf_.clear();
    arg_buf_.push_back(TraceArg::u64(fixed("kid"), id));
    arg_buf_.push_back(TraceArg::u64(fixed("wgs"), workgroups));
    for (std::size_t se = 0; se < perSeWgs.size(); ++se)
        arg_buf_.push_back(TraceArg::u64(seKey(se), perSeWgs[se]));
    record(instantAt(TraceEventKind::WgDispatch, fixed("wg-dispatch"),
                     tracePidGpu, queue),
           arg_buf_);
}

void
TraceSink::maskReconfig(QueueId queue, std::uint64_t maskBits,
                        unsigned cus)
{
    record(instantAt(TraceEventKind::MaskReconfig, fixed("mask-reconfig"),
                     tracePidGpu, queue),
           {TraceArg::hex(fixed("mask"), maskBits),
            TraceArg::u64(fixed("cus"), cus)});
}

void
TraceSink::barrierInject(QueueId queue, const char *which)
{
    record(instantAt(TraceEventKind::BarrierInject, fixed("barrier-inject"),
                     tracePidHost, traceTidRuntime),
           {TraceArg::u64(fixed("queue"), queue),
            TraceArg::str(fixed("which"), intern(which))});
}

void
TraceSink::barrierProcess(QueueId queue, unsigned deps)
{
    record(instantAt(TraceEventKind::BarrierProcess, fixed("barrier"),
                     tracePidGpu, queue),
           {TraceArg::u64(fixed("deps"), deps)});
}

void
TraceSink::ioctlSubmit(std::size_t backlog)
{
    record(instantAt(TraceEventKind::IoctlSubmit, fixed("ioctl-submit"),
                     tracePidHost, traceTidIoctl),
           {TraceArg::u64(fixed("backlog"), backlog)});
}

void
TraceSink::ioctlSpan(Tick start, Tick end, Tick queuedNs)
{
    record(spanOver(TraceEventKind::IoctlSpan, fixed("ioctl"), tracePidHost,
                    traceTidIoctl, start, end),
           {TraceArg::u64(fixed("queued_ns"), queuedNs)});
}

void
TraceSink::rightSize(const std::string &kernel, unsigned requestedCus,
                     const char *mode)
{
    record(instantAt(TraceEventKind::RightSize, fixed("right-size"),
                     tracePidHost, traceTidRuntime),
           {TraceArg::str(fixed("kernel"), intern(kernel)),
            TraceArg::u64(fixed("requested_cus"), requestedCus),
            TraceArg::str(fixed("mode"), intern(mode))});
}

void
TraceSink::reconfigElide(QueueId queue, unsigned requestedCus,
                         const char *how)
{
    record(instantAt(TraceEventKind::ReconfigElide, fixed("elide"),
                     tracePidHost, traceTidRuntime),
           {TraceArg::u64(fixed("queue"), queue),
            TraceArg::u64(fixed("requested_cus"), requestedCus),
            TraceArg::str(fixed("how"), intern(how))});
}

void
TraceSink::requestEnqueue(WorkerId worker, const std::string &model,
                          std::uint64_t request)
{
    if (!sampleRequest(request))
        return;
    record(instantAt(TraceEventKind::RequestEnqueue, fixed("enqueue"),
                     tracePidServer, worker),
           {TraceArg::str(fixed("model"), intern(model)),
            TraceArg::u64(fixed("request"), request)});
}

void
TraceSink::requestSpan(WorkerId worker, const std::string &model,
                       std::uint64_t request, Tick start, Tick end)
{
    if (!sampleRequest(request))
        return;
    const TraceStrId name = intern(model);
    record(spanOver(TraceEventKind::RequestSpan, name, tracePidServer,
                    worker, start, end),
           {TraceArg::u64(fixed("request"), request),
            TraceArg::u64(fixed("worker"), worker),
            TraceArg::str(fixed("model"), name)});
}

void
TraceSink::faultInject(const char *site, const std::string &target,
                       double magnitude)
{
    const TraceStrId name = intern(site);
    TraceArg args[3];
    std::size_t n = 0;
    args[n++] = TraceArg::str(fixed("site"), name);
    if (!target.empty())
        args[n++] = TraceArg::str(fixed("target"), intern(target));
    if (magnitude != 0)
        args[n++] = TraceArg::f64(fixed("magnitude"), magnitude);
    record(instantAt(TraceEventKind::FaultInject, name, tracePidHost,
                     traceTidFault),
           std::span<const TraceArg>(args, n));
}

void
TraceSink::requestDrop(WorkerId worker, const std::string &model,
                       std::uint64_t request, const char *reason)
{
    if (!sampleRequest(request))
        return;
    record(instantAt(TraceEventKind::RequestDrop, fixed("drop"),
                     tracePidServer, worker),
           {TraceArg::str(fixed("model"), intern(model)),
            TraceArg::u64(fixed("request"), request),
            TraceArg::str(fixed("reason"), intern(reason))});
}

void
TraceSink::recovery(const char *action, const std::string &target,
                    std::uint64_t value)
{
    TraceArg args[2];
    std::size_t n = 0;
    if (!target.empty())
        args[n++] = TraceArg::str(fixed("target"), intern(target));
    args[n++] = TraceArg::u64(fixed("value"), value);
    record(instantAt(TraceEventKind::RecoveryAction, intern(action),
                     tracePidHost, traceTidFault),
           std::span<const TraceArg>(args, n));
}

void
TraceSink::requestPhase(WorkerId worker, const std::string &model,
                        std::uint64_t request, const char *phaseName,
                        Tick start, Tick end)
{
    if (!sampleRequest(request))
        return;
    record(spanOver(TraceEventKind::RequestPhase,
                    intern(std::string("phase.") + phaseName),
                    tracePidServer, worker, start, end),
           {TraceArg::u64(fixed("request"), request),
            TraceArg::str(fixed("model"), intern(model)),
            TraceArg::str(fixed("phase"), intern(phaseName))});
}

void
TraceSink::requestFlowBegin(std::uint64_t request, std::uint32_t pid,
                            std::uint32_t tid)
{
    if (!sampleRequest(request))
        return;
    record(flowAt('s', request, pid, tid),
           {TraceArg::u64(fixed("request"), request)});
}

void
TraceSink::requestFlowStep(std::uint64_t request, std::uint32_t pid,
                           std::uint32_t tid)
{
    if (!sampleRequest(request))
        return;
    record(flowAt('t', request, pid, tid),
           {TraceArg::u64(fixed("request"), request)});
}

void
TraceSink::requestFlowEnd(std::uint64_t request, std::uint32_t pid,
                          std::uint32_t tid)
{
    if (!sampleRequest(request))
        return;
    record(flowAt('f', request, pid, tid),
           {TraceArg::u64(fixed("request"), request)});
}

void
TraceSink::counter(std::string_view name, std::uint32_t pid, Tick ts,
                   std::initializer_list<TraceArg> values)
{
    TraceRecord rec;
    rec.ts = ts;
    rec.kind = TraceEventKind::CounterSample;
    rec.phase = 'C';
    rec.pid = pid;
    rec.tid = 0;
    rec.nameId = intern(name);
    record(rec, values);
}

std::vector<std::pair<std::string, std::string>>
TraceSink::args(const TraceRecord &rec) const
{
    std::vector<std::pair<std::string, std::string>> out;
    const auto first = args_.begin() + rec.argOffset;
    for (auto it = first; it != first + rec.argCount; ++it) {
        std::string value;
        appendArgValue(value, *this, *it);
        out.emplace_back(std::string(str(it->key)), std::move(value));
    }
    return out;
}

void
TraceSink::clear()
{
    records_.clear();
    args_.clear();
    next_seq_ = 0;
    limit_warned_ = false;
    dropped_ = 0;
}

namespace
{

void
writeTrackMetadata(
    std::ostream &os, bool &first,
    const std::set<std::pair<std::uint32_t, std::uint32_t>> &tracks)
{
    std::set<std::uint32_t> pids;
    for (const auto &[pid, tid] : tracks)
        pids.insert(pid);
    for (const std::uint32_t pid : pids) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":"
           << json::number(std::uint64_t(pid))
           << ",\"args\":{\"name\":" << json::quote(processName(pid))
           << "}}";
    }
    for (const auto &[pid, tid] : tracks) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
           << json::number(std::uint64_t(pid))
           << ",\"tid\":" << json::number(std::uint64_t(tid))
           << ",\"args\":{\"name\":"
           << json::quote(threadName(pid, tid)) << "}}";
    }
}

} // namespace

void
TraceSink::writeChromeJson(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;

    // Process / thread name metadata for every track in use, emitted
    // in (pid, tid) order for determinism.
    std::set<std::pair<std::uint32_t, std::uint32_t>> tracks;
    for (const auto &rec : records_)
        tracks.insert({rec.pid, rec.tid});
    writeTrackMetadata(os, first, tracks);

    std::string buf;
    for (const auto &rec : records_) {
        const auto arg = args_.begin() + rec.argOffset;
        writeEvent(os, buf, first, *this, rec, arg, arg + rec.argCount);
    }
    os << "]}\n";
}

bool
TraceSink::openStream(const std::string &path)
{
    closeStream();
    auto out = std::make_unique<std::ofstream>(path, std::ios::binary);
    if (!*out) {
        warn("cannot open trace stream file ", path);
        return false;
    }
    stream_ = std::move(out);
    stream_first_ = true;
    stream_tracks_.clear();
    *stream_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    return true;
}

void
TraceSink::closeStream()
{
    if (stream_ == nullptr)
        return;
    writeTrackMetadata(*stream_, stream_first_, stream_tracks_);
    *stream_ << "]}\n";
    stream_->close();
    stream_.reset();
    stream_first_ = true;
    stream_tracks_.clear();
}

std::string
TraceSink::toChromeJson() const
{
    std::ostringstream oss;
    writeChromeJson(oss);
    return oss.str();
}

bool
TraceSink::writeChromeJsonFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        warn("cannot open trace file ", path);
        return false;
    }
    writeChromeJson(out);
    return out.good();
}

} // namespace krisp
