#include "obs/trace_sink.hh"

#include <cstdio>
#include <fstream>
#include <map>
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

} // namespace

TraceArg
TraceArg::u64(std::string key, std::uint64_t v)
{
    return TraceArg{std::move(key), json::number(v)};
}

TraceArg
TraceArg::f64(std::string key, double v)
{
    return TraceArg{std::move(key), json::number(v)};
}

TraceArg
TraceArg::str(std::string key, const std::string &v)
{
    return TraceArg{std::move(key), json::quote(v)};
}

TraceArg
TraceArg::hex(std::string key, std::uint64_t bits)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                  static_cast<unsigned long long>(bits));
    return TraceArg{std::move(key), buf};
}

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

void
TraceSink::push(TraceRecord rec)
{
    if (!enabled_)
        return;
    if (stream_ != nullptr) {
        // Streaming mode: serialise immediately, retain nothing, so
        // the record limit (a memory bound) does not apply.
        rec.seq = next_seq_++;
        rec.recordedAt = now();
        noteTrack(rec);
        if (!stream_first_)
            *stream_ << ",";
        stream_first_ = false;
        serializeRecord(*stream_, rec);
        return;
    }
    if (records_.size() >= limit_) {
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
    records_.push_back(std::move(rec));
}

void
TraceSink::instant(TraceEventKind kind, std::string name,
                   std::uint32_t pid, std::uint32_t tid,
                   std::vector<TraceArg> args)
{
    TraceRecord rec;
    rec.ts = now();
    rec.kind = kind;
    rec.phase = 'i';
    rec.pid = pid;
    rec.tid = tid;
    rec.name = std::move(name);
    rec.args = std::move(args);
    push(std::move(rec));
}

void
TraceSink::span(TraceEventKind kind, std::string name,
                std::uint32_t pid, std::uint32_t tid, Tick start,
                Tick end, std::vector<TraceArg> args)
{
    panic_if(end < start, "trace span ends before it starts");
    TraceRecord rec;
    rec.ts = start;
    rec.dur = end - start;
    rec.kind = kind;
    rec.phase = 'X';
    rec.pid = pid;
    rec.tid = tid;
    rec.name = std::move(name);
    rec.args = std::move(args);
    push(std::move(rec));
}

void
TraceSink::kernelDispatch(KernelId id, QueueId queue,
                          const std::string &name,
                          unsigned requestedCus)
{
    instant(TraceEventKind::KernelDispatch, name, tracePidGpu, queue,
            {TraceArg::u64("kid", id),
             TraceArg::u64("requested_cus", requestedCus)});
}

void
TraceSink::kernelSpan(KernelId id, QueueId queue,
                      const std::string &name, std::uint64_t maskBits,
                      unsigned cus, Tick dispatch, Tick start, Tick end)
{
    span(TraceEventKind::KernelSpan, name, tracePidGpu, queue, start,
         end,
         {TraceArg::u64("kid", id), TraceArg::hex("mask", maskBits),
          TraceArg::u64("cus", cus),
          TraceArg::u64("dispatch_ns", dispatch),
          TraceArg::u64("queue_delay_ns", start - dispatch)});
}

void
TraceSink::wgDispatch(KernelId id, QueueId queue, unsigned workgroups,
                      const std::vector<unsigned> &perSeWgs)
{
    std::vector<TraceArg> args;
    args.push_back(TraceArg::u64("kid", id));
    args.push_back(TraceArg::u64("wgs", workgroups));
    for (std::size_t se = 0; se < perSeWgs.size(); ++se) {
        args.push_back(TraceArg::u64("se" + std::to_string(se),
                                     perSeWgs[se]));
    }
    instant(TraceEventKind::WgDispatch, "wg-dispatch", tracePidGpu,
            queue, std::move(args));
}

void
TraceSink::maskReconfig(QueueId queue, std::uint64_t maskBits,
                        unsigned cus)
{
    instant(TraceEventKind::MaskReconfig, "mask-reconfig", tracePidGpu,
            queue,
            {TraceArg::hex("mask", maskBits),
             TraceArg::u64("cus", cus)});
}

void
TraceSink::barrierInject(QueueId queue, const char *which)
{
    instant(TraceEventKind::BarrierInject, "barrier-inject",
            tracePidHost, traceTidRuntime,
            {TraceArg::u64("queue", queue),
             TraceArg::str("which", which)});
}

void
TraceSink::barrierProcess(QueueId queue, unsigned deps)
{
    instant(TraceEventKind::BarrierProcess, "barrier", tracePidGpu,
            queue, {TraceArg::u64("deps", deps)});
}

void
TraceSink::ioctlSubmit(std::size_t backlog)
{
    instant(TraceEventKind::IoctlSubmit, "ioctl-submit", tracePidHost,
            traceTidIoctl, {TraceArg::u64("backlog", backlog)});
}

void
TraceSink::ioctlSpan(Tick start, Tick end, Tick queuedNs)
{
    span(TraceEventKind::IoctlSpan, "ioctl", tracePidHost,
         traceTidIoctl, start, end,
         {TraceArg::u64("queued_ns", queuedNs)});
}

void
TraceSink::rightSize(const std::string &kernel, unsigned requestedCus,
                     const char *mode)
{
    instant(TraceEventKind::RightSize, "right-size", tracePidHost,
            traceTidRuntime,
            {TraceArg::str("kernel", kernel),
             TraceArg::u64("requested_cus", requestedCus),
             TraceArg::str("mode", mode)});
}

void
TraceSink::reconfigElide(QueueId queue, unsigned requestedCus,
                         const char *how)
{
    instant(TraceEventKind::ReconfigElide, "elide", tracePidHost,
            traceTidRuntime,
            {TraceArg::u64("queue", queue),
             TraceArg::u64("requested_cus", requestedCus),
             TraceArg::str("how", how)});
}

void
TraceSink::requestEnqueue(WorkerId worker, const std::string &model,
                          std::uint64_t request)
{
    if (!sampleRequest(request))
        return;
    instant(TraceEventKind::RequestEnqueue, "enqueue", tracePidServer,
            worker,
            {TraceArg::str("model", model),
             TraceArg::u64("request", request)});
}

void
TraceSink::requestSpan(WorkerId worker, const std::string &model,
                       std::uint64_t request, Tick start, Tick end)
{
    if (!sampleRequest(request))
        return;
    span(TraceEventKind::RequestSpan, model, tracePidServer, worker,
         start, end,
         {TraceArg::u64("request", request),
          TraceArg::u64("worker", worker),
          TraceArg::str("model", model)});
}

void
TraceSink::faultInject(const char *site, const std::string &target,
                       double magnitude)
{
    std::vector<TraceArg> args;
    args.push_back(TraceArg::str("site", site));
    if (!target.empty())
        args.push_back(TraceArg::str("target", target));
    if (magnitude != 0)
        args.push_back(TraceArg::f64("magnitude", magnitude));
    instant(TraceEventKind::FaultInject, site, tracePidHost,
            traceTidFault, std::move(args));
}

void
TraceSink::requestDrop(WorkerId worker, const std::string &model,
                       std::uint64_t request, const char *reason)
{
    if (!sampleRequest(request))
        return;
    instant(TraceEventKind::RequestDrop, "drop", tracePidServer,
            worker,
            {TraceArg::str("model", model),
             TraceArg::u64("request", request),
             TraceArg::str("reason", reason)});
}

void
TraceSink::recovery(const char *action, const std::string &target,
                    std::uint64_t value)
{
    std::vector<TraceArg> args;
    if (!target.empty())
        args.push_back(TraceArg::str("target", target));
    args.push_back(TraceArg::u64("value", value));
    instant(TraceEventKind::RecoveryAction, action, tracePidHost,
            traceTidFault, std::move(args));
}

void
TraceSink::requestPhase(WorkerId worker, const std::string &model,
                        std::uint64_t request, const char *phaseName,
                        Tick start, Tick end)
{
    if (!sampleRequest(request))
        return;
    span(TraceEventKind::RequestPhase,
         std::string("phase.") + phaseName, tracePidServer, worker,
         start, end,
         {TraceArg::u64("request", request),
          TraceArg::str("model", model),
          TraceArg::str("phase", phaseName)});
}

namespace
{

TraceRecord
flowRecord(char phase, std::uint64_t request, std::uint32_t pid,
           std::uint32_t tid, Tick ts)
{
    TraceRecord rec;
    rec.ts = ts;
    rec.kind = TraceEventKind::RequestFlow;
    rec.phase = phase;
    rec.pid = pid;
    rec.tid = tid;
    rec.flowId = request;
    rec.name = "request.flow";
    rec.args.push_back(TraceArg::u64("request", request));
    return rec;
}

} // namespace

void
TraceSink::requestFlowBegin(std::uint64_t request, std::uint32_t pid,
                            std::uint32_t tid)
{
    if (!sampleRequest(request))
        return;
    push(flowRecord('s', request, pid, tid, now()));
}

void
TraceSink::requestFlowStep(std::uint64_t request, std::uint32_t pid,
                           std::uint32_t tid)
{
    if (!sampleRequest(request))
        return;
    push(flowRecord('t', request, pid, tid, now()));
}

void
TraceSink::requestFlowEnd(std::uint64_t request, std::uint32_t pid,
                          std::uint32_t tid)
{
    if (!sampleRequest(request))
        return;
    push(flowRecord('f', request, pid, tid, now()));
}

void
TraceSink::counter(const std::string &name, std::uint32_t pid, Tick ts,
                   std::vector<TraceArg> values)
{
    TraceRecord rec;
    rec.ts = ts;
    rec.kind = TraceEventKind::CounterSample;
    rec.phase = 'C';
    rec.pid = pid;
    rec.tid = 0;
    rec.name = name;
    rec.args = std::move(values);
    push(std::move(rec));
}

void
TraceSink::clear()
{
    records_.clear();
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
TraceSink::serializeRecord(std::ostream &os,
                           const TraceRecord &rec) const
{
    os << "{\"name\":" << json::quote(rec.name)
       << ",\"cat\":" << json::quote(kindCategory(rec.kind))
       << ",\"ph\":\"" << rec.phase << "\""
       << ",\"ts\":" << ticksToUsJson(rec.ts);
    if (rec.phase == 'X')
        os << ",\"dur\":" << ticksToUsJson(rec.dur);
    if (rec.phase == 'i')
        os << ",\"s\":\"t\"";
    if (rec.phase == 's' || rec.phase == 't' || rec.phase == 'f') {
        os << ",\"id\":" << json::number(rec.flowId);
        // Bind the terminating arrow to the enclosing slice so
        // Perfetto draws it into the request span, not past it.
        if (rec.phase == 'f')
            os << ",\"bp\":\"e\"";
    }
    os << ",\"pid\":" << json::number(std::uint64_t(rec.pid))
       << ",\"tid\":" << json::number(std::uint64_t(rec.tid))
       << ",\"args\":{";
    // Counter tracks render every arg as a series; keep them pure
    // numbers (no "kind" tag, which would become a bogus series).
    bool first_arg = true;
    if (rec.phase != 'C') {
        os << "\"kind\":" << json::quote(traceEventKindName(rec.kind));
        first_arg = false;
    }
    for (const auto &arg : rec.args) {
        if (!first_arg)
            os << ",";
        first_arg = false;
        os << json::quote(arg.key) << ":" << arg.json;
    }
    os << "}}";
}

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

    for (const auto &rec : records_) {
        if (!first)
            os << ",";
        first = false;
        serializeRecord(os, rec);
    }
    os << "]}\n";
}

void
TraceSink::noteTrack(const TraceRecord &rec)
{
    stream_tracks_.insert({rec.pid, rec.tid});
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
