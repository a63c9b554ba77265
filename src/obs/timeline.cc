#include "obs/timeline.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/trace_sink.hh"

namespace krisp
{

void
TimelineRecorder::enable(Tick windowNs)
{
    fatal_if(!windows_.empty(),
             "TimelineRecorder::enable after recording started");
    window_ns_ = windowNs;
}

TimelineWindow &
TimelineRecorder::windowAt(Tick t)
{
    const auto idx = static_cast<std::size_t>(t / window_ns_);
    if (idx >= windows_.size())
        windows_.resize(idx + 1);
    end_ns_ = std::max(end_ns_, t);
    return windows_[idx];
}

void
TimelineRecorder::recordRequest(Tick t, double latencyMs)
{
    if (!enabled())
        return;
    auto &w = windowAt(t);
    ++w.requests;
    w.latencyMs.add(latencyMs);
}

void
TimelineRecorder::recordDrop(Tick t)
{
    if (!enabled())
        return;
    ++windowAt(t).drops;
}

void
TimelineRecorder::recordIoctl(Tick t)
{
    if (!enabled())
        return;
    ++windowAt(t).ioctls;
}

void
TimelineRecorder::recordBarrier(Tick t)
{
    if (!enabled())
        return;
    ++windowAt(t).barriers;
}

void
TimelineRecorder::recordReconfig(Tick t)
{
    if (!enabled())
        return;
    ++windowAt(t).reconfigs;
}

void
TimelineRecorder::recordElision(Tick t)
{
    if (!enabled())
        return;
    ++windowAt(t).elisions;
}

void
TimelineRecorder::advanceTo(Tick t)
{
    panic_if(t < util_ts_, "timeline utilization sample in the past");
    // Integrate the current level over [util_ts_, t), splitting the
    // segment at every window boundary it crosses so each window's
    // integral covers exactly its own width.
    while (util_ts_ < t) {
        auto &w = windowAt(util_ts_);
        const Tick window_end =
            (util_ts_ / window_ns_ + 1) * window_ns_;
        const Tick seg_end = std::min(t, window_end);
        const Tick dt = seg_end - util_ts_;
        w.cuBusyIntegral +=
            static_cast<double>(cur_busy_cus_) * double(dt);
        w.wattsIntegral += cur_watts_ * double(dt);
        w.coveredNs += dt;
        util_ts_ = seg_end;
    }
    util_ts_ = t;
}

void
TimelineRecorder::recordUtilization(Tick t, unsigned busyCus,
                                    double watts)
{
    if (!enabled())
        return;
    advanceTo(t);
    cur_busy_cus_ = busyCus;
    cur_watts_ = watts;
    util_seen_ = true;
    end_ns_ = std::max(end_ns_, t);
}

void
TimelineRecorder::finish(Tick endNs)
{
    if (!enabled())
        return;
    end_ns_ = std::max(end_ns_, endNs);
    // Only integrate the tail for timelines a device actually fed;
    // a server-level overlay timeline has no utilization signal and
    // must not fabricate a zero-power one.
    if (util_seen_ && util_ts_ < end_ns_)
        advanceTo(end_ns_);
}

void
TimelineRecorder::mergeInto(TimelineRecorder &dst) const
{
    if (!enabled())
        return;
    fatal_if(!dst.enabled(),
             "TimelineRecorder::mergeInto a disabled timeline");
    fatal_if(dst.window_ns_ != window_ns_,
             "TimelineRecorder::mergeInto window width mismatch: ",
             dst.window_ns_, " vs ", window_ns_);
    if (dst.windows_.size() < windows_.size())
        dst.windows_.resize(windows_.size());
    for (std::size_t i = 0; i < windows_.size(); ++i) {
        const auto &src = windows_[i];
        auto &out = dst.windows_[i];
        out.requests += src.requests;
        out.drops += src.drops;
        out.ioctls += src.ioctls;
        out.barriers += src.barriers;
        out.reconfigs += src.reconfigs;
        out.elisions += src.elisions;
        out.cuBusyIntegral += src.cuBusyIntegral;
        out.wattsIntegral += src.wattsIntegral;
        // Overlay semantics: shards cover the same wall-window, so
        // summed integrals over max covered time give cluster means.
        out.coveredNs = std::max(out.coveredNs, src.coveredNs);
        out.latencyMs.merge(src.latencyMs);
    }
    dst.end_ns_ = std::max(dst.end_ns_, end_ns_);
}

void
TimelineRecorder::writeJson(std::ostream &os) const
{
    os << "{\"window_ns\":" << json::number(window_ns_)
       << ",\"end_ns\":" << json::number(end_ns_)
       << ",\"windows\":[";
    for (std::size_t i = 0; i < windows_.size(); ++i) {
        const auto &w = windows_[i];
        if (i != 0)
            os << ",";
        os << "{\"start_ns\":"
           << json::number(Tick(i) * window_ns_)
           << ",\"requests\":" << json::number(w.requests)
           << ",\"drops\":" << json::number(w.drops)
           << ",\"ioctls\":" << json::number(w.ioctls)
           << ",\"barriers\":" << json::number(w.barriers)
           << ",\"reconfigs\":" << json::number(w.reconfigs)
           << ",\"elisions\":" << json::number(w.elisions)
           << ",\"latency_ms\":{\"count\":"
           << json::number(std::uint64_t(w.latencyMs.count()));
        if (!w.latencyMs.empty()) {
            os << ",\"p50\":"
               << json::number(w.latencyMs.percentile(0.50))
               << ",\"p99\":"
               << json::number(w.latencyMs.percentile(0.99));
        }
        os << "}";
        const double covered = double(w.coveredNs);
        os << ",\"covered_ns\":" << json::number(w.coveredNs)
           << ",\"cu_busy_mean\":"
           << json::number(covered > 0 ? w.cuBusyIntegral / covered
                                       : 0.0)
           << ",\"watts_mean\":"
           << json::number(covered > 0 ? w.wattsIntegral / covered
                                       : 0.0)
           << "}";
    }
    os << "]}\n";
}

std::string
TimelineRecorder::toJson() const
{
    std::ostringstream oss;
    writeJson(oss);
    return oss.str();
}

bool
TimelineRecorder::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        warn("cannot open timeline file ", path);
        return false;
    }
    writeJson(out);
    return out.good();
}

void
TimelineRecorder::emitCounterTracks(TraceSink &sink) const
{
    if (!enabled() || !sink.enabled())
        return;
    const double window_s = double(window_ns_) / 1e9;
    for (std::size_t i = 0; i < windows_.size(); ++i) {
        const auto &w = windows_[i];
        const Tick ts = Tick(i) * window_ns_;
        sink.counter("timeline.rps", tracePidServer, ts,
                     {TraceArg::f64(sink.intern("rps"),
                                    double(w.requests) / window_s),
                      TraceArg::f64(sink.intern("drops_per_s"),
                                    double(w.drops) / window_s)});
        if (!w.latencyMs.empty()) {
            sink.counter(
                "timeline.latency_ms", tracePidServer, ts,
                {TraceArg::f64(sink.intern("p50"),
                               w.latencyMs.percentile(0.50)),
                 TraceArg::f64(sink.intern("p99"),
                               w.latencyMs.percentile(0.99))});
        }
        if (w.coveredNs > 0) {
            const double covered = double(w.coveredNs);
            sink.counter(
                "timeline.cu_busy", tracePidGpu, ts,
                {TraceArg::f64(sink.intern("cus"),
                               w.cuBusyIntegral / covered)});
            sink.counter(
                "timeline.watts", tracePidGpu, ts,
                {TraceArg::f64(sink.intern("watts"),
                               w.wattsIntegral / covered)});
        }
        sink.counter("timeline.protocol", tracePidHost, ts,
                     {TraceArg::u64(sink.intern("ioctls"), w.ioctls),
                      TraceArg::u64(sink.intern("barriers"), w.barriers),
                      TraceArg::u64(sink.intern("reconfigs"),
                                    w.reconfigs),
                      TraceArg::u64(sink.intern("elisions"),
                                    w.elisions)});
    }
}

} // namespace krisp
