#include "server/request_recorder.hh"

namespace krisp
{

RequestRecorder::RequestRecorder(ObsContext *obs, bool queued)
    : obs_(obs), trace_(obs != nullptr ? &obs->trace : nullptr),
      queued_(queued)
{
    if (obs_ == nullptr)
        return;
    MetricsRegistry &m = obs_->metrics;
    queueMs_ = &m.percentiles("server.phase.queue_wait_ms");
    batchMs_ = &m.percentiles("server.phase.batch_wait_ms");
    execMs_ = &m.percentiles("server.phase.execute_ms");
    postMs_ = &m.percentiles("server.phase.postprocess_ms");
    reconfigMs_ = &m.percentiles("server.phase.reconfig_ms");
    latencyMs_ = &m.percentiles("server.latency_ms");
    latencyHistMs_ =
        &m.histogram("server.latency_hist_ms", 0.0, 500.0, 100);
}

void
RequestRecorder::enqueue(WorkerId tid, const std::string &model,
                         std::uint64_t id) const
{
    KRISP_TRACE_EVENT(trace_, requestEnqueue(tid, model, id));
}

void
RequestRecorder::drop(WorkerId tid, const std::string &model,
                      std::uint64_t id, const char *reason,
                      Tick now) const
{
    if (obs_ == nullptr)
        return;
    KRISP_TRACE_EVENT(trace_, requestDrop(tid, model, id, reason));
    obs_->timeline.recordDrop(now);
}

void
RequestRecorder::complete(WorkerId tid, const std::string &model,
                          std::uint64_t id, Tick arrival,
                          Tick dequeued, const ExecStamps &exec,
                          Tick done)
{
    if (obs_ == nullptr)
        return;
    KRISP_TRACE_EVENT(trace_,
                      requestSpan(tid, model, id, arrival, done));
    // Phases tiling [arrival, done] exactly: queued, batched +
    // preprocessed, executing, postprocessed.
    if (queued_) {
        KRISP_TRACE_EVENT(trace_,
                          requestPhase(tid, model, id, "queue_wait",
                                       arrival, dequeued));
    }
    KRISP_TRACE_EVENT(trace_,
                      requestPhase(tid, model, id, "batch_wait",
                                   dequeued, exec.launched));
    KRISP_TRACE_EVENT(trace_,
                      requestPhase(tid, model, id, "execute",
                                   exec.launched, exec.execDone));
    KRISP_TRACE_EVENT(trace_,
                      requestPhase(tid, model, id, "postprocess",
                                   exec.execDone, done));
    const double latency_ms = ticksToMs(done - arrival);
    queueMs_->add(ticksToMs(dequeued - arrival));
    batchMs_->add(ticksToMs(exec.launched - dequeued));
    execMs_->add(ticksToMs(exec.execDone - exec.launched));
    postMs_->add(ticksToMs(done - exec.execDone));
    reconfigMs_->add(ticksToMs(exec.protoWaitNs));
    latencyMs_->add(latency_ms);
    latencyHistMs_->add(latency_ms);
    obs_->timeline.recordRequest(done, latency_ms);
}

} // namespace krisp
