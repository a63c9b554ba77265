/**
 * @file
 * Per-request telemetry shared by the serving loops.
 *
 * The closed loop, the open loop and the cluster report a request the
 * same way: an enqueue record, then either a drop record or a request
 * span with phase spans tiling [arrival, done] exactly, the seven
 * "server.phase.*" / "server.latency_*" instruments and the timeline's
 * request / drop feed. The recorder owns that once; without an
 * ObsContext every call is a no-op.
 */

#ifndef KRISP_SERVER_REQUEST_RECORDER_HH
#define KRISP_SERVER_REQUEST_RECORDER_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "hip/stream.hh"
#include "obs/obs.hh"

namespace krisp
{

/** Execution stamps of one launched kernel sequence. */
struct ExecStamps
{
    /** Kernels handed to the stream (preprocess done). */
    Tick launched = 0;
    /** Completion signal hit zero. */
    Tick execDone = 0;
    /** Stream protocol-wait total at launch (delta = this launch). */
    Tick protoBase = 0;
    /** Protocol wait while executing (informational, not a tile). */
    Tick protoWaitNs = 0;

    /** The kernels went out on @p stream at @p now. */
    void
    launch(const Stream &stream, Tick now)
    {
        launched = now;
        protoBase = stream.protocolWaitNs();
    }

    /** The completion signal hit zero at @p now. */
    void
    finish(const Stream &stream, Tick now)
    {
        execDone = now;
        protoWaitNs = stream.protocolWaitNs() - protoBase;
    }
};

/** Request lifecycle telemetry for one serving run. */
class RequestRecorder
{
  public:
    /**
     * Registers the seven instruments in @p obs (null records
     * nothing). @p queued is false for a loop without a frontend
     * queue (the closed loop): its queue wait is identically zero and
     * gets no trace phase; the other three phases tile the span.
     */
    RequestRecorder(ObsContext *obs, bool queued);

    /** Request @p id entered the frontend on track @p tid. */
    void enqueue(WorkerId tid, const std::string &model,
                 std::uint64_t id) const;

    /** Request @p id was dropped or shed at @p now for @p reason. */
    void drop(WorkerId tid, const std::string &model, std::uint64_t id,
              const char *reason, Tick now) const;

    /**
     * Request @p id completed at @p done: admitted at @p arrival, out
     * of the frontend queue at @p dequeued, executed per @p exec.
     */
    void complete(WorkerId tid, const std::string &model,
                  std::uint64_t id, Tick arrival, Tick dequeued,
                  const ExecStamps &exec, Tick done);

  private:
    ObsContext *obs_;
    TraceSink *trace_;
    bool queued_;
    PercentileTracker *queueMs_ = nullptr;
    PercentileTracker *batchMs_ = nullptr;
    PercentileTracker *execMs_ = nullptr;
    PercentileTracker *postMs_ = nullptr;
    PercentileTracker *reconfigMs_ = nullptr;
    PercentileTracker *latencyMs_ = nullptr;
    Histogram *latencyHistMs_ = nullptr;
};

} // namespace krisp

#endif // KRISP_SERVER_REQUEST_RECORDER_HH
