/**
 * @file
 * Second-generation observability tests: windowed timeline
 * accounting, deterministic request sampling, streaming trace
 * export, phase-breakdown reconciliation, obs health counters, the
 * JSON reader, SLO attainment math, and a golden krisp-report.
 *
 * The determinism contract under test: telemetry must never change
 * simulated results, and every exported artifact must be
 * byte-identical for any harness --jobs value.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_server.hh"
#include "common/stats.hh"
#include "harness/worker_pool.hh"
#include "obs/json.hh"
#include "obs/json_parse.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "obs/timeline.hh"
#include "server/inference_server.hh"
#include "server/load_generator.hh"

#ifndef KRISP_GOLDEN_DIR
#error "tests/CMakeLists.txt must define KRISP_GOLDEN_DIR"
#endif

namespace krisp
{
namespace
{

// ---- common/stats: LatencySummary ---------------------------------

TEST(LatencySummary, ExtractsPercentilesFromTracker)
{
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    const LatencySummary s = LatencySummary::from(t);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.meanMs, 50.5);
    EXPECT_DOUBLE_EQ(s.minMs, 1.0);
    EXPECT_DOUBLE_EQ(s.maxMs, 100.0);
    EXPECT_DOUBLE_EQ(s.p50Ms, t.percentile(0.50));
    EXPECT_DOUBLE_EQ(s.p95Ms, t.percentile(0.95));
    EXPECT_DOUBLE_EQ(s.p99Ms, t.percentile(0.99));
}

TEST(LatencySummary, EmptyTrackerYieldsZeros)
{
    PercentileTracker t;
    const LatencySummary s = LatencySummary::from(t);
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.meanMs, 0.0);
    EXPECT_DOUBLE_EQ(s.p99Ms, 0.0);
}

// ---- json: non-finite serialisation -------------------------------

TEST(JsonNonFinite, CountedAndSerialisedAsZero)
{
    json::resetNonFiniteCount();
    EXPECT_EQ(json::number(std::nan("")), "0");
    EXPECT_EQ(json::number(INFINITY), "0");
    EXPECT_EQ(json::number(-INFINITY), "0");
    EXPECT_EQ(json::nonFiniteCount(), 3u);
    EXPECT_EQ(json::number(1.5), "1.5");
    EXPECT_EQ(json::nonFiniteCount(), 3u);

    ObsContext obs;
    publishObsHealth(obs);
    EXPECT_DOUBLE_EQ(
        obs.metrics.counter("obs.nonfinite_values").value(), 3.0);
    // Re-publishing must not double-count.
    publishObsHealth(obs);
    EXPECT_DOUBLE_EQ(
        obs.metrics.counter("obs.nonfinite_values").value(), 3.0);
    json::resetNonFiniteCount();
    EXPECT_EQ(json::nonFiniteCount(), 0u);
}

// ---- trace sink: record-limit drops -------------------------------

TEST(TraceSink, LimitDropsAreCountedAndSurfaced)
{
    ObsContext obs;
    obs.trace.setLimit(10);
    for (std::uint64_t id = 0; id < 25; ++id)
        obs.trace.requestEnqueue(0, "m", id);
    EXPECT_EQ(obs.trace.size(), 10u);
    EXPECT_EQ(obs.trace.dropped(), 15u);
    publishObsHealth(obs);
    EXPECT_DOUBLE_EQ(
        obs.metrics.counter("obs.trace_dropped").value(), 15.0);
    publishObsHealth(obs);
    EXPECT_DOUBLE_EQ(
        obs.metrics.counter("obs.trace_dropped").value(), 15.0);
}

// ---- trace sink: deterministic sampling ---------------------------

std::set<std::uint64_t>
keptRequests(TraceSink &sink)
{
    std::set<std::uint64_t> kept;
    for (const TraceRecord &rec : sink.records())
        for (const auto &[key, value] : sink.args(rec))
            if (key == "request")
                kept.insert(std::strtoull(value.c_str(), nullptr, 10));
    return kept;
}

TEST(TraceSampling, SelectionIsAFunctionOfTheRequestId)
{
    TraceSink fwd;
    fwd.setSample(7);
    for (std::uint64_t id = 0; id < 500; ++id)
        fwd.requestEnqueue(0, "m", id);
    // Same ids in reverse order, mixed helpers: same kept set.
    TraceSink rev;
    rev.setSample(7);
    for (std::uint64_t id = 500; id-- > 0;)
        rev.requestSpan(3, "other", id, 0, 10);

    const auto kept_fwd = keptRequests(fwd);
    const auto kept_rev = keptRequests(rev);
    EXPECT_EQ(kept_fwd, kept_rev);
    // ~1/7 kept; the hash is not metronomic, allow wide slack.
    EXPECT_GT(kept_fwd.size(), 500u / 7 / 3);
    EXPECT_LT(kept_fwd.size(), 3 * 500u / 7);
    for (const std::uint64_t id : kept_fwd)
        EXPECT_TRUE(fwd.sampleRequest(id));
}

TEST(TraceSampling, AppliesToTheWholeLifecycle)
{
    TraceSink sink;
    sink.setSample(5);
    for (std::uint64_t id = 0; id < 100; ++id) {
        sink.requestEnqueue(0, "m", id);
        sink.requestSpan(0, "m", id, 0, 5);
        sink.requestPhase(0, "m", id, "execute", 1, 4);
        sink.requestFlowBegin(id, tracePidServer, traceTidRouter);
        sink.requestDrop(0, "m", id, "test");
    }
    std::size_t per_kind[5] = {};
    for (const TraceRecord &rec : sink.records()) {
        switch (rec.kind) {
          case TraceEventKind::RequestEnqueue: ++per_kind[0]; break;
          case TraceEventKind::RequestSpan: ++per_kind[1]; break;
          case TraceEventKind::RequestPhase: ++per_kind[2]; break;
          case TraceEventKind::RequestFlow: ++per_kind[3]; break;
          case TraceEventKind::RequestDrop: ++per_kind[4]; break;
          default: break;
        }
    }
    EXPECT_GT(per_kind[0], 0u);
    for (int k = 1; k < 5; ++k)
        EXPECT_EQ(per_kind[k], per_kind[0]);
    // Sampling off keeps every event.
    TraceSink all;
    all.setSample(1);
    for (std::uint64_t id = 0; id < 100; ++id)
        all.requestEnqueue(0, "m", id);
    EXPECT_EQ(all.size(), 100u);
}

// ---- timeline: window-boundary accounting -------------------------

TEST(Timeline, SplitsUtilizationAtWindowBoundaries)
{
    TimelineRecorder tl;
    EXPECT_FALSE(tl.enabled());
    tl.recordRequest(50, 1.0); // no-op while disabled
    EXPECT_TRUE(tl.windows().empty());

    tl.enable(1000);
    // 10 busy CUs at 100 W over [0, 2500), then idle to 3000.
    tl.recordUtilization(0, 10, 100.0);
    tl.recordUtilization(2500, 0, 50.0);
    tl.recordRequest(500, 2.0);
    tl.recordRequest(2400, 4.0);
    tl.recordDrop(1500);
    tl.finish(3000);

    ASSERT_EQ(tl.windows().size(), 3u);
    const auto &w = tl.windows();
    EXPECT_DOUBLE_EQ(w[0].cuBusyIntegral, 10.0 * 1000);
    EXPECT_DOUBLE_EQ(w[1].cuBusyIntegral, 10.0 * 1000);
    // Third window: 10 CUs for 500 ns, then 0 CUs for 500 ns.
    EXPECT_DOUBLE_EQ(w[2].cuBusyIntegral, 10.0 * 500);
    EXPECT_DOUBLE_EQ(w[2].wattsIntegral, 100.0 * 500 + 50.0 * 500);
    EXPECT_EQ(w[0].coveredNs, 1000u);
    EXPECT_EQ(w[2].coveredNs, 1000u);
    EXPECT_EQ(w[0].requests, 1u);
    EXPECT_EQ(w[2].requests, 1u);
    EXPECT_EQ(w[1].drops, 1u);
    EXPECT_EQ(tl.endNs(), 3000u);

    // JSON export round-trips through the reader.
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(tl.toJson(), v, err)) << err;
    EXPECT_DOUBLE_EQ(v.find("window_ns")->numberOr(0), 1000.0);
    ASSERT_TRUE(v.find("windows")->isArray());
    ASSERT_EQ(v.find("windows")->arr.size(), 3u);
    const json::Value &w2 = v.find("windows")->arr[2];
    EXPECT_DOUBLE_EQ(w2.find("cu_busy_mean")->numberOr(-1), 5.0);
    EXPECT_DOUBLE_EQ(w2.find("watts_mean")->numberOr(-1), 75.0);
}

TEST(Timeline, MergeOverlaysShardsOntoOneClusterView)
{
    TimelineRecorder a, b;
    a.enable(1000);
    b.enable(1000);
    a.recordUtilization(0, 4, 40.0);
    a.recordIoctl(100);
    a.recordRequest(200, 1.0);
    a.finish(1000);
    b.recordUtilization(0, 6, 60.0);
    b.recordBarrier(300);
    b.recordReconfig(400);
    b.recordElision(500);
    b.finish(1000);

    b.mergeInto(a);
    ASSERT_EQ(a.windows().size(), 1u);
    const TimelineWindow &w = a.windows()[0];
    EXPECT_DOUBLE_EQ(w.cuBusyIntegral, 4000.0 + 6000.0);
    EXPECT_EQ(w.coveredNs, 1000u); // max, not sum (overlay)
    EXPECT_EQ(w.ioctls, 1u);
    EXPECT_EQ(w.barriers, 1u);
    EXPECT_EQ(w.reconfigs, 1u);
    EXPECT_EQ(w.elisions, 1u);
    EXPECT_EQ(w.requests, 1u);
}

// ---- phase breakdown reconciles with e2e latency ------------------

OpenLoopConfig
smallOpenLoop()
{
    OpenLoopConfig cfg;
    cfg.model = "shufflenet";
    cfg.numWorkers = 2;
    cfg.arrivalRatePerSec = 400;
    cfg.warmupNs = ticksFromMs(20);
    cfg.measureNs = ticksFromMs(200);
    return cfg;
}

double
percentileMean(const MetricsRegistry &m, const std::string &name)
{
    return const_cast<MetricsRegistry &>(m).percentiles(name).mean();
}

TEST(PhaseBreakdown, SumsTileEndToEndLatencyOpenLoop)
{
    ObsContext obs;
    obs.timeline.enable(10'000'000);
    OpenLoopConfig cfg = smallOpenLoop();
    cfg.obs = &obs;
    const OpenLoopResult r = OpenLoopServer(cfg).run();
    ASSERT_GT(r.served, 0u);

    const double sum =
        percentileMean(obs.metrics, "server.phase.queue_wait_ms") +
        percentileMean(obs.metrics, "server.phase.batch_wait_ms") +
        percentileMean(obs.metrics, "server.phase.execute_ms") +
        percentileMean(obs.metrics, "server.phase.postprocess_ms");
    const double e2e =
        percentileMean(obs.metrics, "server.latency_ms");
    // The four phases tile [arrival, complete] exactly in ticks;
    // only double rounding separates the sums.
    EXPECT_NEAR(sum, e2e, 1e-9 * std::max(1.0, e2e));

    // The timeline saw every completion and the device fed power.
    std::uint64_t timeline_requests = 0;
    double covered = 0;
    for (const TimelineWindow &w : obs.timeline.windows()) {
        timeline_requests += w.requests;
        covered += static_cast<double>(w.coveredNs);
    }
    EXPECT_EQ(
        timeline_requests,
        static_cast<std::uint64_t>(
            obs.metrics.percentiles("server.latency_ms").count()));
    EXPECT_GT(covered, 0.0);
}

TEST(PhaseBreakdown, ClusterRunWithSampledTraceReconciles)
{
    ObsContext obs;
    obs.timeline.enable(10'000'000);
    obs.trace.setSample(50);
    ClusterConfig cfg;
    cfg.numShards = 2;
    cfg.workersPerShard = 2;
    cfg.models = {"shufflenet"};
    cfg.arrivalRatePerSec = 400;
    cfg.warmupNs = ticksFromMs(20);
    cfg.measureNs = ticksFromMs(200);
    cfg.obs = &obs;
    const ClusterResult r = ClusterServer(cfg).run();
    ASSERT_GT(r.served, 0u);

    const double sum =
        percentileMean(obs.metrics, "server.phase.queue_wait_ms") +
        percentileMean(obs.metrics, "server.phase.batch_wait_ms") +
        percentileMean(obs.metrics, "server.phase.execute_ms") +
        percentileMean(obs.metrics, "server.phase.postprocess_ms");
    const double e2e =
        percentileMean(obs.metrics, "server.latency_ms");
    EXPECT_NEAR(sum, e2e, 1e-9 * std::max(1.0, e2e));

    // Sampling bounded the request records: far fewer request spans
    // than requests served, but the kept ones carry flow arrows.
    std::size_t spans = 0, flows = 0;
    for (const TraceRecord &rec : obs.trace.records()) {
        if (rec.kind == TraceEventKind::RequestSpan)
            ++spans;
        if (rec.kind == TraceEventKind::RequestFlow)
            ++flows;
    }
    EXPECT_LT(spans, static_cast<std::size_t>(r.served) / 10);
    EXPECT_GT(flows, 0u);

    // Shard timelines merged: device coverage and protocol activity
    // arrive from the shards, requests from the cluster frontend.
    std::uint64_t requests = 0;
    double covered = 0;
    for (const TimelineWindow &w : obs.timeline.windows()) {
        requests += w.requests;
        covered += static_cast<double>(w.coveredNs);
    }
    EXPECT_GT(requests, 0u);
    EXPECT_GT(covered, 0.0);

    // Kernel attribution rolled up under the shard prefixes.
    const std::string snapshot = obs.metrics.toJson();
    EXPECT_NE(snapshot.find("cluster.shard0.gpu.kernel."),
              std::string::npos);
}

// ---- streaming export ---------------------------------------------

TEST(TraceStreaming, StreamedFileMatchesRetainedRecords)
{
    const std::string path =
        ::testing::TempDir() + "/krisp_stream_trace.json";

    auto run = [](ObsContext &obs) {
        OpenLoopConfig cfg;
        cfg.model = "shufflenet";
        cfg.numWorkers = 2;
        cfg.arrivalRatePerSec = 200;
        cfg.warmupNs = ticksFromMs(10);
        cfg.measureNs = ticksFromMs(50);
        cfg.obs = &obs;
        return OpenLoopServer(cfg).run();
    };

    ObsContext retained;
    run(retained);
    ASSERT_GT(retained.trace.size(), 0u);

    ObsContext streamed;
    ASSERT_TRUE(streamed.trace.openStream(path));
    run(streamed);
    EXPECT_TRUE(streamed.trace.streaming());
    EXPECT_EQ(streamed.trace.size(), 0u); // nothing retained
    streamed.trace.closeStream();

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(text.str(), v, err)) << err;
    const json::Value *events = v.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    std::size_t data_events = 0;
    for (const json::Value &ev : events->arr) {
        const json::Value *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->stringOr("") != "M")
            ++data_events;
    }
    EXPECT_EQ(data_events, retained.trace.size());
    std::remove(path.c_str());
}

// ---- harness: byte-identical telemetry for any --jobs -------------

TEST(HarnessTelemetry, ArtifactsAreByteIdenticalAcrossJobs)
{
    const std::vector<std::string> models = {"shufflenet", "alexnet",
                                             "vgg19"};
    // One island per model, each with its own context: 5 ms timeline
    // windows and 1/3 request sampling, set by the caller.
    auto runIslands = [&](unsigned jobs) {
        std::vector<std::unique_ptr<ObsContext>> out(models.size());
        harness::WorkerPool(jobs).forEachIndex(
            models.size(), [&](std::size_t i) {
                auto obs = std::make_unique<ObsContext>();
                obs->timeline.enable(ticksFromMs(5.0));
                obs->trace.setSample(3);
                ServerConfig cfg;
                cfg.workerModels = {models[i], models[i]};
                cfg.batch = 4;
                cfg.warmupRequests = 1;
                cfg.measuredRequests = 3;
                cfg.obs = obs.get();
                InferenceServer(cfg).run();
                out[i] = std::move(obs);
            });
        return out;
    };
    const auto seq = runIslands(1);
    const auto par = runIslands(8);

    for (std::size_t i = 0; i < models.size(); ++i) {
        EXPECT_EQ(seq[i]->metrics.toJson(), par[i]->metrics.toJson())
            << "metrics diverged for " << models[i];
        EXPECT_EQ(seq[i]->timeline.toJson(), par[i]->timeline.toJson())
            << "timeline diverged for " << models[i];
        EXPECT_EQ(seq[i]->trace.toChromeJson(),
                  par[i]->trace.toChromeJson())
            << "trace diverged for " << models[i];
        EXPECT_FALSE(seq[i]->timeline.windows().empty());
        EXPECT_GT(seq[i]->trace.size(), 0u);
    }
}

// ---- json reader --------------------------------------------------

TEST(JsonParse, ReadsScalarsContainersAndEscapes)
{
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(
        R"({"a":[1,-2.5,true,false,null],"s":"q\" \u0041\u00e9\ud83d\ude00","n":{"x":3e2}})",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    const json::Value *a = v.find("a");
    ASSERT_TRUE(a != nullptr && a->isArray());
    ASSERT_EQ(a->arr.size(), 5u);
    EXPECT_DOUBLE_EQ(a->arr[0].numberOr(0), 1.0);
    EXPECT_DOUBLE_EQ(a->arr[1].numberOr(0), -2.5);
    EXPECT_TRUE(a->arr[2].boolean);
    EXPECT_TRUE(a->arr[4].isNull());
    EXPECT_EQ(v.find("s")->stringOr(""),
              "q\" A\xc3\xa9\xf0\x9f\x98\x80");
    EXPECT_DOUBLE_EQ(v.find("n", "x")->numberOr(0), 300.0);

    EXPECT_FALSE(json::parse("{\"a\":}", v, err));
    EXPECT_FALSE(json::parse("[1,2", v, err));
    EXPECT_FALSE(json::parse("7 trailing", v, err));
    EXPECT_FALSE(json::parse("\"\\ud800\"", v, err));
}

// ---- SLO attainment math ------------------------------------------

json::Value
histFixture()
{
    // lo=0, hi=100, 10 bins of 10 requests each, 5 underflow
    // (attained) and 5 overflow (missed): total 110.
    json::Value v;
    std::string err;
    EXPECT_TRUE(json::parse(
        R"({"lo":0,"hi":100,"total":110,"underflow":5,"overflow":5,)"
        R"("bins":[10,10,10,10,10,10,10,10,10,10]})",
        v, err))
        << err;
    return v;
}

TEST(SloAttainment, InterpolatesInsideTheStraddlingBin)
{
    const json::Value hist = histFixture();
    // Deadline at 25 ms: underflow + 2 full bins + half of bin 2.
    EXPECT_NEAR(sloAttainment(hist, 25.0), (5 + 20 + 5) / 110.0,
                1e-12);
    // On an exact bin edge there is no fractional part.
    EXPECT_NEAR(sloAttainment(hist, 50.0), (5 + 50) / 110.0, 1e-12);
    // Below lo only the underflow attained; at/above hi only the
    // overflow missed.
    EXPECT_NEAR(sloAttainment(hist, -1.0), 5 / 110.0, 1e-12);
    EXPECT_NEAR(sloAttainment(hist, 100.0), 105 / 110.0, 1e-12);
    EXPECT_NEAR(sloAttainment(hist, 500.0), 105 / 110.0, 1e-12);

    json::Value empty;
    std::string err;
    ASSERT_TRUE(json::parse(R"({"lo":0,"hi":1,"total":0,"bins":[0]})",
                            empty, err));
    EXPECT_LT(sloAttainment(empty, 0.5), 0.0);
}

TEST(ReportResilience, RendersClusterAccountingWhenPresent)
{
    // A resilient cluster run's snapshot gets the full section:
    // fate partition, conservation verdict, recovery counters.
    ObsContext obs;
    ClusterConfig cfg;
    cfg.numShards = 2;
    cfg.models = {"squeezenet"};
    cfg.workersPerShard = 2;
    cfg.arrivalRatePerSec = 400.0;
    cfg.warmupNs = ticksFromMs(50);
    cfg.measureNs = ticksFromMs(300);
    cfg.obs = &obs;
    cfg.resilience.enabled = true;
    cfg.faults.shardCrashRatePerSec = 4.0;
    cfg.faults.shardRestartNs = ticksFromMs(15.0);
    ClusterServer(cfg).run();

    json::Value metrics;
    std::string err;
    ASSERT_TRUE(json::parse(obs.metrics.toJson(), metrics, err))
        << err;
    const std::string report =
        generateReport(metrics, nullptr, {}, ReportOptions{});
    EXPECT_NE(report.find("== resilience =="), std::string::npos);
    EXPECT_NE(report.find("conservation: OK"), std::string::npos);
    EXPECT_NE(report.find("shard crashes"), std::string::npos);
    EXPECT_NE(report.find("warm restarts"), std::string::npos);
    EXPECT_EQ(report.find("single-GPU snapshot"), std::string::npos);

    // A single-GPU snapshot (no cluster.resilience.* gauges) gets
    // the placeholder instead of a fabricated table.
    json::Value empty;
    ASSERT_TRUE(json::parse(R"({"gauges":{}})", empty, err)) << err;
    const std::string placeholder =
        generateReport(empty, nullptr, {}, ReportOptions{});
    EXPECT_NE(placeholder.find("single-GPU snapshot"),
              std::string::npos);
}

// ---- golden krisp-report ------------------------------------------

void
compareWithGolden(const std::string &name, const std::string &actual)
{
    const std::string path =
        std::string(KRISP_GOLDEN_DIR) + "/" + name;
    const char *env = std::getenv("KRISP_UPDATE_GOLDEN");
    if (env != nullptr && env[0] == '1') {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with KRISP_UPDATE_GOLDEN=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "golden mismatch for " << name
        << "; if the change is intended, rerun with "
           "KRISP_UPDATE_GOLDEN=1 and commit the new snapshot";
}

TEST(Golden, KrispReportMini)
{
    // Deterministic serving run with full telemetry...
    ObsContext obs;
    obs.timeline.enable(10'000'000);
    OpenLoopConfig cfg = smallOpenLoop();
    cfg.obs = &obs;
    OpenLoopServer(cfg).run();

    json::Value metrics, timeline, bench;
    std::string err;
    ASSERT_TRUE(json::parse(obs.metrics.toJson(), metrics, err))
        << err;
    ASSERT_TRUE(json::parse(obs.timeline.toJson(), timeline, err))
        << err;
    // ...plus the fig12_mini metrics snapshot as a bench appendix.
    ASSERT_TRUE(json::parseFile(std::string(KRISP_GOLDEN_DIR) +
                                    "/fig12_mini.json",
                                bench, err))
        << err;

    ReportOptions opts;
    opts.sloMs = 25.0;
    opts.topK = 5;
    const std::string report = generateReport(
        metrics, &timeline, {{"fig12_mini", std::move(bench)}},
        opts);
    compareWithGolden("report_mini.txt", report);
}

} // namespace
} // namespace krisp
