/**
 * @file
 * Unit tests for the observability subsystem: trace sink event
 * ordering and export formats, metrics registry lifecycle, and the
 * two system-level guarantees — byte-identical traces across
 * identical runs, and identical simulated-time results with the
 * tracing enabled or absent.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "server/inference_server.hh"

namespace
{
/** Every operator new in this test binary, for the heap-bound test. */
std::atomic<std::uint64_t> heap_allocations{0};
} // namespace

// All out of line: inlined, they would show the compiler malloc()
// and free() paired with operator delete and operator new, and trip
// -Wmismatched-new-delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    ++heap_allocations;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace krisp
{
namespace
{

// ---- minimal JSON parser (validation only) ----------------------
//
// Recursive-descent parser for the subset of RFC 8259 the exporters
// emit. Parsing back the generated output is the well-formedness
// check; the structural assertions below use the returned tree.

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    double number = 0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue &out)
    {
        pos_ = 0;
        if (!value(out))
            return false;
        skipWs();
        return pos_ == text_.size(); // no trailing garbage
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object(out);
          case '[': return array(out);
          case '"':
            out.type = JsonValue::Type::String;
            return string(out.string);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.number = 1;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            return literal("false");
          case 'n':
            return literal("null");
          default: return number(out);
        }
    }

    bool
    string(std::string &out)
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                switch (text_[pos_]) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u':
                    if (pos_ + 4 >= text_.size())
                        return false;
                    pos_ += 4; // escaped control char; drop it
                    break;
                  default: return false;
                }
                ++pos_;
            } else {
                out += text_[pos_++];
            }
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return false;
        out.type = JsonValue::Type::Number;
        out.number = std::stod(text_.substr(start, pos_ - start));
        return true;
    }

    bool
    array(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue elem;
            if (!value(elem))
                return false;
            out.array.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    object(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || !string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return false;
            ++pos_;
            JsonValue val;
            if (!value(val))
                return false;
            out.object.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return false;
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

// ---- shared fixture: one tiny traced server run ------------------

ServerConfig
tracedConfig(ObsContext *obs)
{
    ServerConfig cfg;
    cfg.workerModels = {"shufflenet"};
    cfg.batch = 8;
    cfg.policy = PartitionPolicy::KrispIsolated;
    cfg.enforcement = EnforcementMode::Emulated;
    cfg.warmupRequests = 1;
    cfg.measuredRequests = 2;
    cfg.obs = obs;
    return cfg;
}

// ---- trace sink basics ------------------------------------------

TEST(TraceSink, RecordsInInsertionOrderWithStableSeq)
{
    TraceSink sink;
    sink.rightSize("gemm", 12, "native");
    sink.maskReconfig(0, 0xffull, 8);
    sink.barrierInject(0, "B1-drain");
    sink.span(TraceEventKind::KernelSpan, "k", tracePidGpu, 0, 100,
              250);

    ASSERT_EQ(sink.size(), 4u);
    const auto &recs = sink.records();
    for (std::size_t i = 0; i < recs.size(); ++i)
        EXPECT_EQ(recs[i].seq, i);
    EXPECT_EQ(recs[0].kind, TraceEventKind::RightSize);
    EXPECT_EQ(recs[3].phase, 'X');
    EXPECT_EQ(recs[3].ts, 100u);
    EXPECT_EQ(recs[3].dur, 150u);
}

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    TraceSink sink;
    sink.setEnabled(false);
    sink.rightSize("gemm", 12, "native");
    sink.maskReconfig(0, 0xffull, 8);
    EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, MacroSkipsArgumentEvaluationWhenDisabled)
{
    TraceSink sink;
    sink.setEnabled(false);
    TraceSink *ptr = &sink;
    int evals = 0;
    auto name = [&] {
        ++evals;
        return std::string("gemm");
    };
    KRISP_TRACE_EVENT(ptr, rightSize(name(), 12, "native"));
    EXPECT_EQ(evals, 0);

    TraceSink *null_sink = nullptr;
    KRISP_TRACE_EVENT(null_sink, rightSize(name(), 12, "native"));
    EXPECT_EQ(evals, 0);

    sink.setEnabled(true);
    KRISP_TRACE_EVENT(ptr, rightSize(name(), 12, "native"));
    EXPECT_EQ(evals, 1);
    EXPECT_EQ(sink.size(), 1u);
}

TEST(TraceSink, ClearDropsRecords)
{
    TraceSink sink;
    sink.barrierProcess(3, 1);
    EXPECT_EQ(sink.size(), 1u);
    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    sink.barrierProcess(3, 1);
    EXPECT_EQ(sink.records()[0].seq, 0u); // seq restarts after clear
}

TEST(TraceSink, RecordLimitStopsRecording)
{
    TraceSink sink;
    sink.setLimit(2);
    sink.barrierProcess(0, 1);
    sink.barrierProcess(0, 1);
    sink.barrierProcess(0, 1);
    EXPECT_EQ(sink.size(), 2u);
}

/**
 * The four records a traced kernel writes — dispatch, a 4-SE
 * workgroup split, the right-size decision and the execution span —
 * stay off the heap once the kernel names are interned: only the
 * record and argument stores' chunks are allocated.
 */
TEST(TraceSink, KernelRecordsStayOffTheHeap)
{
    constexpr std::uint64_t kernels = 50'000;
    const std::string names[] = {
        "resnet152.layer3.conv2d_3x3_bn_relu_b32",
        "resnet152.layer4.conv2d_1x1_bn_b32",
        "resnet152.fc.gemm_2048x1000_b32"};
    const std::vector<unsigned> per_se = {25, 25, 25, 24};
    TraceSink sink;
    const auto kernel = [&](std::uint64_t id) {
        const std::string &name = names[id % 3];
        const QueueId queue = static_cast<QueueId>(id % 4);
        sink.kernelDispatch(id, queue, name, 15);
        sink.wgDispatch(id, queue, 99, per_se);
        sink.rightSize(name, 15, "native");
        sink.kernelSpan(id, queue, name, 0x7fffull, 15, 10 * id,
                        10 * id + 3, 10 * id + 9);
    };
    for (std::uint64_t id = 0; id < 16; ++id) // interns every name
        kernel(id);

    const std::uint64_t before = heap_allocations.load();
    for (std::uint64_t id = 0; id < kernels; ++id)
        kernel(id);
    const std::uint64_t allocations = heap_allocations.load() - before;
    EXPECT_EQ(sink.size(), 4 * (kernels + 16));
    EXPECT_LE(allocations, 2 * kernels)
        << double(allocations) / double(kernels)
        << " heap allocations per kernel";
}

TEST(TraceSinkDeath, SpanEndBeforeStart)
{
    TraceSink sink;
    EXPECT_DEATH(sink.span(TraceEventKind::KernelSpan, "k",
                           tracePidGpu, 0, /*start=*/10, /*end=*/5),
                 "ends before");
}

// ---- Chrome JSON export -----------------------------------------

TEST(TraceSink, ChromeJsonParsesBackAndCarriesEvents)
{
    ObsContext obs;
    InferenceServer(tracedConfig(&obs)).run();
    ASSERT_GT(obs.trace.size(), 0u);

    JsonValue root;
    ASSERT_TRUE(JsonParser(obs.trace.toChromeJson()).parse(root));
    ASSERT_EQ(root.type, JsonValue::Type::Object);
    const JsonValue *unit = root.find("displayTimeUnit");
    ASSERT_NE(unit, nullptr);
    EXPECT_EQ(unit->string, "ns");

    const JsonValue *events = root.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->type, JsonValue::Type::Array);
    // Records plus at least one metadata event per used track.
    EXPECT_GT(events->array.size(), obs.trace.size());

    bool saw_metadata = false, saw_kernel_span = false;
    bool saw_mask_reconfig = false, saw_request_span = false;
    for (const auto &ev : events->array) {
        ASSERT_EQ(ev.type, JsonValue::Type::Object);
        // Every event carries the mandatory Chrome fields.
        ASSERT_NE(ev.find("name"), nullptr);
        ASSERT_NE(ev.find("ph"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        const std::string &ph = ev.find("ph")->string;
        if (ph == "M") {
            saw_metadata = true;
            continue;
        }
        ASSERT_NE(ev.find("ts"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        // The taxonomy entry rides in args.kind on every event.
        const JsonValue *args = ev.find("args");
        ASSERT_NE(args, nullptr);
        ASSERT_NE(args->find("kind"), nullptr);
        const std::string &kind = args->find("kind")->string;
        if (kind == "kernel.span") {
            saw_kernel_span = true;
            EXPECT_EQ(ph, "X");
            ASSERT_NE(ev.find("dur"), nullptr);
            EXPECT_NE(args->find("cus"), nullptr);
            EXPECT_NE(args->find("mask"), nullptr);
        } else if (kind == "mask.reconfig") {
            saw_mask_reconfig = true;
        } else if (kind == "request.span") {
            saw_request_span = true;
            // Worker/model attribution on every request span.
            ASSERT_NE(args->find("worker"), nullptr);
            ASSERT_NE(args->find("model"), nullptr);
            EXPECT_EQ(args->find("model")->string, "shufflenet");
        }
    }
    EXPECT_TRUE(saw_metadata);
    EXPECT_TRUE(saw_kernel_span);
    EXPECT_TRUE(saw_mask_reconfig); // emulated enforcement reconfigs
    EXPECT_TRUE(saw_request_span);
}

TEST(TraceSink, RecordsAreAppendedInSimulatedTimeOrder)
{
    ObsContext obs;
    InferenceServer(tracedConfig(&obs)).run();
    Tick last_recorded = 0;
    for (const auto &rec : obs.trace.records()) {
        // Events are recorded in simulated-time order.
        EXPECT_GE(rec.recordedAt, last_recorded);
        last_recorded = rec.recordedAt;
    }
}

TEST(TraceSink, RunsUnbindTheirClock)
{
    ObsContext obs;
    InferenceServer(tracedConfig(&obs)).run();
    // The run's event queue is gone: a record made after it (the
    // timeline's counter tracks, say) must not read its clock.
    obs.trace.barrierProcess(0, 1);
    EXPECT_EQ(obs.trace.records().back().ts, 0u);
    EXPECT_EQ(obs.trace.records().back().recordedAt, 0u);
}

// ---- determinism and non-interference ---------------------------

TEST(Obs, IdenticalRunsProduceByteIdenticalTraces)
{
    ObsContext a, b;
    InferenceServer(tracedConfig(&a)).run();
    InferenceServer(tracedConfig(&b)).run();
    ASSERT_GT(a.trace.size(), 0u);
    EXPECT_EQ(a.trace.toChromeJson(), b.trace.toChromeJson());
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
}

TEST(Obs, TracingDoesNotChangeSimulatedResults)
{
    ObsContext obs;
    const ServerResult traced =
        InferenceServer(tracedConfig(&obs)).run();
    const ServerResult plain =
        InferenceServer(tracedConfig(nullptr)).run();
    EXPECT_EQ(traced.completed, plain.completed);
    EXPECT_EQ(traced.totalRps, plain.totalRps);
    EXPECT_EQ(traced.maxP95Ms, plain.maxP95Ms);
    EXPECT_EQ(traced.measureSeconds, plain.measureSeconds);
    EXPECT_EQ(traced.energyPerInferenceJ, plain.energyPerInferenceJ);
}

// ---- metrics registry -------------------------------------------

TEST(MetricsRegistry, RegisterOrFetchSharesInstruments)
{
    MetricsRegistry reg;
    Counter &c1 = reg.counter("krisp.launches");
    Counter &c2 = reg.counter("krisp.launches");
    EXPECT_EQ(&c1, &c2);
    c1.inc(3);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_TRUE(reg.has("krisp.launches"));
    EXPECT_FALSE(reg.has("absent"));
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, SnapshotContainsAllInstrumentKinds)
{
    MetricsRegistry reg;
    reg.counter("c").inc(7);
    reg.gauge("g").set(2.5);
    reg.label("l").set("hello");
    reg.accumulator("a").add(1.0);
    reg.accumulator("a").add(3.0);
    reg.percentiles("p").add(10.0);
    reg.histogram("h", 0.0, 10.0, 2).add(4.0);

    JsonValue root;
    ASSERT_TRUE(JsonParser(reg.toJson()).parse(root));
    const JsonValue *counters = root.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("c"), nullptr);
    EXPECT_EQ(counters->find("c")->number, 7.0);
    EXPECT_EQ(root.find("gauges")->find("g")->number, 2.5);
    EXPECT_EQ(root.find("labels")->find("l")->string, "hello");
    const JsonValue *acc = root.find("accumulators")->find("a");
    ASSERT_NE(acc, nullptr);
    EXPECT_EQ(acc->find("count")->number, 2.0);
    EXPECT_EQ(acc->find("mean")->number, 2.0);
    const JsonValue *hist = root.find("histograms")->find("h");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("total")->number, 1.0);
}

TEST(MetricsRegistry, ResetClearsValuesButKeepsRegistrations)
{
    MetricsRegistry reg;
    reg.counter("c").inc(5);
    reg.gauge("g").set(1.5);
    reg.percentiles("p").add(3.0);
    reg.reset();
    EXPECT_TRUE(reg.has("c"));
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_TRUE(reg.percentiles("p").empty());
}

TEST(MetricsRegistryDeath, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_EXIT(reg.gauge("x"), ::testing::ExitedWithCode(1),
                "registered as");
}

TEST(MetricsRegistry, JsonIsDeterministic)
{
    MetricsRegistry a, b;
    // Register in different orders: serialisation is name-ordered.
    a.counter("one").inc(1);
    a.gauge("two").set(2);
    b.gauge("two").set(2);
    b.counter("one").inc(1);
    EXPECT_EQ(a.toJson(), b.toJson());
}

} // namespace
} // namespace krisp
