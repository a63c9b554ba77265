/**
 * @file
 * Wall-clock spans recorded by the benchmark around each call it makes
 * into the simulator's layers (set-up, a serving run, a layer replay).
 *
 * Spans nest: one opened while another is open records it as its
 * parent, so a span's self time is its duration minus the part of it
 * its children cover. Spans stay in memory and are written out once,
 * when the benchmark ends.
 */

#ifndef KRISP_PERFBENCH_SPANS_HH
#define KRISP_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        /** Index of the enclosing span, or -1 at top level. */
        int parent = -1;
        double startS = 0;
        double endS = 0;
    };

    SpanLog() : origin_(Clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    int open(std::string name);
    /** Close span @p id, which must be the innermost open one. */
    void close(int id);

    double seconds(int id) const;
    /** Duration minus the time covered by direct children. */
    double selfSeconds(int id) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** JSON array of {name, parent, start_s, end_s, self_s}. */
    bool writeJson(const std::string &path) const;

  private:
    using Clock = std::chrono::steady_clock;

    double now() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name)
        : log_(log), id_(log.open(std::move(name)))
    {
    }
    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close early; returns the span's duration in seconds. */
    double
    close()
    {
        if (!closed_) {
            log_.close(id_);
            closed_ = true;
        }
        return log_.seconds(id_);
    }

  private:
    SpanLog &log_;
    int id_;
    bool closed_ = false;
};

} // namespace perfbench

#endif // KRISP_PERFBENCH_SPANS_HH
