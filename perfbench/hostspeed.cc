/**
 * @file
 * A fixed reference workload that measures how fast the host runs at
 * the moment. The benchmark times it next to every timed call and
 * scales wall-clock metrics by it, so a slow stretch of a shared host
 * slows the reference about as much as the program and cancels out.
 *
 * The work has two halves, together about 35 ms on a fast host:
 *  - scalar floating point: libm calls, divisions and square roots, as
 *    in the simulator's roofline, power and fluid-share arithmetic;
 *  - integer event-queue work: a binary heap of timestamped events and
 *    an ordered map inserted into and erased from, as in the event
 *    core and the request bookkeeping.
 * On a shared 4-vCPU Xeon host the slow stretches (10-30 s each)
 * slowed the simulator by up to 1.6x. The floating-point half tracked
 * them closely on the CNN workloads, the integer half only in part;
 * their sum was the steadier of the two on the LLM workload. The
 * reference depends on nothing in the simulator, so a change to the
 * program never changes it, and it keeps under 1 MiB live.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr int kFpIterations = 500'000;
/** Keeps the reference work from being optimised away. */
volatile double sink;
constexpr std::uint32_t kHeapEvents = 4096;
constexpr std::uint32_t kEventIterations = 80'000;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

double
floatingPointWork()
{
    std::uint64_t r = 0x9E3779B97F4A7C15ull;
    double acc = 0, x = 1.0;
    for (int i = 0; i < kFpIterations; ++i) {
        const double u =
            static_cast<double>(xorshift(r) >> 11) * 0x1.0p-53 + 1e-9;
        acc += std::exp(-3.0 * u) + std::log(u) / (1.0 + x) +
               std::pow(u, 0.7) + std::sqrt(u * x);
        x = x * 0.999999 + u * 1e-6;
    }
    return acc;
}

std::uint64_t
eventQueueWork()
{
    std::uint64_t x = 0x2545F4914F6CDD1Dull, sum = 0;
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
    std::map<std::uint64_t, std::uint32_t> live;
    for (std::uint32_t i = 0; i < kHeapEvents; ++i)
        heap.emplace(xorshift(x) % 100000, i);
    for (std::uint32_t i = 0; i < kEventIterations; ++i) {
        const auto [t, id] = heap.top();
        heap.pop();
        heap.emplace(t + 1 + xorshift(x) % 100000, id);
        live[x & 0x3FFF] = id;
        if ((i & 3) == 0)
            live.erase(live.begin());
        sum += live.size();
    }
    return sum;
}

} // namespace

double
referenceSeconds()
{
    const auto t0 = std::chrono::steady_clock::now();
    sink = floatingPointWork() + static_cast<double>(eventQueueWork());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace perfbench
