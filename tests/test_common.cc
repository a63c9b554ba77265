/**
 * @file
 * Unit tests for the common utilities: statistics accumulators,
 * deterministic RNG, text tables, tick conversions and the checked
 * parser for outside input.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace krisp
{
namespace
{

TEST(Ticks, Conversions)
{
    EXPECT_EQ(ticksFromUs(1.0), 1000u);
    EXPECT_EQ(ticksFromMs(1.0), 1'000'000u);
    EXPECT_EQ(ticksFromSec(1.0), 1'000'000'000u);
    EXPECT_DOUBLE_EQ(ticksToMs(2'500'000), 2.5);
    EXPECT_DOUBLE_EQ(ticksToSec(500'000'000), 0.5);
    EXPECT_EQ(ticksFromNs(-5.0), 0u);
    EXPECT_EQ(ticksFromNs(1.6), 2u); // rounds
}

TEST(Accumulator, Empty)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, SingleSampleVarianceIsZero)
{
    Accumulator acc;
    acc.add(42.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), 42.0);
    EXPECT_DOUBLE_EQ(acc.max(), 42.0);
}

TEST(Accumulator, Reset)
{
    Accumulator acc;
    acc.add(1.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
}

TEST(Accumulator, NegativeValues)
{
    Accumulator acc;
    acc.add(-3.0);
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.min(), -3.0);
}

TEST(PercentileTracker, NearestRank)
{
    // The header promises nearest-rank: the smallest sample with at
    // least ceil(q*n) samples at or below it. Every result must be a
    // value that was actually observed — nothing interpolated.
    PercentileTracker t;
    for (int i = 1; i <= 100; ++i)
        t.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.99), 99.0);
    EXPECT_NEAR(t.mean(), 50.5, 1e-9);
}

TEST(PercentileTracker, NearestRankExactRankHits)
{
    // ceil(q*n) landing exactly on an integer rank must pick that
    // sample, not the next one: with n=4, q=0.25 -> rank 1, q=0.5 ->
    // rank 2, q=0.75 -> rank 3.
    PercentileTracker t;
    for (double x : {10.0, 20.0, 30.0, 40.0})
        t.add(x);
    EXPECT_DOUBLE_EQ(t.percentile(0.25), 10.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.75), 30.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.76), 40.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 40.0);
}

TEST(PercentileTracker, NearestRankTwoSamples)
{
    PercentileTracker t;
    t.add(1.0);
    t.add(2.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 1.0);
    // ceil(0.5 * 2) = 1: the median of two samples is the lower one.
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.51), 2.0);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 2.0);
}

TEST(PercentileTracker, NearestRankAlwaysReturnsObservedSample)
{
    Rng rng(0xbeefULL);
    PercentileTracker t;
    std::set<double> seen;
    for (int i = 0; i < 37; ++i) {
        const double x = rng.uniform(0.0, 1000.0);
        t.add(x);
        seen.insert(x);
    }
    for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_TRUE(seen.count(t.percentile(q)))
            << "q=" << q << " fabricated " << t.percentile(q);
}

TEST(PercentileTracker, UnsortedInput)
{
    PercentileTracker t;
    for (double x : {9.0, 1.0, 5.0, 3.0, 7.0})
        t.add(x);
    EXPECT_DOUBLE_EQ(t.min(), 1.0);
    EXPECT_DOUBLE_EQ(t.max(), 9.0);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 5.0);
}

TEST(PercentileTracker, SingleSample)
{
    PercentileTracker t;
    t.add(3.5);
    EXPECT_DOUBLE_EQ(t.percentile(0.95), 3.5);
}

TEST(PercentileTracker, AddAfterQueryKeepsCorrectness)
{
    PercentileTracker t;
    t.add(1.0);
    t.add(2.0);
    EXPECT_DOUBLE_EQ(t.max(), 2.0);
    t.add(10.0); // invalidates cached sort
    EXPECT_DOUBLE_EQ(t.max(), 10.0);
}

TEST(PercentileTracker, MeanIsUnaffectedByPercentileQueries)
{
    // mean() must be bitwise-stable across percentile queries: the
    // lazy sort reorders the sample buffer, and fp summation in a
    // different order can round differently. Snapshot serialisation
    // relies on query history not changing any value.
    PercentileTracker t;
    for (double x : {5.583349, 4.3259, 5.583349, 5.583349})
        t.add(x);
    const double before = t.mean();
    (void)t.percentile(0.5); // forces the sort
    EXPECT_EQ(t.mean(), before);
}

TEST(Histogram, BinningAndOutOfRangeCounters)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(-5.0); // counted as underflow, not binned
    h.add(50.0); // counted as overflow, not binned
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.binLow(3), 3.0);
    EXPECT_DOUBLE_EQ(h.binHigh(3), 4.0);
}

TEST(Geomean, Basics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, -2.0}), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanApproximation)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowBounds)
{
    Rng rng(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.below(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all residues hit
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.between(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= (v == -2);
        saw_hi |= (v == 2);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ForkIndependence)
{
    Rng a(5);
    Rng child = a.fork();
    // Child stream should not replay the parent stream.
    Rng b(5);
    (void)b.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (child() == b())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.row().cell("alpha").cell(1);
    t.row().cell("b").cell(12.5, 1);
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("12.5"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, IntegerOverloads)
{
    TextTable t({"x"});
    t.row().cell(std::uint64_t(18446744073709551615ULL));
    EXPECT_NE(t.render().find("18446744073709551615"),
              std::string::npos);
}

TEST(FormatFixed, Precision)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(1.0, 0), "1");
}

TEST(PercentileTracker, EmptyAndResetLifecycle)
{
    PercentileTracker t;
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.count(), 0u);
    t.add(1.0);
    EXPECT_FALSE(t.empty());
    t.reset();
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.count(), 0u);
}

TEST(PercentileTracker, SingleSampleAllQuantiles)
{
    PercentileTracker t;
    t.add(7.25);
    EXPECT_DOUBLE_EQ(t.percentile(0.0), 7.25);
    EXPECT_DOUBLE_EQ(t.percentile(0.5), 7.25);
    EXPECT_DOUBLE_EQ(t.percentile(1.0), 7.25);
    EXPECT_DOUBLE_EQ(t.mean(), 7.25);
    EXPECT_DOUBLE_EQ(t.min(), 7.25);
    EXPECT_DOUBLE_EQ(t.max(), 7.25);
}

TEST(Histogram, EmptyHistogramHasZeroEverywhere)
{
    Histogram h(0.0, 4.0, 4);
    EXPECT_EQ(h.total(), 0u);
    for (std::size_t i = 0; i < h.bins(); ++i)
        EXPECT_EQ(h.binCount(i), 0u);
}

TEST(Histogram, SingleSampleAndReset)
{
    Histogram h(0.0, 4.0, 4);
    h.add(2.5);
    h.add(9.0);
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.binCount(2), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.underflow(), 0u);
}

TEST(Histogram, OutOfRangeCountedNotClamped)
{
    Histogram h(10.0, 20.0, 5);
    h.add(-1e9); // far below lo -> underflow
    h.add(1e9);  // far above hi -> overflow
    h.add(10.0); // exactly lo belongs to the first bin
    h.add(20.0); // exactly hi is outside the half-open range
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(4), 0u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

// ---- merge-vs-sequential property tests ------------------------
//
// The cluster layer folds per-shard statistics into cluster-wide
// ones with merge(); the result must be indistinguishable from
// having fed every sample into one instance sequentially.

TEST(Accumulator, MergeOfPartsEqualsSequentialFeed)
{
    Rng rng(0x51a75ULL);
    std::vector<double> samples;
    for (int i = 0; i < 257; ++i)
        samples.push_back(rng.uniform(-50.0, 150.0));

    Accumulator whole;
    for (double x : samples)
        whole.add(x);

    // Split into three uneven parts, merge back together.
    Accumulator parts[3];
    for (std::size_t i = 0; i < samples.size(); ++i)
        parts[i % 2 == 0 ? 0 : (i % 3 == 0 ? 1 : 2)].add(samples[i]);
    Accumulator merged;
    for (const Accumulator &p : parts)
        merged.merge(p);

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
}

TEST(Accumulator, MergeEmptySides)
{
    Accumulator filled;
    for (double x : {3.0, 1.0, 4.0})
        filled.add(x);
    Accumulator empty;

    Accumulator a = filled;
    a.merge(empty); // empty right side: no change
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);

    Accumulator b;
    b.merge(filled); // empty left side: adopt other wholesale
    EXPECT_EQ(b.count(), 3u);
    EXPECT_DOUBLE_EQ(b.min(), 1.0);
    EXPECT_DOUBLE_EQ(b.max(), 4.0);
    EXPECT_NEAR(b.variance(), filled.variance(), 1e-12);
}

TEST(PercentileTracker, MergeOfPartsEqualsSequentialFeed)
{
    Rng rng(0x9e47cULL);
    PercentileTracker whole;
    PercentileTracker left;
    PercentileTracker right;
    for (int i = 0; i < 101; ++i) {
        const double x = rng.uniform(0.0, 10.0);
        whole.add(x);
        (i % 2 == 0 ? left : right).add(x);
    }
    // Query a part first: merging must include samples regardless of
    // the lazily-sorted state of either side.
    (void)left.percentile(0.5);

    PercentileTracker merged;
    merged.merge(left);
    merged.merge(right);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(merged.percentile(q), whole.percentile(q))
            << "q=" << q;
}

TEST(Histogram, MergeOfPartsEqualsSequentialFeed)
{
    Rng rng(0x4157ULL);
    Histogram whole(0.0, 100.0, 10);
    Histogram left(0.0, 100.0, 10);
    Histogram right(0.0, 100.0, 10);
    for (int i = 0; i < 500; ++i) {
        // Deliberately wider than the range: under/overflow counters
        // must merge exactly too.
        const double x = rng.uniform(-20.0, 140.0);
        whole.add(x);
        (i % 3 == 0 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_EQ(left.total(), whole.total());
    EXPECT_EQ(left.underflow(), whole.underflow());
    EXPECT_EQ(left.overflow(), whole.overflow());
    for (std::size_t b = 0; b < whole.bins(); ++b)
        EXPECT_EQ(left.binCount(b), whole.binCount(b)) << "bin " << b;
}

TEST(Logging, ThresholdFiltersLevels)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_FALSE(logLevelEnabled(LogLevel::Debug));
    EXPECT_FALSE(logLevelEnabled(LogLevel::Inform));
    EXPECT_TRUE(logLevelEnabled(LogLevel::Warn));
    // panic/fatal are never filtered.
    EXPECT_TRUE(logLevelEnabled(LogLevel::Panic));
    EXPECT_TRUE(logLevelEnabled(LogLevel::Fatal));
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logLevelEnabled(LogLevel::Debug));
    setLogLevel(saved);
}

TEST(Logging, DebugMacroHonoursThreshold)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    int evals = 0;
    auto expensive = [&] {
        ++evals;
        return "detail";
    };
    debug("never formatted: ", expensive());
    EXPECT_EQ(evals, 0); // argument evaluation skipped when filtered
    setLogLevel(LogLevel::Debug);
    debug("formatted: ", expensive());
    EXPECT_EQ(evals, 1);
    setLogLevel(saved);
}

TEST(CommonDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom ", 42), "boom 42");
}

TEST(CommonDeath, PercentileOnEmpty)
{
    PercentileTracker t;
    EXPECT_DEATH(t.percentile(0.5), "empty");
}

TEST(CommonDeath, HistogramEmptyRange)
{
    EXPECT_EXIT(Histogram(1.0, 1.0, 4),
                ::testing::ExitedWithCode(1), "empty");
}

// ---- checked parsing of outside input --------------------------------

TEST(Parse, AcceptsDecimalHexAndReals)
{
    EXPECT_EQ(parseUnsigned("4096", "n", 1, 4096), 4096u);
    EXPECT_EQ(parseUnsigned("0xC4A05", "n", 0, UINT64_MAX), 0xC4A05u);
    EXPECT_EQ(parseUnsigned("0X11aa5", "n", 0, UINT64_MAX), 0x11AA5u);
    EXPECT_EQ(parseUnsigned("18446744073709551615", "n", 0, UINT64_MAX),
              UINT64_MAX);
    EXPECT_EQ(parseReal("0.01", "x", 0, 1), 0.01);
    EXPECT_EQ(parseReal("-2.5e1", "x", -100, 0), -25.0);
    EXPECT_EQ(parsePositiveReal("123.4567891", "x", 1e6), 123.4567891);
}

TEST(ParseDeath, RejectsWholeTextOrRangeAndNamesOrigin)
{
    const auto dies = ::testing::ExitedWithCode(1);
    // Wrap-around, signs, spaces, trailing text, empty, overflow.
    for (const char *bad : {"-1", "+1", " 1", "1 ", "1x", "", "0x",
                            "0x-1", "abc", "99999999999999999999"})
        EXPECT_EXIT(parseUnsigned(bad, "--chains", 0, UINT64_MAX), dies,
                    "invalid --chains value")
            << "'" << bad << "'";
    EXPECT_EXIT(parseUnsigned("4097", "KRISP_JOBS", 1, 4096), dies,
                "invalid KRISP_JOBS value '4097' \\(expected an "
                "integer in \\[1, 4096\\]\\)");
    for (const char *bad : {"nan", "inf", "abc", "1e999", "0.5x", "",
                            "2"})
        EXPECT_EXIT(parseReal(bad, "KRISP_FAULT_RATE", 0, 1), dies,
                    "invalid KRISP_FAULT_RATE value")
            << "'" << bad << "'";
    for (const char *bad : {"0", "-1", "nan"})
        EXPECT_EXIT(parsePositiveReal(bad, "--rate", 1e6), dies,
                    "invalid --rate value .* \\(expected a number in "
                    "\\(0, 1e\\+06\\]\\)")
            << "'" << bad << "'";
}

} // namespace
} // namespace krisp
