/**
 * @file
 * Property tests for max-min fair bandwidth allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/random.hh"
#include "gpu/bandwidth.hh"

namespace krisp
{
namespace
{

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(MaxMinFair, EmptyDemands)
{
    EXPECT_TRUE(maxMinFairShare({}, 100.0).empty());
}

TEST(MaxMinFair, UnderSubscribedGetsFullDemand)
{
    const auto g = maxMinFairShare({10.0, 20.0, 30.0}, 100.0);
    EXPECT_DOUBLE_EQ(g[0], 10.0);
    EXPECT_DOUBLE_EQ(g[1], 20.0);
    EXPECT_DOUBLE_EQ(g[2], 30.0);
}

TEST(MaxMinFair, EqualSplitWhenAllHungry)
{
    const auto g = maxMinFairShare({100.0, 100.0, 100.0, 100.0},
                                   100.0);
    for (double x : g)
        EXPECT_DOUBLE_EQ(x, 25.0);
}

TEST(MaxMinFair, SmallDemandSatisfiedLeftoverShared)
{
    // Classic max-min example: {10, 100, 100} over 100 ->
    // {10, 45, 45}.
    const auto g = maxMinFairShare({10.0, 100.0, 100.0}, 100.0);
    EXPECT_DOUBLE_EQ(g[0], 10.0);
    EXPECT_DOUBLE_EQ(g[1], 45.0);
    EXPECT_DOUBLE_EQ(g[2], 45.0);
}

TEST(MaxMinFair, OrderIndependent)
{
    const auto a = maxMinFairShare({10.0, 100.0, 50.0}, 100.0);
    const auto b = maxMinFairShare({100.0, 50.0, 10.0}, 100.0);
    EXPECT_DOUBLE_EQ(a[0], b[2]);
    EXPECT_DOUBLE_EQ(a[1], b[0]);
    EXPECT_DOUBLE_EQ(a[2], b[1]);
}

TEST(MaxMinFair, ZeroCapacity)
{
    const auto g = maxMinFairShare({10.0, 20.0}, 0.0);
    EXPECT_DOUBLE_EQ(g[0], 0.0);
    EXPECT_DOUBLE_EQ(g[1], 0.0);
}

TEST(MaxMinFair, ZeroDemandGetsNothing)
{
    const auto g = maxMinFairShare({0.0, 50.0}, 100.0);
    EXPECT_DOUBLE_EQ(g[0], 0.0);
    EXPECT_DOUBLE_EQ(g[1], 50.0);
}

/** Randomised invariants over many demand vectors. */
class MaxMinFairProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MaxMinFairProperty, Invariants)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 1 + rng.below(8);
        const double cap = rng.uniform(1.0, 2000.0);
        std::vector<double> demands(n);
        for (auto &d : demands)
            d = rng.uniform(0.0, 500.0);

        const auto grants = maxMinFairShare(demands, cap);
        ASSERT_EQ(grants.size(), n);
        double granted = 0;
        for (std::size_t i = 0; i < n; ++i) {
            // Never exceed the demand, never negative.
            EXPECT_LE(grants[i], demands[i] + 1e-9);
            EXPECT_GE(grants[i], -1e-9);
            granted += grants[i];
        }
        // Capacity respected.
        EXPECT_LE(granted, cap + 1e-6);
        // Work-conserving: if total demand <= cap, everyone is
        // satisfied; otherwise the capacity is fully used.
        const double total = sum(demands);
        if (total <= cap) {
            EXPECT_NEAR(granted, total, 1e-6);
        } else {
            EXPECT_NEAR(granted, cap, 1e-6);
        }
        // Max-min fairness: an unsatisfied claimant's grant is >= any
        // other grant (nobody gets more while someone hungry has
        // less).
        for (std::size_t i = 0; i < n; ++i) {
            if (grants[i] < demands[i] - 1e-6) {
                for (std::size_t j = 0; j < n; ++j)
                    EXPECT_LE(grants[j], grants[i] + 1e-6);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinFairProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

/**
 * The allocation as first written: ascending demands by std::sort
 * over an index vector, each claimant taking min(demand, fair share
 * of what remains). The device's bandwidth grants, and through them
 * every simulated tick and joule, depend on this exact order and
 * summation.
 */
std::vector<double>
referenceMaxMinFair(const std::vector<double> &demands, double capacity)
{
    std::vector<double> grants(demands.size(), 0.0);
    if (demands.empty() || capacity <= 0)
        return grants;
    std::vector<std::size_t> order(demands.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](auto a, auto b) {
        return demands[a] < demands[b];
    });
    double remaining = capacity;
    std::size_t left = demands.size();
    for (const std::size_t i : order) {
        const double fair = remaining / static_cast<double>(left);
        const double grant = std::min(demands[i], fair);
        grants[i] = grant;
        remaining -= grant;
        --left;
    }
    return grants;
}

TEST(MaxMinFair, MatchesStdSortReferenceBitForBit)
{
    // A small value set makes ties common; lengths straddle the
    // 16-entry threshold where libstdc++ stops insertion-sorting.
    const std::vector<double> values = {0.0,   0.1,   0.3,  1.0 / 3,
                                        2.5,   17.0,  64.0, 100.0,
                                        333.3, 512.0, 1024.0};
    Rng rng(0xba5e);
    std::vector<double> grants;
    std::vector<std::size_t> order;
    for (int trial = 0; trial < 20000; ++trial) {
        const std::size_t n = 1 + rng.below(40);
        std::vector<double> demands(n);
        for (auto &d : demands)
            d = values[rng.below(values.size())];
        const double cap = rng.chance(0.05) ? 0.0
                                            : rng.uniform(0.5, 4096.0);
        const auto want = referenceMaxMinFair(demands, cap);
        maxMinFairShareInto(demands, cap, grants, order);
        ASSERT_EQ(grants.size(), n);
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(grants[i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << "trial " << trial << ", demand " << i << " of " << n;
        }
    }
}

} // namespace
} // namespace krisp
