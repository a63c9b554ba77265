/**
 * @file
 * Property tests for max-min fair bandwidth allocation, and reference
 * tests for it and for the CU share sums of the device's rate
 * evaluation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "gpu/bandwidth.hh"
#include "gpu/cu_share.hh"
#include "kern/cu_mask.hh"

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

/**
 * The CU share sums as first written, one CU at a time: the residency
 * and the demand of every busy CU from the kernels in job order, one
 * factor per busy CU, then each kernel's sum over its CUs in index
 * order, taking the previous kernel's sum for an equal mask and the
 * CU count when every factor on the mask is exactly 1.
 */
std::vector<double>
referenceShareSums(const std::vector<CuLoad> &loads,
                   const std::vector<double> &contention)
{
    std::array<unsigned, 64> resident{};
    std::uint64_t busy = 0;
    for (const CuLoad &k : loads) {
        busy |= k.mask;
        for (std::uint64_t b = k.mask; b != 0; b &= b - 1)
            ++resident[std::countr_zero(b)];
    }

    std::array<double, 64> cu_demand{};
    for (const CuLoad &k : loads) {
        for (std::uint64_t b = k.mask; b != 0; b &= b - 1)
            cu_demand[std::countr_zero(b)] += k.demand;
    }

    std::array<double, 64> cu_share{};
    std::uint64_t penalised = 0;
    for (std::uint64_t b = busy; b != 0; b &= b - 1) {
        const int cu = std::countr_zero(b);
        const double d = cu_demand[cu];
        cu_share[cu] =
            (d > 1.0 ? 1.0 / d : 1.0) * contention[resident[cu] - 1];
        if (cu_share[cu] != 1.0)
            penalised |= b & -b;
    }

    std::vector<double> sums;
    std::uint64_t prev_mask = 0;
    double prev_sum = 0;
    for (const CuLoad &k : loads) {
        double sum = 0;
        if (k.mask == prev_mask) {
            sum = prev_sum;
        } else if ((k.mask & penalised) == 0) {
            sum = std::popcount(k.mask);
        } else {
            for (std::uint64_t b = k.mask; b != 0; b &= b - 1)
                sum += cu_share[std::countr_zero(b)];
        }
        sums.push_back(sum);
        prev_mask = k.mask;
        prev_sum = sum;
    }
    return sums;
}

/** One running kernel's mask on a @p num_se x @p cus_per_se device:
 *  the whole device, random CUs, whole SEs, a subset of an earlier
 *  kernel's mask or an earlier mask repeated. */
std::uint64_t
randomLoadMask(Rng &rng, unsigned num_se, unsigned cus_per_se,
               const std::vector<CuLoad> &earlier)
{
    const std::uint64_t device =
        CuMask::firstN(num_se * cus_per_se).bits();
    const std::uint64_t se0 = CuMask::firstN(cus_per_se).bits();
    switch (rng.below(5)) {
    case 0:
        return device;
    case 1: {
        std::uint64_t mask = 0;
        while (mask == 0)
            mask = (rng.chance(0.5) ? rng() & rng() : rng()) & device;
        return mask;
    }
    case 2: {
        std::uint64_t mask = 0;
        while (mask == 0) {
            for (unsigned se = 0; se < num_se; ++se) {
                if (rng.chance(0.4))
                    mask |= se0 << (se * cus_per_se);
            }
        }
        return mask;
    }
    case 3: {
        if (earlier.empty())
            return device;
        const std::uint64_t base = earlier[rng.below(earlier.size())].mask;
        const std::uint64_t mask = base & rng();
        return mask != 0 ? mask : base & -base;
    }
    default:
        return earlier.empty() ? device
                               : earlier[rng.below(earlier.size())].mask;
    }
}

TEST(CuShareSums, MatchesPerCuReferenceBitForBit)
{
    // A small demand set makes class demand sums tie and exceed 1;
    // a penalty of 1 leaves factors of exactly 1 where no CU is
    // over-subscribed, so the CU-count shortcut is taken too.
    const std::vector<std::pair<unsigned, unsigned>> shapes = {
        {4, 15}, {8, 8}, {1, 64}, {64, 1}, {3, 5}};
    const std::vector<double> demand_set = {1.0 / 16, 0.125, 0.25,
                                            1.0 / 3,  0.5,   0.7,
                                            1.0};
    const std::vector<double> penalties = {0.93, 1.0, 0.5};
    Rng rng(0xc1a55);
    std::vector<double> sums;
    for (int trial = 0; trial < 20000; ++trial) {
        const auto [num_se, cus_per_se] = shapes[trial % shapes.size()];
        const std::size_t n = 1 + rng.below(40);
        // A fifth of the states are the MPS regime: every kernel on
        // the whole device, one class.
        const bool whole_only = rng.chance(0.2);
        std::vector<CuLoad> loads;
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint64_t mask =
                whole_only
                    ? CuMask::firstN(num_se * cus_per_se).bits()
                    : randomLoadMask(rng, num_se, cus_per_se, loads);
            loads.push_back(
                CuLoad{mask, demand_set[rng.below(demand_set.size())]});
        }
        const double penalty = penalties[rng.below(penalties.size())];
        std::vector<double> contention(n);
        for (std::size_t k = 0; k < n; ++k)
            contention[k] = std::pow(penalty, static_cast<double>(k));

        const auto want = referenceShareSums(loads, contention);
        sums.assign(n, -1.0);
        const std::uint64_t busy = cuShareSums(loads, contention, sums);
        std::uint64_t want_busy = 0;
        for (const CuLoad &k : loads)
            want_busy |= k.mask;
        ASSERT_EQ(busy, want_busy) << "trial " << trial;
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(sums[i]),
                      std::bit_cast<std::uint64_t>(want[i]))
                << "trial " << trial << ", kernel " << i << " of " << n
                << ": " << sums[i] << " vs " << want[i];
        }
    }
}

} // namespace
} // namespace krisp
