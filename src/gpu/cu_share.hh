/**
 * @file
 * CU share sums of the running kernels.
 *
 * Co-resident kernels divide a CU's throughput. A CU whose aggregate
 * occupancy demand d exceeds 1 scales every kernel on it by 1/d, and
 * each further kernel on it costs a multiplicative interference
 * penalty. A kernel's compute rate follows the sum of these per-CU
 * share factors over its mask (GpuDevice::recomputeRates).
 *
 * A CU's factor depends only on which kernels cover it, so it is
 * computed once per CU class, a maximal set of CUs covered by exactly
 * the same running kernels, instead of once per CU. Every CU of a
 * class sees the same demands added in the same order, so the class
 * factor is bit-identical to a per-CU one.
 */

#ifndef KRISP_GPU_CU_SHARE_HH
#define KRISP_GPU_CU_SHARE_HH

#include <cstdint>
#include <span>

namespace krisp
{

/** A running kernel as the CU share evaluation sees it. */
struct CuLoad
{
    /** CUs the kernel occupies; never empty. */
    std::uint64_t mask = 0;
    /** Its occupancy demand on each of those CUs. */
    double demand = 0;
};

/**
 * The share sum of every kernel of @p loads, which lists the running
 * kernels in job order. CU c's share factor is
 * (d > 1 ? 1/d : 1) * contention[r - 1], where r is the number of
 * kernels whose mask holds c and d the sum of their demands, added in
 * job order from 0.0. sums[k] adds the factors of kernel k's CUs in
 * ascending CU index order: it is the previous kernel's sum when the
 * masks are equal, and the CU count when every factor on the mask is
 * exactly 1, which is the same value.
 *
 * Costs O(kernels x classes), plus O(busy CUs + mask bits) when some
 * mask spans several classes and holds a factor other than 1: that
 * sum reads per-CU factors. Allocates nothing.
 *
 * @param contention penalty^k for k = 0 .. loads.size() - 1 at least.
 * @param sums one slot per load, written in order.
 * @return the union of the masks: the busy CUs.
 */
std::uint64_t cuShareSums(std::span<const CuLoad> loads,
                          std::span<const double> contention,
                          std::span<double> sums);

} // namespace krisp

#endif // KRISP_GPU_CU_SHARE_HH
