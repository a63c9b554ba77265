/**
 * @file
 * Per-CU kernel counters (the paper's Resource Monitor).
 *
 * KRISP extends the GPU's existing resource tracking with a counter
 * per CU recording how many kernels are assigned to it (Sec. IV-C2).
 * Algorithm 1 consults these counters to pick the least-loaded shader
 * engines and CUs. Hardware cost in the paper: 5 bits x 60 CUs since
 * at most 32 streams can be resident.
 *
 * Like the hardware counters, the monitor's state is kept up to date
 * by every kernel arrival and departure instead of being recounted
 * when read: addKernel() and removeKernel() maintain the per-SE kernel
 * sums and the set of busy CUs next to the counters, so every query
 * is O(1). Kernels on the whole device (every MPS kernel) are kept as
 * one shared count on top of the per-CU ones, which makes their
 * arrival and departure O(1) too. The simulator does not cap
 * residency at 32, so counts are 32-bit, not 5-bit.
 */

#ifndef KRISP_GPU_RESOURCE_MONITOR_HH
#define KRISP_GPU_RESOURCE_MONITOR_HH

#include <array>
#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "kern/arch_params.hh"
#include "kern/cu_mask.hh"

namespace krisp
{

/** Tracks the number of kernels assigned to every CU. */
class ResourceMonitor
{
  public:
    /** Largest device tracked: one CuMask bit per CU. */
    static constexpr unsigned maxCus = 64;

    /** Panics unless @p arch has between 1 and maxCus CUs. */
    explicit ResourceMonitor(const ArchParams &arch);

    const ArchParams &arch() const { return arch_; }

    /** Account a kernel occupying the CUs of @p mask. */
    void addKernel(const CuMask &mask);

    /** Release a kernel's CUs. */
    void removeKernel(const CuMask &mask);

    /** Kernels assigned to global CU index @p cu. */
    unsigned
    kernelsOnCu(unsigned cu) const
    {
        panic_if(cu >= total_, "CU index out of range: ", cu);
        return counters_[cu] + whole_;
    }

    /** Kernels assigned to (se, cu). */
    unsigned
    kernelsOnSeCu(unsigned se, unsigned cu) const
    {
        return kernelsOnCu(CuMask::cuIndex(arch_, se, cu));
    }

    /** Sum of CU kernel counters within shader engine @p se
     *  (Algorithm 1, lines 4-7). */
    unsigned
    seKernelSum(unsigned se) const
    {
        panic_if(se >= arch_.numSe, "SE index out of range: ", se);
        return se_sums_[se] + whole_ * arch_.cusPerSe;
    }

    /** Number of kernels currently tracked. */
    unsigned residentKernels() const { return resident_; }

    /** CUs with at least one assigned kernel. */
    unsigned
    busyCus() const
    {
        return whole_ > 0 ? total_ : std::popcount(busy_);
    }

    /** Mask of CUs with no assigned kernel. */
    CuMask
    idleCus() const
    {
        return CuMask::ofBits(whole_ > 0 ? 0 : device_ & ~busy_);
    }

  private:
    /** Add (or with @p remove, subtract) the CUs of @p bits to the
     *  sums of the SEs they lie in. */
    void updateSeSums(std::uint64_t bits, bool remove);

    ArchParams arch_;
    unsigned total_;
    /** Every CU of the device. */
    std::uint64_t device_;
    /** The CUs of shader engine 0; SE s is this shifted by
     *  s * cusPerSe. */
    std::uint64_t se0_;
    unsigned resident_ = 0;
    /** Kernels counted on every CU at once (whole-device masks). */
    unsigned whole_ = 0;
    /** Per-CU counts of the other kernels, their per-SE sums, and
     *  the CUs where that count is non-zero. */
    std::array<std::uint32_t, maxCus> counters_{};
    std::array<std::uint32_t, maxCus> se_sums_{};
    std::uint64_t busy_ = 0;
};

} // namespace krisp

#endif // KRISP_GPU_RESOURCE_MONITOR_HH
