#include "gpu/resource_monitor.hh"

namespace krisp
{

ResourceMonitor::ResourceMonitor(const ArchParams &arch)
    : arch_(arch), total_(arch.totalCus())
{
    panic_if(arch.numSe == 0 || arch.cusPerSe == 0 ||
                 std::uint64_t(arch.numSe) * arch.cusPerSe > maxCus,
             "a ResourceMonitor tracks 1 to ", maxCus, " CUs, not ",
             arch.numSe, " SEs x ", arch.cusPerSe, " CUs");
    device_ = CuMask::full(arch).bits();
    se0_ = CuMask::firstN(arch.cusPerSe).bits();
}

void
ResourceMonitor::updateSeSums(std::uint64_t bits, bool remove)
{
    for (unsigned se = 0; se < arch_.numSe; ++se) {
        const std::uint64_t in_se =
            (bits >> (se * arch_.cusPerSe)) & se0_;
        if (in_se == 0)
            continue;
        const unsigned n = std::popcount(in_se);
        se_sums_[se] = remove ? se_sums_[se] - n : se_sums_[se] + n;
    }
}

void
ResourceMonitor::addKernel(const CuMask &mask)
{
    panic_if(mask.empty(), "tracking a kernel with an empty mask");
    ++resident_;
    const std::uint64_t bits = mask.bits() & device_;
    if (bits == device_) {
        ++whole_;
        return;
    }
    for (std::uint64_t b = bits; b != 0; b &= b - 1)
        ++counters_[std::countr_zero(b)];
    updateSeSums(bits, false);
    busy_ |= bits;
}

void
ResourceMonitor::removeKernel(const CuMask &mask)
{
    panic_if(resident_ == 0, "removing kernel from empty monitor");
    const std::uint64_t bits = mask.bits() & device_;
    if (bits == device_ && whole_ > 0) {
        --whole_;
        --resident_;
        return;
    }
    // CUs of the mask with no per-CU count: an underflow unless
    // whole-device kernels cover them. Then fold those kernels into
    // the per-CU counts first (only a caller that removes other masks
    // than it added gets here).
    const std::uint64_t uncounted = bits & ~busy_;
    if (uncounted != 0) {
        panic_if(whole_ == 0, "CU kernel counter underflow on CU ",
                 std::countr_zero(uncounted));
        for (unsigned cu = 0; cu < total_; ++cu)
            counters_[cu] += whole_;
        for (unsigned se = 0; se < arch_.numSe; ++se)
            se_sums_[se] += whole_ * arch_.cusPerSe;
        busy_ = device_;
        whole_ = 0;
    }
    std::uint64_t freed = 0;
    for (std::uint64_t b = bits; b != 0; b &= b - 1) {
        if (--counters_[std::countr_zero(b)] == 0)
            freed |= b & -b;
    }
    updateSeSums(bits, true);
    busy_ &= ~freed;
    --resident_;
}

} // namespace krisp
