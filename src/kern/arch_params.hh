/**
 * @file
 * Architectural parameters of the modelled GPU.
 *
 * Defaults describe the AMD Instinct MI50 the paper evaluates on:
 * 60 CUs in 4 Shader Engines of 15 CUs, 2560 threads per CU, ~13.4
 * TFLOP/s fp32 and 1 TB/s of HBM2 bandwidth. All rate parameters are
 * per-nanosecond so they compose directly with Tick arithmetic.
 */

#ifndef KRISP_KERN_ARCH_PARAMS_HH
#define KRISP_KERN_ARCH_PARAMS_HH

namespace krisp
{

/** Compute/memory geometry and rates of the simulated device. */
struct ArchParams
{
    /** Shader engines (clusters). */
    unsigned numSe = 4;
    /** Compute units per shader engine. */
    unsigned cusPerSe = 15;
    /** Maximum resident threads per CU. */
    unsigned threadsPerCu = 2560;

    /** Peak fp32 throughput of one CU, in FLOP per ns. */
    double cuFlopsPerNs = 223.0;
    /** Aggregate DRAM bandwidth, in bytes per ns (1024 = 1 TB/s). */
    double memBwBytesPerNs = 1024.0;
    /**
     * Peak DRAM bandwidth one CU can generate, bytes per ns. Bounds
     * how few CUs can still saturate their bandwidth share; this is
     * what creates the min-CU plateau of memory-bound kernels.
     */
    double perCuIssueBytesPerNs = 34.0;

    unsigned totalCus() const { return numSe * cusPerSe; }

    /** The MI50 configuration used throughout the paper. */
    static ArchParams
    mi50()
    {
        return ArchParams{};
    }
};

} // namespace krisp

#endif // KRISP_KERN_ARCH_PARAMS_HH
