/**
 * @file
 * Analytic surrogate: the cheap tier of the two-tier evaluator.
 *
 * The surrogate never runs the simulator. It combines the profiled
 * per-model latency envelopes (roofline latency at every CU count,
 * precomputed once) with a fluid-share queueing estimate per shard
 * to produce a score comparable across candidates: a rough stand-in
 * for the latency x energy placement cost. The annealer prunes
 * neighbors whose surrogate score is far above the best score it has
 * seen, so only plausible candidates pay for a ground-truth sim.
 *
 * Determinism: scores are pure double arithmetic over the candidate's
 * *canonical* form — two shard-permuted candidates present the exact
 * same operand sequence, hence bit-equal scores.
 */

#ifndef KRISP_SEARCH_SURROGATE_HH
#define KRISP_SEARCH_SURROGATE_HH

#include <vector>

#include "search/placement.hh"

namespace krisp
{

/** Per-model inputs the surrogate precomputes from the profiler. */
struct ModelEnvelope
{
    /** Isolated batch latency at 1..totalCus CUs ([0] unused). */
    std::vector<double> latencyNs;
    /** Model-wise Required-CUs kneepoint. */
    unsigned rightSizeCus = 0;
    /** Kernels per inference (reconfig protocol cost scale). */
    unsigned kernelCount = 0;
};

class SurrogateModel
{
  public:
    /** Profiles every model in @p problem once (the expensive bit). */
    explicit SurrogateModel(const PlacementProblem &problem);

    /**
     * Score @p cand (lower is better). @p cand must be canonical;
     * score() canonicalises defensively, which is a no-op on an
     * already-canonical candidate.
     */
    double score(const PlacementCandidate &cand) const;

    /** Estimated weighted service latency (ms) of the candidate. */
    double latencyMs(const PlacementCandidate &cand) const;
    /** Estimated energy per request (J) of the candidate. */
    double energyPerRequestJ(const PlacementCandidate &cand) const;

    const ModelEnvelope &envelope(unsigned model) const
    {
        return envelopes_[model];
    }

  private:
    struct Estimate
    {
        double latencyMs = 0;
        double energyJ = 0;
    };
    Estimate estimate(const PlacementCandidate &cand) const;

    const PlacementProblem &problem_;
    std::vector<ModelEnvelope> envelopes_;
    unsigned totalCus_;
};

} // namespace krisp

#endif // KRISP_SEARCH_SURROGATE_HH
