/**
 * @file
 * Branch behaviour profiling: per-branch taken rate and transition rate
 * (how often the outcome flips between taken and not-taken, after
 * Huang/Sallee/Farrens [12]). The paper classifies branches as easy
 * (very low or very high transition rate) or hard (medium), and models
 * them differently in the synthetic benchmark.
 */

#ifndef BSYN_PROFILE_BRANCH_PROFILE_HH
#define BSYN_PROFILE_BRANCH_PROFILE_HH

#include <cstdint>

namespace bsyn::profile
{

/** Per-static-branch outcome counters; a transition is an outcome that
 *  differs from the same branch's previous one. */
struct BranchStats
{
    uint64_t executions = 0;
    uint64_t taken = 0;
    uint64_t transitions = 0;

    double
    takenRate() const
    {
        return executions ? double(taken) / double(executions) : 0.0;
    }

    double
    transitionRate() const
    {
        return executions > 1
                   ? double(transitions) / double(executions - 1)
                   : 0.0;
    }
};

/** The paper's easy/hard split: a branch whose outcome rarely flips
 *  (sticky) or nearly always flips (alternating) is easy to predict. */
inline bool
isEasyBranch(double transition_rate)
{
    return transition_rate <= 0.1 || transition_rate >= 0.9;
}

} // namespace bsyn::profile

#endif // BSYN_PROFILE_BRANCH_PROFILE_HH
