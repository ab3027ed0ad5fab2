/**
 * @file
 * The Synthesizer facade: statistical profile in, synthetic C benchmark
 * out. Wires together reduction-factor selection, SFGL scale-down,
 * skeleton generation and C emission, with an optional calibration loop
 * that retunes R until the clone's dynamic instruction count lands near
 * the requested budget (the paper chooses R empirically so clones run
 * ~10M instructions).
 */

#ifndef BSYN_SYNTH_SYNTHESIZER_HH
#define BSYN_SYNTH_SYNTHESIZER_HH

#include <functional>
#include <string>

#include "profile/statistical_profile.hh"
#include "synth/c_emitter.hh"
#include "synth/skeleton.hh"

namespace bsyn::synth
{

/** Full synthesis configuration: the settings callers vary. The
 *  default-constructed value is the evaluation's default (what `bsyn
 *  synth` and `bsyn suite` use). */
struct SynthesisOptions
{
    uint64_t seed = 0xb5e9c0de;

    /** Fixed reduction factor; 0 selects automatically from the target
     *  and retunes it by measurement (see synthesize()). */
    uint64_t reductionFactor = 0;

    /** Dynamic-instruction budget for the clone (paper: ~10M; scaled
     *  down here because whole suites run through an interpreter). */
    uint64_t targetInstructions = 120000;

    /** Stitch one skeleton per profile phase (v3 profiles). When off —
     *  or when the profile is single-phase, or has more phases than
     *  the synthesizer stitches — the clone is generated from the
     *  aggregate. */
    bool phaseAware = true;

    /** Use the SFGL's loop annotation (the "L" in SFGL). When false,
     *  loops are flattened into Repeat wrappers — the prior-work
     *  baseline the paper compares against (ablation). */
    bool useLoopInfo = true;

    /** Reproduce the profiled instruction sequences. When false,
     *  statement shapes come from each block's aggregate class
     *  histogram — the "statistics, not patterns" ablation. */
    bool usePatterns = true;

    /** Every field as a stable string: the synthesis cache key. A
     *  field added above must join it, or sessions would share clones
     *  across settings. */
    std::string fingerprint() const;
};

/** The synthesized clone. */
struct SyntheticBenchmark
{
    std::string name;
    std::string cSource;
    uint64_t reductionFactor = 1;
    /** Profile phases the clone was stitched from (1 = aggregate). */
    uint32_t phases = 1;
    PatternStats patternStats;
};

/**
 * Callback that compiles+runs a candidate source and returns its
 * dynamic instruction count. Sessions pass a closure over their decode
 * cache so repeated calibration measurements skip recompilation.
 */
using MeasureFn = std::function<uint64_t(const std::string &source)>;

/**
 * Callback that runs fn(0)..fn(n-1), possibly concurrently (must
 * block until all are done). Sessions pass Session::parallelFor so
 * one clone's calibration candidates are generated and measured
 * across the pool; an empty function runs them serially. The parallel
 * runner only schedules work — the synthesized bytes are identical
 * with or without it.
 */
using ParallelFn =
    std::function<void(size_t, const std::function<void(size_t)> &)>;

/**
 * Generate a synthetic clone of @p prof.
 *
 * When the first calibration measurement lands outside the accepted
 * band, the retune does not iterate serially: it fans a deterministic
 * ladder of candidate reduction factors (the analytic retune and a
 * x1.5 bracket around it) through @p measure — concurrently when
 * @p parallel is given — and keeps the candidate whose measured count
 * lands closest to the budget.
 *
 * @param prof the statistical profile (possibly consolidated).
 * @param opts synthesis configuration.
 * @param measure optional measurement callback (used by the calibration
 *        loop); pass an empty function to skip calibration.
 * @param parallel optional concurrent runner for the candidate ladder.
 */
SyntheticBenchmark
synthesize(const profile::StatisticalProfile &prof,
           const SynthesisOptions &opts = {},
           const MeasureFn &measure = {},
           const ParallelFn &parallel = {});

} // namespace bsyn::synth

#endif // BSYN_SYNTH_SYNTHESIZER_HH
