/**
 * @file
 * The C source emitter: renders the synthetic skeleton + generated
 * statements into a single self-contained C file. The output is valid
 * C (compilable with a real compiler) and valid MiniC (recompilable
 * in-framework at every optimization level), which is exactly the
 * paper's point of synthesizing at the high-level-language level.
 */

#ifndef BSYN_SYNTH_C_EMITTER_HH
#define BSYN_SYNTH_C_EMITTER_HH

#include <string>
#include <vector>

#include "synth/pattern.hh"
#include "synth/skeleton.hh"

namespace bsyn::synth
{

/** Emission result. */
struct EmitResult
{
    std::string source;
    PatternStats patternStats;
};

/**
 * Render the synthetic benchmark.
 *
 * @param sfgl the scaled-down SFGL (provides per-block code).
 * @param skeleton the structural skeleton.
 * @param rng the seeded generator (constants, obfuscation choices).
 * @param use_patterns see SynthesisOptions::usePatterns.
 */
EmitResult emitC(const profile::Sfgl &sfgl, const Skeleton &skeleton,
                 Rng &rng, bool use_patterns = true);

/** One phase's inputs to the stitched emitter. Pointees must outlive
 *  the emitC call. */
struct EmitPhase
{
    const profile::Sfgl *sfgl = nullptr;
    const Skeleton *skeleton = nullptr;
};

/**
 * Render a phase-aware benchmark: one skeleton per phase, stitched into
 * a single file behind one main() that drives the phases in profile
 * order. All phases share one stream plan, one pattern generator and
 * one rng, so memory behaviour stays consistent across the file and a
 * one-phase call is byte-identical to emitC.
 */
EmitResult emitCPhases(const std::vector<EmitPhase> &phases, Rng &rng,
                       bool use_patterns = true);

} // namespace bsyn::synth

#endif // BSYN_SYNTH_C_EMITTER_HH
