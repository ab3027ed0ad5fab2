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

/** One phase of a clone: its scaled-down SFGL, which provides the
 *  per-block code, and its skeleton. */
struct EmitPhase
{
    profile::Sfgl sfgl;
    Skeleton skeleton;
};

/**
 * Render the synthetic benchmark: one skeleton per phase, stitched into
 * a single file behind one main() that drives the phases in profile
 * order; an aggregate clone is one phase. All phases share one stream
 * plan, one pattern generator and one rng, so memory behaviour stays
 * consistent across the file.
 *
 * @param rng the seeded generator (constants, obfuscation choices).
 * @param use_patterns see SynthesisOptions::usePatterns.
 */
EmitResult emitC(const std::vector<EmitPhase> &phases, Rng &rng,
                 bool use_patterns = true);

} // namespace bsyn::synth

#endif // BSYN_SYNTH_C_EMITTER_HH
