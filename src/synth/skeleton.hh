/**
 * @file
 * Skeleton generation (paper §III-B.2/3): starting from the scaled-down
 * SFGL, repeatedly pick a random basic block pro rata its remaining
 * execution count; if it belongs to a loop, generate the whole
 * (outermost-first, nested) loop structure; otherwise build a
 * straight-line chain following the dominant control-flow edges.
 * Execution counts are consumed as structures are generated; the process
 * ends when the SFGL is empty. Finally the generated structures are
 * organized into functions that deliberately do NOT correspond to the
 * original program's functions (information hiding).
 */

#ifndef BSYN_SYNTH_SKELETON_HH
#define BSYN_SYNTH_SKELETON_HH

#include <memory>
#include <vector>

#include "profile/sfgl.hh"
#include "support/rng.hh"

namespace bsyn::synth
{

/** A node of the synthetic benchmark's structural skeleton. */
struct SynNode
{
    enum class Kind : uint8_t
    {
        Block,  ///< one basic block's worth of statements
        Loop,   ///< counted for-loop
        If,     ///< conditional region (easy or hard branch model)
        Repeat, ///< residual repetition wrapper
    };

    Kind kind = Kind::Block;

    // Block
    int sfglBlock = -1;

    // Loop / Repeat
    uint64_t iterations = 0;
    std::vector<SynNode> body;

    // If
    double execProb = 1.0;       ///< probability the region executes
    bool easyBranch = true;      ///< easy: guarded never-taken else path
    double transitionRate = 0.0; ///< hard-branch modulo period source
};

/** One synthetic function: a sequence of top-level structures. */
struct SynFunction
{
    std::string name;
    std::vector<SynNode> roots;
};

/** The full skeleton. */
struct Skeleton
{
    std::vector<SynFunction> funcs; ///< called in order by main()
};

/** Skeleton-generation knobs. */
struct SkeletonOptions
{
    /** Synthetic function name prefix. Phase-aware synthesis stitches
     *  one skeleton per phase into a single file, so each phase gets a
     *  distinct prefix ("p0f", "p1f", ...) to keep names unique. */
    std::string funcPrefix = "f";

    /** Use the loop annotation (SynthesisOptions::useLoopInfo). */
    bool useLoopInfo = true;
};

/**
 * Generate the skeleton from a scaled-down SFGL. The structures are
 * split across at least 8 synthetic functions, and across one per 12
 * live blocks (at most 64) for big, consolidated profiles.
 *
 * @param scaled the scaled-down SFGL (consumed counts are internal).
 * @param rng seeded generator (drives all random choices).
 * @param opts structure knobs.
 */
Skeleton buildSkeleton(const profile::Sfgl &scaled, Rng &rng,
                       const SkeletonOptions &opts = {});

} // namespace bsyn::synth

#endif // BSYN_SYNTH_SKELETON_HH
