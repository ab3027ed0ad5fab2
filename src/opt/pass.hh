/**
 * @file
 * Optimization pass interfaces and shared CFG surgery utilities.
 *
 * The optimizer models the paper's "compiler space": the MiniC front end
 * emits -O0-shaped code, and the pass pipelines defined in
 * opt/pipeline.hh reproduce the behaviour of -O1/-O2/-O3 (frame-traffic
 * elimination, redundancy removal, invariant hoisting, scheduling,
 * inlining) that the paper's Figures 5, 6 and 11 measure.
 */

#ifndef BSYN_OPT_PASS_HH
#define BSYN_OPT_PASS_HH

#include <string>

#include "ir/module.hh"

namespace bsyn::opt
{

/** A function-level transformation. @return true if anything changed. */
using FunctionPass = bool (*)(ir::Function &fn, ir::Module &mod);

/**
 * Remove unreachable blocks and renumber the survivors, rewriting all
 * terminator targets. @return true if blocks were removed.
 */
bool compactBlocks(ir::Function &fn);

/**
 * Merge chains: a block with a single Jmp successor whose target has a
 * single predecessor is merged into it; blocks containing only a Jmp are
 * bypassed (jump threading). @return true on change.
 */
bool simplifyCfg(ir::Function &fn);

} // namespace bsyn::opt

#endif // BSYN_OPT_PASS_HH
