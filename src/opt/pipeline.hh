/**
 * @file
 * Optimization-level pipelines: the framework's model of -O0/-O1/-O2/-O3.
 *
 *   O0  nothing (the front end's frame-slot-per-local shape survives)
 *   O1  mem2reg, copy propagation, constant folding, DCE, CFG cleanup
 *   O2  O1 + local CSE, LICM, strength reduction (+ list scheduling on
 *       in-order targets)
 *   O3  O2 + inlining of small functions, then the O2 pipeline again
 */

#ifndef BSYN_OPT_PIPELINE_HH
#define BSYN_OPT_PIPELINE_HH

#include <string>

#include "ir/module.hh"

namespace bsyn::opt
{

/** Compiler optimization levels, mirroring GCC's -O flags. */
enum class OptLevel : uint8_t { O0, O1, O2, O3 };

/** @return "O0".."O3". */
const char *optLevelName(OptLevel level);

/** Parse "O0".."O3" / "-O0".."-O3"; fatal() otherwise. */
OptLevel optLevelByName(const std::string &name);

/** Pipeline configuration knobs (ablation switches). */
struct OptOptions
{
    /** Schedule for an in-order (EPIC) target: run the list scheduler.
     *  Out-of-order targets skip it (and keep fusion-friendly order). */
    bool scheduleForInOrder = false;

    /** Allow inlining at O3. */
    bool enableInlining = true;
};

/**
 * Optimize @p mod in place at @p level.
 *
 * @return number of pipeline iterations that changed something.
 */
int optimize(ir::Module &mod, OptLevel level, const OptOptions &opts = {});

/**
 * Inline calls to small non-recursive functions (exposed separately for
 * tests and ablations). @return number of call sites inlined.
 */
int inlineSmallFunctions(ir::Module &mod, size_t max_callee_insts);

} // namespace bsyn::opt

#endif // BSYN_OPT_PIPELINE_HH
