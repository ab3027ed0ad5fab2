/**
 * @file
 * Exact-semantics helpers for the C++ mirrors inside the family
 * generators. Every family self-computes its instance's expectedOutput
 * by re-running the emitted program's arithmetic in C++; these helpers
 * pin the two places where C++ and MiniC could drift — the shared
 * in-program LCG and the saturating float-to-int conversion the
 * interpreter defines (sim/interpreter.cc CvtFI: NaN -> 0, clamp to
 * the destination range, then truncate).
 */

#ifndef BSYN_GEN_MIRROR_HH
#define BSYN_GEN_MIRROR_HH

#include <cmath>
#include <cstdint>

namespace bsyn::gen::mirror
{

/** The LCG every family emits as `nextRand()` (Numerical Recipes
 *  constants, same as the hand-written workloads use). */
inline uint32_t
lcg(uint32_t &state)
{
    state = state * 1664525u + 1013904223u;
    return state;
}

/** MiniC `(int)<double>`: NaN -> 0, saturate, truncate toward zero. */
inline int32_t
castF64ToI32(double d)
{
    if (std::isnan(d))
        return 0;
    if (d < -2147483648.0)
        return INT32_MIN;
    if (d > 2147483647.0)
        return INT32_MAX;
    return static_cast<int32_t>(d);
}

} // namespace bsyn::gen::mirror

#endif // BSYN_GEN_MIRROR_HH
