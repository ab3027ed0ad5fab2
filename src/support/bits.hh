/**
 * @file
 * Power-of-two helpers shared by the cache geometry checks and the
 * optimizer's strength reduction.
 */

#ifndef BSYN_SUPPORT_BITS_HH
#define BSYN_SUPPORT_BITS_HH

#include <cstdint>

namespace bsyn
{

inline bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); 0 for v <= 1. */
inline uint32_t
log2u(uint64_t v)
{
    uint32_t n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace bsyn

#endif // BSYN_SUPPORT_BITS_HH
