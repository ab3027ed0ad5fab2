/**
 * @file
 * Force-inline attribute for the simulator's hot paths. The dispatch
 * loop is one huge function, so the compiler's growth limits stop
 * inlining long before the hook wrappers, the cache lookup and the
 * timed scheduler are folded in — and one out-of-line call per retired
 * instruction costs more than the work it wraps (it also makes the
 * loop's checked-out hook state escape, which blocks keeping it in
 * registers). Cold bodies behind these stay out of line.
 */

#ifndef BSYN_SUPPORT_INLINE_HH
#define BSYN_SUPPORT_INLINE_HH

#if defined(__GNUC__) || defined(__clang__)
#define BSYN_FORCE_INLINE inline __attribute__((always_inline))
#else
#define BSYN_FORCE_INLINE inline
#endif

#endif // BSYN_SUPPORT_INLINE_HH
