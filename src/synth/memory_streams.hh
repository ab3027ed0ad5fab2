/**
 * @file
 * Memory stream planning (paper §III-B.4 + Table I): the synthetic
 * benchmark walks pre-allocated arrays with per-class strides so every
 * memory access reproduces its profiled hit/miss ratio. One integer and
 * one double stream exist per miss-rate class actually used; class-0
 * (always hit) accesses use a small array with constant indices.
 */

#ifndef BSYN_SYNTH_MEMORY_STREAMS_HH
#define BSYN_SYNTH_MEMORY_STREAMS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/type.hh"
#include "profile/memory_profile.hh"

namespace bsyn::synth
{

/** Planning and expression generation for the mStream/dStream arrays. */
class StreamPlan
{
  public:
    /** Elements per striding stream; must be a power of two and large
     *  enough that the walk defeats every cache size under study. */
    explicit StreamPlan(uint64_t stream_elems = 16384);

    /** Mark a class as used by integer (or fp) accesses. */
    void use(int miss_class, bool is_fp);

    /** Array name for a class ("mStream2" / "dStream2"). */
    std::string arrayName(int miss_class, bool is_fp) const;

    /** Index-variable name for a class ("x2" / "fx2"). */
    std::string indexVar(int miss_class, bool is_fp) const;

    /**
     * Elements the index advances per access so the byte stride matches
     * Table I (4*class bytes for 4-byte ints; doubles approximate).
     */
    uint64_t strideElems(int miss_class, bool is_fp) const;

    /** The "& mask" constant for striding streams. */
    uint64_t mask() const { return streamElems - 1; }

    uint64_t elems() const { return streamElems; }

    /** Global array declarations for every used stream. */
    std::vector<std::string> globalDecls() const;

    /** All (class, is_fp) pairs in use. */
    std::vector<std::pair<int, bool>> used() const;

    /** An expression reading a representative cell of each used stream
     *  (for the final checksum printf). */
    std::string checksumExpr() const;

  private:
    uint64_t streamElems;
    std::array<bool, profile::numMissClasses> intUsed{};
    std::array<bool, profile::numMissClasses> fpUsed{};
};

} // namespace bsyn::synth

#endif // BSYN_SYNTH_MEMORY_STREAMS_HH
