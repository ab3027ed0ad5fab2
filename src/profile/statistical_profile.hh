/**
 * @file
 * The statistical profile: everything the synthesizer needs to generate
 * a clone, and nothing else. This is the artifact a company would ship
 * instead of its proprietary source (paper Fig 1) — hence it is
 * serializable and deliberately contains no code text, only statistics.
 */

#ifndef BSYN_PROFILE_STATISTICAL_PROFILE_HH
#define BSYN_PROFILE_STATISTICAL_PROFILE_HH

#include <string>

#include "profile/instr_mix.hh"
#include "profile/sfgl.hh"

namespace bsyn::profile
{

/**
 * One program phase: the same sub-profile shape as the aggregate
 * (SFGL + mix + branch + memory annotations), measured over one
 * contiguous run of retired-instruction slices. Single-phase profiles
 * carry exactly one phase that mirrors the aggregate.
 */
struct PhaseProfile
{
    uint64_t dynamicInstructions = 0;
    uint64_t firstSlice = 0; ///< index of the phase's first slice
    uint64_t sliceCount = 1; ///< slices merged into the phase
    InstrMix mix;
    Sfgl sfgl;
};

/**
 * Complete workload profile (paper §III-A). Since v3 the profile is
 * time-sliced: in addition to the whole-run aggregate it carries an
 * ordered list of per-phase sub-profiles (adjacent slices merged by
 * behavioural similarity). v1/v2 JSON still loads — an old file
 * becomes a single-phase v3 whose one phase equals the aggregate.
 */
struct StatisticalProfile
{
    std::string workloadName;
    uint64_t dynamicInstructions = 0;
    InstrMix mix;
    Sfgl sfgl;

    /** Retired-instruction checkpoint interval of the slice stream the
     *  phases were detected on; 0 when profiled without slicing (or
     *  loaded from a pre-v3 file). */
    uint64_t sliceLength = 0;

    /** Slices the run was cut into (before phase merging). */
    uint64_t sliceCount = 0;

    /** Ordered phase list. Always non-empty after profiling or
     *  loading; phases[0] equals the aggregate when there is only
     *  one phase. */
    std::vector<PhaseProfile> phases;

    size_t phaseCount() const { return phases.empty() ? 1 : phases.size(); }
    bool multiPhase() const { return phases.size() > 1; }

    /** Serialize to / parse from a JSON document string, with no
     *  intermediate Json value. Parsing checks every field and fails
     *  with a FatalError that names its JSON path. */
    std::string serialize() const;
    static StatisticalProfile deserialize(const std::string &text);

    /** File round-trip helpers. */
    void saveTo(const std::string &path) const;
    static StatisticalProfile loadFrom(const std::string &path);
};

} // namespace bsyn::profile

#endif // BSYN_PROFILE_STATISTICAL_PROFILE_HH
