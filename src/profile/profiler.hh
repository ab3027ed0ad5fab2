/**
 * @file
 * The workload profiler (the paper's Pin role, §III-A): executes a
 * -O0-shaped program under instrumentation and produces the complete
 * StatisticalProfile — SFGL with loop annotations, branch taken and
 * transition rates, memory hit/miss classes, and the instruction mix.
 */

#ifndef BSYN_PROFILE_PROFILER_HH
#define BSYN_PROFILE_PROFILER_HH

#include <map>
#include <string>

#include "ir/module.hh"
#include "isa/machine_program.hh"
#include "profile/statistical_profile.hh"
#include "sim/decoded_program.hh"

namespace bsyn::profile
{

/** Profiling parameters. */
struct ProfileOptions
{
    /** Cache simulated during profiling for hit/miss classification. */
    sim::CacheConfig profilingCache{8 * 1024, 32, 4};

    /** Slice checkpoint interval in retired instructions; the interval
     *  doubles whenever maxSliceCheckpoints checkpoints accumulate
     *  (sim::SliceOptions), so the effective slice length is derived
     *  from the run's total instruction count — no wall-clock input.
     *  0 disables slicing: the profile is single-phase. */
    uint64_t sliceBaseLength = 4096;

    /** Checkpoint budget before adjacent slice pairs coalesce. */
    static constexpr uint32_t maxSliceCheckpoints = 64;

    /** The slice settings above as the engine takes them (base length
     *  0 when slicing is off). */
    sim::SliceOptions sliceOptions() const;

    /** Every field as a stable string: the profile cache key. A field
     *  added above must join it, or sessions would share profiles
     *  across settings. */
    std::string fingerprint() const;
};

/**
 * What an exec count decides: each retire of @p mi makes as many data
 * accesses as it reads and writes memory (a fused load-op-store makes
 * two) and, at a CondBr, one branch execution. The profiling counters
 * (sim::InstrumentedCounters) count neither; the profile derives both
 * from @p exec retires, here and nowhere else.
 */
inline uint64_t
derivedAccesses(const isa::MInst &mi, uint64_t exec)
{
    return exec * (mi.readsMemory() + mi.writesMemory());
}

inline uint64_t
derivedBranches(const isa::MInst &mi, uint64_t exec)
{
    return mi.kind == isa::MKind::CondBr ? exec : 0;
}

/**
 * What one profiling run measured — the input of assembleProfile().
 * profileWorkload() fills it from the fused instrumented run, with the
 * mix, block counts and edges reconstructed from the per-PC counters;
 * the reference profiler in tests/oracle fills it from a live observer
 * stream, so the two meet here.
 */
struct RunMeasurements
{
    sim::ExecStats exec;
    InstrMix mix;
    sim::InstrumentedCounters counters;            ///< per PC
    std::vector<uint64_t> blockExec;               ///< per SFGL block
    std::map<std::pair<int, int>, uint64_t> edges; ///< block -> block
    sim::SlicedCounters slices; ///< no slices when slicing is off
};

/**
 * Profile a workload.
 *
 * @param mod the IR module compiled at the low optimization level
 *            (provides the CFG for loop detection).
 * @param prog the lowered program actually executed; must carry
 *             provenance to @p mod (same module, any target).
 * @param opts profiling parameters.
 * @return the complete statistical profile.
 */
StatisticalProfile profileWorkload(const ir::Module &mod,
                                   const isa::MachineProgram &prog,
                                   const ProfileOptions &opts = {});

/**
 * Turn one run's measurements into the statistical profile: the SFGL
 * with its loop, branch and memory annotations, the instruction mix
 * and, from the slice stream, the phase list. @p run must come from
 * executing @p prog; profileWorkload() is this step applied to the
 * fused run.
 */
StatisticalProfile assembleProfile(const ir::Module &mod,
                                   const isa::MachineProgram &prog,
                                   const RunMeasurements &run);

/**
 * Convenience wrapper used throughout the evaluation: lower @p mod for
 * the profiling target (x86 with fusion disabled, so instruction
 * sequences have the clean load/op/store shape pattern recognition
 * expects) and profile it.
 */
StatisticalProfile profileModule(const ir::Module &mod,
                                 const ProfileOptions &opts = {});

} // namespace bsyn::profile

#endif // BSYN_PROFILE_PROFILER_HH
