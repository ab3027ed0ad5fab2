/**
 * @file
 * End-to-end convenience layer tying the whole framework together:
 * compile a workload at an optimization level, lower it for a target,
 * execute/profile it, synthesize its clone, and recompile the clone —
 * the exact flow of the paper's Figure 1.
 *
 * The stage-oriented entry point is pipeline::Session (session.hh),
 * which adds a content-addressed artifact cache and streaming RunSink
 * delivery; the free functions here are single-shot conveniences.
 */

#ifndef BSYN_PIPELINE_PIPELINE_HH
#define BSYN_PIPELINE_PIPELINE_HH

#include <string>
#include <vector>

#include "opt/pipeline.hh"
#include "profile/profiler.hh"
#include "sim/machine.hh"
#include "synth/synthesizer.hh"
#include "workloads/suite.hh"

namespace bsyn::pipeline
{

/** Compile source at a level (optionally scheduling for in-order). */
ir::Module compileSource(const std::string &source, const std::string &name,
                         opt::OptLevel level,
                         bool schedule_for_in_order = false);

/** Compile + lower + execute; @return functional execution stats. */
sim::ExecStats runSource(const std::string &source, const std::string &name,
                         opt::OptLevel level, const isa::TargetInfo &target);

/** Dynamic instruction count of a source at O0/x86 (calibration). */
uint64_t measureInstructions(const std::string &source);

/** One fully processed workload: profile + synthetic clone. */
struct WorkloadRun
{
    workloads::Workload workload;
    profile::StatisticalProfile profile; ///< measured at -O0
    synth::SyntheticBenchmark synthetic;
};

/** Default synthesis options used across the evaluation (fixed seed,
 *  paper-equivalent instruction budget): SynthesisOptions{}. */
synth::SynthesisOptions defaultSynthesisOptions();

/**
 * Derive the synthesis seed for one workload of a batch from the batch
 * base seed and the workload's name. Depends on nothing else — not on
 * suite order, thread count or scheduling — so a batch run reproduces
 * byte-identical clones no matter how it is parallelized, while each
 * workload still draws from its own RNG stream.
 */
uint64_t deriveWorkloadSeed(uint64_t baseSeed, const std::string &name);

/** Resolve a requested worker count for a batch of @p suiteSize jobs:
 *  0 means one per hardware thread; the result is clamped to the batch
 *  size so a wide pool never idles on a narrow suite. */
unsigned resolveSuiteThreads(unsigned requested, size_t suiteSize);

/** Timing of one source, optionally cut at normalized execution
 *  points. */
struct PhasedTiming
{
    sim::TimingStats stats; ///< whole-run timing (cuts do not perturb it)

    /** Absolute retired-instruction boundary for each requested cut
     *  (cut fraction scaled by the run's instruction count). */
    std::vector<uint64_t> cutInstructions;

    /** Cycle count at each boundary; parallel to cutInstructions. */
    std::vector<uint64_t> cutCycles;
};

/**
 * Compile source for a machine (its ISA decides scheduling) at a level
 * and run the timing model, with cycle checkpoints at the normalized
 * execution fractions @p cuts (0 < f < 1, strictly increasing). The
 * segment between consecutive cuts yields a per-interval CPI — the
 * fidelity report uses this to score clone CPI per detected phase of
 * the original. Resolving the fractions to instruction counts costs
 * one fast-path run, which a call without cuts skips.
 */
PhasedTiming timeOnMachine(const std::string &source,
                           const std::string &name, opt::OptLevel level,
                           const sim::MachineSpec &machine,
                           const std::vector<double> &cuts = {});

} // namespace bsyn::pipeline

#endif // BSYN_PIPELINE_PIPELINE_HH
