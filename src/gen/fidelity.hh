/**
 * @file
 * Clone-fidelity scoring: the quantitative answer to "how closely does
 * the synthesized clone track the original's behavioral profile?". For
 * every workload (Figure-4 instance or generated family instance) the
 * report profiles the original, synthesizes its clone through the
 * session (so both stages ride the artifact cache), profiles the
 * clone, and scores per-metric errors — instruction-mix fractions,
 * SFGL block/edge counts, aggregate branch taken/transition rates,
 * the access-weighted cache miss rate, and timing-model CPI — plus a
 * per-metric mean/max summary across the batch. Serialized as JSON,
 * this is the repo's clone-accuracy scoreboard (CI's
 * BENCH_families.json).
 */

#ifndef BSYN_GEN_FIDELITY_HH
#define BSYN_GEN_FIDELITY_HH

#include <string>
#include <vector>

#include "pipeline/session.hh"
#include "sim/machine.hh"

namespace bsyn::gen
{

/** Configuration for a fidelity run. */
struct FidelityOptions
{
    /** Synthesis configuration; the seed is the batch base seed that
     *  deriveWorkloadSeed() specializes per workload, exactly like
     *  Session::processSuite — so fidelity scores the same clones a
     *  suite run produces. */
    synth::SynthesisOptions synthesis;

    /** Optimization level for the timing-model comparison. */
    opt::OptLevel timingLevel = opt::OptLevel::O2;

    /** Machine the CPI metric is measured on. */
    sim::MachineSpec machine = sim::ptlsimConfig(8);

    /** Skip the (comparatively slow) timing-model CPI metric. */
    bool timing = true;
};

/** One scored metric: original value, clone value, and the error
 *  |orig - clone| / max(|orig|, 0.01) — relative, with a floor that
 *  keeps near-zero metrics (e.g. fpFraction of integer kernels) from
 *  exploding the score. */
struct MetricScore
{
    std::string metric;
    double original = 0.0;
    double clone = 0.0;
    double error = 0.0;
};

/** Per-phase comparison of one original phase against the clone phase
 *  covering the same normalized execution interval. */
struct PhaseScore
{
    size_t original = 0; ///< original phase index
    size_t clone = 0;    ///< aligned clone phase index
    double mixError = 0.0;       ///< mean rel. error of the 5 mix fractions
    double missRateError = 0.0;  ///< rel. error of the expected miss rate
    double takenRateError = 0.0; ///< rel. error of the taken rate

    /** Timing half (filled when FidelityOptions::timing): CPI of the
     *  original and the clone over this phase's normalized execution
     *  interval — both timed runs are cut at the original's phase
     *  boundaries (sim::TimedCore::setCheckpoints), so the comparison
     *  covers the same slice of each run. */
    double originalCpi = 0.0;
    double cloneCpi = 0.0;
    double cpiError = 0.0; ///< rel. error of the per-phase CPI
};

/** Fidelity of one workload's clone. */
struct InstanceFidelity
{
    std::string workload;       ///< "crc32/small" or generated name

    /** Position in the full scored batch. scoreFidelity fills the
     *  local batch index; a sharded run remaps it to the global index
     *  so `bsyn merge` can restore full-batch order. */
    uint64_t index = 0;

    std::string family;         ///< registered family name, or ""
    bool ok = true;
    std::string error;          ///< failure description when !ok
    std::vector<MetricScore> metrics; ///< fixed metric order

    double meanError = 0.0;
    double maxError = 0.0;

    /** Phase half: detected phase counts on both sides, the per-phase
     *  alignment scores, and the worst/mean per-phase mix error — the
     *  number a phase-aware clone must beat an aggregate-only clone
     *  on (time-varying behaviour an aggregate cannot reproduce). */
    uint64_t originalPhases = 1;
    uint64_t clonePhases = 1;
    std::vector<PhaseScore> phaseScores; ///< one per original phase
    double phaseWorstMixError = 0.0;
    double phaseMeanMixError = 0.0;

    /** Worst per-phase CPI error (0 when timing is skipped) — the
     *  timing analogue of phaseWorstMixError: an aggregate clone that
     *  nails whole-run CPI can still miss a phase's CPI badly. */
    double phaseWorstCpiError = 0.0;

    /** Wall-clock provenance (bench half of the report; not part of
     *  the deterministic results). */
    double profileSecs = 0.0;
    double synthSecs = 0.0;
    double cloneProfileSecs = 0.0;
    double timingSecs = 0.0;
};

/** Schema tag of the results document. v3: instances carry their batch
 *  index, so sharded reports can be merged back into full-batch order
 *  (serve/merge.hh). v4: per-phase CPI (originalCpi/cloneCpi/cpiError
 *  per phase, worstCpiError per instance, phaseWorstCpi in the
 *  summary). */
inline constexpr const char *kFidelitySchema = "bsyn.fidelity.v4";

/**
 * The deterministic results document over @p instances, the instance
 * objects of a report in batch order: the schema, the instances, the
 * per-metric and worst-phase summary (mean and max over the ok
 * instances, accumulated in batch order) and the scored/failed counts.
 * FidelityReport::resultsJson() builds its document here, and so does
 * the shard merge from the instances of its inputs, so a merged report
 * is byte-identical to an unsharded one.
 */
Json fidelityResults(Json instances);

/** The whole scoreboard. */
struct FidelityReport
{
    std::vector<InstanceFidelity> instances; ///< batch order

    /** Wall-clock of workload generation, set by callers that
     *  generated part of the batch (the CLI does); serialized into the
     *  bench section. */
    double generationSecs = 0.0;

    /** Total wall-clock of the fidelity run. */
    double totalSecs = 0.0;

    /** Deterministic half: instances + per-metric summary. Stable for
     *  fixed inputs at any thread count — what the determinism tests
     *  compare. */
    Json resultsJson() const;

    /** Full report: results + bench timings (generation, per-family
     *  profile/synth/timing seconds). What `bsyn fidelity -o` writes. */
    Json toJson() const;
};

/**
 * Score every workload of @p batch on @p session, fanned across the
 * session's pool. Per-workload failures are isolated (ok=false with
 * the error string); they never abort the batch.
 */
FidelityReport scoreFidelity(pipeline::Session &session,
                             const std::vector<workloads::Workload> &batch,
                             const FidelityOptions &opts = {});

} // namespace bsyn::gen

#endif // BSYN_GEN_FIDELITY_HH
