#include "synth/synthesizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/string_util.hh"
#include "synth/scale_down.hh"

namespace bsyn::synth
{

namespace
{

/** Profiles with more phases than this synthesize from the aggregate.
 *  Each phase gets its own skeleton, so the clone's static footprint
 *  grows with the phase count — and a profile cut into that many
 *  phases is usually oscillation noise, not macro structure worth
 *  duplicating code for. */
constexpr size_t kMaxPhases = 8;

SyntheticBenchmark
generateOnce(const profile::StatisticalProfile &prof, uint64_t r,
             const SynthesisOptions &opts)
{
    Rng rng(opts.seed ^ (r * 0x9e3779b97f4a7c15ULL));

    SyntheticBenchmark syn;
    syn.name = prof.workloadName + "_syn";
    syn.reductionFactor = r;

    // Phase-aware synthesis scales every phase by the same global R (the
    // phase instruction counts sum to the aggregate, so the clone's
    // total budget — and the calibration ladder tuning it — is
    // unchanged) and gives each its own skeleton, stitched into one
    // file behind a main() that drives the phases in profile order. An
    // aggregate clone is the one-phase case, with prefix "f".
    bool multi = opts.phaseAware && prof.multiPhase() &&
                 prof.phases.size() <= kMaxPhases;
    std::vector<EmitPhase> phases(multi ? prof.phases.size() : 1);
    for (size_t i = 0; i < phases.size(); ++i) {
        phases[i].sfgl = scaleDown(multi ? prof.phases[i].sfgl : prof.sfgl, r);
        phases[i].skeleton = buildSkeleton(
            phases[i].sfgl, rng,
            {multi ? "p" + std::to_string(i) + "f" : "f", opts.useLoopInfo});
    }
    EmitResult emitted = emitC(phases, rng, opts.usePatterns);

    syn.cSource = std::move(emitted.source);
    syn.phases = static_cast<uint32_t>(phases.size());
    syn.patternStats = emitted.patternStats;
    return syn;
}

} // namespace

std::string
SynthesisOptions::fingerprint() const
{
    return strprintf("seed=%llu;R=%llu;target=%llu;phaseAware=%d;"
                     "loopInfo=%d;patterns=%d",
                     static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(reductionFactor),
                     static_cast<unsigned long long>(targetInstructions),
                     int(phaseAware), int(useLoopInfo), int(usePatterns));
}

SyntheticBenchmark
synthesize(const profile::StatisticalProfile &prof,
           const SynthesisOptions &opts, const MeasureFn &measure,
           const ParallelFn &parallel)
{
    uint64_t r = opts.reductionFactor
                     ? opts.reductionFactor
                     : chooseReductionFactor(prof.dynamicInstructions,
                                             opts.targetInstructions);
    SyntheticBenchmark syn = generateOnce(prof, r, opts);

    if (!measure || opts.reductionFactor != 0)
        return syn;

    // Calibration: the analytic R misses when control structure (loop
    // overheads, guards, index advances) shifts the clone's size —
    // the paper retunes R empirically. Instead of a serial
    // remeasure-retune chain (whose every round depends on the one
    // before), fan one deterministic ladder of candidates — the
    // analytic retune R*ratio plus R*ratio x1.5 and /1.5 — and keep
    // whichever measured count lands closest to the budget. The
    // candidate set and the pick depend only on measurements, never on
    // scheduling, so the result is byte-identical serial, parallel,
    // alone or in a batch.
    uint64_t measured = measure(syn.cSource);
    if (measured == 0)
        return syn;
    double ratio = double(measured) / double(opts.targetInstructions);
    if (ratio < 2.0 && ratio > 0.5)
        return syn; // close enough (within 2x)

    auto clampR = [](double v) {
        return std::clamp<uint64_t>(
            static_cast<uint64_t>(v + 0.5), 1, 250);
    };
    uint64_t base = clampR(double(r) * ratio);
    std::vector<uint64_t> ladder;
    auto push = [&](uint64_t cand) {
        if (cand == r)
            return; // already generated and measured
        for (uint64_t seen : ladder)
            if (seen == cand)
                return;
        ladder.push_back(cand);
    };
    push(base);
    push(clampR(double(base) * 1.5));
    push(clampR(double(base) / 1.5));
    if (ladder.empty())
        return syn;

    std::vector<SyntheticBenchmark> cands(ladder.size());
    std::vector<uint64_t> counts(ladder.size(), 0);
    auto evalOne = [&](size_t i) {
        cands[i] = generateOnce(prof, ladder[i], opts);
        counts[i] = measure(cands[i].cSource);
    };
    if (parallel && ladder.size() > 1)
        parallel(ladder.size(), evalOne);
    else
        for (size_t i = 0; i < ladder.size(); ++i)
            evalOne(i);

    // Pick by log-distance to the budget; the initial (r, measured)
    // pair competes too, so the fan-out can only improve on it. Ties
    // go to the smaller R (cheaper clone).
    auto score = [&](uint64_t count) {
        if (count == 0)
            return std::numeric_limits<double>::infinity();
        return std::fabs(
            std::log(double(count) / double(opts.targetInstructions)));
    };
    double bestScore = score(measured);
    size_t best = ladder.size(); // sentinel: keep the initial clone
    for (size_t i = 0; i < ladder.size(); ++i) {
        double s = score(counts[i]);
        if (s < bestScore ||
            (s == bestScore && best < ladder.size() &&
             ladder[i] < ladder[best]) ||
            (s == bestScore && best == ladder.size() &&
             ladder[i] < r)) {
            bestScore = s;
            best = i;
        }
    }
    return best < ladder.size() ? std::move(cands[best])
                                : std::move(syn);
}

} // namespace bsyn::synth
