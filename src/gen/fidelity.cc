#include "gen/fidelity.hh"

#include <chrono>
#include <cmath>
#include <map>

#include "gen/registry.hh"
#include "support/error.hh"

namespace bsyn::gen
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
relError(double orig, double clone)
{
    double denom = std::max(std::fabs(orig), 0.01);
    return std::fabs(orig - clone) / denom;
}

/** Aggregate, comparable numbers of one profile. */
struct ProfileAggregates
{
    double loadFrac = 0, storeFrac = 0, branchFrac = 0, otherFrac = 0;
    double fpFrac = 0;
    double blocks = 0, edges = 0;
    double takenRate = 0, transitionRate = 0;
    double missRate = 0;
};

ProfileAggregates
aggregate(const profile::InstrMix &mix, const profile::Sfgl &sfgl)
{
    ProfileAggregates a;
    a.loadFrac = mix.loadFraction();
    a.storeFrac = mix.storeFraction();
    a.branchFrac = mix.branchFraction();
    a.otherFrac = mix.otherFraction();
    a.fpFrac = mix.fpFraction();

    double takenW = 0, taken = 0, trans = 0;
    double accesses = 0, expectedMisses = 0;
    size_t edges = 0;
    for (const auto &b : sfgl.blocks) {
        edges += b.succs.size();
        for (const auto &d : b.code) {
            if (d.branchExecutions > 0) {
                double w = static_cast<double>(d.branchExecutions);
                takenW += w;
                taken += w * d.takenRate;
                trans += w * d.transitionRate;
            }
            if ((d.readsMem || d.writesMem) && b.execCount > 0) {
                double w = static_cast<double>(b.execCount);
                accesses += w;
                expectedMisses +=
                    w * profile::missRateForClass(d.missClass);
            }
        }
    }
    a.blocks = static_cast<double>(sfgl.blocks.size());
    a.edges = static_cast<double>(edges);
    a.takenRate = takenW > 0 ? taken / takenW : 0.0;
    a.transitionRate = takenW > 0 ? trans / takenW : 0.0;
    a.missRate = accesses > 0 ? expectedMisses / accesses : 0.0;
    return a;
}

ProfileAggregates
aggregate(const profile::StatisticalProfile &prof)
{
    return aggregate(prof.mix, prof.sfgl);
}

/** One phase's aggregates plus its normalized execution interval
 *  [begin, end) in units of the whole run. */
struct PhaseSpan
{
    double begin = 0.0;
    double end = 1.0;
    ProfileAggregates agg;
};

std::vector<PhaseSpan>
phaseSpans(const profile::StatisticalProfile &prof)
{
    std::vector<PhaseSpan> spans;
    double total = 0;
    for (const auto &ph : prof.phases)
        total += static_cast<double>(ph.dynamicInstructions);
    if (total <= 0)
        total = 1;
    double at = 0;
    for (const auto &ph : prof.phases) {
        PhaseSpan s;
        s.begin = at / total;
        at += static_cast<double>(ph.dynamicInstructions);
        s.end = at / total;
        s.agg = aggregate(ph.mix, ph.sfgl);
        spans.push_back(std::move(s));
    }
    return spans;
}

double
mixError(const ProfileAggregates &o, const ProfileAggregates &c)
{
    return (relError(o.loadFrac, c.loadFrac) +
            relError(o.storeFrac, c.storeFrac) +
            relError(o.branchFrac, c.branchFrac) +
            relError(o.otherFrac, c.otherFrac) +
            relError(o.fpFrac, c.fpFrac)) /
           5.0;
}

void
pushMetric(InstanceFidelity &inst, const std::string &name,
           double orig, double clone)
{
    MetricScore m;
    m.metric = name;
    m.original = orig;
    m.clone = clone;
    m.error = relError(orig, clone);
    inst.metrics.push_back(std::move(m));
}

/**
 * Score the clone's phase behaviour against the original's. Phases are
 * aligned by normalized execution time: each original phase compares
 * against the clone phase covering its midpoint, so the comparison is
 * meaningful even when the detected phase counts differ (an aggregate
 * clone has one phase covering everything — its flat behaviour is
 * scored against every original phase, which is exactly the error a
 * phase-aware clone exists to remove).
 */
void
scorePhases(InstanceFidelity &inst,
            const profile::StatisticalProfile &orig,
            const profile::StatisticalProfile &clone)
{
    inst.originalPhases = orig.phaseCount();
    inst.clonePhases = clone.phaseCount();
    // Bounded error |o-c|/max(o,c): a plain relative error on small
    // counts (1 vs 5 -> 4.0) would drown every behavioural metric in
    // the instance summary.
    {
        double o = static_cast<double>(inst.originalPhases);
        double c = static_cast<double>(inst.clonePhases);
        MetricScore m;
        m.metric = "phase.count";
        m.original = o;
        m.clone = c;
        m.error = std::fabs(o - c) / std::max(o, c);
        inst.metrics.push_back(std::move(m));
    }

    std::vector<PhaseSpan> os = phaseSpans(orig);
    std::vector<PhaseSpan> cs = phaseSpans(clone);
    if (os.empty() || cs.empty())
        return;

    double sum = 0;
    for (size_t i = 0; i < os.size(); ++i) {
        double mid = (os[i].begin + os[i].end) / 2;
        size_t j = cs.size() - 1;
        for (size_t k = 0; k < cs.size(); ++k) {
            if (mid < cs[k].end) {
                j = k;
                break;
            }
        }
        PhaseScore ps;
        ps.original = i;
        ps.clone = j;
        ps.mixError = mixError(os[i].agg, cs[j].agg);
        ps.missRateError =
            relError(os[i].agg.missRate, cs[j].agg.missRate);
        ps.takenRateError =
            relError(os[i].agg.takenRate, cs[j].agg.takenRate);
        inst.phaseWorstMixError =
            std::max(inst.phaseWorstMixError, ps.mixError);
        sum += ps.mixError;
        inst.phaseScores.push_back(ps);
    }
    inst.phaseMeanMixError = sum / double(os.size());
}

/** CPI of each interval between consecutive cuts (plus the tail up to
 *  the end of the run). */
std::vector<double>
intervalCpis(const pipeline::PhasedTiming &t)
{
    std::vector<double> cpis;
    uint64_t prevInstr = 0, prevCycles = 0;
    size_t n = t.cutCycles.size();
    for (size_t i = 0; i <= n; ++i) {
        uint64_t bi =
            i < n ? t.cutInstructions[i] : t.stats.instructions;
        uint64_t bc = i < n ? t.cutCycles[i] : t.stats.cycles;
        double instr = static_cast<double>(bi - prevInstr);
        cpis.push_back(instr > 0
                           ? static_cast<double>(bc - prevCycles) / instr
                           : 0.0);
        prevInstr = bi;
        prevCycles = bc;
    }
    return cpis;
}

InstanceFidelity
scoreOne(pipeline::Session &session, const workloads::Workload &w,
         const FidelityOptions &opts)
{
    InstanceFidelity inst;
    inst.workload = w.name();
    if (Registry::global().find(w.benchmark))
        inst.family = w.benchmark;

    auto t0 = Clock::now();
    auto prof = session.profile(w);
    inst.profileSecs = secondsSince(t0);

    synth::SynthesisOptions so = opts.synthesis;
    so.seed = pipeline::deriveWorkloadSeed(so.seed, w.name());
    t0 = Clock::now();
    auto clone = session.synthesize(prof, so);
    inst.synthSecs = secondsSince(t0);

    t0 = Clock::now();
    auto cloneProf =
        session.profile(clone.cSource, w.name() + ".clone");
    inst.cloneProfileSecs = secondsSince(t0);

    ProfileAggregates o = aggregate(prof);
    ProfileAggregates c = aggregate(cloneProf);
    pushMetric(inst, "mix.load", o.loadFrac, c.loadFrac);
    pushMetric(inst, "mix.store", o.storeFrac, c.storeFrac);
    pushMetric(inst, "mix.branch", o.branchFrac, c.branchFrac);
    pushMetric(inst, "mix.other", o.otherFrac, c.otherFrac);
    pushMetric(inst, "mix.fp", o.fpFrac, c.fpFrac);
    pushMetric(inst, "sfgl.blocks", o.blocks, c.blocks);
    pushMetric(inst, "sfgl.edges", o.edges, c.edges);
    pushMetric(inst, "branch.takenRate", o.takenRate, c.takenRate);
    pushMetric(inst, "branch.transitionRate", o.transitionRate,
               c.transitionRate);
    pushMetric(inst, "mem.missRate", o.missRate, c.missRate);
    scorePhases(inst, prof, cloneProf);

    if (opts.timing) {
        t0 = Clock::now();
        // Cut both timed runs at the original's phase boundaries
        // (normalized execution fractions), so phase i's CPI covers
        // the same slice of each run.
        std::vector<double> cuts;
        std::vector<PhaseSpan> os = phaseSpans(prof);
        for (size_t i = 0; i + 1 < os.size(); ++i)
            cuts.push_back(os[i].end);
        auto ot = pipeline::timeOnMachine(w.source, w.name(),
                                          opts.timingLevel, opts.machine,
                                          cuts);
        auto ct = pipeline::timeOnMachine(clone.cSource,
                                          w.name() + ".clone",
                                          opts.timingLevel, opts.machine,
                                          cuts);
        inst.timingSecs = secondsSince(t0);
        pushMetric(inst, "timing.cpi", ot.stats.cpi(),
                   ct.stats.cpi());

        std::vector<double> ocpi = intervalCpis(ot);
        std::vector<double> ccpi = intervalCpis(ct);
        size_t n = std::min(
            {ocpi.size(), ccpi.size(), inst.phaseScores.size()});
        for (size_t i = 0; i < n; ++i) {
            PhaseScore &ps = inst.phaseScores[i];
            ps.originalCpi = ocpi[i];
            ps.cloneCpi = ccpi[i];
            ps.cpiError = relError(ps.originalCpi, ps.cloneCpi);
            inst.phaseWorstCpiError =
                std::max(inst.phaseWorstCpiError, ps.cpiError);
        }
        // Aggregate-only profiles (no detected phases) score the whole
        // run as one phase.
        if (inst.phaseScores.empty())
            inst.phaseWorstCpiError =
                relError(ot.stats.cpi(), ct.stats.cpi());
    }

    double sum = 0;
    for (const auto &m : inst.metrics) {
        sum += m.error;
        inst.maxError = std::max(inst.maxError, m.error);
    }
    inst.meanError =
        inst.metrics.empty() ? 0.0 : sum / double(inst.metrics.size());
    return inst;
}

} // namespace

FidelityReport
scoreFidelity(pipeline::Session &session,
              const std::vector<workloads::Workload> &batch,
              const FidelityOptions &opts)
{
    FidelityReport report;
    report.instances.resize(batch.size());
    auto t0 = Clock::now();
    session.parallelFor(batch.size(), [&](size_t i) {
        try {
            report.instances[i] = scoreOne(session, batch[i], opts);
        } catch (const std::exception &e) {
            InstanceFidelity bad;
            bad.workload = batch[i].name();
            if (Registry::global().find(batch[i].benchmark))
                bad.family = batch[i].benchmark;
            bad.ok = false;
            bad.error = e.what();
            report.instances[i] = std::move(bad);
        }
        report.instances[i].index = i;
    });
    report.totalSecs = secondsSince(t0);
    return report;
}

Json
fidelityResults(Json instances)
{
    // Per-metric accumulation across ok instances, in first-seen
    // metric order (deterministic: every instance scores the same
    // metric list), plus mean/max of the per-instance worst-phase mix
    // and CPI errors (the phase-aware vs aggregate-only comparison CI
    // smokes on).
    std::vector<std::string> metricOrder;
    std::map<std::string, std::pair<double, double>> metricAgg; // sum,max
    size_t okCount = 0;
    double mixSum = 0, mixMax = 0, cpiSum = 0, cpiMax = 0;
    for (size_t i = 0; i < instances.size(); ++i) {
        const Json &inst = instances.at(i);
        if (!inst.get("ok").asBool())
            continue;
        ++okCount;
        const Json &metrics = inst.get("metrics");
        for (const auto &name : metrics.keys()) {
            double err = metrics.get(name).get("relError").asNumber();
            auto [it, fresh] = metricAgg.try_emplace(name, err, err);
            if (fresh) {
                metricOrder.push_back(name);
            } else {
                it->second.first += err;
                it->second.second = std::max(it->second.second, err);
            }
        }
        const Json &phases = inst.get("phases");
        double mix = phases.get("worstMixError").asNumber();
        mixSum += mix;
        mixMax = std::max(mixMax, mix);
        double cpi = phases.get("worstCpiError").asNumber();
        cpiSum += cpi;
        cpiMax = std::max(cpiMax, cpi);
    }

    Json summary = Json::object();
    auto add = [&](const std::string &name, double sum, double max) {
        Json entry = Json::object();
        entry.set("mean", Json(okCount ? sum / double(okCount) : 0.0));
        entry.set("max", Json(max));
        summary.set(name, std::move(entry));
    };
    for (const auto &name : metricOrder)
        add(name, metricAgg.at(name).first, metricAgg.at(name).second);
    add("phaseWorstMix", mixSum, mixMax);
    add("phaseWorstCpi", cpiSum, cpiMax);

    Json root = Json::object();
    root.set("schema", Json(kFidelitySchema));
    uint64_t total = instances.size();
    root.set("instances", std::move(instances));
    root.set("summary", std::move(summary));
    root.set("scored", Json(static_cast<uint64_t>(okCount)));
    root.set("failed", Json(total - okCount));
    return root;
}

Json
FidelityReport::resultsJson() const
{
    Json list = Json::array();
    for (const auto &inst : instances) {
        Json j = Json::object();
        j.set("workload", Json(inst.workload));
        j.set("index", Json(inst.index));
        j.set("family", Json(inst.family));
        j.set("ok", Json(inst.ok));
        if (!inst.ok) {
            j.set("error", Json(inst.error));
            list.push(std::move(j));
            continue;
        }
        Json metrics = Json::object();
        for (const auto &m : inst.metrics) {
            Json entry = Json::object();
            entry.set("original", Json(m.original));
            entry.set("clone", Json(m.clone));
            entry.set("relError", Json(m.error));
            metrics.set(m.metric, std::move(entry));
        }
        j.set("metrics", std::move(metrics));
        j.set("meanRelError", Json(inst.meanError));
        j.set("maxRelError", Json(inst.maxError));

        // Phase half (v2): counts, per-phase alignment scores and the
        // worst/mean per-phase mix error.
        Json phases = Json::object();
        phases.set("original", Json(inst.originalPhases));
        phases.set("clone", Json(inst.clonePhases));
        phases.set("worstMixError", Json(inst.phaseWorstMixError));
        phases.set("meanMixError", Json(inst.phaseMeanMixError));
        phases.set("worstCpiError", Json(inst.phaseWorstCpiError));
        Json perPhase = Json::array();
        for (const auto &ps : inst.phaseScores) {
            Json p = Json::object();
            p.set("original", Json(static_cast<uint64_t>(ps.original)));
            p.set("clone", Json(static_cast<uint64_t>(ps.clone)));
            p.set("mixError", Json(ps.mixError));
            p.set("missRateError", Json(ps.missRateError));
            p.set("takenRateError", Json(ps.takenRateError));
            p.set("originalCpi", Json(ps.originalCpi));
            p.set("cloneCpi", Json(ps.cloneCpi));
            p.set("cpiError", Json(ps.cpiError));
            perPhase.push(std::move(p));
        }
        phases.set("perPhase", std::move(perPhase));
        j.set("phases", std::move(phases));
        list.push(std::move(j));
    }
    return fidelityResults(std::move(list));
}

Json
FidelityReport::toJson() const
{
    Json root = resultsJson();

    // Bench half: wall-clock provenance, aggregated per family ("" =
    // the hand-written suite). Not deterministic, not compared.
    struct FamilyBench
    {
        size_t count = 0;
        double profileSecs = 0, synthSecs = 0, cloneProfileSecs = 0,
               timingSecs = 0;
    };
    std::map<std::string, FamilyBench> perFamily;
    for (const auto &inst : instances) {
        auto &fb = perFamily[inst.family.empty() ? "figure4"
                                                 : inst.family];
        ++fb.count;
        fb.profileSecs += inst.profileSecs;
        fb.synthSecs += inst.synthSecs;
        fb.cloneProfileSecs += inst.cloneProfileSecs;
        fb.timingSecs += inst.timingSecs;
    }

    Json bench = Json::object();
    bench.set("generationSecs", Json(generationSecs));
    bench.set("totalSecs", Json(totalSecs));
    Json families = Json::object();
    for (const auto &[name, fb] : perFamily) {
        Json f = Json::object();
        f.set("instances", Json(static_cast<uint64_t>(fb.count)));
        f.set("profileSecs", Json(fb.profileSecs));
        f.set("synthSecs", Json(fb.synthSecs));
        f.set("cloneProfileSecs", Json(fb.cloneProfileSecs));
        f.set("timingSecs", Json(fb.timingSecs));
        families.set(name, std::move(f));
    }
    bench.set("perFamily", std::move(families));
    root.set("bench", std::move(bench));
    return root;
}

} // namespace bsyn::gen
