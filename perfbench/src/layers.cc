#include "layers.hh"

#include <filesystem>

#include "gen/fidelity.hh"
#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "opt/pipeline.hh"
#include "pipeline/artifact_cache.hh"
#include "profile/profiler.hh"
#include "sim/decoded_program.hh"
#include "support/string_util.hh"

namespace perfbench
{

using namespace bsyn;
namespace fs = std::filesystem;

namespace
{

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** One input's layer timings. */
struct Sample
{
    double compileMs = 0, optimizeMs = 0, lowerMs = 0, decodeMs = 0;
    double fastS = 0, instrumentedS = 0, slicedS = 0, timedS = 0;
    uint64_t retired = 0, timedRetired = 0;
    double profileMs = 0, synthMs = 0, measureMs = 0;
    uint64_t measures = 0;
    std::string profileText, cloneText;
};

/** Time every layer's public call once on input @p w. */
void
sampleInput(const workloads::Workload &w, const synth::SynthesisOptions &base,
            pipeline::Session &session, Sample &s)
{
    const sim::MachineSpec machine = gen::FidelityOptions().machine;
    const profile::ProfileOptions popts;

    auto t = Clock::now();
    ir::Module mod = lang::compile(w.source, w.name());
    s.compileMs = msSince(t);

    // The profiler's -O0 module and the timing model's -O2 one.
    ir::Module mod2 = lang::compile(w.source, w.name());
    opt::OptOptions oo;
    oo.scheduleForInOrder = machine.core.inOrder;
    t = Clock::now();
    opt::optimize(mod, opt::OptLevel::O0);
    opt::optimize(mod2, opt::OptLevel::O2, oo);
    s.optimizeMs = msSince(t);

    isa::LoweringOptions lo;
    lo.applyFusion = false; // the profiler's lowering
    t = Clock::now();
    isa::MachineProgram prog = isa::lower(mod, isa::targetX86(), lo);
    isa::MachineProgram prog2 = isa::lower(mod2, machine.isa);
    s.lowerMs = msSince(t);

    t = Clock::now();
    sim::DecodedProgram dec(prog);
    sim::DecodedProgram dec2(prog2);
    s.decodeMs = msSince(t);

    t = Clock::now();
    s.retired = sim::execute(dec).instructions;
    s.fastS = secondsSince(t);

    sim::InstrumentedCounters counters;
    t = Clock::now();
    sim::executeInstrumented(dec, popts.profilingCache, counters);
    s.instrumentedS = secondsSince(t);

    t = Clock::now();
    s.timedRetired = sim::simulateTiming(dec2, machine.core).instructions;
    s.timedS = secondsSince(t);

    // Sliced execution and the whole profile of the same decode, each
    // best of two: their difference (reconstruction and phase
    // detection) is smaller than a cold first run's warm-up.
    sim::SliceOptions so;
    so.baseSliceLength = popts.sliceBaseLength;
    so.maxSlices = popts.maxSliceCheckpoints;
    profile::StatisticalProfile prof;
    s.slicedS = s.profileMs = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
        sim::InstrumentedCounters sliceCounters;
        sim::SlicedCounters slices;
        t = Clock::now();
        sim::executeInstrumentedSliced(dec, popts.profilingCache,
                                       sliceCounters, slices, so);
        s.slicedS = std::min(s.slicedS, secondsSince(t));
        t = Clock::now();
        prof = profile::profileWorkload(mod, prog, popts);
        s.profileMs = std::min(s.profileMs, msSince(t));
    }

    // Calibration candidates pass through these wrappers: each
    // measurement is counted and timed on its way to the session.
    synth::MeasureFn measure = [&](const std::string &src) {
        auto m0 = Clock::now();
        uint64_t n = session.measureInstructions(src);
        s.measureMs += msSince(m0);
        ++s.measures;
        return n;
    };
    synth::ParallelFn parallel =
        [&](size_t n, const std::function<void(size_t)> &fn) {
            session.parallelFor(n, fn);
        };
    synth::SynthesisOptions opts = base;
    opts.seed = pipeline::deriveWorkloadSeed(base.seed, w.name());
    t = Clock::now();
    synth::SyntheticBenchmark clone =
        synth::synthesize(prof, opts, measure, parallel);
    s.synthMs = msSince(t);

    s.profileText = prof.serialize();
    Json entry = Json::object();
    entry.set("name", Json(clone.name));
    entry.set("cSource", Json(clone.cSource));
    s.cloneText = entry.dump(-1);
}

/** Repeat @p fn until it has run for at least 50 ms; @return seconds
 *  per call. */
template <typename Fn>
double
perCall(Fn &&fn)
{
    auto t0 = Clock::now();
    uint64_t calls = 0;
    do {
        fn();
        ++calls;
    } while (secondsSince(t0) < 0.05);
    return secondsSince(t0) / double(calls);
}

} // namespace

void
measureLayers(Workload &w, Gate &gate, Metrics &m)
{
    const auto &inputs = w.inputs();
    std::vector<Sample> samples(inputs.size());
    pipeline::SessionOptions so;
    so.pool = &w.pool();
    so.synthesis = w.synthesis();
    pipeline::Session session(std::move(so));
    w.pool().parallelFor(inputs.size(), [&](size_t i) {
        sampleInput(inputs[i], w.synthesis(), session, samples[i]);
    });

    Sample sum;
    for (const auto &s : samples) {
        sum.compileMs += s.compileMs;
        sum.optimizeMs += s.optimizeMs;
        sum.lowerMs += s.lowerMs;
        sum.decodeMs += s.decodeMs;
        sum.fastS += s.fastS;
        sum.instrumentedS += s.instrumentedS;
        sum.slicedS += s.slicedS;
        sum.timedS += s.timedS;
        sum.retired += s.retired;
        sum.timedRetired += s.timedRetired;
        sum.profileMs += s.profileMs;
        sum.synthMs += s.synthMs;
        sum.measureMs += s.measureMs;
        sum.measures += s.measures;
    }
    const double minstr = double(sum.retired) / 1e6;
    m["lang.compile_ms"] = {sum.compileMs, "ms"};
    m["opt.optimize_ms"] = {sum.optimizeMs, "ms"};
    m["isa.lower_ms"] = {sum.lowerMs, "ms"};
    m["sim.decode_ms"] = {sum.decodeMs, "ms"};
    m["sim.fast_minstr_s"] = {minstr / sum.fastS, "Minstr/s"};
    m["sim.instrumented_minstr_s"] = {minstr / sum.instrumentedS,
                                      "Minstr/s"};
    m["sim.sliced_minstr_s"] = {minstr / sum.slicedS, "Minstr/s"};
    m["sim.timed_minstr_s"] = {double(sum.timedRetired) / 1e6 / sum.timedS,
                               "Minstr/s"};
    m["sim.retired_minstr"] = {minstr, "Minstr"};
    m["sim.timed_retired_minstr"] = {double(sum.timedRetired) / 1e6,
                                     "Minstr"};
    m["profile.profile_ms"] = {sum.profileMs, "ms"};
    m["profile.reconstruct_ms"] = {sum.profileMs - sum.slicedS * 1e3, "ms"};
    m["synth.synthesize_ms"] = {sum.synthMs, "ms"};
    m["synth.calib_measure_ms"] = {sum.measureMs, "ms"};
    m["synth.calib_measures"] = {double(sum.measures), "count"};
    m["synth.calib_useful_ratio"] = {
        sum.measures ? double(inputs.size()) / double(sum.measures) : 0.0,
        "ratio"};

    // Cache I/O on the entries this workload's inputs produce: one
    // profile and one clone per input, stored then loaded back.
    std::vector<std::pair<std::string, std::string>> entries;
    for (size_t i = 0; i < inputs.size(); ++i) {
        entries.emplace_back(pipeline::ArtifactCache::key(
                                 "profile", {inputs[i].name(),
                                             inputs[i].source}),
                             samples[i].profileText);
        entries.emplace_back(pipeline::ArtifactCache::key(
                                 "synth", {samples[i].profileText}),
                             samples[i].cloneText);
    }
    std::string cacheDir = w.dir() + "/layer-cache";
    fs::remove_all(cacheDir);
    pipeline::ArtifactCache cache(cacheDir);
    auto t = Clock::now();
    for (const auto &[key, text] : entries)
        cache.store(key, text);
    m["pipeline.cache_store_ms"] = {msSince(t), "ms"};
    size_t intact = 0;
    std::string text;
    t = Clock::now();
    for (const auto &e : entries)
        if (cache.load(e.first, text) && text == e.second)
            ++intact;
    m["pipeline.cache_load_ms"] = {msSince(t), "ms"};
    gate.check(intact == entries.size(),
               "cache entries load back byte-identical");
    fs::remove_all(cacheDir);

    double entryBytes = 0;
    for (const auto &e : entries)
        entryBytes += double(e.second.size());
    double parseS = perCall([&] {
        for (const auto &e : entries)
            Json::parse(e.second);
    });
    m["support.json_parse_mb_s"] = {entryBytes / 1e6 / parseS, "MB/s"};

    double keyBytes = 0;
    for (const auto &in : inputs)
        keyBytes += double(in.name().size() + in.source.size());
    double keyS = perCall([&] {
        for (const auto &in : inputs)
            pipeline::ArtifactCache::key("profile", {in.name(), in.source});
    });
    m["support.sha256_mb_s"] = {keyBytes / 1e6 / keyS, "MB/s"};
}

void
traceMetrics(const std::string &path, Metrics &m)
{
    Json root = Json::parse(readFile(path));
    const Json &events = root.get("traceEvents");

    struct Span
    {
        std::string name;
        double ts, end, children = 0;
    };
    std::map<uint64_t, std::vector<Span>> byThread;
    std::map<std::string, double> busyUs;
    uint64_t profileComputed = 0, synthComputed = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.get("ph").asString() != "X")
            continue;
        std::string name = e.get("name").asString();
        double ts = e.get("ts").asNumber(), dur = e.get("dur").asNumber();
        busyUs[name] += dur;
        bool miss = e.has("args") && e.get("args").has("cache") &&
                    e.get("args").get("cache").asString() == "miss";
        profileComputed += name == "profile" && miss;
        synthComputed += name == "synthesize" && miss;
        // Queue waits are recorded after the fact and overlap the
        // previous arrival; they belong to no span tree.
        if (name != "queue-wait")
            byThread[uint64_t(e.get("tid").asNumber())].push_back(
                {name, ts, ts + dur});
    }

    // Self time of the per-item parent spans: spans of one thread nest,
    // so a stack walk in start order finds each span's direct children.
    double selfUs = 0;
    constexpr double kEps = 1e-3; // µs rounding of the trace format
    for (auto &[tid, spans] : byThread) {
        std::stable_sort(spans.begin(), spans.end(),
                         [](const Span &a, const Span &b) {
                             return a.ts < b.ts ||
                                    (a.ts == b.ts && a.end > b.end);
                         });
        std::vector<Span *> stack;
        auto finish = [&](Span *s) {
            if (s->name == "workload" || s->name == "arrival")
                selfUs += (s->end - s->ts) - s->children;
        };
        for (auto &s : spans) {
            while (!stack.empty() && stack.back()->end < s.end - kEps) {
                finish(stack.back());
                stack.pop_back();
            }
            if (!stack.empty())
                stack.back()->children += s.end - s.ts;
            stack.push_back(&s);
        }
        for (; !stack.empty(); stack.pop_back())
            finish(stack.back());
    }

    auto busyMs = [&](const char *name) {
        auto it = busyUs.find(name);
        return it == busyUs.end() ? 0.0 : it->second / 1e3;
    };
    m["pipeline.profile_busy_ms"] = {busyMs("profile"), "ms"};
    m["pipeline.synthesize_busy_ms"] = {busyMs("synthesize"), "ms"};
    m["pipeline.timing_busy_ms"] = {busyMs("timing"), "ms"};
    m["pipeline.compile_busy_ms"] = {busyMs("compile"), "ms"};
    m["pipeline.workload_self_ms"] = {selfUs / 1e3, "ms"};
    m["pipeline.profile_computed"] = {double(profileComputed), "count"};
    m["pipeline.synthesize_computed"] = {double(synthComputed), "count"};
}

} // namespace perfbench
