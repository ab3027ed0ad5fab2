#include "pipeline/session.hh"

#include <optional>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "obs/trace.hh"
#include "sim/decoded_program.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "support/json.hh"

namespace bsyn::pipeline
{

namespace
{

Json
benchmarkToJson(const synth::SyntheticBenchmark &b)
{
    Json root = Json::object();
    root.set("name", Json(b.name));
    root.set("cSource", Json(b.cSource));
    root.set("reductionFactor", Json(b.reductionFactor));
    root.set("phases", Json(static_cast<uint64_t>(b.phases)));
    Json ps = Json::object();
    ps.set("coveredInstrs", Json(b.patternStats.coveredInstrs));
    ps.set("uncoveredInstrs", Json(b.patternStats.uncoveredInstrs));
    ps.set("statements", Json(b.patternStats.statements));
    ps.set("compensationStmts", Json(b.patternStats.compensationStmts));
    root.set("patternStats", ps);
    return root;
}

synth::SyntheticBenchmark
benchmarkFromJson(const Json &j)
{
    synth::SyntheticBenchmark b;
    b.name = j.get("name").asString();
    b.cSource = j.get("cSource").asString();
    b.reductionFactor =
        static_cast<uint64_t>(j.get("reductionFactor").asNumber());
    if (j.has("phases"))
        b.phases = static_cast<uint32_t>(j.get("phases").asNumber());
    const Json &ps = j.get("patternStats");
    b.patternStats.coveredInstrs =
        static_cast<uint64_t>(ps.get("coveredInstrs").asNumber());
    b.patternStats.uncoveredInstrs =
        static_cast<uint64_t>(ps.get("uncoveredInstrs").asNumber());
    b.patternStats.statements =
        static_cast<uint64_t>(ps.get("statements").asNumber());
    b.patternStats.compensationStmts =
        static_cast<uint64_t>(ps.get("compensationStmts").asNumber());
    return b;
}

/**
 * Probe @p cache for @p key and decode a hit with @p decode. An entry
 * that fails to parse or decode counts as a miss: it is logged, counted
 * in @p corrupt, and the caller's recomputation overwrites it.
 */
template <typename Decode>
auto
loadEntry(const ArtifactCache &cache, const char *stage,
          const std::string &key, obs::Counter &corrupt, Decode decode)
    -> std::optional<decltype(decode(key))>
{
    std::string text;
    {
        obs::Span probe("cache-probe", "stage", stage);
        if (!cache.load(key, text))
            return std::nullopt;
    }
    try {
        return decode(text);
    } catch (const std::exception &e) {
        warn("corrupt %s cache entry %s (%s); recomputing it", stage,
             key.c_str(), e.what());
        corrupt.add();
        return std::nullopt;
    }
}

} // namespace

/** See the declaration: pinned on the heap so the DecodedProgram's
 *  back-reference into prog stays valid for the entry's lifetime. */
struct Session::DecodedMeasure
{
    isa::MachineProgram prog;
    std::unique_ptr<sim::DecodedProgram> decoded;
};

std::shared_ptr<const Session::DecodedMeasure>
Session::decodeForMeasure(const std::string &source)
{
    Sha256 h;
    h.update(source);
    std::string key = h.hexDigest();

    {
        std::lock_guard<std::mutex> lock(decodeMtx_);
        auto it = decodeCache_.find(key);
        if (it != decodeCache_.end()) {
            decodeHits_.add();
            return it->second;
        }
    }
    decodeMisses_.add();

    // Build outside the lock — calibration measurements run from pool
    // workers concurrently, and a duplicate build on a race is merely
    // redundant work (both builds are deterministic and identical).
    auto entry = std::make_shared<DecodedMeasure>();
    ir::Module mod = lang::compile(source, "measure");
    entry->prog = isa::lower(mod, isa::targetX86());
    entry->decoded = std::make_unique<sim::DecodedProgram>(entry->prog);

    std::lock_guard<std::mutex> lock(decodeMtx_);
    // Calibration touches a handful of candidate sources per workload;
    // the clamp only exists so a pathological caller measuring endless
    // distinct sources cannot grow the session without bound.
    if (decodeCache_.size() >= 512)
        decodeCache_.clear();
    auto [it, inserted] = decodeCache_.emplace(key, std::move(entry));
    (void)inserted;
    return it->second;
}

uint64_t
Session::measureInstructions(const std::string &source)
{
    return sim::execute(*decodeForMeasure(source)->decoded).instructions;
}

Session::Session(SessionOptions opts)
    : options_(std::move(opts)), cache_(options_.cacheDir),
      metrics_(options_.metricsParent ? options_.metricsParent
                                      : &obs::Registry::global()),
      profileHits_(metrics_.counter("pipeline.cache.profile.hits")),
      profileMisses_(metrics_.counter("pipeline.cache.profile.misses")),
      synthHits_(metrics_.counter("pipeline.cache.synth.hits")),
      synthMisses_(metrics_.counter("pipeline.cache.synth.misses")),
      cacheCorrupt_(metrics_.counter("pipeline.cache.corrupt")),
      decodeHits_(metrics_.counter("pipeline.memo.decode.hits")),
      decodeMisses_(metrics_.counter("pipeline.memo.decode.misses"))
{
}

Session::~Session() = default;

ThreadPool &
Session::pool()
{
    if (options_.pool)
        return *options_.pool;
    std::lock_guard<std::mutex> lock(poolMtx_);
    if (!ownedPool_)
        ownedPool_ =
            std::make_unique<ThreadPool>(options_.threads, &metrics_);
    return *ownedPool_;
}

CacheStats
Session::cacheStats() const
{
    CacheStats s;
    s.profileHits = profileHits_.value();
    s.profileMisses = profileMisses_.value();
    s.synthHits = synthHits_.value();
    s.synthMisses = synthMisses_.value();
    s.decodeHits = decodeHits_.value();
    s.decodeMisses = decodeMisses_.value();
    return s;
}

// --------------------------------------------------------------- stages

bsyn::profile::StatisticalProfile
Session::profile(const std::string &source, const std::string &name,
                 bool *cached)
{
    // v3: profiles became time-sliced with a per-phase sub-profile
    // list (v2 entries lack the slice stream and must not be reused);
    // the profiling options join the key so sessions with different
    // profiling caches or slicing keep distinct entries.
    obs::Span span("profile", "workload", name);
    // Keys and payloads are built only for a cache that keeps them: a
    // clone's profile can serialize to megabytes.
    std::string key;
    if (cache_.enabled()) {
        key = ArtifactCache::key(
            "profile.v3",
            {name, source, options_.profiling.fingerprint()});
        auto hit = loadEntry(cache_, "profile", key, cacheCorrupt_,
                             [](const std::string &text) {
                                 return bsyn::profile::StatisticalProfile::
                                     deserialize(text);
                             });
        if (hit) {
            profileHits_.add();
            span.arg("cache", "hit");
            if (cached)
                *cached = true;
            return std::move(*hit);
        }
    }
    profileMisses_.add();
    span.arg("cache", "miss");
    if (cached)
        *cached = false;
    ir::Module mod;
    {
        obs::Span cspan("compile", "workload", name);
        mod = lang::compile(source, name); // -O0 shape
    }
    auto prof = bsyn::profile::profileModule(mod, options_.profiling);
    if (cache_.enabled())
        cache_.store(key, prof.serialize());
    return prof;
}

bsyn::profile::StatisticalProfile
Session::profile(const workloads::Workload &w, bool *cached)
{
    return profile(w.source, w.name(), cached);
}

synth::SyntheticBenchmark
Session::synthesize(const bsyn::profile::StatisticalProfile &prof,
                    const synth::SynthesisOptions &opts, bool *cached)
{
    // v3: synthesis became phase-aware (one stitched skeleton per
    // profile phase) — v2 clones of multi-phase profiles must not be
    // reused, and the benchmark JSON gained the phase count.
    obs::Span span("synthesize", "workload", prof.workloadName);
    std::string key;
    if (cache_.enabled()) {
        key = ArtifactCache::key(
            "synth.v3", {opts.fingerprint(), prof.serialize()});
        auto hit = loadEntry(cache_, "synthesize", key, cacheCorrupt_,
                             [](const std::string &text) {
                                 return benchmarkFromJson(Json::parse(text));
                             });
        if (hit) {
            synthHits_.add();
            span.arg("cache", "hit");
            if (cached)
                *cached = true;
            return std::move(*hit);
        }
    }
    synthMisses_.add();
    span.arg("cache", "miss");
    if (cached)
        *cached = false;
    // Calibration candidates fan across the session pool (intra-
    // workload parallelism); under processSuite the nested parallelFor
    // degrades to inline execution on the worker, and either way the
    // clone bytes are schedule-independent.
    auto syn = synth::synthesize(
        prof, opts,
        [this](const std::string &src) { return measureInstructions(src); },
        [this](size_t n, const std::function<void(size_t)> &fn) {
            if (n <= 1) {
                for (size_t i = 0; i < n; ++i)
                    fn(i);
                return;
            }
            parallelFor(n, fn);
        });
    if (cache_.enabled())
        cache_.store(key, benchmarkToJson(syn).dump(-1));
    return syn;
}

synth::SyntheticBenchmark
Session::synthesize(const bsyn::profile::StatisticalProfile &prof)
{
    return synthesize(prof, options_.synthesis);
}

WorkloadRun
Session::process(const workloads::Workload &w,
                 const synth::SynthesisOptions &opts, RunStatus *st)
{
    WorkloadRun run;
    run.workload = w;
    bool profCached = false, synCached = false;
    run.profile = profile(w, &profCached);
    run.synthetic = synthesize(run.profile, opts, &synCached);
    if (st) {
        st->workload = w.name();
        st->ok = true;
        st->profileCached = profCached;
        st->synthCached = synCached;
    }
    return run;
}

WorkloadRun
Session::process(const workloads::Workload &w)
{
    return process(w, options_.synthesis);
}

// -------------------------------------------------------------- batches

std::vector<RunStatus>
Session::processSuite(const std::vector<workloads::Workload> &suite,
                      RunSink &sink, const synth::SynthesisOptions &base)
{
    std::vector<RunStatus> statuses(suite.size());
    if (suite.empty())
        return statuses;

    pool().parallelFor(suite.size(), [&](size_t i) {
        obs::Span span("workload", "workload", suite[i].name());
        RunStatus st;
        st.index = i;
        st.workload = suite[i].name();
        WorkloadRun run;
        run.workload = suite[i];
        try {
            synth::SynthesisOptions so = base;
            so.seed = deriveWorkloadSeed(so.seed, suite[i].name());
            run = process(suite[i], so, &st);
            st.index = i; // process() fills the other fields
        } catch (const std::exception &e) {
            st.ok = false;
            st.error = e.what();
        }
        metrics_
            .counter(st.ok ? "pipeline.suite.workloads.ok"
                           : "pipeline.suite.workloads.failed")
            .add();
        statuses[i] = st;
        sink.consume(st, run);
    });
    return statuses;
}

std::vector<RunStatus>
Session::processSuite(const std::vector<workloads::Workload> &suite,
                      RunSink &sink)
{
    return processSuite(suite, sink, options_.synthesis);
}

std::vector<WorkloadRun>
Session::processSuite(const std::vector<workloads::Workload> &suite)
{
    CollectSink collect;
    auto statuses = processSuite(suite, collect);
    for (const auto &st : statuses)
        if (!st.ok)
            fatal("workload %s failed: %s", st.workload.c_str(),
                  st.error.c_str());
    return collect.takeRuns();
}

std::vector<WorkloadRun>
Session::processSuite()
{
    return processSuite(workloads::mibenchSuite());
}

void
Session::parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    pool().parallelFor(n, fn);
}

} // namespace bsyn::pipeline
