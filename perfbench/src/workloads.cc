#include "workloads.hh"

#include <algorithm>
#include <filesystem>

#include "gen/fidelity.hh"
#include "gen/registry.hh"
#include "replay/engine.hh"
#include "support/error.hh"
#include "support/hash.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace bsyn;
namespace fs = std::filesystem;

namespace
{

/** Worker threads of every batch: one per core of the 4-core reference
 *  machine. */
constexpr unsigned kThreads = 4;

/** Replay driver threads. The replay session's pool gets as many
 *  workers again, so at most 2 + 2 threads are busy at once. */
constexpr unsigned kReplayDrivers = 2;

/** The replay mix: every generator family, with iteration knobs cut so
 *  one arrival takes ~10 ms and a run holds a thousand arrivals;
 *  footprint knobs keep their defaults. */
const char *const kReplayMix =
    "pointer_chase,steps=8000;branch_maze,iters=2000;"
    "stream_mix,iters=4000;fp_kernel,sweeps=2;"
    "phase_shift,work=2000,rounds=1";

/** Evenly spaced arrivals at about a quarter of the capacity of two
 *  drivers. Poisson gaps made p99 a property of the seed: which clumps
 *  of arrivals queued behind the slowest instances moved it by 0.26 of
 *  its median over five seeds. */
const char *const kReplaySchedule = "constant,rate=50";

/** Synthesis budget of a replay arrival. */
constexpr uint64_t kReplayTargetInstr = 100000;

constexpr uint64_t kReplayPopulation = 4;

/** Mean over the per-metric summary means of a fidelity report. */
double
meanSummaryError(const gen::FidelityReport &report)
{
    Json results = report.resultsJson();
    const Json &summary = results.get("summary");
    double sum = 0.0;
    size_t n = 0;
    for (const auto &key : summary.keys()) {
        sum += summary.get(key).get("mean").asNumber();
        ++n;
    }
    return n ? sum / double(n) : 0.0;
}

/** Digest of batch artifacts in batch order: what `bsyn suite -o`
 *  writes (profile JSON and clone source per workload). */
std::string
artifactDigest(const std::vector<pipeline::WorkloadRun> &runs)
{
    Sha256 h;
    for (const auto &r : runs) {
        h.update(r.workload.name() + "\n");
        h.update(r.profile.serialize());
        h.update(r.synthetic.cSource);
    }
    return h.hexDigest();
}

void
addCacheStats(pipeline::CacheStats &into, const pipeline::CacheStats &s)
{
    into.profileHits += s.profileHits;
    into.profileMisses += s.profileMisses;
    into.synthHits += s.synthHits;
    into.synthMisses += s.synthMisses;
    into.decodeHits += s.decodeHits;
    into.decodeMisses += s.decodeMisses;
}

/**
 * A workload made of repeated batch passes on a shared pool, each pass
 * on a fresh Session — what one `bsyn suite` or `bsyn fidelity`
 * invocation does. Every item of a pass is due when the pass starts,
 * and the pool's completion counter timestamps each item's completion.
 */
class BatchWorkload : public Workload
{
  public:
    using Workload::Workload;

    Window
    measure(double seconds, Gate &gate) override
    {
        Window w;
        std::vector<double> p50, p99, rss;
        obs::Counter &executed =
            metrics_.counter("threadpool.tasks.executed");
        auto t0 = Clock::now();
        do {
            prepare();
            resetPeakRss();
            double cpu0 = processCpuSeconds();
            auto p0 = Clock::now();
            std::vector<double> done;
            {
                CompletionClock clock(executed);
                runPass();
                done = clock.stop();
            }
            w.wallS += secondsSince(p0);
            w.cpuS += processCpuSeconds() - cpu0;
            rss.push_back(peakRssMb());

            w.latencySamples += done.size();
            p50.push_back(quantile(done, 0.50));
            p99.push_back(quantile(done, 0.99));
            uint64_t failed = 0;
            std::string digest = finishPass(gate, failed, w.cache);
            gate.count(inputs_.size(), failed, "batch items");
            w.items += inputs_.size() - failed;
            if (w.digest.empty())
                w.digest = digest;
            gate.check(digest == w.digest,
                       "results identical across repetitions");
            ++w.repetitions;
        } while (secondsSince(t0) < seconds);

        // Medians over passes: a pass's p99 is close to its makespan,
        // and one pass slowed by the host must not set the run's value.
        w.p50Ms = median(p50);
        w.p99Ms = median(p99);
        w.peakRssMb = median(rss);
        return w;
    }

  protected:
    /**
     * Order inputs_ by ascending dynamic instruction count of the
     * original. The pool deals item i to worker i mod T and each worker
     * runs its own queue newest-first, so the longest programs start
     * first and a pass's length depends less on when its longest item
     * happens to start.
     */
    void
    orderByCost()
    {
        std::vector<uint64_t> cost(inputs_.size());
        pool_->parallelFor(inputs_.size(), [&](size_t i) {
            cost[i] = runSource(inputs_[i].source, inputs_[i].name())
                          .instructions;
        });
        std::vector<size_t> order(inputs_.size());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return cost[a] < cost[b];
        });
        std::vector<workloads::Workload> sorted;
        for (size_t i : order)
            sorted.push_back(std::move(inputs_[i]));
        inputs_ = std::move(sorted);
    }

    /** Untimed preparation before each pass. */
    virtual void prepare() {}

    /** One timed pass over inputs_. */
    virtual void runPass() = 0;

    /** Untimed: count failed items, add the pass's cache counters, run
     *  pass-level checks and return the digest of its results half. */
    virtual std::string finishPass(Gate &gate, uint64_t &failed,
                                   pipeline::CacheStats &cache) = 0;
};

/** suite-cold and suite-warm: Session::processSuite over the suite. */
class SuiteWorkload : public BatchWorkload
{
  public:
    SuiteWorkload(const Options &opts, bool warm)
        : BatchWorkload(opts), warm_(warm)
    {
    }

    void
    setup() override
    {
        inputs_ = workloads::mibenchSuite();
        startPool();
        orderByCost();
        if (warm_) {
            // Fill the cache with one cold pass; warm passes must
            // reproduce its artifacts byte for byte.
            passDir_ = dir_ + "/warm";
            fs::remove_all(passDir_);
            fillDigest_.clear();
            runPass();
            Gate fill;
            uint64_t failed = 0;
            pipeline::CacheStats ignored;
            fillDigest_ = finishPass(fill, failed, ignored);
        }
    }

  protected:
    void
    prepare() override
    {
        if (warm_)
            return;
        // A fresh, empty cache directory per repetition.
        if (!passDir_.empty())
            fs::remove_all(passDir_);
        passDir_ = dir_ + "/cold-" + std::to_string(++passes_);
    }

    void
    runPass() override
    {
        auto s = session(passDir_);
        collect_ = std::make_unique<pipeline::CollectSink>();
        statuses_ = s->processSuite(inputs_, *collect_, synthesis());
        stats_ = s->cacheStats();
    }

    std::string
    finishPass(Gate &gate, uint64_t &failed,
               pipeline::CacheStats &cache) override
    {
        failed = 0;
        for (const auto &st : statuses_)
            if (!st.ok)
                ++failed;
        addCacheStats(cache, stats_);
        std::string digest = artifactDigest(collect_->takeRuns());
        if (warm_ && !fillDigest_.empty()) {
            gate.check(stats_.misses() == 0,
                       "warm pass served entirely from the cache");
            gate.check(digest == fillDigest_,
                       "warm artifacts match the cold fill");
        }
        return digest;
    }

    std::string artifactDir() const override { return passDir_; }

  private:
    bool warm_;
    std::string passDir_;
    uint64_t passes_ = 0;
    std::string fillDigest_;
    std::unique_ptr<pipeline::CollectSink> collect_;
    std::vector<pipeline::RunStatus> statuses_;
    pipeline::CacheStats stats_;
};

/** fidelity-presets: gen::scoreFidelity over the suite plus one
 *  instance of every family preset, timed at -O2, no cache. */
class FidelityWorkload : public BatchWorkload
{
  public:
    using BatchWorkload::BatchWorkload;

    void
    setup() override
    {
        inputs_ = workloads::mibenchSuite();
        auto presets = gen::Registry::global().allPresets(opts_.seed);
        inputs_.insert(inputs_.end(), presets.begin(), presets.end());
        startPool();
        orderByCost();
    }

    double
    cloneError(Gate &) override
    {
        return meanSummaryError(report_);
    }

    /** The seed draws the family instances; clones keep the library's
     *  default synthesis seed. The jpeg/large1 clone alone takes 2.5 to
     *  6.8 s to time depending on the synthesis seed, which would make
     *  the batch's work a property of the seed. */
    synth::SynthesisOptions
    synthesis() const override
    {
        return pipeline::defaultSynthesisOptions();
    }

    void
    pathMetrics(Metrics &m) const override
    {
        Workload::pathMetrics(m);
        double profile = 0, cloneProfile = 0, synth = 0, timing = 0;
        for (const auto &inst : report_.instances) {
            profile += inst.profileSecs;
            cloneProfile += inst.cloneProfileSecs;
            synth += inst.synthSecs;
            timing += inst.timingSecs;
        }
        m["gen.profile_s"] = {profile, "s"};
        m["gen.clone_profile_s"] = {cloneProfile, "s"};
        m["gen.synth_s"] = {synth, "s"};
        m["gen.timing_s"] = {timing, "s"};
    }

  protected:
    void
    runPass() override
    {
        auto s = session("");
        gen::FidelityOptions fo;
        fo.synthesis = synthesis();
        report_ = gen::scoreFidelity(*s, inputs_, fo);
        stats_ = s->cacheStats();
    }

    std::string
    finishPass(Gate &, uint64_t &failed,
               pipeline::CacheStats &cache) override
    {
        failed = 0;
        for (const auto &inst : report_.instances)
            if (!inst.ok)
                ++failed;
        addCacheStats(cache, stats_);
        Sha256 h;
        h.update(report_.resultsJson().dump(-1));
        return h.hexDigest();
    }

  private:
    gen::FidelityReport report_;
    pipeline::CacheStats stats_;
};

/** replay-open: replay::runReplay, direct mode, open loop. */
class ReplayWorkload : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        // Resolve the mix (instantiating its population) and the
        // arrival schedule exactly as runReplay will.
        replay::Mix mix = replay::Mix::parse(kReplayMix, kReplayPopulation);
        inputs_ = mix.population();
        arrivals_ = replay::Schedule::parse(kReplaySchedule)
                        .arrivals(opts_.seconds, opts_.seed)
                        .size();
        startPool();
    }

    synth::SynthesisOptions
    synthesis() const override
    {
        synth::SynthesisOptions so = Workload::synthesis();
        so.targetInstructions = kReplayTargetInstr;
        return so;
    }

    Window
    measure(double seconds, Gate &gate) override
    {
        obs::Registry &global = obs::Registry::global();
        for (const char *stage : {"queue", "compile", "profile", "synth",
                                  "total"})
            global.histogram(std::string("replay.stage.") + stage).reset();

        replay::ReplayOptions ro;
        ro.scheduleSpec = kReplaySchedule;
        ro.mixSpec = kReplayMix;
        ro.durationS = seconds;
        ro.seed = opts_.seed;
        ro.threads = kReplayDrivers;
        ro.population = kReplayPopulation;
        ro.targetInstr = synthesis().targetInstructions;

        resetPeakRss();
        double cpu0 = processCpuSeconds();
        replay::ReplayReport rep = replay::runReplay(ro);
        Window w;
        w.cpuS = processCpuSeconds() - cpu0;
        w.peakRssMb = peakRssMb();
        w.wallS = rep.elapsedS;
        w.repetitions = 1;
        w.items = rep.okCount;
        w.digest = rep.streamDigest;
        w.cache = rep.cacheStats;
        gate.count(rep.arrivals.size(), rep.failCount, "replay arrivals");
        gate.check(rep.arrivals.size() == arrivals_,
                   "replay ran the schedule resolved at set-up");

        const auto &total = global.histogram("replay.stage.total");
        w.latencySamples = total.count();
        w.p50Ms = histogramQuantileMs(total, 0.50);
        w.p99Ms = histogramQuantileMs(total, 0.99);
        for (const char *stage : {"queue", "profile", "synth"})
            stageP99_[stage] = histogramQuantileMs(
                global.histogram(std::string("replay.stage.") + stage), 0.99);
        return w;
    }

    void
    pathMetrics(Metrics &m) const override
    {
        Workload::pathMetrics(m);
        for (const auto &[stage, ms] : stageP99_)
            m["replay." + stage + "_p99_ms"] = {ms, "ms"};
    }

  private:
    size_t arrivals_ = 0;
    std::map<std::string, double> stageP99_;
};

} // namespace

Workload::Workload(const Options &opts)
    : opts_(opts), dir_(opts.workDir + "/" + opts.workload)
{
}

Workload::~Workload() = default;

void
Workload::startPool()
{
    pool_.reset(); // join the previous set-up's workers first
    pool_ = std::make_unique<ThreadPool>(kThreads, &metrics_);
}

synth::SynthesisOptions
Workload::synthesis() const
{
    synth::SynthesisOptions so = pipeline::defaultSynthesisOptions();
    so.seed = opts_.seed;
    return so;
}

std::unique_ptr<pipeline::Session>
Workload::session(const std::string &cacheDir) const
{
    pipeline::SessionOptions so;
    so.cacheDir = cacheDir;
    so.pool = pool_.get();
    so.synthesis = synthesis();
    return std::make_unique<pipeline::Session>(std::move(so));
}

std::string
Workload::artifactDir() const
{
    return dir_ + "/verify";
}

void
Workload::pathMetrics(Metrics &m) const
{
    for (const char *name : {"gen.profile_s", "gen.clone_profile_s",
                             "gen.synth_s", "gen.timing_s"})
        m[name] = {0.0, "s"};
    for (const char *name :
         {"replay.queue_p99_ms", "replay.profile_p99_ms",
          "replay.synth_p99_ms"})
        m[name] = {0.0, "ms"};
}

void
Workload::verify(Gate &gate)
{
    checkOriginals(inputs_, gate, *pool_);

    // The clones this workload produced, out of its artifact cache (or
    // recomputed with the same seeds when it ran without one).
    auto s = session(artifactDir());
    pipeline::CollectSink collect;
    s->processSuite(inputs_, collect, synthesis());
    std::vector<std::string> names, sources;
    for (const auto &r : collect.takeRuns()) {
        names.push_back(r.workload.name());
        sources.push_back(r.synthetic.cSource);
    }
    gate.check(names.size() == inputs_.size(), "every clone synthesized");
    checkClones(names, sources, gate, *pool_);
}

double
Workload::cloneError(Gate &gate)
{
    // Profile-side fidelity (no timing) of the clones verify() left in
    // the artifact cache.
    auto s = session(artifactDir());
    gen::FidelityOptions fo;
    fo.synthesis = synthesis();
    fo.timing = false;
    gen::FidelityReport report = gen::scoreFidelity(*s, inputs_, fo);
    uint64_t failed = 0;
    for (const auto &inst : report.instances)
        if (!inst.ok)
            ++failed;
    gate.count(report.instances.size(), failed, "fidelity-scored clones");
    return meanSummaryError(report);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "suite-cold", "suite-warm", "fidelity-presets", "replay-open"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "suite-cold")
        return std::make_unique<SuiteWorkload>(opts, false);
    if (opts.workload == "suite-warm")
        return std::make_unique<SuiteWorkload>(opts, true);
    if (opts.workload == "fidelity-presets")
        return std::make_unique<FidelityWorkload>(opts);
    if (opts.workload == "replay-open")
        return std::make_unique<ReplayWorkload>(opts);
    fatal("perfbench: unknown workload '%s'", opts.workload.c_str());
}

} // namespace perfbench
