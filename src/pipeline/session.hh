/**
 * @file
 * pipeline::Session — the stage-oriented entry point to the paper's
 * Figure-1 flow. A Session owns the worker thread pool and a
 * content-addressed ArtifactCache, and exposes each stage (profile,
 * synthesize, process, processSuite) as a first-class call so any
 * prefix of the flow can be reused or resumed: a warm cache makes a
 * suite re-run skip every profile and synthesis while producing
 * byte-identical output, and batch results stream into a RunSink
 * instead of accumulating in memory.
 */

#ifndef BSYN_PIPELINE_SESSION_HH
#define BSYN_PIPELINE_SESSION_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "pipeline/artifact_cache.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/run_sink.hh"
#include "profile/profiler.hh"
#include "support/thread_pool.hh"

namespace bsyn::pipeline
{

/** Configuration for a Session. */
struct SessionOptions
{
    /** Artifact cache directory; empty disables disk caching. */
    std::string cacheDir;

    /** Worker threads for batch stages: 0 = one per hardware thread.
     *  Ignored when @ref pool is set. The pool is created lazily, so a
     *  session used only for single-workload stages spawns no threads. */
    unsigned threads = 0;

    /** Run batches on this existing pool instead of owning one. Not
     *  owned; must outlive the Session. */
    ThreadPool *pool = nullptr;

    /** Synthesis configuration used when a call does not pass its own;
     *  its seed is the batch *base* seed that deriveWorkloadSeed()
     *  specializes per workload. */
    synth::SynthesisOptions synthesis;

    /** Profiling configuration (profiling cache, slice interval,
     *  checkpoint budget). Its fingerprint() is part of the profile
     *  cache key. */
    bsyn::profile::ProfileOptions profiling;

    /** Registry the session's scoped metrics chain into (and through
     *  it, transitively, into obs::Registry::global()). Null means the
     *  global registry directly. Not owned; must outlive the Session.
     *  A serve::Worker passes its own registry here so one scrape of
     *  the worker sees its session's cache traffic too. */
    obs::Registry *metricsParent = nullptr;
};

/** Snapshot of a session's cache-hit counters (per stage). Since the
 *  observability layer landed this is a *view* over the session's
 *  named metrics ("pipeline.cache.*" in the session's scoped
 *  obs::Registry) — the counters themselves live in the registry and
 *  also aggregate process-wide through the parent chain. */
struct CacheStats
{
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;
    uint64_t synthHits = 0;
    uint64_t synthMisses = 0;

    /** In-memory decoded-program cache for calibration measurements;
     *  tracked separately from the on-disk artifact counters (hits()
     *  and misses() describe artifact-cache traffic only). */
    uint64_t decodeHits = 0;
    uint64_t decodeMisses = 0;

    uint64_t hits() const { return profileHits + synthHits; }
    uint64_t misses() const { return profileMisses + synthMisses; }
};

/**
 * A pipeline session: stage entry points plus the shared state — thread
 * pool, artifact cache, hit/miss counters — that lets stages compose
 * and repeated runs reuse earlier work. Stage calls are thread-safe and
 * may be issued from the session's own pool workers (the batch path
 * does exactly that).
 */
class Session
{
  public:
    explicit Session(SessionOptions opts = {});
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    // ------------------------------------------------------------ stages

    /** Profile @p source at -O0 (cached by source content + name).
     *  @p cached, when non-null, reports whether the cache served it.
     *  A cache entry that fails to decode counts as a miss: it is
     *  logged, counted in "pipeline.cache.corrupt", recomputed and
     *  overwritten. The same holds for synthesize(). */
    bsyn::profile::StatisticalProfile
    profile(const std::string &source, const std::string &name,
            bool *cached = nullptr);

    /** Profile a suite workload (cached). */
    bsyn::profile::StatisticalProfile
    profile(const workloads::Workload &w, bool *cached = nullptr);

    /** Synthesize a clone of @p prof (cached by profile content +
     *  options). Calibration runs only on a cache miss. */
    synth::SyntheticBenchmark
    synthesize(const bsyn::profile::StatisticalProfile &prof,
               const synth::SynthesisOptions &opts, bool *cached = nullptr);

    /** Synthesize with the session's default synthesis options. */
    synth::SyntheticBenchmark
    synthesize(const bsyn::profile::StatisticalProfile &prof);

    /** Profile + synthesize one workload with explicit options (the
     *  seed is used as-is; batch seed derivation happens in
     *  processSuite). @p st, when non-null, receives stage provenance. */
    WorkloadRun process(const workloads::Workload &w,
                        const synth::SynthesisOptions &opts,
                        RunStatus *st = nullptr);

    /** Profile + synthesize with the session's default options. */
    WorkloadRun process(const workloads::Workload &w);

    /**
     * Dynamic instruction count of @p source at O0/x86 — the
     * calibration measurement. The compiled, lowered and predecoded
     * program is memoized by source content, so re-measuring an
     * unchanged candidate (across calibration rounds, workloads or
     * repeated synthesize() calls in one session) costs one predecoded
     * execution and nothing else.
     */
    uint64_t measureInstructions(const std::string &source);

    // ----------------------------------------------------------- batches

    /**
     * Profile + synthesize every workload of @p suite, fanned across
     * the session pool, streaming each finished run into @p sink.
     * Per-workload seeds derive from @p base's seed and the workload
     * name, so results are byte-identical for any thread count and for
     * cold vs. warm cache. A workload failure is reported as a !ok
     * RunStatus (on the sink and in the returned vector, which is in
     * suite order) and never aborts the rest of the batch.
     */
    std::vector<RunStatus>
    processSuite(const std::vector<workloads::Workload> &suite,
                 RunSink &sink, const synth::SynthesisOptions &base);

    /** Batch with the session's default synthesis options. */
    std::vector<RunStatus>
    processSuite(const std::vector<workloads::Workload> &suite,
                 RunSink &sink);

    /** Convenience batch: collect to a vector in suite order. Strict —
     *  rethrows the first per-workload failure as FatalError. */
    std::vector<WorkloadRun>
    processSuite(const std::vector<workloads::Workload> &suite);

    /** Batch-process the full MiBench-analogue suite (strict). */
    std::vector<WorkloadRun> processSuite();

    /** Run fn(0)..fn(n-1) on the session pool (barrier at the end) —
     *  lets harnesses fan their own per-run measurement loops out with
     *  the same workers the batch stages use. */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    // ------------------------------------------------------------- state

    /** The session's worker pool (created on first use). */
    ThreadPool &pool();

    ArtifactCache &cache() { return cache_; }
    const SessionOptions &options() const { return options_; }

    /** Per-stage cache hit/miss counters since construction. */
    CacheStats cacheStats() const;

    /** The session's scoped metrics registry ("pipeline.cache.*",
     *  "pipeline.suite.*", this session's thread-pool metrics). */
    obs::Registry &metrics() { return metrics_; }

  private:
    /** A measurement program: the lowered MachineProgram plus its
     *  predecoded form (which points back into the program, so entries
     *  are heap-pinned behind shared_ptr and never moved). */
    struct DecodedMeasure;

    std::shared_ptr<const DecodedMeasure>
    decodeForMeasure(const std::string &source);

    SessionOptions options_;
    ArtifactCache cache_;

    std::mutex poolMtx_; ///< guards lazy pool creation
    std::unique_ptr<ThreadPool> ownedPool_;

    std::mutex decodeMtx_; ///< guards the decoded-measurement cache
    std::unordered_map<std::string, std::shared_ptr<const DecodedMeasure>>
        decodeCache_; ///< keyed by SHA-256 of the source

    /** Session-scoped metric namespace; every update also flows into
     *  the parent chain (ultimately obs::Registry::global()). */
    obs::Registry metrics_;

    // Named-counter handles (stable for the registry's lifetime).
    obs::Counter &profileHits_;
    obs::Counter &profileMisses_;
    obs::Counter &synthHits_;
    obs::Counter &synthMisses_;
    obs::Counter &cacheCorrupt_; ///< entries that failed to decode
    obs::Counter &decodeHits_;
    obs::Counter &decodeMisses_;
};

} // namespace bsyn::pipeline

#endif // BSYN_PIPELINE_SESSION_HH
