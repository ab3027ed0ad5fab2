/**
 * @file
 * The long-running `bsyn serve` worker: claims jobs from a Spool and
 * executes them against one warm pipeline::Session, so every job after
 * the first rides the session's decoded-program memo and — with a
 * cache directory — the shared content-addressed ArtifactCache (a job
 * re-submitted against a warm cache recomputes nothing). A failing job
 * (unknown workload, malformed job file, synthesis error) produces a
 * structured !ok status via the same per-run isolation the batch
 * pipeline uses; the worker itself keeps serving.
 */

#ifndef BSYN_SERVE_WORKER_HH
#define BSYN_SERVE_WORKER_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "pipeline/session.hh"
#include "serve/spool.hh"

namespace bsyn::serve
{

/** Configuration for one worker process. */
struct WorkerOptions
{
    std::string spoolDir;

    /** Shared artifact cache directory; empty disables disk caching. */
    std::string cacheDir;

    /** Session worker threads (calibration fan-out); 0 = hardware. */
    unsigned threads = 0;

    /** Exit after this many processed jobs; 0 = no limit. */
    uint64_t maxJobs = 0;

    /** Exit once a scan finds nothing claimable, instead of polling —
     *  process-everything-then-quit mode for scripts and tests. */
    bool drain = false;

    /** Starting idle poll interval between scans of new/. Must be
     *  positive; consecutive empty scans back off exponentially from
     *  here up to @ref pollMaxMs, and any progress resets it. */
    unsigned pollMs = 50;

    /** Cap of the exponential idle backoff (clamped up to pollMs if
     *  set lower). */
    unsigned pollMaxMs = 1000;

    /** Before each scan, move claims older than this many seconds
     *  back to new/ — recovery for jobs stranded in claimed/ by a
     *  worker that died mid-job. 0 disables reclaiming. */
    double reclaimAfterS = 0.0;

    /** Per-job progress lines on stderr. */
    bool verbose = false;
};

/** Counters of one worker run. Since the observability layer landed
 *  this is a *view* over the worker's named metrics ("serve.jobs.*",
 *  "serve.claims.*" in the worker's scoped obs::Registry), which also
 *  aggregate process-wide through the parent chain. */
struct WorkerStats
{
    uint64_t processed = 0;  ///< jobs claimed and finished by this worker
    uint64_t succeeded = 0;  ///< of which ok
    uint64_t failed = 0;     ///< of which !ok (worker kept serving)
    uint64_t lostClaims = 0; ///< claim races lost to another worker
    uint64_t reclaimed = 0;  ///< stale claims moved back to new/
};

/** A serve worker bound to one spool and one session. */
class Worker
{
  public:
    explicit Worker(WorkerOptions opts);

    /**
     * Serve until drained (opts.drain), the job budget (opts.maxJobs)
     * is spent, or a stop is requested — via requestStop() (the CLI's
     * signal handler calls it) or the spool's stop flag file. Always
     * finishes the job in flight before exiting (graceful drain).
     */
    WorkerStats run();

    /** Ask the loop to exit after the current job. Thread- and
     *  signal-safe (a single atomic store). */
    void requestStop() { stop_.store(true); }

    pipeline::Session &session() { return session_; }
    const Spool &spool() const { return spool_; }

    /** The worker's scoped metrics registry — job/claim counters plus,
     *  via the parent chain, its session's cache traffic. */
    obs::Registry &metrics() { return metrics_; }

  private:
    bool stopping() const;

    /** Sleep for @p ms, in short slices so a stop request interrupts
     *  a backed-off wait promptly instead of after the full interval. */
    void idleSleep(unsigned ms) const;

    /** Execute one claimed job; never throws — any failure becomes a
     *  structured !ok status. @return the terminal status JSON. */
    Json processClaimed(const std::string &id);

    /** Publish metrics.json (atomic) into the spool root. */
    void publishMetrics() const;

    /** Publish the final worker_status.json ("bsyn.worker.v1"). */
    void publishStatus(const WorkerStats &stats) const;

    WorkerOptions opts_;
    Spool spool_;

    /** Declared before session_: the session chains into this registry
     *  (metricsParent), so one scrape of the worker sees everything. */
    obs::Registry metrics_;
    obs::Counter &jobsProcessed_;
    obs::Counter &jobsSucceeded_;
    obs::Counter &jobsFailed_;
    obs::Counter &claimsLost_;
    obs::Counter &claimsReclaimed_;

    pipeline::Session session_;
    std::atomic<bool> stop_{false};
};

} // namespace bsyn::serve

#endif // BSYN_SERVE_WORKER_HH
