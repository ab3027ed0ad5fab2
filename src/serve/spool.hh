/**
 * @file
 * The job-spool protocol behind `bsyn serve`: a plain directory is the
 * whole control plane, so any number of clients and workers — possibly
 * on different machines sharing a filesystem — coordinate without
 * sockets or locks. Life of a job:
 *
 *   new/<id>.json       submitted by a client (write-temp + rename)
 *   claimed/<id>.json   a worker claimed it (atomic rename: exactly
 *                       one worker wins a duplicate-claim race)
 *   out/<id>.*          result artifacts the worker produced
 *   done/<id>.json      terminal status (ok or structured error)
 *   stop                drain flag: workers finish the current job,
 *                       claim nothing more, and exit
 *
 * Every state transition is a single atomic rename or a publishFile
 * (write-temp-then-rename), so observers never see torn files and two
 * workers can never both own one job.
 */

#ifndef BSYN_SERVE_SPOOL_HH
#define BSYN_SERVE_SPOOL_HH

#include <string>
#include <vector>

#include "support/json.hh"
#include "synth/synthesizer.hh"

namespace bsyn::serve
{

/** One unit of work a client drops into the spool. */
struct Job
{
    /** Unique, filename-safe ([A-Za-z0-9._-]) identifier. */
    std::string id;

    /** "profile" (profile only), "synth" (profile + synthesize), or
     *  "fidelity" (profile, synthesize, score the clone). */
    std::string kind;

    /** Canonical workload name — a suite instance ("crc32/small") or
     *  a generated-family spec ("pointer_chase/nodes=1024,seed=3"). */
    std::string workload;

    /** Batch base seed; the worker applies deriveWorkloadSeed exactly
     *  like `bsyn suite`, so a job's artifacts are byte-identical to
     *  (and cache-shared with) a suite run at the same seed. */
    uint64_t seed = synth::SynthesisOptions().seed;

    /** Synthesis instruction budget. */
    uint64_t targetInstr = synth::SynthesisOptions().targetInstructions;

    /** fidelity jobs: include the (slow) timing-model CPI metric. */
    bool timing = false;

    Json toJson() const;
    static Job fromJson(const Json &j);

    /** fatal() unless id/kind/workload are well-formed and seed and
     *  targetInstr are counts a job file holds exactly (below 2^53). */
    void validate() const;
};

/** True if @p id is non-empty and uses only [A-Za-z0-9._-]. */
bool validJobId(const std::string &id);

/** A job spool rooted at a directory (subdirectories created on
 *  construction). All operations are safe against concurrent clients
 *  and workers sharing the root. */
class Spool
{
  public:
    explicit Spool(std::string root);

    const std::string &root() const { return root_; }

    std::string newPath(const std::string &id) const;
    std::string claimedPath(const std::string &id) const;
    std::string donePath(const std::string &id) const;

    /** Result-artifact path for a job: `<root>/out/<id><suffix>`. */
    std::string outPath(const std::string &id,
                        const std::string &suffix) const;

    /** Atomically submit @p job. fatal() on an invalid job or if the
     *  id already exists anywhere in the spool. */
    void submit(const Job &job) const;

    /** Ids waiting in new/, sorted (deterministic claim order). */
    std::vector<std::string> pending() const;

    /** Ids with a terminal status in done/, sorted. */
    std::vector<std::string> finished() const;

    /** Try to claim a pending job: atomic rename new/ -> claimed/,
     *  then re-stamp the file's mtime so a stale scan measures time
     *  since the claim, not time spent queued in new/.
     *  @return false if another worker won the race (or the job
     *  vanished). */
    bool claim(const std::string &id) const;

    /** Ids whose claim file is at least @p maxAgeS seconds old —
     *  claims most likely stranded by a worker that died mid-job
     *  (finish() removes the claim file, so a live worker's claim
     *  only ages while the job is actually running). Sorted. */
    std::vector<std::string> scanStale(double maxAgeS) const;

    /** Move a (presumed stale) claimed job back to new/ so any worker
     *  can claim it afresh. Atomic rename. @return false if the claim
     *  vanished first — its owner finished after all, or another
     *  reclaimer won. */
    bool reclaim(const std::string &id) const;

    /** Publish the terminal @p status (atomic) and retire the claimed
     *  job file. */
    void finish(const std::string &id, const Json &status) const;

    /** Load done/<id>.json into @p out if present. */
    bool result(const std::string &id, Json &out) const;

    /** First free id derived from @p base: @p base itself, then
     *  "<base>-2", "<base>-3", ... — deterministic, no clocks. */
    std::string freeId(const std::string &base) const;

    /** Atomically publish a telemetry/status file at `<root>/<name>`
     *  (write-temp + rename) — readers scraping the spool never see a
     *  torn file. @p name must be a plain filename, not a path. */
    void publish(const std::string &name, const std::string &text) const;

    /** Drain flag (`<root>/stop`): ask every worker on this spool to
     *  finish its current job and exit. */
    void requestStop() const;
    bool stopRequested() const;
    void clearStop() const;

  private:
    bool idExists(const std::string &id) const;

    std::string root_;
};

/** Why waitForResult() returned. */
enum class WaitOutcome {
    Done,     ///< terminal status loaded
    Timeout,  ///< deadline passed with the job still in flight
    Stopped,  ///< spool stop flag set while the job sat unclaimed —
              ///< no worker will ever take it
    Vanished, ///< job in neither new/, claimed/ nor done/ — deleted
              ///< or never submitted
};

/** Lowercase name of @p outcome (for messages). */
const char *waitOutcomeName(WaitOutcome outcome);

/**
 * Poll the spool until @p id has a terminal status (loaded into
 * @p status), failing fast when no result can arrive anymore: a stop
 * flag with the job still unclaimed, or a job that is nowhere in the
 * spool at all. A claimed job keeps the wait alive even under a stop
 * flag — workers always finish the job in flight.
 */
WaitOutcome waitForResult(const Spool &spool, const std::string &id,
                          Json &status, double timeoutS,
                          unsigned pollMs = 50);

} // namespace bsyn::serve

#endif // BSYN_SERVE_SPOOL_HH
