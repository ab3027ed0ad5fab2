/**
 * @file
 * The open-loop traffic replay engine: replays a Schedule × Mix of
 * generated (and suite) workload instances against one warm
 * pipeline::Session from several driver threads, or through a
 * serve::Spool with in-process workers to exercise the serving path.
 * Arrivals are submitted at their scheduled wall-clock offsets
 * regardless of completion (open loop), so a saturated system shows up
 * as growing queue-wait latency instead of a silently reduced offered
 * rate.
 *
 * The report is split like `bsyn fidelity`: a deterministic *results*
 * half (the arrival stream, the drawn workloads, per-arrival outcomes
 * — a pure function of spec + seed, byte-identical across repeated
 * runs and driver thread counts) and a *bench* half (throughput,
 * achieved-vs-offered rate, per-stage latency percentiles from
 * lock-free histograms) that reports whatever the hardware did.
 */

#ifndef BSYN_REPLAY_ENGINE_HH
#define BSYN_REPLAY_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/session.hh"
#include "replay/mix.hh"
#include "replay/schedule.hh"
#include "support/json.hh"

namespace bsyn::replay
{

/** Configuration of one replay run. */
struct ReplayOptions
{
    std::string scheduleSpec = "constant,rate=50";
    std::string mixSpec;
    double durationS = 1.0;   ///< schedule horizon (virtual = wall)
    uint64_t seed = synth::SynthesisOptions().seed;

    /** Driver threads submitting arrivals; 0 = one per hardware
     *  thread (capped at 16). */
    unsigned threads = 4;

    /** Seeds (1..P) a seedless family entry of the mix expands to. */
    uint64_t population = 4;

    /** Per-arrival synthesis budget. */
    uint64_t targetInstr = synth::SynthesisOptions().targetInstructions;
    std::string cacheDir;          ///< session artifact cache

    /** Non-empty: submit arrivals as spool jobs served by
     *  @ref spoolWorkers in-process serve::Worker threads instead of
     *  calling the session directly — the worker-path stress mode. */
    std::string spoolDir;
    unsigned spoolWorkers = 2;

    /** Give up on one arrival's spool result after this long. */
    double spoolTimeoutS = 300.0;
};

/** Deterministic outcome of one arrival (results half). */
struct ArrivalResult
{
    uint64_t offsetNs = 0; ///< scheduled arrival, ns from run start
    uint32_t mode = 0;     ///< mix mode active at the arrival
    uint32_t instance = 0; ///< index into the mix population
    bool ok = true;
    std::string error;     ///< failure description when !ok
};

/** Latency percentiles of one pipeline stage (bench half). */
struct StageSummary
{
    std::string stage; ///< queue | profile | synth | total
    uint64_t count = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double maxMs = 0.0;
    double meanMs = 0.0;
};

/** Everything one replay run produced. */
struct ReplayReport
{
    // ------------------------------------------- deterministic results
    std::string scheduleSpec;
    std::string mixSpec;
    double durationS = 0.0;
    uint64_t seed = 0;
    uint64_t population = 0;

    std::vector<std::string> instanceNames; ///< mix population order
    std::vector<ArrivalResult> arrivals;    ///< schedule order
    std::vector<uint64_t> drawCounts;       ///< per population instance
    std::vector<uint64_t> modeCounts;       ///< per mix mode
    uint64_t okCount = 0;
    uint64_t failCount = 0;

    /** SHA-256 over the canonical per-arrival stream
     *  ("index,offsetNs,mode,instance,ok\n" lines) — a compact
     *  byte-equality check over millions of arrivals without
     *  serializing each one. */
    std::string streamDigest;

    // ---------------------------------------------------- bench timings
    double elapsedS = 0.0;
    double offeredRate = 0.0;  ///< scheduled arrivals per second
    double achievedRate = 0.0; ///< completed arrivals per second
    std::vector<StageSummary> stages;
    pipeline::CacheStats cacheStats;

    /** Deterministic half ("bsyn.traffic.v1"): byte-identical for a
     *  fixed (schedule, mix, duration, seed, population) at any driver
     *  thread count. */
    Json resultsJson() const;

    /** Full report: results plus the "bench" section. */
    Json toJson() const;
};

/** Run one replay. fatal() on an invalid spec or configuration (the
 *  CLI validates specs even earlier, at argument-parse time). */
ReplayReport runReplay(const ReplayOptions &opts);

} // namespace bsyn::replay

#endif // BSYN_REPLAY_ENGINE_HH
