/**
 * @file
 * Shared plumbing of the perfbench driver: metric records, the
 * correctness gate, clocks (wall, process CPU, peak RSS), percentiles
 * over exact samples and over obs::LatencyHistogram buckets, and the
 * pool-completion clock that timestamps batch items from outside the
 * library.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hh"
#include "obs/metrics.hh"
#include "support/thread_pool.hh"
#include "workloads/workload.hh"

namespace perfbench
{

namespace obs = bsyn::obs;

using Clock = std::chrono::steady_clock;

/** One reported number. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name (sorted, so every run prints them in one order). */
using Metrics = std::map<std::string, Metric>;

/**
 * The correctness gate: every check counts as attempted, a failing one
 * also as failed, and its description goes to stderr. Thread-safe.
 */
class Gate
{
  public:
    /** Record one check; @return @p ok. */
    bool check(bool ok, const std::string &what);

    /** Record @p n checks of which @p failed failed (outcome counts the
     *  program already aggregated, such as replay arrivals). */
    void count(uint64_t n, uint64_t failed, const std::string &what);

    uint64_t attempted() const { return attempted_.load(); }
    uint64_t failed() const { return failed_.load(); }

  private:
    std::atomic<uint64_t> attempted_{0};
    std::atomic<uint64_t> failed_{0};
};

/** Seconds since @p t0. */
double secondsSince(Clock::time_point t0);

/** User + system CPU seconds of the whole process so far. */
double processCpuSeconds();

/** Reset the process's peak-RSS mark (Linux clear_refs). Where the
 *  kernel refuses, peakRssMb() reports the lifetime peak. */
void resetPeakRss();

/** Peak resident set size in MB since the last reset. */
double peakRssMb();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * Quantile @p q of a log-bucketed histogram, in ms, interpolated
 * linearly across the ranks that share a bucket so readings vary
 * continuously instead of jumping between bucket midpoints.
 */
double histogramQuantileMs(const obs::LatencyHistogram &h, double q);

/**
 * Timestamps completions of a thread pool's tasks by sampling its
 * "threadpool.tasks.executed" counter from a sleeping thread every
 * ~0.2 ms while a batch runs — the only per-item completion signal
 * scoreFidelity exposes, used alike for every batch workload.
 */
class CompletionClock
{
  public:
    explicit CompletionClock(const obs::Counter &executed);
    ~CompletionClock();

    CompletionClock(const CompletionClock &) = delete;
    CompletionClock &operator=(const CompletionClock &) = delete;

    /** Completion offsets (ms from construction), one per task. */
    std::vector<double> stop();

  private:
    void sample(Clock::time_point now);

    const obs::Counter &executed_;
    Clock::time_point start_;
    uint64_t last_;
    std::vector<double> completions_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** Compile, lower and run @p source at -O0; @return exit code and
 *  output. fatal() on a compile error. */
struct RunOutcome
{
    int exitCode = 0;
    std::string output;
    uint64_t instructions = 0;
};
RunOutcome runSource(const std::string &source, const std::string &name);

/** Whether @p out is the output @p w must print. */
bool outputMatches(const bsyn::workloads::Workload &w,
                   const std::string &out);

/** Every original prints what it should: exactly its expected line for
 *  generated instances (whose reference is the C++ mirror), and output
 *  containing the expected marker for hand-written suite instances. Runs each on the fast
 *  path, fanned across @p pool. */
void checkOriginals(const std::vector<bsyn::workloads::Workload> &inputs,
                    Gate &gate, bsyn::ThreadPool &pool);

/** Every clone compiles and runs to exit code 0. */
void checkClones(const std::vector<std::string> &names,
                 const std::vector<std::string> &sources, Gate &gate,
                 bsyn::ThreadPool &pool);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
