/**
 * @file
 * The four benchmark workloads. Each one sets itself up from the seed,
 * runs measured repetitions through the library's public entry points
 * (Session::processSuite, gen::scoreFidelity, replay::runReplay) for a
 * fixed wall-clock budget, and verifies what the program produced.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "pipeline/session.hh"

namespace perfbench
{

/** Command-line configuration of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
};

/** What one measured window produced. */
struct Window
{
    uint64_t items = 0;   ///< items completed (instances or arrivals)
    double wallS = 0.0;   ///< wall time of the timed repetitions
    double cpuS = 0.0;    ///< process CPU time over the same intervals
    uint64_t repetitions = 0;

    /** Per-item latency, ms from due to completion, and the sample
     *  count behind it. */
    uint64_t latencySamples = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;

    /** Median over repetitions of each one's peak RSS (the mark is
     *  reset before every repetition). */
    double peakRssMb = 0.0;

    std::string digest; ///< results half (identical every repetition)
    bsyn::pipeline::CacheStats cache; ///< summed over the window
};

/**
 * One workload. The base class owns the generated inputs, the worker
 * pool and the working directory, and implements the correctness gate
 * and clone scoring shared by every workload.
 */
class Workload
{
  public:
    explicit Workload(const Options &opts);
    virtual ~Workload();

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Generate inputs and build what the timed window needs. */
    virtual void setup() = 0;

    /** Run timed repetitions for at least @p seconds. */
    virtual Window measure(double seconds, Gate &gate) = 0;

    /** Workload-specific per-layer metrics of the last window: the
     *  fidelity bench half (gen.*) and the replay stage histograms
     *  (replay.*). Every workload reports every name; a layer the
     *  workload never calls reads 0. */
    virtual void pathMetrics(Metrics &m) const;

    /** Mean of the fidelity summary means over this workload's clones
     *  (after measure()). */
    virtual double cloneError(Gate &gate);

    /** Originals print their expected output and every clone compiles
     *  and runs to exit 0 (after measure()). */
    void verify(Gate &gate);

    /** The generated programs this workload runs. */
    const std::vector<bsyn::workloads::Workload> &inputs() const
    {
        return inputs_;
    }

    /** Synthesis configuration: defaults with the seed as base seed. */
    virtual bsyn::synth::SynthesisOptions synthesis() const;

    /** The worker pool (layer timing and checks share it). */
    bsyn::ThreadPool &pool() { return *pool_; }

    /** Where this run keeps cache directories and traces. */
    const std::string &dir() const { return dir_; }

  protected:
    /** Cache directory holding (or receiving) this workload's profiles
     *  and clones for verify() and cloneError(). */
    virtual std::string artifactDir() const;

    /** A session on the shared pool caching into @p cacheDir. */
    std::unique_ptr<bsyn::pipeline::Session>
    session(const std::string &cacheDir) const;

    /** Create the pool (part of set-up). */
    void startPool();

    Options opts_;
    std::string dir_;
    std::vector<bsyn::workloads::Workload> inputs_;
    bsyn::obs::Registry metrics_; ///< the pool's counters
    std::unique_ptr<bsyn::ThreadPool> pool_;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** fatal() on an unknown name. */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
