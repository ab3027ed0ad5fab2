/**
 * @file
 * Shared machinery for the experiment harnesses: one pipeline::Session
 * per binary (thread pool + artifact cache) that processes the whole
 * MiBench-analogue suite, plus helpers to run programs under
 * instrumentation and to fan per-figure measurement loops across the
 * session's workers.
 *
 * Each bench_* binary regenerates one table or figure of the paper
 * (see DESIGN.md's experiment index) and prints it as a text table.
 * Setting BSYN_CACHE_DIR shares profiles and clones across all 15
 * harness binaries — only the first to run pays the synthesis cost.
 */

#ifndef BSYN_BENCH_COMMON_HH
#define BSYN_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "support/error.hh"
#include "support/statistics.hh"
#include "support/table.hh"

namespace bsyn::bench
{

/** Synthesis configuration used across all experiment harnesses. */
inline synth::SynthesisOptions
benchSynthesisOptions()
{
    auto opts = pipeline::defaultSynthesisOptions();
    opts.targetInstructions = 120000; // the paper's "~10M", scaled
    return opts;
}

/** The one pipeline session shared by a harness binary: one worker per
 *  core, bench synthesis config, and — when BSYN_CACHE_DIR is set — an
 *  artifact cache shared with the other harnesses and the CLI. */
inline pipeline::Session &
benchSession()
{
    static pipeline::Session session([] {
        pipeline::SessionOptions so;
        so.synthesis = benchSynthesisOptions();
        if (const char *env = std::getenv("BSYN_CACHE_DIR"))
            so.cacheDir = env;
        return so;
    }());
    return session;
}

/** Batch-process @p ws on the bench session with a progress line per
 *  finished workload; fatal() on any per-workload failure. */
inline std::vector<pipeline::WorkloadRun>
processBatch(const std::vector<workloads::Workload> &ws)
{
    pipeline::CollectSink collect;
    pipeline::CallbackSink progress(
        [](const pipeline::RunStatus &st, const pipeline::WorkloadRun &) {
            std::fprintf(stderr, "[bench] processed %-22s%s\n",
                         st.workload.c_str(),
                         st.profileCached && st.synthCached
                             ? " (cached)"
                             : "");
        });
    std::vector<pipeline::RunSink *> sinks{&progress, &collect};
    pipeline::TeeSink tee(sinks);
    auto statuses = benchSession().processSuite(ws, tee);
    for (const auto &st : statuses)
        if (!st.ok)
            fatal("bench: workload %s failed: %s", st.workload.c_str(),
                  st.error.c_str());
    return collect.takeRuns();
}

/** Profile + synthesize every suite instance (cached per process). */
inline const std::vector<pipeline::WorkloadRun> &
processedSuite()
{
    static const std::vector<pipeline::WorkloadRun> runs =
        processBatch(workloads::mibenchSuite());
    return runs;
}

/**
 * Evaluate fn(0)..fn(n-1) on the bench session's workers and return
 * the results in index order — the batch API for the per-figure
 * measurement loops (CPI sweeps, per-level recompiles) that previously
 * ran one workload at a time.
 */
template <class T, class Fn>
inline std::vector<T>
parallelMap(size_t n, Fn fn)
{
    std::vector<T> out(n);
    benchSession().parallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * One representative instance per benchmark (prefers the small input) —
 * used by the heavier timing/cache experiments so each harness finishes
 * in seconds rather than minutes.
 */
inline const std::vector<pipeline::WorkloadRun> &
representativeRuns()
{
    static const std::vector<pipeline::WorkloadRun> runs = [] {
        std::vector<workloads::Workload> picks;
        std::string last;
        for (const auto &w : workloads::mibenchSuite()) {
            if (w.benchmark == last)
                continue;
            // Prefer smallN over largeN when one exists.
            const workloads::Workload *pick = &w;
            for (const auto &cand : workloads::mibenchSuite())
                if (cand.benchmark == w.benchmark &&
                    cand.input.rfind("small", 0) == 0) {
                    pick = &cand;
                    break;
                }
            picks.push_back(*pick);
            last = w.benchmark;
        }
        return processBatch(picks);
    }();
    return runs;
}

/** Run @p source and collect a cache-size sweep of data accesses. */
inline std::vector<double>
cacheHitRateSweep(const std::string &source, opt::OptLevel level)
{
    ir::Module m = lang::compile(source, "sweep");
    opt::optimize(m, level);
    isa::LoweringOptions lo;
    lo.applyFusion = false;
    auto prog = isa::lower(m, isa::targetX86(), lo);

    struct Sweeper : sim::ExecObserver
    {
        sim::CacheSweep sweep{sim::CacheSweep::paperSweep()};
        void onInstruction(int, const isa::MInst &) override {}
        void
        onMemAccess(int, uint64_t addr, uint32_t size, bool,
                    uint64_t) override
        {
            sweep.access(addr, size);
        }
        void onBranch(int, bool) override {}
    } obs;
    sim::execute(prog, &obs);

    std::vector<double> rates;
    for (size_t i = 0; i < obs.sweep.size(); ++i)
        rates.push_back(obs.sweep.at(i).stats().hitRate());
    return rates;
}

/** Run @p source and measure branch-predictor accuracy. */
inline double
branchAccuracy(const std::string &source, opt::OptLevel level,
               const std::string &predictor = "tournament")
{
    ir::Module m = lang::compile(source, "bp");
    opt::optimize(m, level);
    auto prog = isa::lower(m, isa::targetX86());

    struct Bp : sim::ExecObserver
    {
        sim::BranchPredictor pred;
        explicit Bp(const std::string &name) : pred(name) {}
        void onInstruction(int, const isa::MInst &) override {}
        void onMemAccess(int, uint64_t, uint32_t, bool, uint64_t) override
        {}
        void
        onBranch(int pc, bool taken) override
        {
            pred.branch(static_cast<uint64_t>(pc), taken);
        }
    } obs(predictor);
    sim::execute(prog, &obs);
    return obs.pred.stats().accuracy();
}

/** Dynamic instruction count at a level (x86). */
inline uint64_t
dynCount(const std::string &source, opt::OptLevel level)
{
    return pipeline::runSource(source, "count", level, isa::targetX86())
        .instructions;
}

} // namespace bsyn::bench

#endif // BSYN_BENCH_COMMON_HH
