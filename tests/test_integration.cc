/** @file End-to-end integration tests: the paper's full Figure 1 flow on
 *  real suite workloads — profile, synthesize, distribute (serialize),
 *  recompile, evaluate, verify obfuscation. */

#include <gtest/gtest.h>

#include "pipeline/pipeline.hh"
#include "pipeline/session.hh"
#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "similarity/report.hh"
#include "support/error.hh"

namespace bsyn
{
namespace
{

synth::SynthesisOptions
testOptions()
{
    auto opts = pipeline::defaultSynthesisOptions();
    opts.targetInstructions = 40000;
    return opts;
}

/** Shared cache-less session for these tests. */
pipeline::Session &
testSession()
{
    static pipeline::Session session([] {
        pipeline::SessionOptions so;
        so.synthesis = testOptions();
        return so;
    }());
    return session;
}

/**
 * All workloads these tests touch, processed once through the Session
 * batch API so the suite both exercises the parallel path and
 * amortizes the synthesis cost across test cases.
 */
const pipeline::WorkloadRun &
batchRun(const std::string &name)
{
    static const std::vector<pipeline::WorkloadRun> runs =
        testSession().processSuite({
            workloads::findWorkload("crc32/small"),
            workloads::findWorkload("stringsearch/small"),
            workloads::findWorkload("dijkstra/small"),
            workloads::findWorkload("gsm/small1"),
        });
    for (const auto &r : runs)
        if (r.workload.name() == name)
            return r;
    fatal("batchRun: %s not in the batch", name.c_str());
}

TEST(EndToEnd, SuiteBatchIsByteIdenticalToSequential)
{
    // The scheduling contract of the batch API: thread count changes
    // wall-clock, never results. Clones and profiles from a parallel
    // session batch must match a sequential (threads = 1) session batch
    // byte for byte, and each must match a direct Session::process()
    // call with the per-workload derived seed.
    std::vector<workloads::Workload> ws{
        workloads::findWorkload("crc32/small"),
        workloads::findWorkload("bitcount/small"),
        workloads::findWorkload("basicmath/small"),
    };
    pipeline::SessionOptions par;
    par.synthesis = testOptions();
    par.threads = 4;
    pipeline::SessionOptions seq = par;
    seq.threads = 1;
    pipeline::Session parSession(par), seqSession(seq);

    auto a = parSession.processSuite(ws);
    auto b = seqSession.processSuite(ws);
    ASSERT_EQ(a.size(), ws.size());
    ASSERT_EQ(b.size(), ws.size());
    for (size_t i = 0; i < ws.size(); ++i) {
        EXPECT_EQ(a[i].workload.name(), ws[i].name());
        EXPECT_EQ(a[i].synthetic.cSource, b[i].synthetic.cSource)
            << ws[i].name();
        EXPECT_EQ(a[i].profile.serialize(), b[i].profile.serialize())
            << ws[i].name();
    }

    auto direct = testOptions();
    direct.seed = pipeline::deriveWorkloadSeed(direct.seed, ws[0].name());
    auto one = parSession.process(ws[0], direct);
    EXPECT_EQ(one.synthetic.cSource, a[0].synthetic.cSource);
}

TEST(EndToEnd, Crc32CloneBehavesLikeTheOriginal)
{
    const auto &w = workloads::findWorkload("crc32/small");
    const auto &run = batchRun("crc32/small");

    // Reduction: the clone is much shorter running.
    uint64_t clone_insts =
        pipeline::measureInstructions(run.synthetic.cSource);
    EXPECT_LT(clone_insts * 2, run.profile.dynamicInstructions);

    // Mix fidelity.
    ir::Module clone = lang::compile(run.synthetic.cSource, "clone");
    auto clone_prof = profile::profileModule(clone);
    EXPECT_NEAR(clone_prof.mix.loadFraction(),
                run.profile.mix.loadFraction(), 0.15);
    EXPECT_NEAR(clone_prof.mix.storeFraction(),
                run.profile.mix.storeFraction(), 0.15);

    // Obfuscation: the detectors see no meaningful similarity.
    auto report =
        similarity::compareSources(w.source, run.synthetic.cSource);
    EXPECT_TRUE(report.hidesProprietaryInformation())
        << "winnow=" << report.winnow << " tiling=" << report.tiling;
}

TEST(EndToEnd, ProfileSurvivesDistribution)
{
    // The "benchmark distribution" arrow of Fig 1: serialize the profile,
    // load it elsewhere, synthesize from the copy — same clone.
    const auto &w = workloads::findWorkload("bitcount/small");
    ir::Module m = workloads::compileWorkload(w);
    auto prof = profile::profileModule(m);

    auto restored =
        profile::StatisticalProfile::deserialize(prof.serialize());
    auto opts = testOptions();
    auto a = synth::synthesize(prof, opts);
    auto b = synth::synthesize(restored, opts);
    EXPECT_EQ(a.cSource, b.cSource);
}

TEST(EndToEnd, CloneTracksOptimizationSensitivity)
{
    // Fig 5's property: both original and clone lose a sizable share of
    // dynamic instructions from O0 to O2.
    const auto &w = workloads::findWorkload("stringsearch/small");
    const auto &run = batchRun("stringsearch/small");

    auto count = [&](const std::string &src, opt::OptLevel lvl) {
        return pipeline::runSource(src, "x", lvl, isa::targetX86())
            .instructions;
    };
    double orig_ratio =
        double(count(w.source, opt::OptLevel::O2)) /
        double(count(w.source, opt::OptLevel::O0));
    double syn_ratio =
        double(count(run.synthetic.cSource, opt::OptLevel::O2)) /
        double(count(run.synthetic.cSource, opt::OptLevel::O0));
    EXPECT_LT(orig_ratio, 0.9);
    EXPECT_LT(syn_ratio, 0.9);
    EXPECT_NEAR(orig_ratio, syn_ratio, 0.30);
}

TEST(EndToEnd, CloneTracksCachePressureDirection)
{
    // dijkstra is the cache-sensitive benchmark (Fig 7): its clone must
    // also show a hit-rate gap between small and large caches.
    const auto &w = workloads::findWorkload("dijkstra/small");
    const auto &run = batchRun("dijkstra/small");

    auto hit_rates = [&](const std::string &src) {
        ir::Module m = lang::compile(src, "hr");
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
        return std::pair<double, double>(
            obs.sweep.at(0).stats().hitRate(),   // 1 KB
            obs.sweep.at(5).stats().hitRate());  // 32 KB
    };
    auto [orig_small, orig_big] = hit_rates(w.source);
    auto [syn_small, syn_big] = hit_rates(run.synthetic.cSource);
    EXPECT_GT(orig_big, orig_small);
    EXPECT_GE(syn_big + 1e-9, syn_small);
}

TEST(EndToEnd, TimingModelRunsCloneOnAllMachines)
{
    const auto &run = batchRun("gsm/small1");
    for (const auto &machine : sim::paperMachines()) {
        auto t = pipeline::timeOnMachine(run.synthetic.cSource, "clone",
                                         opt::OptLevel::O2, machine)
                     .stats;
        EXPECT_GT(t.cycles, 0u) << machine.name;
        EXPECT_GT(t.instructions, 0u) << machine.name;
        EXPECT_LT(t.cpi(), 20.0) << machine.name;
    }
}

} // namespace
} // namespace bsyn
