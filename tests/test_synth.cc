/** @file Synthesizer tests: skeleton generation, pattern codegen, stream
 *  planning, emitted-C validity, determinism and behavioural fidelity. */

#include <gtest/gtest.h>

#include "pipeline/pipeline.hh"
#include "lang/frontend.hh"
#include "synth/memory_streams.hh"
#include "synth/scale_down.hh"
#include "synth/skeleton.hh"

namespace bsyn
{
namespace
{

profile::StatisticalProfile
profileSource(const char *src)
{
    ir::Module m = lang::compile(src, "w");
    return profile::profileModule(m);
}

const char *loopWorkload = R"(
uint t[4096];
uint g;
int main() {
  int i, j;
  for (i = 0; i < 200; i++) {
    for (j = 0; j < 50; j++) {
      t[(i * 50 + j) & 4095] = t[(i * 37 + j) & 4095] + (uint)j;
    }
    if (i % 4 == 0) g += t[i & 4095];
  }
  printf("%u %u\n", g, t[99]);
  return 0;
})";

TEST(StreamPlan, NamesAndStrides)
{
    synth::StreamPlan plan(16384);
    plan.use(2, false);
    plan.use(0, true);
    EXPECT_EQ(plan.arrayName(2, false), "mStream2");
    EXPECT_EQ(plan.arrayName(0, true), "dStream0");
    EXPECT_EQ(plan.indexVar(3, false), "x3");
    EXPECT_EQ(plan.indexVar(3, true), "fx3");
    EXPECT_EQ(plan.strideElems(0, false), 0u);
    EXPECT_EQ(plan.strideElems(2, false), 2u); // 8 bytes / 4
    EXPECT_EQ(plan.strideElems(8, false), 8u); // 32 bytes -> every line
    EXPECT_EQ(plan.mask(), 16383u);
    EXPECT_EQ(plan.used().size(), 2u);
    EXPECT_EQ(plan.globalDecls().size(), 2u);
}

TEST(Skeleton, ConsumesAllCountsAndTerminates)
{
    auto prof = profileSource(loopWorkload);
    auto scaled = synth::scaleDown(prof.sfgl, 10);
    Rng rng(1);
    auto skeleton = synth::buildSkeleton(scaled, rng);
    ASSERT_FALSE(skeleton.funcs.empty());
    size_t nodes = 0;
    for (const auto &f : skeleton.funcs)
        nodes += f.roots.size();
    EXPECT_GT(nodes, 0u);
}

TEST(Skeleton, LoopInfoProducesLoopNodes)
{
    auto prof = profileSource(loopWorkload);
    auto scaled = synth::scaleDown(prof.sfgl, 10);
    Rng rng(1);
    auto skeleton = synth::buildSkeleton(scaled, rng);

    std::function<bool(const synth::SynNode &)> hasLoop =
        [&](const synth::SynNode &n) {
            if (n.kind == synth::SynNode::Kind::Loop)
                return true;
            for (const auto &c : n.body)
                if (hasLoop(c))
                    return true;
            return false;
        };
    bool any_loop = false;
    for (const auto &f : skeleton.funcs)
        for (const auto &r : f.roots)
            any_loop |= hasLoop(r);
    EXPECT_TRUE(any_loop);

    // Ablation: with loop info disabled, no Loop nodes appear (only
    // Repeat wrappers — the prior-work baseline).
    synth::SkeletonOptions no_loops;
    no_loops.useLoopInfo = false;
    Rng rng2(1);
    auto flat = synth::buildSkeleton(scaled, rng2, no_loops);
    bool flat_loop = false;
    for (const auto &f : flat.funcs)
        for (const auto &r : f.roots)
            flat_loop |= hasLoop(r);
    EXPECT_FALSE(flat_loop);
}

TEST(Synthesizer, CloneIsValidMiniCAndTerminates)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    auto syn = synth::synthesize(prof, opts,
                                 &pipeline::measureInstructions);
    ASSERT_FALSE(syn.cSource.empty());

    auto stats = pipeline::runSource(syn.cSource, "clone",
                                     opt::OptLevel::O0, isa::targetX86());
    EXPECT_GT(stats.instructions, 500u);
    EXPECT_NE(stats.output.find("bsyn_checksum="), std::string::npos);
}

TEST(Synthesizer, CloneCompilesAtAllLevelsWithStableOutput)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    auto syn = synth::synthesize(prof, opts,
                                 &pipeline::measureInstructions);
    std::string ref;
    for (auto lvl : {opt::OptLevel::O0, opt::OptLevel::O1,
                     opt::OptLevel::O2, opt::OptLevel::O3}) {
        auto stats = pipeline::runSource(syn.cSource, "clone", lvl,
                                         isa::targetX86());
        if (ref.empty())
            ref = stats.output;
        EXPECT_EQ(stats.output, ref) << opt::optLevelName(lvl);
    }
}

TEST(Synthesizer, DeterministicForSeed)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    opts.seed = 77;
    auto a = synth::synthesize(prof, opts);
    auto b = synth::synthesize(prof, opts);
    EXPECT_EQ(a.cSource, b.cSource);

    opts.seed = 78;
    auto c = synth::synthesize(prof, opts);
    EXPECT_NE(a.cSource, c.cSource);
}

TEST(Synthesizer, ReductionShrinksInstructionCount)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    auto syn = synth::synthesize(prof, opts,
                                 &pipeline::measureInstructions);
    uint64_t clone_insts = pipeline::measureInstructions(syn.cSource);
    EXPECT_LT(clone_insts, prof.dynamicInstructions / 2);
    EXPECT_GT(syn.reductionFactor, 1u);
    EXPECT_LE(syn.reductionFactor, 250u);
}

TEST(Synthesizer, CalibrationApproachesTarget)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 8000;
    auto syn = synth::synthesize(prof, opts,
                                 &pipeline::measureInstructions);
    uint64_t clone_insts = pipeline::measureInstructions(syn.cSource);
    EXPECT_GT(clone_insts, opts.targetInstructions / 4);
    EXPECT_LT(clone_insts, opts.targetInstructions * 4);
}

TEST(Synthesizer, PatternCoverageIsHigh)
{
    // Table II: the patterns cover over 95% of dynamic instructions.
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    auto syn = synth::synthesize(prof, opts);
    EXPECT_GT(syn.patternStats.coverage(), 0.95);
    EXPECT_GT(syn.patternStats.statements, 0u);
}

TEST(Synthesizer, GuardedPathsNeverExecute)
{
    // The never-taken printf guards must not fire: the clone's output is
    // exactly the final checksum line.
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    auto syn = synth::synthesize(prof, opts);
    auto stats = pipeline::runSource(syn.cSource, "clone",
                                     opt::OptLevel::O0, isa::targetX86());
    EXPECT_EQ(stats.output.rfind("bsyn_checksum=", 0), 0u)
        << stats.output;
}

TEST(Synthesizer, FpWorkloadProducesFpClone)
{
    const char *fp_workload = R"(
double d[2048];
int main() {
  int i, r;
  for (r = 0; r < 40; r++)
    for (i = 0; i < 2000; i++)
      d[i] = d[i] * 1.0001 + (double)i * 0.5;
  printf("%d\n", (int)d[100]);
  return 0;
})";
    auto prof = profileSource(fp_workload);
    EXPECT_GT(prof.mix.fpFraction(), 0.1);

    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    auto syn = synth::synthesize(prof, opts);
    EXPECT_NE(syn.cSource.find("dStream"), std::string::npos);

    ir::Module m = lang::compile(syn.cSource, "clone");
    auto clone_prof = profile::profileModule(m);
    EXPECT_GT(clone_prof.mix.fpFraction(), 0.05);
}

TEST(Synthesizer, CloneMixTracksOriginal)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 10000;
    auto syn = synth::synthesize(prof, opts,
                                 &pipeline::measureInstructions);
    ir::Module m = lang::compile(syn.cSource, "clone");
    auto clone_prof = profile::profileModule(m);
    // Same broad shape: loads/stores/branches within a loose band.
    EXPECT_NEAR(clone_prof.mix.loadFraction(),
                prof.mix.loadFraction(), 0.20);
    EXPECT_NEAR(clone_prof.mix.storeFraction(),
                prof.mix.storeFraction(), 0.20);
    EXPECT_NEAR(clone_prof.mix.branchFraction(),
                prof.mix.branchFraction(), 0.20);
}

TEST(Synthesizer, StatisticalCodegenAblationStillRuns)
{
    auto prof = profileSource(loopWorkload);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    opts.usePatterns = false; // prior-work baseline
    auto syn = synth::synthesize(prof, opts);
    auto stats = pipeline::runSource(syn.cSource, "clone",
                                     opt::OptLevel::O0, isa::targetX86());
    EXPECT_GT(stats.instructions, 100u);
}

} // namespace
} // namespace bsyn
