/**
 * @file
 * Differential tests for the timing engine: every suite workload and
 * the whole fuzz corpus run through the reference core model
 * (tests/oracle, an ExecObserver over the reference interpreter and
 * over the fused decode) and the timing engine (TimedProgram +
 * TimedCore, with the cache and predictor state machines inlined), and
 * the cycle counts, cache/predictor statistics, ExecStats and per-PC
 * event counters must be identical. Superblock fusion is checked both
 * ways: a fused decode must time and count exactly like an unfused
 * one. This is the property that lets the library ship only the timing
 * engine: purely an accelerator, never a semantic fork.
 */

#include <gtest/gtest.h>

#include "oracle/core_model.hh"
#include "oracle/interpreter.hh"
#include "sim/decoded_program.hh"
#include "sim/machine.hh"
#include "sim/timed_core.hh"

#include "differential_suite.hh"
#include "program_fuzzer.hh"

namespace bsyn
{
namespace
{

void
expectTimingEq(const sim::TimingStats &ref, const sim::TimingStats &spec,
               const std::string &what)
{
    EXPECT_EQ(ref.instructions, spec.instructions) << what;
    EXPECT_EQ(ref.cycles, spec.cycles) << what;
    EXPECT_EQ(ref.branch.branches, spec.branch.branches) << what;
    EXPECT_EQ(ref.branch.correct, spec.branch.correct) << what;
    EXPECT_EQ(ref.l1d.accesses, spec.l1d.accesses) << what;
    EXPECT_EQ(ref.l1d.misses, spec.l1d.misses) << what;
    EXPECT_EQ(ref.l2.accesses, spec.l2.accesses) << what;
    EXPECT_EQ(ref.l2.misses, spec.l2.misses) << what;
}

/**
 * Run the reference core model and the timing engine over @p prog
 * under @p cfg and assert every observable identical: TimingStats, the
 * ExecStats of every run, and the per-PC l1-miss / l2-miss /
 * mispredict counters. Both the fused and the fusion-free decode go
 * through the timing engine.
 */
void
expectEnginesAgree(const isa::MachineProgram &prog,
                   const sim::CoreConfig &cfg, const std::string &what)
{
    sim::DecodedProgram fused(prog);
    sim::DecodeOptions plain_opts;
    plain_opts.superblockFusion = false;
    sim::DecodedProgram plain(prog, plain_opts);

    // Reference: the core model observing the reference interpreter.
    sim::PerPcTimingEvents ref_events;
    oracle::CoreModel model(cfg);
    model.recordEvents(&ref_events, prog.size());
    sim::ExecStats ref_exec = oracle::executeReference(prog, &model);
    sim::TimingStats ref = model.finish();

    // The core model observing the fused decode: fusion must replay
    // the exact callback stream.
    oracle::CoreModel obs_model(cfg);
    sim::ExecStats obs_exec = sim::execute(fused, &obs_model);
    sim::TimingStats obs = obs_model.finish();

    // Timing engine over both decodes.
    sim::TimedProgram timed(fused, cfg);
    sim::PerPcTimingEvents spec_events;
    sim::TimedCore core(cfg);
    core.recordEvents(&spec_events, prog.size());
    sim::ExecStats spec_exec = sim::executeOnCore(fused, timed, core);
    sim::TimingStats spec = core.finish();

    sim::TimedProgram timed_plain(plain, cfg);
    sim::TimedCore plain_core(cfg);
    sim::ExecStats plain_exec =
        sim::executeOnCore(plain, timed_plain, plain_core);
    sim::TimingStats plain_spec = plain_core.finish();

    expectTimingEq(ref, obs, what + " [fused observer]");
    expectTimingEq(ref, spec, what + " [engine]");
    expectTimingEq(ref, plain_spec, what + " [engine, unfused]");
    EXPECT_TRUE(ref_exec == obs_exec) << what;
    EXPECT_TRUE(ref_exec == spec_exec) << what;
    EXPECT_TRUE(ref_exec == plain_exec) << what;
    EXPECT_TRUE(ref_events == spec_events) << what;

    // And the public entry point agrees with the hand-driven runs.
    expectTimingEq(ref, sim::simulateTiming(fused, cfg), what + " [api]");
}

class TimingDifferential : public ::testing::TestWithParam<SuiteLevel>
{};

TEST_P(TimingDifferential, CyclesStatsAndEventsIdentical)
{
    const auto &[idx, level] = GetParam();
    const workloads::Workload &w = representativeSuite()[idx];
    isa::MachineProgram prog = lowerAt(w, level);
    expectEnginesAgree(prog, sim::ptlsimConfig(8).core, w.name());
}

INSTANTIATE_TEST_SUITE_P(Suite, TimingDifferential, suiteLevelGrid(),
                         suiteLevelName);

TEST(TimingDifferential2, EveryPredictorCoreShapeAndCacheGeometry)
{
    // Cover all predictor state machines, the in-order issue path and
    // an L2-free hierarchy — every branch of the timing engine the
    // ptlsim configuration alone would leave cold.
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    for (const char *pred :
         {"static", "bimodal", "gshare", "tournament"}) {
        for (bool in_order : {false, true}) {
            sim::CoreConfig cfg = sim::ptlsimConfig(8).core;
            cfg.predictor = pred;
            cfg.inOrder = in_order;
            expectEnginesAgree(prog, cfg,
                               std::string(pred) +
                                   (in_order ? " in-order" : " ooo"));
        }
    }
    sim::CoreConfig no_l2 = sim::ptlsimConfig(8).core;
    no_l2.hasL2 = false;
    expectEnginesAgree(prog, no_l2, "no-l2");

    sim::CoreConfig tiny = sim::ptlsimConfig(8).core;
    tiny.l1d.sizeBytes = 1024; // high miss rate: exercise the memo
    tiny.l1d.associativity = 1; // and the direct-mapped victim path
    expectEnginesAgree(prog, tiny, "tiny-l1");
}

class FuzzTimingDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzTimingDifferential, CyclesIdenticalAtO0AndO2)
{
    ProgramFuzzer fuzzer(GetParam());
    std::string src = fuzzer.generate();
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
        ir::Module m = lang::compile(src, "fuzz");
        opt::optimize(m, level);
        isa::MachineProgram prog = isa::lower(m, isa::targetX86());
        expectEnginesAgree(prog, sim::ptlsimConfig(8).core,
                           "seed " + std::to_string(GetParam()) +
                               " at " + opt::optLevelName(level));
    }
}

// The same seed range as test_fuzz's Seeds instantiation — one corpus,
// three differential properties across the test binaries.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTimingDifferential,
                         ::testing::Range<uint64_t>(1, 41));

TEST(SuperblockStructure, ChainsPartitionTheBlocks)
{
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    sim::DecodedProgram decoded(prog);

    const auto &blocks = decoded.blocks();
    const auto &sbs = decoded.superblocks();
    ASSERT_FALSE(sbs.empty());

    // Superblocks tile the block list exactly, in order, no overlap.
    int32_t expect = 0;
    for (const auto &sb : sbs) {
        EXPECT_EQ(sb.firstBlock, expect);
        EXPECT_LT(sb.firstBlock, sb.endBlock);
        expect = sb.endBlock;
    }
    EXPECT_EQ(expect, static_cast<int32_t>(blocks.size()));

    for (size_t s = 0; s < sbs.size(); ++s) {
        for (int32_t b = sbs[s].firstBlock; b < sbs[s].endBlock; ++b) {
            EXPECT_EQ(decoded.superblockOf(b), static_cast<int>(s));
            // Every block but the chain's last falls through: its
            // final instruction is not a control transfer.
            const auto &blk = blocks[static_cast<size_t>(b)];
            bool last_in_chain = b + 1 == sbs[s].endBlock;
            const isa::MInst &tail =
                prog.code[static_cast<size_t>(blk.end - 1)];
            if (!last_in_chain) {
                EXPECT_FALSE(tail.isBlockEnd())
                    << "block " << b << " inside a chain must fall "
                    << "through";
            }
        }
    }
}

TEST(SuperblockStructure, FusedPairsAreWellFormed)
{
    // Wherever fusion fired, the successor PC must hold the matching
    // conditional branch (with its own dispatchable decode for side
    // entries) in the same superblock, and the fused instruction must
    // carry its target and sense.
    size_t fused_total = 0;
    for (const auto &w : representativeSuite()) {
        for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
            isa::MachineProgram prog = lowerAt(w, level);
            sim::DecodedProgram decoded(prog);
            const auto &code = decoded.code();
            for (size_t pc = 0; pc < code.size(); ++pc) {
                const sim::DecodedInst &d = code[pc];
                if (d.h < sim::Handler::BrCmpEq ||
                    d.h > sim::Handler::BrCmpGeU)
                    continue;
                ++fused_total;
                ASSERT_LT(pc + 1, code.size());
                const sim::DecodedInst &br = code[pc + 1];
                bool if_zero =
                    (d.flags & sim::DecodedInst::kBrIfZero) != 0;
                EXPECT_EQ(br.h, if_zero ? sim::Handler::CondBrZ
                                        : sim::Handler::CondBrNZ);
                EXPECT_EQ(br.a, d.dst);
                EXPECT_EQ(br.target, d.target);
                EXPECT_EQ(decoded.superblockOf(
                              decoded.blockOf(static_cast<int>(pc))),
                          decoded.superblockOf(decoded.blockOf(
                              static_cast<int>(pc) + 1)));
            }
        }
    }
    // The suite must actually exercise the fused handlers.
    EXPECT_GT(fused_total, 0u);
}

TEST(TimedCoreCheckpoints, CyclesAtBoundariesAreMonotonic)
{
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    sim::DecodedProgram decoded(prog);
    sim::CoreConfig cfg = sim::ptlsimConfig(8).core;
    sim::TimedProgram timed(decoded, cfg);

    sim::TimedCore probe(cfg);
    sim::executeOnCore(decoded, timed, probe);
    sim::TimingStats total = probe.finish();
    ASSERT_GT(total.instructions, 4u);

    std::vector<uint64_t> bounds = {
        total.instructions / 4, total.instructions / 2,
        (3 * total.instructions) / 4, total.instructions};
    sim::TimedCore core(cfg);
    core.setCheckpoints(bounds);
    sim::executeOnCore(decoded, timed, core);
    sim::TimingStats again = core.finish();
    expectTimingEq(total, again, "checkpointing must not perturb");

    const auto &cuts = core.checkpointCycles();
    ASSERT_EQ(cuts.size(), bounds.size());
    for (size_t i = 1; i < cuts.size(); ++i)
        EXPECT_LE(cuts[i - 1], cuts[i]);
    // The final boundary sits at end of run: full cycle count.
    EXPECT_EQ(cuts.back(), total.cycles);
}

} // namespace
} // namespace bsyn
