/**
 * @file
 * Differential tests for the predecoded execution engine: every suite
 * workload and the whole test_fuzz program corpus run through both the
 * reference decode-per-step interpreter (tests/oracle) and the
 * predecoded threaded-dispatch engine, and the results — ExecStats
 * including captured output, and the profile JSON — must be identical
 * bit for bit. This is the property that lets the library ship only
 * the fast engine: it is purely an accelerator, never a semantic fork.
 */

#include <gtest/gtest.h>

#include "oracle/interpreter.hh"
#include "oracle/profiler.hh"
#include "profile/profiler.hh"
#include "sim/decoded_program.hh"

#include "differential_suite.hh"
#include "program_fuzzer.hh"

namespace bsyn
{
namespace
{

class WorkloadDifferential : public ::testing::TestWithParam<SuiteLevel>
{};

TEST_P(WorkloadDifferential, StatsAndOutputIdentical)
{
    const auto &[idx, level] = GetParam();
    const workloads::Workload &w = representativeSuite()[idx];
    isa::MachineProgram prog = lowerAt(w, level);

    sim::ExecStats ref = oracle::executeReference(prog);
    sim::DecodedProgram decoded(prog);
    sim::ExecStats fast = sim::execute(decoded);

    EXPECT_EQ(ref.instructions, fast.instructions) << w.name();
    EXPECT_EQ(ref.memReads, fast.memReads) << w.name();
    EXPECT_EQ(ref.memWrites, fast.memWrites) << w.name();
    EXPECT_EQ(ref.branches, fast.branches) << w.name();
    EXPECT_EQ(ref.takenBranches, fast.takenBranches) << w.name();
    EXPECT_EQ(ref.calls, fast.calls) << w.name();
    EXPECT_EQ(ref.exitCode, fast.exitCode) << w.name();
    EXPECT_EQ(ref.output, fast.output) << w.name();
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadDifferential, suiteLevelGrid(),
                         suiteLevelName);

TEST(ProfileDifferential, ProfileJsonIdenticalOnBothEngines)
{
    // The reference profiler observes the reference interpreter's
    // callback stream; the shipped profiler counts inside the
    // predecoded engine. The serialized profiles — block counts, edges,
    // branch rates, miss classes, the lot — must be byte-identical.
    for (const auto &w : representativeSuite()) {
        ir::Module m = workloads::compileWorkload(w);
        EXPECT_EQ(oracle::profileModule(m).serialize(),
                  profile::profileModule(m).serialize())
            << w.name();
    }
}

class FuzzCorpusDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzCorpusDifferential, StatsIdenticalAtO0AndO2)
{
    ProgramFuzzer fuzzer(GetParam());
    std::string src = fuzzer.generate();
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
        ir::Module m = lang::compile(src, "fuzz");
        opt::optimize(m, level);
        isa::MachineProgram prog = isa::lower(m, isa::targetX86());
        sim::ExecStats ref = oracle::executeReference(prog);
        sim::ExecStats fast = sim::execute(sim::DecodedProgram(prog));
        EXPECT_TRUE(ref == fast)
            << "seed " << GetParam() << " at "
            << opt::optLevelName(level) << "\n"
            << src;
    }
}

// The same seed range as test_fuzz's Seeds instantiation — one corpus,
// two differential properties.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCorpusDifferential,
                         ::testing::Range<uint64_t>(1, 41));

TEST(DecodedStructure, BlocksPartitionTheProgram)
{
    const auto &w = workloads::findWorkload("sha/small");
    isa::MachineProgram prog = lowerAt(w, opt::OptLevel::O2);
    sim::DecodedProgram decoded(prog);

    ASSERT_EQ(decoded.size(), prog.size());
    ASSERT_FALSE(decoded.blocks().empty());

    // Blocks tile the PC range exactly, in order, with no overlap.
    int32_t expect = 0;
    for (const auto &b : decoded.blocks()) {
        EXPECT_EQ(b.first, expect);
        EXPECT_LT(b.first, b.end);
        expect = b.end;
    }
    EXPECT_EQ(expect, static_cast<int32_t>(prog.size()));

    // Every branch/jump target is a block leader, and blockOf() agrees
    // with the tiling.
    for (size_t pc = 0; pc < prog.size(); ++pc) {
        const isa::MInst &mi = prog.code[pc];
        if (mi.kind == isa::MKind::CondBr || mi.kind == isa::MKind::Jmp) {
            int b = decoded.blockOf(mi.target);
            EXPECT_EQ(decoded.blocks()[static_cast<size_t>(b)].first,
                      mi.target);
        }
        int b = decoded.blockOf(static_cast<int>(pc));
        EXPECT_LE(decoded.blocks()[static_cast<size_t>(b)].first,
                  static_cast<int32_t>(pc));
        EXPECT_LT(static_cast<int32_t>(pc),
                  decoded.blocks()[static_cast<size_t>(b)].end);
    }
}

} // namespace
} // namespace bsyn
