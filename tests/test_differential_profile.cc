/**
 * @file
 * Differential tests for the fused instrumented profiling mode: every
 * suite workload and the shared fuzz corpus are profiled by both the
 * reference observer profiler (tests/oracle) and the shipped
 * dense-counter mode, at -O0 and -O2, and the results — serialized
 * profile JSON, SFGL edge sets, and the ExecStats of the underlying
 * run — must be identical byte for byte. The profile JSON is the
 * paper's distribution artifact; this suite is what lets the fast mode
 * produce it.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "gen/registry.hh"
#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "opt/pipeline.hh"
#include "oracle/interpreter.hh"
#include "oracle/profiler.hh"
#include "pipeline/session.hh"
#include "profile/profiler.hh"
#include "sim/decoded_program.hh"
#include "workloads/suite.hh"

#include "differential_suite.hh"
#include "program_fuzzer.hh"

namespace bsyn
{
namespace
{

/** Flatten a profile's SFGL edges into comparable (from, to, count)
 *  triples. */
std::vector<std::tuple<int, int, uint64_t>>
edgeSet(const profile::StatisticalProfile &prof)
{
    std::vector<std::tuple<int, int, uint64_t>> out;
    for (const auto &b : prof.sfgl.blocks)
        for (const auto &e : b.succs)
            out.emplace_back(b.id, e.to, e.count);
    return out;
}

void
expectProfilesIdentical(const ir::Module &m, const std::string &label,
                        const profile::ProfileOptions &opts = {})
{
    auto fused = profile::profileModule(m, opts);
    auto ref = oracle::profileModule(m, opts);
    EXPECT_EQ(ref.serialize(), fused.serialize()) << label;
    EXPECT_EQ(edgeSet(ref), edgeSet(fused)) << label;
    EXPECT_EQ(ref.dynamicInstructions, fused.dynamicInstructions)
        << label;
}

class WorkloadProfileDifferential
    : public ::testing::TestWithParam<SuiteLevel>
{};

TEST_P(WorkloadProfileDifferential, ProfileJsonAndEdgesIdentical)
{
    const auto &[idx, level] = GetParam();
    const workloads::Workload &w = representativeSuite()[idx];
    ir::Module m = lang::compile(w.source, w.name());
    opt::optimize(m, level);
    expectProfilesIdentical(m, w.name());
}

TEST_P(WorkloadProfileDifferential, InstrumentedExecStatsIdentical)
{
    const auto &[idx, level] = GetParam();
    const workloads::Workload &w = representativeSuite()[idx];
    ir::Module m = lang::compile(w.source, w.name());
    opt::optimize(m, level);
    // Default lowering (fusion on) so fused memory operands exercise
    // the instrumented handlers too.
    isa::MachineProgram prog = isa::lower(m, isa::targetX86());

    sim::ExecStats ref = oracle::executeReference(prog);
    sim::DecodedProgram decoded(prog);
    sim::InstrumentedCounters c;
    sim::ExecStats inst =
        sim::executeInstrumented(decoded, sim::CacheConfig(), c);
    EXPECT_TRUE(ref == inst) << w.name();

    // The dense counters must agree with the aggregate stats, and so
    // must what the profile derives from them (fused load-op-store PCs
    // make two accesses per retire).
    uint64_t retired = 0, accesses = 0, branches = 0, taken = 0;
    for (size_t pc = 0; pc < prog.size(); ++pc) {
        retired += c.execCount[pc];
        accesses += profile::derivedAccesses(prog.code[pc], c.execCount[pc]);
        branches += profile::derivedBranches(prog.code[pc], c.execCount[pc]);
        taken += c.branch[pc].taken;
    }
    EXPECT_EQ(retired, inst.instructions) << w.name();
    EXPECT_EQ(accesses, inst.memReads + inst.memWrites) << w.name();
    EXPECT_EQ(branches, inst.branches) << w.name();
    EXPECT_EQ(taken, inst.takenBranches) << w.name();
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadProfileDifferential,
                         suiteLevelGrid(), suiteLevelName);

// The same seed range as test_fuzz / test_differential_engine — one
// corpus, three differential properties.
class FuzzProfileDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzProfileDifferential, ProfileJsonIdenticalAtO0AndO2)
{
    ProgramFuzzer fuzzer(GetParam());
    std::string src = fuzzer.generate();
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
        ir::Module m = lang::compile(src, "fuzz");
        opt::optimize(m, level);
        auto fused = profile::profileModule(m);
        auto ref = oracle::profileModule(m);
        EXPECT_EQ(ref.serialize(), fused.serialize())
            << "seed " << GetParam() << " at "
            << opt::optLevelName(level) << "\n"
            << src;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProfileDifferential,
                         ::testing::Range<uint64_t>(1, 41));

// ------------------------------------------------- slice determinism
//
// The slice stream is cut at retired-instruction checkpoints, never
// wall-clock, so the v3 phase list must be a pure function of the
// program: identical bytes whatever the session's thread count and
// whether the profile comes from a cold run or a warm artifact cache.

workloads::Workload
multiPhaseInstance()
{
    return gen::Registry::global().require("phase_shift").make(
        {{"phases", 3}, {"rounds", 1}, {"work", 20000}}, 7);
}

TEST(SliceDeterminism, FusedAndObserverAgreeOnMultiPhaseProfiles)
{
    ir::Module m = workloads::compileWorkload(multiPhaseInstance());
    auto fused = profile::profileModule(m);
    ASSERT_TRUE(fused.multiPhase());
    auto ref = oracle::profileModule(m);
    EXPECT_EQ(ref.serialize(), fused.serialize());
}

TEST(SliceDeterminism, PhaseProfileBytesIdenticalAcrossThreadCounts)
{
    std::vector<workloads::Workload> batch = {
        multiPhaseInstance(),
        workloads::findWorkload("crc32/small"),
        workloads::findWorkload("bitcount/small"),
    };
    std::vector<std::string> ref;
    for (unsigned threads : {1u, 4u, 8u}) {
        pipeline::SessionOptions so;
        so.threads = threads;
        pipeline::Session session(std::move(so));
        std::vector<std::string> got(batch.size());
        session.parallelFor(batch.size(), [&](size_t i) {
            got[i] = session.profile(batch[i]).serialize();
        });
        if (ref.empty()) {
            ref = got;
            // The determinism claim must cover a real phase list.
            EXPECT_TRUE(profile::StatisticalProfile::deserialize(got[0])
                            .multiPhase());
            continue;
        }
        for (size_t i = 0; i < batch.size(); ++i)
            EXPECT_EQ(got[i], ref[i])
                << batch[i].name() << " at " << threads << " threads";
    }
}

TEST(SliceDeterminism, WarmCacheReplaysColdPhaseProfileBytes)
{
    char dir[] = "/tmp/bsyn_phase_cache_XXXXXX";
    ASSERT_NE(mkdtemp(dir), nullptr);
    auto w = multiPhaseInstance();

    std::string cold, warm;
    bool coldHit = true, warmHit = false;
    {
        pipeline::SessionOptions so;
        so.cacheDir = dir;
        pipeline::Session session(std::move(so));
        cold = session.profile(w, &coldHit).serialize();
    }
    {
        pipeline::SessionOptions so;
        so.cacheDir = dir;
        pipeline::Session session(std::move(so));
        warm = session.profile(w, &warmHit).serialize();
    }
    EXPECT_FALSE(coldHit);
    EXPECT_TRUE(warmHit);
    EXPECT_EQ(cold, warm);
    EXPECT_TRUE(
        profile::StatisticalProfile::deserialize(warm).multiPhase());
    std::filesystem::remove_all(dir);
}

/** CI smoke check: fused and reference must agree on one real
 *  workload (filtered as ProfileSmoke.* by the workflow). */
TEST(ProfileSmoke, FusedMatchesReferenceOnShaSmall)
{
    const auto &w = workloads::findWorkload("sha/small");
    ir::Module m = lang::compile(w.source, w.name());
    expectProfilesIdentical(m, w.name());

    // With slicing off the fused mode runs the same hooks with the
    // slice recorder disarmed; it must still match.
    profile::ProfileOptions unsliced;
    unsliced.sliceBaseLength = 0;
    expectProfilesIdentical(m, w.name() + " unsliced", unsliced);
}

} // namespace
} // namespace bsyn
