/** @file Profiler/SFGL tests: exact counts on small programs, branch
 *  rates, memory classes, per-CondBr annotations, profiling edge
 *  cases, serialization. */

#include <gtest/gtest.h>

#include <functional>

#include "lang/frontend.hh"
#include "oracle/profiler.hh"
#include "profile/profiler.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "support/string_util.hh"
#include "synth/consolidate.hh"
#include "synth/profile_builder.hh"
#include "workloads/suite.hh"

namespace bsyn
{
namespace
{

profile::StatisticalProfile
profileSource(const char *src)
{
    ir::Module m = lang::compile(src, "p");
    return profile::profileModule(m);
}

/** Profile with the shipped and the reference profiler and assert
 *  identity; @return the (shared) profile. */
profile::StatisticalProfile
profileBothEngines(const ir::Module &m,
                   const profile::ProfileOptions &opts = {})
{
    auto pf = profile::profileModule(m, opts);
    EXPECT_EQ(oracle::profileModule(m, opts).serialize(), pf.serialize());
    return pf;
}

const profile::SfglLoop *
loopWithIterations(const profile::Sfgl &g, double iters, double tol = 0.5)
{
    for (const auto &l : g.loops)
        if (std::abs(l.avgIterations - iters) <= tol)
            return &l;
    return nullptr;
}

TEST(Profiler, CountsSimpleLoopExactly)
{
    auto prof = profileSource(R"(
uint g;
int main() {
  int i;
  for (i = 0; i < 37; i++) g = g + 1;
  printf("%u\n", g);
  return 0;
})");
    // One loop, entered once, 37 iterations plus the failing test.
    ASSERT_EQ(prof.sfgl.loops.size(), 1u);
    const auto &loop = prof.sfgl.loops[0];
    EXPECT_EQ(loop.entries, 1u);
    EXPECT_NEAR(loop.avgIterations, 38.0, 1.0); // header runs N+1 times
    EXPECT_GT(prof.dynamicInstructions, 0u);
    EXPECT_EQ(prof.dynamicInstructions, prof.mix.total());
}

TEST(Profiler, NestedLoopIterations)
{
    auto prof = profileSource(R"(
uint g;
int main() {
  int i, j;
  for (i = 0; i < 10; i++)
    for (j = 0; j < 20; j++)
      g = g + 1;
  printf("%u\n", g);
  return 0;
})");
    ASSERT_EQ(prof.sfgl.loops.size(), 2u);
    // Outer: entered once, ~11 header visits. Inner: entered 10 times,
    // ~21 header visits per entry.
    EXPECT_NE(loopWithIterations(prof.sfgl, 11.0, 1.0), nullptr);
    const auto *inner = loopWithIterations(prof.sfgl, 21.0, 1.0);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->entries, 10u);
    EXPECT_EQ(inner->depth, 2);
}

TEST(Profiler, BranchTakenAndTransitionRates)
{
    auto prof = profileSource(R"(
uint g;
int main() {
  int i;
  for (i = 0; i < 1000; i++) {
    if (i % 2 == 0) g = g + 1; /* alternates: transition rate ~1 */
  }
  for (i = 0; i < 1000; i++) {
    if (i < 990) g = g + 2;    /* sticky: transition rate ~0 */
  }
  printf("%u\n", g);
  return 0;
})");
    bool found_alternating = false, found_sticky = false;
    for (const auto &b : prof.sfgl.blocks) {
        if (b.term != profile::SfglTerm::Branch || b.execCount < 900)
            continue;
        if (b.transitionRate > 0.9)
            found_alternating = true;
        if (b.transitionRate < 0.1 && b.takenRate > 0.0 &&
            b.execCount >= 990)
            found_sticky = true;
    }
    EXPECT_TRUE(found_alternating);
    EXPECT_TRUE(found_sticky);
}

TEST(Profiler, MemoryMissClassesReflectLocality)
{
    auto prof = profileSource(R"(
uint big[262144];  /* 1 MB: every 8th access misses at stride 4 */
uint tiny[16];
int main() {
  int i;
  uint s = 0;
  for (i = 0; i < 262144; i++) s += big[i];
  for (i = 0; i < 262144; i++) s += tiny[i & 15];
  printf("%u\n", s);
  return 0;
})");
    // Find the two load descriptors with high execution counts.
    bool saw_streaming = false, saw_resident = false;
    for (const auto &b : prof.sfgl.blocks) {
        if (b.execCount < 100000)
            continue;
        for (const auto &d : b.code) {
            if (!d.readsMem)
                continue;
            if (d.missClass == 1)
                saw_streaming = true; // stride-4 walk => 12.5% band
            if (d.missClass == 0)
                saw_resident = true; // tiny array always hits
        }
    }
    EXPECT_TRUE(saw_streaming);
    EXPECT_TRUE(saw_resident);
}

TEST(Profiler, EdgesCarryCounts)
{
    auto prof = profileSource(R"(
uint g;
int main() {
  int i;
  for (i = 0; i < 100; i++) g += (uint)i;
  printf("%u\n", g);
  return 0;
})");
    uint64_t total_edges = 0;
    for (const auto &b : prof.sfgl.blocks)
        for (const auto &e : b.succs)
            total_edges += e.count;
    EXPECT_GT(total_edges, 100u);
}

TEST(Profiler, MixMatchesExecution)
{
    auto prof = profileSource(R"(
double d[64];
int main() {
  int i;
  for (i = 0; i < 64; i++) d[i] = (double)i * 1.5;
  printf("%d\n", (int)d[10]);
  return 0;
})");
    EXPECT_GT(prof.mix.loadFraction(), 0.0);
    EXPECT_GT(prof.mix.storeFraction(), 0.0);
    EXPECT_GT(prof.mix.branchFraction(), 0.0);
    EXPECT_GT(prof.mix.fpFraction(), 0.0);
    double total = prof.mix.loadFraction() + prof.mix.storeFraction() +
                   prof.mix.branchFraction() + prof.mix.otherFraction();
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Profiler, FunctionCallsDoNotBreakBlockCounts)
{
    auto prof = profileSource(R"(
uint g;
uint bump(uint x) { return x + 1; }
int main() {
  int i;
  for (i = 0; i < 50; i++) g = bump(g);
  printf("%u\n", g);
  return 0;
})");
    // bump's body block must execute exactly 50 times.
    bool found = false;
    for (const auto &b : prof.sfgl.blocks) {
        if (prof.sfgl.funcNames[static_cast<size_t>(b.funcId)] == "bump" &&
            b.execCount == 50)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(StatisticalProfile, SerializationRoundTrip)
{
    auto prof = profileSource(R"(
uint g[1024];
int main() {
  int i, j;
  for (i = 0; i < 20; i++)
    for (j = 0; j < 30; j++)
      if ((i ^ j) & 3) g[(i * j) & 1023] += 1;
  printf("%u\n", g[0]);
  return 0;
})");
    std::string text = prof.serialize();
    auto back = profile::StatisticalProfile::deserialize(text);
    EXPECT_EQ(back.workloadName, prof.workloadName);
    EXPECT_EQ(back.dynamicInstructions, prof.dynamicInstructions);
    ASSERT_EQ(back.sfgl.blocks.size(), prof.sfgl.blocks.size());
    ASSERT_EQ(back.sfgl.loops.size(), prof.sfgl.loops.size());
    for (size_t i = 0; i < back.sfgl.blocks.size(); ++i) {
        EXPECT_EQ(back.sfgl.blocks[i].execCount,
                  prof.sfgl.blocks[i].execCount);
        EXPECT_EQ(back.sfgl.blocks[i].code.size(),
                  prof.sfgl.blocks[i].code.size());
        EXPECT_EQ(back.sfgl.blocks[i].succs.size(),
                  prof.sfgl.blocks[i].succs.size());
    }
    for (size_t i = 0; i < back.sfgl.loops.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.sfgl.loops[i].avgIterations,
                         prof.sfgl.loops[i].avgIterations);
    }
    EXPECT_EQ(back.mix.total(), prof.mix.total());
}

// ------------------------------------------------------------------
// Multi-CondBr blocks: profileWorkload must annotate every executed
// conditional branch of a block, not just the first one it finds.
// Normal lowering emits at most one CondBr per IR block, so the
// programs are built by hand (profileWorkload only needs the module
// for loop detection; an empty one means "no loops").
// ------------------------------------------------------------------

isa::MachineProgram
twoCondBrProgram()
{
    using isa::MInst;
    using isa::MKind;
    isa::MachineProgram prog;
    prog.name = "twobr";

    auto inst = [&](MKind kind, int ir_block) {
        MInst mi;
        mi.kind = kind;
        mi.funcId = 0;
        mi.irBlockId = ir_block;
        prog.code.push_back(mi);
        return &prog.code.back();
    };

    // Block 0 (pcs 0..3) carries two conditional branches.
    MInst *mov = inst(MKind::Compute, 0); // pc0: r0 = 1
    mov->op = ir::Opcode::MovImm;
    mov->dst = 0;
    mov->imm = 1;
    MInst *br1 = inst(MKind::CondBr, 0); // pc1: if (r0) goto 3
    br1->src0 = 0;
    br1->target = 3;
    MInst *dead = inst(MKind::Compute, 0); // pc2: r1 = 9 (skipped)
    dead->op = ir::Opcode::MovImm;
    dead->dst = 1;
    dead->imm = 9;
    MInst *br2 = inst(MKind::CondBr, 0); // pc3: if (!r0) goto 5
    br2->src0 = 0;
    br2->brIfZero = true;
    br2->target = 5;
    inst(MKind::Ret, 1)->src0 = -1; // pc4: block 1
    inst(MKind::Ret, 2)->src0 = -1; // pc5: block 2

    isa::MFunction fn;
    fn.name = "main";
    fn.entry = 0;
    fn.end = 6;
    fn.numRegs = 2;
    fn.frameSize = 0;
    fn.numParams = 0;
    prog.funcs.push_back(fn);
    prog.entryFunc = 0;
    return prog;
}

TEST(Profiler, AnnotatesEveryCondBrInABlock)
{
    isa::MachineProgram prog = twoCondBrProgram();
    ir::Module mod; // no functions: no loop annotation needed
    auto prof = profile::profileWorkload(mod, prog);

    // Path: pc0, pc1 (taken -> pc3), pc3 (not taken), pc4 ret.
    ASSERT_EQ(prof.sfgl.blocks.size(), 3u);
    const auto &blk = prof.sfgl.blocks[0];
    EXPECT_EQ(blk.term, profile::SfglTerm::Branch);
    EXPECT_EQ(blk.execCount, 1u);

    // Both CondBrs carry their own stats: the first taken 1/1, the
    // second (which the old scan silently dropped) taken 0/1.
    ASSERT_EQ(blk.code.size(), 4u);
    EXPECT_EQ(blk.code[1].branchExecutions, 1u);
    EXPECT_DOUBLE_EQ(blk.code[1].takenRate, 1.0);
    EXPECT_EQ(blk.code[3].branchExecutions, 1u);
    EXPECT_DOUBLE_EQ(blk.code[3].takenRate, 0.0);

    // Block-level rates summarize the first executed CondBr.
    EXPECT_DOUBLE_EQ(blk.takenRate, 1.0);

    // The skipped MovImm retired zero times: block exec, edges and mix
    // must reflect the taken shortcut (4 retired instructions total).
    EXPECT_EQ(prof.dynamicInstructions, 4u);

    // The reference profiler agrees on the hand-built program.
    EXPECT_EQ(oracle::profileWorkload(mod, prog).serialize(),
              prof.serialize());
}

TEST(Profiler, DeadFirstCondBrDoesNotHideLaterBranchStats)
{
    // Enter the block mid-way (entry = 2): the first CondBr never
    // executes; the second does. The old scan broke at the first
    // CondBr and left the block unannotated.
    isa::MachineProgram prog = twoCondBrProgram();
    prog.funcs[0].entry = 2;
    ir::Module mod;
    auto prof = profile::profileWorkload(mod, prog);

    // Path: pc2, pc3 (r0 == 0 -> taken to pc5), pc5 ret.
    const auto &blk = prof.sfgl.blocks[0];
    EXPECT_EQ(blk.code[1].branchExecutions, 0u);
    EXPECT_EQ(blk.code[3].branchExecutions, 1u);
    EXPECT_DOUBLE_EQ(blk.code[3].takenRate, 1.0);
    EXPECT_DOUBLE_EQ(blk.takenRate, 1.0); // from the executed CondBr

    // Entered mid-run: never a block start, so exec stays 0.
    EXPECT_EQ(blk.execCount, 0u);

    EXPECT_EQ(oracle::profileWorkload(mod, prog).serialize(),
              prof.serialize());
}

// ------------------------------------------------------------------
// Profiling edge cases.
// ------------------------------------------------------------------

TEST(Profiler, NeverEnteredLoopKeepsZeroEntries)
{
    ir::Module m = lang::compile(R"(
uint g;
int main() {
  int i;
  if (g > 5u) {
    for (i = 0; i < 10; i++) g = g + 1;
  }
  printf("%u\n", g);
  return 0;
})",
                                 "p");
    auto prof = profileBothEngines(m);
    bool found_dead_loop = false;
    for (const auto &l : prof.sfgl.loops) {
        if (prof.sfgl.blocks[static_cast<size_t>(l.header)].execCount ==
            0) {
            found_dead_loop = true;
            EXPECT_EQ(l.entries, 0u);
            EXPECT_DOUBLE_EQ(l.avgIterations, 0.0);
        }
    }
    EXPECT_TRUE(found_dead_loop);
}

TEST(Profiler, ReturnsLandingMidBlockDoNotRetriggerBlockStarts)
{
    ir::Module m = lang::compile(R"(
uint g;
uint bump(uint x) { return x + 1; }
int main() {
  int i;
  for (i = 0; i < 50; i++) g = bump(g) + bump(g);
  printf("%u\n", g);
  return 0;
})",
                                 "p");
    auto prof = profileBothEngines(m);
    // The loop body block contains two calls; returning into it twice
    // per iteration must not inflate its execution count past 50.
    bool found_body = false;
    for (const auto &b : prof.sfgl.blocks) {
        if (prof.sfgl.funcNames[static_cast<size_t>(b.funcId)] != "main")
            continue;
        size_t calls = 0;
        for (const auto &d : b.code)
            if (d.cls == isa::MClass::Call)
                ++calls;
        if (calls >= 2) {
            found_body = true;
            EXPECT_EQ(b.execCount, 50u);
        }
    }
    EXPECT_TRUE(found_body);
}

TEST(Profiler, NeverExecutedMemoryPcHasMissClassZero)
{
    profile::MemAccessStats idle;
    EXPECT_EQ(idle.missClass(), 0); // zero accesses: class 0 by fiat

    ir::Module m = lang::compile(R"(
uint g[8];
uint never;
int main() {
  if (never != 0u) g[3] = 7u;
  printf("%u\n", g[3]);
  return 0;
})",
                                 "p");
    auto prof = profileBothEngines(m);
    bool found_dead_store = false;
    for (const auto &b : prof.sfgl.blocks) {
        if (b.execCount != 0)
            continue;
        for (const auto &d : b.code)
            if (d.writesMem) {
                found_dead_store = true;
                EXPECT_EQ(d.missClass, 0);
            }
    }
    EXPECT_TRUE(found_dead_store);
}

TEST(Profiler, LineStraddlingAccessShowsUpInMissClass)
{
    // An f64 access spans two lines of a 4-byte-line cache. On a
    // single-set cache the two halves evict each other, so every
    // access misses: the straddle alone drives the load to class 8.
    // (The width-ignoring access of old touched only the first line
    // and classified the same load as 0.)
    ir::Module m = lang::compile(R"(
double gd;
int main() {
  int i;
  double s = 0.0;
  for (i = 0; i < 200; i++) s = s + gd;
  printf("%d\n", (int)s);
  return 0;
})",
                                 "p");

    profile::ProfileOptions thrash;
    thrash.profilingCache = sim::CacheConfig{4, 4, 1}; // one 4B line
    auto prof = profileBothEngines(m, thrash);
    bool straddle_missed = false;
    for (const auto &b : prof.sfgl.blocks) {
        if (b.execCount < 200)
            continue;
        for (const auto &d : b.code)
            if (d.readsMem && d.type == ir::Type::F64 &&
                d.missClass == 8)
                straddle_missed = true;
    }
    EXPECT_TRUE(straddle_missed);

    // Same program on 8-byte lines: each f64 access fits one line and
    // the resident variable hits, so the load classifies as 0.
    profile::ProfileOptions roomy;
    roomy.profilingCache = sim::CacheConfig{8 * 1024, 8, 4};
    auto prof2 = profileBothEngines(m, roomy);
    bool resident = false;
    for (const auto &b : prof2.sfgl.blocks) {
        if (b.execCount < 200)
            continue;
        for (const auto &d : b.code)
            if (d.readsMem && d.type == ir::Type::F64 && d.missClass == 0)
                resident = true;
    }
    EXPECT_TRUE(resident);
}

TEST(Sfgl, LoadsPreV2DescriptorsWithoutBranchFields)
{
    // Profiles are the distribution artifact: a v1 file (5-element
    // descriptor arrays, no per-branch annotation) must still load,
    // with the new fields at their defaults.
    Json d = Json::array();
    d.push(Json(static_cast<int>(ir::Opcode::Load)));
    d.push(Json(static_cast<int>(ir::Type::U32)));
    d.push(Json(static_cast<int>(isa::MClass::Load)));
    d.push(Json(1)); // readsMem
    d.push(Json(3)); // missClass
    Json code = Json::array();
    code.push(std::move(d));
    Json jb = Json::object();
    jb.set("id", Json(0));
    jb.set("func", Json(0));
    jb.set("irBlock", Json(0));
    jb.set("exec", Json(5));
    jb.set("code", std::move(code));
    jb.set("succs", Json::array());
    jb.set("term", Json(0));
    jb.set("takenRate", Json(0.0));
    jb.set("transitionRate", Json(0.0));
    jb.set("easy", Json(true));
    jb.set("loop", Json(-1));
    Json blocks = Json::array();
    blocks.push(std::move(jb));
    Json root = Json::object();
    root.set("blocks", std::move(blocks));
    root.set("loops", Json::array());
    Json names = Json::array();
    names.push(Json("main")); // the function block 0 names
    root.set("funcNames", std::move(names));
    Json mix = Json::array();
    for (size_t i = 0; i < profile::InstrMix::numClasses; ++i)
        mix.push(Json(0));
    Json prof = Json::object();
    prof.set("workload", Json("v1"));
    prof.set("dynamicInstructions", Json(5));
    prof.set("mix", std::move(mix));
    prof.set("sfgl", std::move(root));

    auto g = profile::StatisticalProfile::deserialize(prof.dump(-1)).sfgl;
    ASSERT_EQ(g.blocks.size(), 1u);
    ASSERT_EQ(g.blocks[0].code.size(), 1u);
    EXPECT_EQ(g.blocks[0].code[0].missClass, 3);
    EXPECT_TRUE(g.blocks[0].code[0].readsMem);
    EXPECT_EQ(g.blocks[0].code[0].branchExecutions, 0u);
    EXPECT_DOUBLE_EQ(g.blocks[0].code[0].takenRate, 0.0);
}

/** A profile with a loop and memory accesses, for the hostile-input
 *  cases below to mutate. */
profile::StatisticalProfile
loopProfile()
{
    auto prof = profileSource(R"(
uint a[64];
int main() {
  int i;
  uint s = 0;
  for (i = 0; i < 64; i++) { a[i] = i; s += a[i]; }
  printf("%u\n", s);
  return 0;
})");
    EXPECT_FALSE(prof.sfgl.loops.empty());
    EXPECT_FALSE(prof.sfgl.loops[0].blocks.empty());
    return prof;
}

/** The FatalError loading @p prof's serialized form raises ("" when it
 *  loads). Any other exception or a crash fails the test. */
std::string
loadError(const profile::StatisticalProfile &prof)
{
    try {
        profile::StatisticalProfile::deserialize(prof.serialize());
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(Sfgl, RejectsAnEdgeToAMissingBlock)
{
    auto prof = loopProfile();
    size_t n = prof.sfgl.blocks.size();
    size_t k = prof.sfgl.blocks[0].succs.size();
    prof.sfgl.blocks[0].succs.push_back({99999, 1000000000});
    EXPECT_EQ(loadError(prof),
              "fatal: sfgl.blocks[0].succs[" + std::to_string(k) +
                  "]: block 99999 out of range (" + std::to_string(n) +
                  " blocks)");
}

TEST(Sfgl, RejectsALoopHeaderThatIsNoBlock)
{
    auto prof = loopProfile();
    prof.sfgl.loops[0].header = 99999;
    EXPECT_NE(loadError(prof).find(
                  "sfgl.loops[0].header: block 99999 out of range"),
              std::string::npos);
}

TEST(Sfgl, RejectsALoopMemberThatIsNoBlock)
{
    auto prof = loopProfile();
    prof.sfgl.loops[0].blocks.back() = 99999;
    std::string at = "sfgl.loops[0].blocks[" +
                     std::to_string(prof.sfgl.loops[0].blocks.size() - 1) +
                     "]: block 99999 out of range";
    EXPECT_NE(loadError(prof).find(at), std::string::npos);
}

TEST(Sfgl, RejectsAMissClassOutsideTableI)
{
    auto prof = loopProfile();
    profile::InstrDescriptor *mem = nullptr;
    for (auto &b : prof.sfgl.blocks)
        for (auto &d : b.code)
            if (!mem && d.readsMem)
                mem = &d;
    ASSERT_NE(mem, nullptr);
    mem->missClass = 200;
    EXPECT_NE(loadError(prof).find("miss class 200 out of range (0..8)"),
              std::string::npos);
}

TEST(Sfgl, RejectsMismatchedIdsAndEnumsInEveryPhase)
{
    auto base = loopProfile();
    EXPECT_EQ(loadError(base), "");
    using Mutation = void (*)(profile::Sfgl &);
    const std::vector<std::pair<Mutation, std::string>> cases = {
        {[](profile::Sfgl &g) { g.blocks[1].id = 0; },
         "sfgl.blocks[1].id: 0, expected 1"},
        {[](profile::Sfgl &g) { g.loops[0].id = 5; },
         "sfgl.loops[0].id: 5, expected 0"},
        {[](profile::Sfgl &g) { g.loops[0].parent = 7; },
         "sfgl.loops[0].parent: loop 7 out of range"},
        {[](profile::Sfgl &g) { g.loops[0].parent = 0; },
         "sfgl.loops[0].parent: the parent chain is a cycle"},
        {[](profile::Sfgl &g) { g.blocks[2].loopId = -2; },
         "sfgl.blocks[2].loop: loop -2 out of range"},
        {[](profile::Sfgl &g) { g.blocks[0].term = profile::SfglTerm(9); },
         "sfgl.blocks[0].term: terminator 9 out of range (0..2)"},
        {[](profile::Sfgl &g) { g.blocks[0].code[0].cls = isa::MClass(40); },
         "sfgl.blocks[0].code[0]: instruction class 40 out of range"},
        {[](profile::Sfgl &g) { g.blocks[0].code[0].op = ir::Opcode(200); },
         "sfgl.blocks[0].code[0]: opcode 200 out of range"},
        {[](profile::Sfgl &g) { g.blocks[0].code[0].type = ir::Type(9); },
         "sfgl.blocks[0].code[0]: type 9 out of range (0..3)"},
        {[](profile::Sfgl &g) { g.blocks[1].funcId = 1; },
         "sfgl.blocks[1].func: function 1 out of range (1 functions)"},
        {[](profile::Sfgl &g) { g.blocks[1].irBlockId = -1; },
         "sfgl.blocks[1].irBlock: IR block -1 out of range"},
        {[](profile::Sfgl &g) { g.loops[0].depth = 0; },
         "sfgl.loops[0].depth: depth 0 out of range (1.."},
        {[](profile::Sfgl &g) {
             g.loops[0].depth = static_cast<int>(g.loops.size()) + 1;
         },
         "sfgl.loops[0].depth: depth " +
             std::to_string(base.sfgl.loops.size() + 1) +
             " out of range (1.." + std::to_string(base.sfgl.loops.size()) +
             ")"},
    };
    for (const auto &[mutate, expected] : cases) {
        SCOPED_TRACE(expected);
        auto agg = base;
        mutate(agg.sfgl);
        EXPECT_NE(loadError(agg).find(expected), std::string::npos)
            << loadError(agg);
        // A phase sub-profile takes the same path as the aggregate.
        auto phased = base;
        phased.phases.push_back(phased.phases[0]);
        mutate(phased.phases[1].sfgl);
        EXPECT_NE(loadError(phased).find(expected), std::string::npos)
            << loadError(phased);
    }
}

/** Offset of the value of the first member @p key in @p text. */
size_t
valueOffset(const std::string &text, const std::string &key)
{
    std::string tag = "\"" + key + "\":";
    size_t from = text.find(tag);
    EXPECT_NE(from, std::string::npos) << key;
    return from + tag.size();
}

/** @p prof serialized, with the value of the first @p key (a number, a
 *  string or an array) replaced by the text @p value: a JSON edit the
 *  profile object cannot express, such as a negative count. */
std::string
withFirst(const profile::StatisticalProfile &prof, const std::string &key,
          const std::string &value)
{
    std::string text = prof.serialize();
    size_t from = valueOffset(text, key);
    size_t to = text.find_first_of(",]}", from);
    if (text[from] == '[') { // to just past the bracket that closes it
        int depth = 0;
        for (to = from;; ++to) {
            depth += text[to] == '[' ? 1 : text[to] == ']' ? -1 : 0;
            if (depth == 0)
                break;
        }
        ++to;
    }
    return text.replace(from, to - from, value);
}

/** The FatalError loading the profile @p text raises ("" when it
 *  loads). */
std::string
textLoadError(const std::string &text)
{
    try {
        profile::StatisticalProfile::deserialize(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(ProfileCounts, RejectsANegativeDynamicInstructionCount)
{
    // It used to wrap to 2^64 - 1 and reach the reduction-factor
    // assertion in the synthesizer.
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "dynamicInstructions",
                                      "-1")),
              "fatal: dynamicInstructions: -1 is not a count");
}

TEST(ProfileCounts, RejectsADynamicInstructionCountBeyondExactDoubles)
{
    // 1e300 does not fit a uint64_t: the cast was undefined.
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "dynamicInstructions",
                                      "1e300")),
              "fatal: dynamicInstructions: 1e+300 is not a count");
}

TEST(ProfileCounts, RejectsANegativeBlockCount)
{
    // It used to wrap and send calibration into the instruction guard.
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "exec", "-5")),
              "fatal: sfgl.blocks[0].exec: -5 is not a count");
}

TEST(ProfileCounts, RejectsAFractionalBlockCount)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "exec", "1.5")),
              "fatal: sfgl.blocks[0].exec: 1.5 is not a count");
}

TEST(ProfileCounts, RejectsATakenRateAboveOne)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "takenRate", "7.0")),
              "fatal: sfgl.blocks[0].takenRate: 7 is not a rate in [0, 1]");
}

TEST(ProfileCounts, RejectsOutOfRangeCountsAndRatesInEveryField)
{
    auto base = loopProfile();
    ASSERT_FALSE(base.sfgl.blocks[0].succs.empty());
    // The first executed CondBr descriptor carries per-branch rates.
    size_t bb = 0, bi = 0;
    bool found = false;
    for (size_t b = 0; b < base.sfgl.blocks.size() && !found; ++b)
        for (size_t i = 0; i < base.sfgl.blocks[b].code.size(); ++i)
            if (base.sfgl.blocks[b].code[i].branchExecutions) {
                bb = b, bi = i, found = true;
                break;
            }
    ASSERT_TRUE(found);
    std::string at =
        "sfgl.blocks[" + std::to_string(bb) + "].code[" +
        std::to_string(bi) + "].";
    const uint64_t huge = uint64_t(1) << 60; // beyond exact doubles
    using Mutation = std::function<void(profile::StatisticalProfile &)>;
    const std::vector<std::pair<Mutation, std::string>> cases = {
        {[&](auto &p) { p.sfgl.blocks[0].succs[0].count = huge; },
         "sfgl.blocks[0].succs[0]: 1152921504606846976 is not a count"},
        {[&](auto &p) { p.sfgl.loops[0].entries = huge; },
         "sfgl.loops[0].entries: 1152921504606846976 is not a count"},
        {[&](auto &p) { p.sfgl.blocks[bb].code[bi].branchExecutions = huge; },
         at + "branchExecutions: 1152921504606846976 is not a count"},
        {[&](auto &p) { p.sfgl.blocks[bb].code[bi].takenRate = 1.5; },
         at + "takenRate: 1.5 is not a rate in [0, 1]"},
        {[&](auto &p) { p.sfgl.blocks[bb].code[bi].transitionRate = -0.5; },
         at + "transitionRate: -0.5 is not a transition rate in [0, 2]"},
        {[&](auto &p) { p.sfgl.blocks[0].transitionRate = 2.5; },
         "sfgl.blocks[0].transitionRate: 2.5 is not a transition rate in "
         "[0, 2]"},
        {[&](auto &p) { p.mix.add(isa::MClass::Load, huge); },
         "mix[" + std::to_string(static_cast<size_t>(isa::MClass::Load)) +
             "]: "},
        {[&](auto &p) { p.sliceLength = huge; },
         "sliceLength: 1152921504606846976 is not a count"},
        {[&](auto &p) { p.sliceCount = huge; },
         "sliceCount: 1152921504606846976 is not a count"},
    };
    for (const auto &[mutate, expected] : cases) {
        SCOPED_TRACE(expected);
        auto prof = base;
        mutate(prof);
        EXPECT_NE(loadError(prof).find(expected), std::string::npos)
            << loadError(prof);
    }

    // A phase's own counts, its mix and its SFGL, each named with the
    // phase's prefix.
    using PhaseMutation = std::function<void(profile::PhaseProfile &)>;
    const std::vector<std::pair<PhaseMutation, std::string>> phaseCases = {
        {[&](auto &ph) { ph.dynamicInstructions = huge; },
         "fatal: phases[1].dynamicInstructions: 1152921504606846976 is not "
         "a count"},
        {[&](auto &ph) { ph.firstSlice = huge; },
         "fatal: phases[1].firstSlice: 1152921504606846976 is not a count"},
        {[&](auto &ph) { ph.sliceCount = huge; },
         "fatal: phases[1].sliceCount: 1152921504606846976 is not a count"},
        {[&](auto &ph) { ph.mix.add(isa::MClass::Load, huge); },
         "fatal: phases[1].mix[" +
             std::to_string(static_cast<size_t>(isa::MClass::Load)) + "]: "},
        {[&](auto &ph) { ph.sfgl.blocks[0].execCount = huge; },
         "fatal: phases[1].sfgl.blocks[0].exec: 1152921504606846976 is not "
         "a count"},
        {[&](auto &ph) { ph.sfgl.blocks[bb].code[bi].transitionRate = 3; },
         "fatal: phases[1]." + at + "transitionRate: 3 is not a transition "
         "rate in [0, 2]"},
    };
    for (const auto &[mutate, expected] : phaseCases) {
        SCOPED_TRACE(expected);
        auto phased = base;
        phased.phases.push_back(phased.phases[0]);
        mutate(phased.phases[1]);
        EXPECT_EQ(loadError(phased).rfind(expected, 0), 0u)
            << loadError(phased);
    }
}

TEST(ProfileCounts, AcceptsTransitionRatesUpToTwo)
{
    // A phase's transitions can include the flip from the previous
    // phase's last outcome, so its rate can reach 2 (see
    // checkedTransitionRate); the profiler writes such rates.
    auto prof = loopProfile();
    prof.sfgl.blocks[0].transitionRate = 2;
    for (auto &b : prof.sfgl.blocks)
        for (auto &d : b.code)
            if (d.branchExecutions)
                d.transitionRate = 1.5;
    EXPECT_EQ(loadError(prof), "");
}

// ------------------------------------------------------------------
// Integral SFGL fields and mean iteration counts: each of these loaded
// (an id or enum through std::llround, whose result for 1e300 is
// unspecified and which rounds 1.5 to 2) and bsyn synth wrote a clone.
// ------------------------------------------------------------------

TEST(ProfileIntegers, RejectsAnAverageIterationCountBeyondExactDoubles)
{
    EXPECT_EQ(textLoadError(
                  withFirst(loopProfile(), "avgIterations", "1e300")),
              "fatal: sfgl.loops[0].avgIterations: 1e+300 is not a mean "
              "count in [0, 2^53)");
}

TEST(ProfileIntegers, RejectsANegativeAverageIterationCount)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "avgIterations", "-5")),
              "fatal: sfgl.loops[0].avgIterations: -5 is not a mean count "
              "in [0, 2^53)");
}

TEST(ProfileIntegers, RejectsALoopDepthBelowOne)
{
    auto prof = loopProfile();
    EXPECT_EQ(textLoadError(withFirst(prof, "depth", "-1000000")),
              "fatal: sfgl.loops[0].depth: depth -1000000 out of range "
              "(1.." + std::to_string(prof.sfgl.loops.size()) + ")");
}

TEST(ProfileIntegers, RejectsAFunctionBeyondTheIntRange)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "func", "1e300")),
              "fatal: sfgl.blocks[0].func: 1e+300 is not an integer in "
              "[-2^31, 2^31)");
}

TEST(ProfileIntegers, RejectsAFractionalOpcode)
{
    // The first number of the first descriptor of block 0.
    std::string text = loopProfile().serialize();
    size_t op = valueOffset(text, "code") + 2; // past "[["
    text.replace(op, text.find(',', op) - op, "1.5");
    EXPECT_EQ(textLoadError(text),
              "fatal: sfgl.blocks[0].code[0].op: 1.5 is not an integer in "
              "[-2^31, 2^31)");
}

TEST(ProfileIntegers, RejectsFractionalIdsAndEnums)
{
    auto prof = loopProfile();
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"id", "sfgl.blocks[0].id: 0.5 is not an integer"},
        {"irBlock", "sfgl.blocks[0].irBlock: 0.5 is not an integer"},
        {"term", "sfgl.blocks[0].term: 0.5 is not an integer"},
        {"loop", "sfgl.blocks[0].loop: 0.5 is not an integer"},
        {"header", "sfgl.loops[0].header: 0.5 is not an integer"},
        {"parent", "sfgl.loops[0].parent: 0.5 is not an integer"},
        {"depth", "sfgl.loops[0].depth: 0.5 is not an integer"},
    };
    for (const auto &[key, expected] : cases) {
        SCOPED_TRACE(key);
        EXPECT_EQ(textLoadError(withFirst(prof, key, "0.5"))
                      .rfind("fatal: " + expected, 0),
                  0u);
    }
}

TEST(ProfileIntegers, EveryProfileBsynWritesLoads)
{
    // Suite and generated profiles, a ProfileBuilder profile, a
    // consolidated one and both pre-v3 fixtures keep loading under the
    // checks (their functions, IR blocks and depths are in range).
    std::vector<profile::StatisticalProfile> profiles = {
        loopProfile(),
        profileSource(
            workloads::findWorkload("dijkstra/small").source.c_str()),
    };
    synth::ProfileBuilder builder("spec");
    int outer = builder.addLoop(40, 1);
    synth::BlockSpec branchy;
    branchy.endsInBranch = true;
    builder.addBlock(builder.addLoop(20, 40, outer), branchy);
    builder.addBlock(-1, synth::BlockSpec());
    profiles.push_back(builder.build());
    profiles.push_back(synth::consolidate({profiles[0], profiles[1]}));
    for (const auto &p : profiles) {
        SCOPED_TRACE(p.workloadName);
        EXPECT_EQ(loadError(p), "");
    }
    for (const char *fixture : {"profile_v1.json", "profile_v2.json"}) {
        SCOPED_TRACE(fixture);
        EXPECT_EQ(textLoadError(readFile(std::string(BSYN_TEST_DATA_DIR) +
                                         "/" + fixture)),
                  "");
    }
}

// ------------------------------------------------------------------
// Malformed profile JSON: each fails with a FatalError naming the
// field's JSON path (these used to panic in the DOM's kind checks,
// escape as std::stod's exceptions, or load).
// ------------------------------------------------------------------

TEST(ProfileJson, RejectsAStringForACount)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "dynamicInstructions",
                                      "\"x\"")),
              "fatal: dynamicInstructions: not a number");
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "exec", "\"4095\"")),
              "fatal: sfgl.blocks[0].exec: not a number");
}

TEST(ProfileJson, RejectsANumberForTheWorkloadName)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "workload", "5")),
              "fatal: workload: not a string");
}

TEST(ProfileJson, RejectsADescriptorThatIsNoArray)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "code", "[{\"a\":1}]")),
              "fatal: sfgl.blocks[0].code[0]: not an array");
}

TEST(ProfileJson, RejectsADescriptorOfTheWrongLength)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "code", "[[27,2]]")),
              "fatal: sfgl.blocks[0].code[0]: expected 5 or 8 numbers, not "
              "2");
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "succs", "[[1,2,3]]")),
              "fatal: sfgl.blocks[0].succs[0]: expected 2 numbers, not 3");
}

TEST(ProfileJson, RejectsMalformedNumbers)
{
    // An overflow, a lone minus and a leading plus (which JSON lacks).
    for (const char *bad : {"1e999", "-", "+4095"}) {
        SCOPED_TRACE(bad);
        std::string text = withFirst(loopProfile(), "exec", bad);
        EXPECT_EQ(textLoadError(text),
                  "fatal: sfgl.blocks[0].exec: malformed number at offset " +
                      std::to_string(valueOffset(text, "exec")));
    }
}

TEST(ProfileJson, RejectsAnUnknownVersion)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "version", "99")),
              "fatal: version: 99, expected 3");
}

TEST(ProfileJson, RejectsAMixOfTheWrongLength)
{
    EXPECT_EQ(textLoadError(withFirst(loopProfile(), "mix", "[]")),
              "fatal: mix: expected 13 counts, not 0");
}

TEST(ProfileJson, RejectsMissingAndDuplicateKeys)
{
    std::string text = loopProfile().serialize();
    std::string noExec = text;
    noExec.erase(noExec.find("\"exec\":"),
                 noExec.find(",\"code\":") - noExec.find("\"exec\":") + 1);
    EXPECT_EQ(textLoadError(noExec), "fatal: sfgl.blocks[0].exec: missing");
    std::string noSfgl = text;
    noSfgl.replace(noSfgl.find("\"sfgl\":"), 6, "\"graph\"");
    EXPECT_EQ(textLoadError(noSfgl), "fatal: sfgl: missing");
    std::string twice = text;
    twice.insert(twice.find("\"exec\":"), "\"exec\":1,");
    EXPECT_EQ(textLoadError(twice),
              "fatal: sfgl.blocks[0].exec: duplicate key");
}

TEST(ProfileJson, AcceptsAnyKeyOrderWhitespaceAndUnknownKeys)
{
    // What loaded through the DOM still loads: members reordered (loops
    // before blocks), pretty-printed, with a key nobody reads.
    auto prof = loopProfile();
    Json j = Json::parse(prof.serialize());
    Json sfgl = Json::object();
    for (const char *key : {"funcNames", "loops", "blocks"})
        sfgl.set(key, j.get("sfgl").get(key));
    Json reordered = Json::object();
    reordered.set("comment", Json::parse("{\"nested\":[1,[2,{\"x\":null}]]}"));
    for (const std::string &key : j.keys())
        reordered.set(key, key == "sfgl" ? sfgl : j.get(key));
    EXPECT_EQ(profile::StatisticalProfile::deserialize(reordered.dump(4))
                  .serialize(),
              prof.serialize());
}

TEST(ProfileJson, BoundsNesting)
{
    // An unknown key holding 100,000 nested arrays used to overflow the
    // recursive parser's stack (exit 139 at 60,000).
    std::string text = loopProfile().serialize();
    text.insert(1, "\"junk\":" + std::string(100000, '[') +
                       std::string(100000, ']') + ",");
    std::string err = textLoadError(text);
    EXPECT_EQ(err.rfind("fatal: junk[0][0]", 0), 0u) << err;
    EXPECT_NE(err.find(": nesting deeper than 64 at offset 71"),
              std::string::npos)
        << err;
}

/** A profile with two or more phases, for the fuzzer to mutate. */
profile::StatisticalProfile
multiPhaseProfile()
{
    auto prof = profileSource(R"(
uint a[4096];
int main() {
  int i;
  uint s = 0;
  for (i = 0; i < 20000; i++) s = s * 3u + (uint)i;
  for (i = 0; i < 20000; i++) s = s + a[(i * 67) % 4096];
  for (i = 0; i < 20000; i++) if (s & 1u) s = s / 3u; else s = s * 5u + 1u;
  printf("%u\n", s);
  return 0;
})");
    EXPECT_TRUE(prof.multiPhase());
    return prof;
}

/** @p text with one mutation of the kind @p rng picks: a flipped bit,
 *  a deleted or inserted structural character, a truncation, two
 *  numbers swapped, or a number replaced by a hostile one. */
std::string
mutate(std::string text, Rng &rng)
{
    static const std::string structural = "{}[]:,\"";
    static const char *const hostile[] = {"-1",  "1e999", "1e300", "0.5",
                                          "-",   "+1",    "\"x\"", "99999",
                                          "-2",  "[]",    "{}",    "null",
                                          "1e19"};
    if (text.empty()) // truncated by an earlier mutation
        return text;
    auto at = [&rng](size_t n) {
        return static_cast<size_t>(rng.nextBounded(n));
    };
    // Numbers in the text: [start, end) spans of "-0123456789.eE+".
    auto numberAt = [&text](size_t pos) {
        const char *chars = "-0123456789.eE+";
        size_t start = text.find_first_of("-0123456789", pos);
        if (start == std::string::npos)
            return std::make_pair(text.size(), text.size());
        return std::make_pair(start, text.find_first_not_of(chars, start));
    };
    switch (at(6)) {
      case 0: text[at(text.size())] ^= static_cast<char>(1 << at(8)); break;
      case 1: {
        size_t pos = text.find_first_of(structural, at(text.size()));
        if (pos != std::string::npos)
            text.erase(pos, 1);
        break;
      }
      case 2:
        text.insert(at(text.size() + 1), 1,
                    structural[at(structural.size())]);
        break;
      case 3: text.resize(at(text.size())); break;
      case 4: {
        auto a = numberAt(at(text.size()));
        auto b = numberAt(at(text.size()));
        if (a.first > b.first)
            std::swap(a, b);
        if (a.second > b.first) // the same number, or none
            break;
        std::string second = text.substr(b.first, b.second - b.first);
        text.replace(b.first, b.second - b.first,
                     text.substr(a.first, a.second - a.first));
        text.replace(a.first, a.second - a.first, second);
        break;
      }
      default: {
        auto n = numberAt(at(text.size()));
        text.replace(n.first, n.second - n.first,
                     hostile[at(std::size(hostile))]);
      }
    }
    return text;
}

TEST(ProfileFuzz, MutantsLoadOrFailWithAFatalError)
{
    // Each mutant of a multi-phase profile loads or throws FatalError:
    // any other exception fails the test, and a crash fails the suite
    // (the sanitizers job runs it under ASan and UBSan).
    const std::string text = multiPhaseProfile().serialize();
    size_t loaded = 0, rejected = 0;
    for (uint64_t seed = 1; seed <= 4000; ++seed) {
        Rng rng(seed);
        std::string mutant = mutate(text, rng);
        if (seed % 4 == 0) // and some with a second mutation
            mutant = mutate(mutant, rng);
        try {
            profile::StatisticalProfile::deserialize(mutant);
            ++loaded;
        } catch (const FatalError &) {
            ++rejected;
        }
    }
    // The mutations reach both outcomes, not only the first check.
    EXPECT_GT(loaded, 100u);
    EXPECT_GT(rejected, 1000u);
}

TEST(Sfgl, DynamicInstructionAccounting)
{
    auto prof = profileSource(R"(
uint g;
int main() {
  int i;
  for (i = 0; i < 10; i++) g += 2;
  printf("%u\n", g);
  return 0;
})");
    // Sum over blocks of exec*size equals the measured dynamic count.
    EXPECT_EQ(prof.sfgl.dynamicInstructions(), prof.dynamicInstructions);
    EXPECT_LE(prof.sfgl.dynamicBodyInstructions(),
              prof.sfgl.dynamicInstructions());
}

} // namespace
} // namespace bsyn
