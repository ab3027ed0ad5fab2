/**
 * @file
 * Differential tests for copy propagation: the shipped linear-time pass
 * (opt/copy_prop.cc) against the quadratic reference pass
 * (tests/oracle). Every program is optimized at -O2 pass by pass, and
 * before each copy-propagation call both passes run on copies of the
 * module; the printed IR and the returned changed flag must be
 * identical. The corpus is the test_fuzz program corpus, every suite
 * workload, one instance of every family preset, the suite's clones, a
 * clone-shaped straight-line block and a constructed straight-line
 * block on which every coalescing guard fires.
 */

#include <gtest/gtest.h>

#include <deque>

#include "gen/registry.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "lang/frontend.hh"
#include "opt/const_fold.hh"
#include "opt/copy_prop.hh"
#include "opt/cse.hh"
#include "opt/dce.hh"
#include "opt/licm.hh"
#include "opt/mem2reg.hh"
#include "opt/pipeline.hh"
#include "opt/simplify.hh"
#include "oracle/copy_prop.hh"
#include "pipeline/session.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

#include "program_fuzzer.hh"
#include "straight_line.hh"

namespace bsyn
{
namespace
{

/** Run the shipped pass on @p mod and the oracle on a copy; both must
 *  print the same IR and report the same flag. @return the flag. */
bool
checkedPropagateCopies(ir::Module &mod, const std::string &where)
{
    ir::Module ref = mod;
    bool refChanged = oracle::propagateCopies(ref);
    bool changed = opt::propagateCopies(mod);
    EXPECT_EQ(refChanged, changed) << where;
    EXPECT_EQ(ir::toString(ref), ir::toString(mod)) << where;
    return changed;
}

/**
 * opt::optimize(mod, O2) replayed through the public pass entry points
 * (the rounds of runBasePipeline in opt/pipeline.cc), checking every
 * copy-propagation call. @return the number of calls checked.
 */
int
replayO2(ir::Module &mod, const std::string &name)
{
    opt::FoldOptions fold;
    fold.strengthReduction = true;
    int checked = 0;
    for (int round = 0; round < 4; ++round) {
        std::string where = name + " round " + std::to_string(round);
        bool changed = opt::promoteFrameSlots(mod);
        changed |= checkedPropagateCopies(mod, where + " first call");
        changed |= opt::foldConstants(mod, fold);
        changed |= opt::eliminateCommonSubexpressions(mod);
        changed |= opt::hoistLoopInvariants(mod);
        changed |= checkedPropagateCopies(mod, where + " second call");
        changed |= opt::foldConstants(mod, fold);
        changed |= opt::eliminateDeadCode(mod);
        changed |= opt::simplifyControlFlow(mod);
        checked += 2;
        if (!changed)
            break;
    }
    return checked;
}

/** Replay -O2 on @p source, and check the replay is -O2: it must end
 *  with the IR opt::optimize produces. */
void
checkSource(const std::string &source, const std::string &name)
{
    ir::Module replayed = lang::compile(source, name);
    ir::Module optimized = replayed;
    EXPECT_GT(replayO2(replayed, name), 0);
    opt::optimize(optimized, opt::OptLevel::O2);
    EXPECT_EQ(ir::toString(optimized), ir::toString(replayed)) << name;
}

class FuzzCopyPropDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FuzzCopyPropDifferential, MatchesOracle)
{
    checkSource(ProgramFuzzer(GetParam()).generate(),
                "fuzz" + std::to_string(GetParam()));
}

// The same seed range as test_fuzz's Seeds instantiation.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCopyPropDifferential,
                         ::testing::Range<uint64_t>(1, 41));

TEST(CopyPropDifferential, EverySuiteWorkload)
{
    for (const auto &w : workloads::mibenchSuite())
        checkSource(w.source, w.name());
}

TEST(CopyPropDifferential, EveryFamilyPreset)
{
    auto presets = gen::Registry::global().allPresets(1);
    ASSERT_FALSE(presets.empty());
    for (const auto &w : presets)
        checkSource(w.source, w.name());
}

TEST(CopyPropDifferential, EverySuiteClone)
{
    // The clones `bsyn suite` writes: default synthesis options, seeds
    // derived per workload. Their blocks run to tens of thousands of
    // instructions (jpeg/large1's longest is about 30k).
    pipeline::SessionOptions so;
    so.threads = 2;
    pipeline::Session session(std::move(so));
    for (const auto &run : session.processSuite())
        checkSource(run.synthetic.cSource, run.workload.name() + ".clone");
}

TEST(CopyPropDifferential, CloneShapedStraightLineBlock)
{
    checkSource(straightLineSource(8192, 11), "straight_line");
}

/**
 * One block of @p groups statement groups that trips every guard of the
 * coalescer on "t = op; mov s, t" pairs, between coalescable pairs and
 * copy chains whose sources get redefined. The destination s of a
 * guarded pair is a fresh register nothing reads, so propagation cannot
 * turn a later read into a read of t, and every group starts with a
 * non-mov, so no pair spans two groups: exactly the Coalesce and
 * Redefined pairs may fold, and @p coalescible counts them.
 */
ir::Module
guardBlockModule(size_t groups, uint64_t seed, size_t *coalescible)
{
    using ir::Instruction;
    using ir::Opcode;
    using ir::Terminator;
    using ir::Type;

    ir::Module mod;
    mod.name = "guards";
    mod.functions.resize(2);
    ir::Function &callee = mod.functions[1];
    callee.name = "id";
    callee.retType = Type::I32;
    callee.paramTypes = {Type::I32};
    callee.numRegs = 1;
    callee.block(callee.newBlock()).term = Terminator::ret(0);

    ir::Function &fn = mod.functions[0];
    fn.name = "main";
    fn.retType = Type::I32;
    int body = fn.newBlock(), taken = fn.newBlock(), other = fn.newBlock();
    ir::BasicBlock &bb = fn.block(body);

    Rng rng(seed);
    std::vector<int> vars;
    for (int v = 0; v < 8; ++v) {
        vars.push_back(fn.newReg());
        bb.append(Instruction::movImm(vars.back(), v + 1));
    }
    auto var = [&] { return vars[rng.nextBounded(vars.size())]; };
    auto add = [](int dst, int a, int b) {
        return Instruction::binary(Opcode::Add, Type::I32, dst, a, b);
    };
    // "t = a + b; mov s, t" with a fresh t and a fresh, unread s.
    auto pair = [&](int a, int b) {
        int t = fn.newReg();
        bb.append(add(t, a, b));
        bb.append(Instruction::mov(fn.newReg(), t));
        return t;
    };

    enum Kind
    {
        Coalesce,   // t dies at the mov: folds
        Redefined,  // t redefined before its next read: folds
        UsedLater,  // t read by a later group: kept
        Accumulate, // t read and redefined by one later op: kept
        Consume,    // the later read of a UsedLater t
        PrintUse,   // t read by the Print right after the mov: kept
        LiveOut,    // t read in a successor: kept
        ReadsDest,  // the op reads s: kept
        CallDef,    // t defined by a Call: kept
        SelfMove,   // "mov t, t": kept
        Copies,     // copy chains and source redefinitions
        NumKinds
    };
    std::deque<int> pending;
    std::vector<int> liveOut;
    *coalescible = 0;
    for (size_t g = 0; g < groups; ++g) {
        auto kind = static_cast<Kind>(rng.nextBounded(NumKinds));
        if (kind == Consume && pending.empty())
            kind = Coalesce;
        int a = var(), b = var();
        switch (kind) {
          case Coalesce:
            pair(a, b);
            ++*coalescible;
            break;
          case Redefined: {
            int t = pair(a, b);
            bb.append(Instruction::binary(Opcode::Sub, Type::I32, t, b, a));
            int x = var();
            bb.append(add(x, x, t));
            ++*coalescible;
            break;
          }
          case UsedLater:
            pending.push_back(pair(a, b));
            break;
          case Accumulate: {
            int t = pair(a, b);
            bb.append(add(t, t, b));
            break;
          }
          case Consume: {
            int x = var();
            bb.append(add(x, x, pending.front()));
            pending.pop_front();
            break;
          }
          case PrintUse:
            bb.append(Instruction::print("%d %d\n", {pair(a, b), b}));
            break;
          case LiveOut:
            liveOut.push_back(pair(a, b));
            break;
          case ReadsDest: {
            int s = fn.newReg(), t = fn.newReg();
            bb.append(Instruction::movImm(s, 7));
            bb.append(add(t, s, b));
            bb.append(Instruction::mov(s, t));
            break;
          }
          case CallDef: {
            int t = fn.newReg();
            bb.append(Instruction::call(t, 1, {a}, Type::I32));
            bb.append(Instruction::mov(fn.newReg(), t));
            break;
          }
          case SelfMove: {
            int t = fn.newReg();
            bb.append(add(t, a, b));
            bb.append(Instruction::mov(t, t));
            break;
          }
          case Copies: {
            // c copies a and d copies c until a is redefined; after
            // that, reads of c and d must stay reads of c and d.
            std::vector<int> pick = vars;
            rng.shuffle(pick);
            int src = pick[0], c = pick[1], d = pick[2], x = pick[3];
            bb.append(Instruction::print("%d\n", {src}));
            bb.append(Instruction::mov(c, src));
            bb.append(add(x, c, b));
            bb.append(Instruction::mov(d, c));
            bb.append(add(x, d, x));
            bb.append(Instruction::movImm(src, static_cast<int64_t>(g)));
            bb.append(add(x, c, x));
            bb.append(add(x, d, x));
            break;
          }
          case NumKinds:
            break;
        }
    }
    for (int t : pending) {
        int x = var();
        bb.append(add(x, x, t));
    }
    // The terminator reads the last pair's t.
    bb.term = Terminator::br(pair(var(), var()), taken, other);

    for (int t : liveOut)
        fn.block(taken).append(Instruction::print("%d\n", {t}));
    fn.block(taken).term = Terminator::ret(vars[0]);
    fn.block(other).term = Terminator::ret(vars[1]);
    ir::verifyOrDie(mod);
    return mod;
}

TEST(CopyPropDifferential, StraightLineBlockTripsEveryCoalescingGuard)
{
    size_t coalescible = 0;
    ir::Module mod = guardBlockModule(4000, 7, &coalescible);
    size_t before = mod.functions[0].blocks[0].insts.size();
    ASSERT_GE(before, 8192u);

    // The guards decide exactly which movs go: only the pairs built to
    // fold do.
    ir::Module once = mod;
    EXPECT_TRUE(checkedPropagateCopies(once, "guard block"));
    EXPECT_EQ(once.functions[0].blocks[0].insts.size(),
              before - coalescible);

    EXPECT_GT(replayO2(mod, "guard block"), 0);
}

} // namespace
} // namespace bsyn
