#include "opt/pipeline.hh"

#include "ir/verifier.hh"
#include "opt/const_fold.hh"
#include "opt/copy_prop.hh"
#include "opt/cse.hh"
#include "opt/dce.hh"
#include "opt/licm.hh"
#include "opt/mem2reg.hh"
#include "opt/scheduler.hh"
#include "opt/simplify.hh"
#include "support/error.hh"

namespace bsyn::opt
{

using ir::Instruction;
using ir::Opcode;
using ir::Terminator;

const char *
optLevelName(OptLevel level)
{
    switch (level) {
      case OptLevel::O0: return "O0";
      case OptLevel::O1: return "O1";
      case OptLevel::O2: return "O2";
      case OptLevel::O3: return "O3";
    }
    return "?";
}

OptLevel
optLevelByName(const std::string &name)
{
    std::string n = name;
    if (!n.empty() && n[0] == '-')
        n = n.substr(1);
    if (n == "O0") return OptLevel::O0;
    if (n == "O1") return OptLevel::O1;
    if (n == "O2") return OptLevel::O2;
    if (n == "O3") return OptLevel::O3;
    fatal("unknown optimization level '%s'", name.c_str());
}

namespace
{

/** @return true if @p fn contains no calls (inlining candidates only). */
bool
isLeaf(const ir::Function &fn)
{
    for (const auto &bb : fn.blocks)
        for (const auto &in : bb.insts)
            if (in.op == Opcode::Call)
                return false;
    return true;
}

/**
 * Inline one call site: the Call at @p call_idx in block @p bid of
 * @p caller, calling @p callee_id.
 */
void
inlineCallSite(ir::Module &mod, ir::Function &caller, int bid,
               size_t call_idx, int callee_id)
{
    const ir::Function &callee =
        mod.functions[static_cast<size_t>(callee_id)];

    int reg_offset = static_cast<int>(caller.numRegs);
    caller.numRegs += callee.numRegs;

    // Append the callee's frame below the caller's.
    uint32_t frame_offset = caller.frameSize;
    for (const auto &slot : callee.frame) {
        ir::FrameSlot s = slot;
        s.offset += frame_offset;
        s.name = callee.name + "." + s.name;
        caller.frame.push_back(s);
    }
    caller.frameSize += callee.frameSize;

    // Allocate new blocks: one per callee block, plus the continuation.
    std::vector<int> block_map(callee.blocks.size());
    for (size_t i = 0; i < callee.blocks.size(); ++i)
        block_map[i] = caller.newBlock();
    int cont = caller.newBlock();

    // Split the calling block.
    Instruction call = caller.block(bid).insts[call_idx];
    {
        ir::BasicBlock &bb = caller.block(bid);
        std::vector<Instruction> head(bb.insts.begin(),
                                      bb.insts.begin() +
                                          static_cast<long>(call_idx));
        std::vector<Instruction> tail(bb.insts.begin() +
                                          static_cast<long>(call_idx) + 1,
                                      bb.insts.end());
        caller.block(cont).insts = std::move(tail);
        caller.block(cont).term = bb.term;
        bb.insts = std::move(head);
        // Argument copies into the callee's parameter registers.
        for (size_t a = 0; a < call.args.size(); ++a) {
            bb.append(Instruction::mov(reg_offset + static_cast<int>(a),
                                       call.args[a],
                                       callee.paramTypes[a]));
        }
        bb.term = Terminator::jmp(block_map[0]);
    }

    // Clone the callee body.
    for (size_t i = 0; i < callee.blocks.size(); ++i) {
        const ir::BasicBlock &src = callee.blocks[i];
        ir::BasicBlock &dst = caller.block(block_map[i]);
        for (Instruction in : src.insts) {
            if (in.dst >= 0)
                in.dst += reg_offset;
            in.mapSrcs([&](int r) { return r + reg_offset; });
            if (in.touchesMemory() &&
                in.mem.symbol == ir::MemRef::frameBase)
                in.mem.offset += static_cast<int32_t>(frame_offset);
            dst.append(std::move(in));
        }
        switch (src.term.kind) {
          case Terminator::Kind::Jmp:
            dst.term = Terminator::jmp(block_map[
                static_cast<size_t>(src.term.target)]);
            break;
          case Terminator::Kind::Br:
            dst.term = Terminator::br(
                src.term.cond + reg_offset,
                block_map[static_cast<size_t>(src.term.target)],
                block_map[static_cast<size_t>(src.term.fallthrough)]);
            break;
          case Terminator::Kind::Ret:
            if (call.dst >= 0 && src.term.retReg >= 0) {
                dst.append(Instruction::mov(call.dst,
                                            src.term.retReg + reg_offset,
                                            callee.retType));
            }
            dst.term = Terminator::jmp(cont);
            break;
          case Terminator::Kind::None:
            panic("inliner: callee block without terminator");
        }
    }
}

bool
runBasePipeline(ir::Module &mod, OptLevel level)
{
    bool changed = false;
    changed |= promoteFrameSlots(mod);
    changed |= propagateCopies(mod);
    FoldOptions fold;
    fold.strengthReduction = level >= OptLevel::O2;
    changed |= foldConstants(mod, fold);
    if (level >= OptLevel::O2) {
        changed |= eliminateCommonSubexpressions(mod);
        changed |= hoistLoopInvariants(mod);
        changed |= propagateCopies(mod);
        changed |= foldConstants(mod, fold);
    }
    changed |= eliminateDeadCode(mod);
    changed |= simplifyControlFlow(mod);
    return changed;
}

/** Maximum callee size (IR instructions) -O3 inlines. */
constexpr size_t kInlineThreshold = 40;

} // namespace

int
inlineSmallFunctions(ir::Module &mod, size_t max_callee_insts)
{
    int inlined = 0;
    for (auto &fn : mod.functions) {
        int budget = 32; // per-caller guard against code explosion
        bool progress = true;
        while (progress && budget > 0) {
            progress = false;
            for (auto &bb : fn.blocks) {
                for (size_t i = 0; i < bb.insts.size(); ++i) {
                    const Instruction &in = bb.insts[i];
                    if (in.op != Opcode::Call)
                        continue;
                    const ir::Function &callee =
                        mod.functions[static_cast<size_t>(in.callee)];
                    if (&callee == &fn || !isLeaf(callee) ||
                        callee.instructionCount() > max_callee_insts)
                        continue;
                    inlineCallSite(mod, fn, bb.id, i, in.callee);
                    ++inlined;
                    --budget;
                    progress = true;
                    break;
                }
                if (progress)
                    break;
            }
        }
    }
    return inlined;
}

int
optimize(ir::Module &mod, OptLevel level, const OptOptions &opts)
{
    if (level == OptLevel::O0)
        return 0;

    int effective_rounds = 0;
    for (int round = 0; round < 4; ++round) {
        if (!runBasePipeline(mod, level))
            break;
        ++effective_rounds;
    }

    if (level >= OptLevel::O3 && opts.enableInlining) {
        if (inlineSmallFunctions(mod, kInlineThreshold) > 0) {
            for (int round = 0; round < 4; ++round) {
                if (!runBasePipeline(mod, level))
                    break;
                ++effective_rounds;
            }
        }
    }

    if (level >= OptLevel::O2 && opts.scheduleForInOrder)
        scheduleBlocks(mod);

    ir::verifyOrDie(mod);
    return effective_rounds;
}

} // namespace bsyn::opt
