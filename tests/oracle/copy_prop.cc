#include "oracle/copy_prop.hh"

#include <map>

#include "ir/cfg.hh"
#include "support/error.hh"

namespace bsyn::oracle
{

using ir::Instruction;
using ir::Opcode;

namespace
{

/**
 * Forward copy propagation within one block: after "mov d, s", uses of d
 * read s instead, until either d or s is redefined.
 */
bool
propagateBlock(ir::BasicBlock &bb)
{
    bool changed = false;
    std::map<int, int> copy_of; // dst -> source while valid

    auto invalidate = [&](int reg) {
        copy_of.erase(reg);
        for (auto it = copy_of.begin(); it != copy_of.end();) {
            if (it->second == reg)
                it = copy_of.erase(it);
            else
                ++it;
        }
    };
    auto root = [&](int reg) {
        // Follow the chain (a -> b -> c) with a cycle guard.
        int steps = 0;
        while (steps++ < 16) {
            auto it = copy_of.find(reg);
            if (it == copy_of.end())
                return reg;
            reg = it->second;
        }
        return reg;
    };

    for (auto &in : bb.insts) {
        int before_src0 = in.src0;
        in.mapSrcs([&](int r) { return root(r); });
        if (in.src0 != before_src0)
            changed = true;

        if (in.dst >= 0) {
            invalidate(in.dst);
            if (in.op == Opcode::Mov && in.src0 != in.dst)
                copy_of[in.dst] = in.src0;
        }
    }

    // Terminator uses.
    if (bb.term.kind == ir::Terminator::Kind::Br && bb.term.cond >= 0) {
        int r = root(bb.term.cond);
        if (r != bb.term.cond) {
            bb.term.cond = r;
            changed = true;
        }
    }
    if (bb.term.kind == ir::Terminator::Kind::Ret && bb.term.retReg >= 0) {
        int r = root(bb.term.retReg);
        if (r != bb.term.retReg) {
            bb.term.retReg = r;
            changed = true;
        }
    }
    return changed;
}

/**
 * Backward copy coalescing: for the adjacent pair
 *     t = <pure op ...>
 *     mov d, t
 * where t is dead afterwards, write the op's result directly into d and
 * drop the move. This turns "x = x + 1" from two instructions into one,
 * matching what a register allocator's coalescer produces.
 */
bool
coalesceBlock(ir::BasicBlock &bb, const ir::Liveness &live)
{
    bool changed = false;
    for (size_t i = 0; i + 1 < bb.insts.size(); ++i) {
        Instruction &a = bb.insts[i];
        Instruction &b = bb.insts[i + 1];
        if (b.op != Opcode::Mov || a.dst < 0 || b.src0 != a.dst ||
            b.dst == a.dst)
            continue;
        if (a.op == Opcode::Call || a.op == Opcode::Print)
            continue;
        int t = a.dst;
        int d = b.dst;
        // t must die at the mov: not used later in the block, not used
        // by the terminator, not live out.
        bool t_used_later = false;
        for (size_t j = i + 2; j < bb.insts.size() && !t_used_later; ++j) {
            bb.insts[j].forEachSrc([&](int r) {
                if (r == t)
                    t_used_later = true;
            });
            if (bb.insts[j].dst == t)
                break; // redefined; earlier uses checked already
        }
        if (t_used_later)
            continue;
        if ((bb.term.kind == ir::Terminator::Kind::Br &&
             bb.term.cond == t) ||
            (bb.term.kind == ir::Terminator::Kind::Ret &&
             bb.term.retReg == t))
            continue;
        if (live.liveOut(bb.id, t))
            continue;
        // d must not be read between a and the mov (there is nothing
        // between them) and a must not read d (we would clobber it).
        bool a_reads_d = false;
        a.forEachSrc([&](int r) {
            if (r == d)
                a_reads_d = true;
        });
        if (a_reads_d)
            continue;
        a.dst = d;
        b = Instruction();
        b.op = Opcode::Nop;
        changed = true;
    }
    if (changed) {
        std::vector<Instruction> kept;
        kept.reserve(bb.insts.size());
        for (auto &in : bb.insts)
            if (in.op != Opcode::Nop)
                kept.push_back(std::move(in));
        bb.insts = std::move(kept);
    }
    return changed;
}

} // namespace

bool
propagateCopies(ir::Function &fn)
{
    bool changed = false;
    for (auto &bb : fn.blocks)
        changed |= propagateBlock(bb);

    ir::Cfg cfg(fn);
    ir::Liveness live(fn, cfg);
    for (auto &bb : fn.blocks)
        changed |= coalesceBlock(bb, live);
    return changed;
}

bool
propagateCopies(ir::Module &mod)
{
    bool changed = false;
    for (auto &fn : mod.functions)
        changed |= propagateCopies(fn);
    return changed;
}

} // namespace bsyn::oracle
