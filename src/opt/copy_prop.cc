#include "opt/copy_prop.hh"

#include <cstdint>
#include <vector>

#include "ir/cfg.hh"

namespace bsyn::opt
{

using ir::Instruction;
using ir::Opcode;

namespace
{

/**
 * The copies valid at one point of a block, indexed by register (the
 * verifier keeps every register below numRegs). Each register counts
 * its definitions and a recorded copy keeps its source's count, so a
 * redefinition invalidates the register's own copy and every copy of it
 * in O(1): a copy whose source has moved on reads as absent. Clones
 * carry blocks of tens of thousands of instructions, which is why no
 * operation here may scan the live copies.
 */
class CopyTable
{
  public:
    explicit CopyTable(size_t num_regs)
        : copyOf_(num_regs), version_(num_regs, 0)
    {
    }

    /** @return the register @p reg is a copy of, or -1. */
    int
    sourceOf(int reg) const
    {
        const Entry &e = copyOf_[static_cast<size_t>(reg)];
        if (e.src < 0 || version_[static_cast<size_t>(e.src)] != e.srcVersion)
            return -1;
        return e.src;
    }

    /** @p reg is (re)defined: it copies nothing, nothing copies it. */
    void
    define(int reg)
    {
        copyOf_[static_cast<size_t>(reg)].src = -1;
        ++version_[static_cast<size_t>(reg)];
        touched_.push_back(reg);
    }

    /** Record "mov dst, src"; call after define(dst). */
    void
    record(int dst, int src)
    {
        copyOf_[static_cast<size_t>(dst)] = {
            src, version_[static_cast<size_t>(src)]};
    }

    /** Forget the block's copies, resetting only the entries it set. */
    void
    clear()
    {
        for (int reg : touched_)
            copyOf_[static_cast<size_t>(reg)].src = -1;
        touched_.clear();
    }

  private:
    struct Entry
    {
        int src = -1;
        uint32_t srcVersion = 0; ///< src's definition count when recorded
    };

    std::vector<Entry> copyOf_;
    std::vector<uint32_t> version_; ///< definitions seen, per register
    std::vector<int> touched_;      ///< registers defined in this block
};

/**
 * Forward copy propagation within one block: after "mov d, s", uses of d
 * read s instead, until either d or s is redefined.
 */
bool
propagateBlock(ir::BasicBlock &bb, CopyTable &copies)
{
    bool changed = false;
    auto root = [&](int reg) {
        // Follow the chain (a -> b -> c) with a cycle guard.
        int steps = 0;
        while (steps++ < 16) {
            int src = copies.sourceOf(reg);
            if (src < 0)
                return reg;
            reg = src;
        }
        return reg;
    };

    for (auto &in : bb.insts) {
        int before_src0 = in.src0;
        in.mapSrcs([&](int r) { return root(r); });
        if (in.src0 != before_src0)
            changed = true;

        if (in.dst >= 0) {
            copies.define(in.dst);
            if (in.op == Opcode::Mov && in.src0 != in.dst)
                copies.record(in.dst, in.src0);
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
    copies.clear();
    return changed;
}

/**
 * Backward copy coalescing: for the adjacent pair
 *     t = <pure op ...>
 *     mov d, t
 * where t is dead afterwards, write the op's result directly into d and
 * drop the move. This turns "x = x + 1" from two instructions into one,
 * matching what a register allocator's coalescer produces.
 *
 * @p exposed is per-register scratch in which no entry equals @p stamp
 * on entry.
 */
bool
coalesceBlock(ir::BasicBlock &bb, const ir::Liveness &live,
              std::vector<uint32_t> &exposed, uint32_t stamp)
{
    const size_t n = bb.insts.size();
    if (n < 2)
        return false;

    // usedLater[i]: instruction i's result is read at i+2 or later in
    // the block before being redefined. One backward pass of
    // upward-exposed uses (exposed[r] == stamp) answers it for every i.
    // The forward loop below rewrites only positions i and i+1, so the
    // answers, taken over the original instructions, stay exact.
    std::vector<char> usedLater(n, 0);
    for (size_t p = n; p >= 2; --p) {
        int t = bb.insts[p - 2].dst;
        if (t >= 0)
            usedLater[p - 2] = exposed[static_cast<size_t>(t)] == stamp;
        const Instruction &in = bb.insts[p - 1];
        if (in.dst >= 0)
            exposed[static_cast<size_t>(in.dst)] = 0;
        in.forEachSrc(
            [&](int r) { exposed[static_cast<size_t>(r)] = stamp; });
    }

    bool changed = false;
    for (size_t i = 0; i + 1 < n; ++i) {
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
        if (usedLater[i])
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
        kept.reserve(n);
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
    CopyTable copies(fn.numRegs);
    for (auto &bb : fn.blocks)
        changed |= propagateBlock(bb, copies);

    ir::Cfg cfg(fn);
    ir::Liveness live(fn, cfg);
    std::vector<uint32_t> exposed(fn.numRegs, 0);
    uint32_t stamp = 0;
    for (auto &bb : fn.blocks)
        changed |= coalesceBlock(bb, live, exposed, ++stamp);
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

} // namespace bsyn::opt
