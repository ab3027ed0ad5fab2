#include "opt/pass.hh"

#include <map>

#include "ir/cfg.hh"
#include "support/error.hh"

namespace bsyn::opt
{

using ir::BasicBlock;
using ir::Terminator;

bool
compactBlocks(ir::Function &fn)
{
    ir::Cfg cfg(fn);
    bool any_unreachable = false;
    for (const auto &bb : fn.blocks) {
        if (!cfg.reachable(bb.id)) {
            any_unreachable = true;
            break;
        }
    }
    if (!any_unreachable)
        return false;

    std::map<int, int> remap;
    std::vector<BasicBlock> kept;
    for (auto &bb : fn.blocks) {
        if (!cfg.reachable(bb.id))
            continue;
        int new_id = static_cast<int>(kept.size());
        remap[bb.id] = new_id;
        kept.push_back(std::move(bb));
        kept.back().id = new_id;
    }
    for (auto &bb : kept) {
        if (bb.term.kind == Terminator::Kind::Jmp) {
            bb.term.target = remap.at(bb.term.target);
        } else if (bb.term.kind == Terminator::Kind::Br) {
            bb.term.target = remap.at(bb.term.target);
            bb.term.fallthrough = remap.at(bb.term.fallthrough);
        }
    }
    fn.blocks = std::move(kept);
    return true;
}

namespace
{

/** Follow chains of trivial (empty, Jmp-only) blocks. */
int
threadTarget(const ir::Function &fn, int target)
{
    int seen = 0;
    while (seen++ < 64) { // cycle guard (e.g. empty infinite loop)
        const BasicBlock &bb = fn.block(target);
        if (!bb.insts.empty() || bb.term.kind != Terminator::Kind::Jmp ||
            bb.term.target == target)
            return target;
        target = bb.term.target;
    }
    return target;
}

} // namespace

bool
simplifyCfg(ir::Function &fn)
{
    bool changed = false;

    // Jump threading: retarget branches through empty Jmp-only blocks.
    for (auto &bb : fn.blocks) {
        if (bb.term.kind == Terminator::Kind::Jmp) {
            int t = threadTarget(fn, bb.term.target);
            if (t != bb.term.target) {
                bb.term.target = t;
                changed = true;
            }
        } else if (bb.term.kind == Terminator::Kind::Br) {
            int t = threadTarget(fn, bb.term.target);
            int f = threadTarget(fn, bb.term.fallthrough);
            if (t != bb.term.target || f != bb.term.fallthrough) {
                bb.term.target = t;
                bb.term.fallthrough = f;
                changed = true;
            }
            // Both arms equal: the branch is a jump.
            if (bb.term.target == bb.term.fallthrough) {
                bb.term = Terminator::jmp(bb.term.target);
                changed = true;
            }
        }
    }

    // Merge b -> s when b ends in Jmp s and s has exactly one pred.
    {
        ir::Cfg cfg(fn);
        for (auto &bb : fn.blocks) {
            if (bb.term.kind != Terminator::Kind::Jmp)
                continue;
            int s = bb.term.target;
            if (s == bb.id || s == 0)
                continue;
            if (cfg.preds(s).size() != 1)
                continue;
            BasicBlock &succ = fn.block(s);
            // Move succ's instructions and terminator into bb; succ
            // becomes unreachable and compactBlocks sweeps it away.
            for (auto &in : succ.insts)
                bb.insts.push_back(std::move(in));
            succ.insts.clear();
            bb.term = succ.term;
            succ.term = Terminator::ret();
            changed = true;
            break; // CFG changed; caller loops the pass to fixpoint
        }
    }

    changed |= compactBlocks(fn);
    return changed;
}

} // namespace bsyn::opt
