#include "synth/scale_down.hh"

#include <algorithm>

#include "support/error.hh"

namespace bsyn::synth
{

using profile::Sfgl;
using profile::SfglBlock;
using profile::SfglLoop;

profile::Sfgl
scaleDown(const Sfgl &sfgl, uint64_t reduction_factor)
{
    BSYN_ASSERT(reduction_factor >= 1, "reduction factor must be >= 1");
    Sfgl out = sfgl;
    uint64_t r = reduction_factor;

    // Block execution counts: integer division drops blocks with
    // execCount < R (the paper's removal rule).
    for (auto &b : out.blocks)
        b.execCount = b.execCount / r;

    // Edge counts scale the same way; edges into dropped blocks vanish.
    for (auto &b : out.blocks) {
        std::vector<profile::SfglEdge> kept;
        for (auto e : b.succs) {
            e.count = e.count / r;
            if (e.count > 0 &&
                out.blocks[static_cast<size_t>(e.to)].execCount > 0)
                kept.push_back(e);
        }
        b.succs = std::move(kept);
    }

    // Loop annotations: recompute entries from the scaled edge counts;
    // iterations absorb whatever the entry count could not.
    std::vector<SfglLoop> kept_loops;
    for (auto l : out.loops) {
        if (out.blocks[static_cast<size_t>(l.header)].execCount == 0)
            continue; // entire loop dropped
        out.countEntries(l);
        l.avgIterations = std::max(1.0, l.avgIterations);
        kept_loops.push_back(std::move(l));
    }
    out.loops = std::move(kept_loops);

    // Re-derive innermost-loop membership (ids changed).
    for (auto &b : out.blocks)
        b.loopId = -1;
    for (size_t i = 0; i < out.loops.size(); ++i) {
        for (int bid : out.loops[i].blocks) {
            SfglBlock &b = out.blocks[static_cast<size_t>(bid)];
            if (b.loopId < 0 ||
                out.loops[static_cast<size_t>(b.loopId)].blocks.size() >
                    out.loops[i].blocks.size())
                b.loopId = static_cast<int>(i);
        }
    }
    // Fix loop ids and parents after the drop-compaction above.
    std::vector<int> old_to_new(sfgl.loops.size(), -1);
    {
        size_t n = 0;
        for (const auto &l : out.loops) {
            old_to_new[static_cast<size_t>(l.id)] = static_cast<int>(n);
            ++n;
        }
    }
    for (auto &l : out.loops) {
        l.id = old_to_new[static_cast<size_t>(l.id)];
        if (l.parent >= 0)
            l.parent = old_to_new[static_cast<size_t>(l.parent)];
    }
    return out;
}

uint64_t
chooseReductionFactor(uint64_t dynamic_instructions,
                      uint64_t target_instructions)
{
    if (target_instructions == 0 ||
        dynamic_instructions <= target_instructions)
        return 1;
    uint64_t r = (dynamic_instructions + target_instructions - 1) /
                 target_instructions;
    return std::min<uint64_t>(r, 250); // paper: R ranges from 1 to 250
}

} // namespace bsyn::synth
