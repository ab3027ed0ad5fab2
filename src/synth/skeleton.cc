#include "synth/skeleton.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "support/error.hh"

namespace bsyn::synth
{

using profile::Sfgl;
using profile::SfglBlock;
using profile::SfglLoop;
using profile::SfglTerm;

namespace
{

/** Member blocks with execution probability below this threshold are
 *  modeled as never-executed guarded paths. */
constexpr double kColdThreshold = 0.05;

/** Probability above which a member block is emitted unconditionally. */
constexpr double kHotThreshold = 0.95;

/** Synthetic functions a skeleton is split into at least (paper:
 *  function assignment is randomized, not mirrored from the original).
 *  Big (consolidated) profiles split across more, one per
 *  kBlocksPerFunction live blocks up to kMaxFunctions: recompiling the
 *  clone is part of its job description, and a compiler's
 *  per-function analyses scale super-linearly, so a 100k-instruction
 *  main() would be as unusable for compiler teams as it would be
 *  unrealistic. */
constexpr size_t kMinFunctions = 8;
constexpr size_t kMaxFunctions = 64;
constexpr size_t kBlocksPerFunction = 12;

size_t
functionBudget(const Sfgl &scaled)
{
    size_t live_blocks = 0;
    for (const auto &b : scaled.blocks)
        if (b.execCount > 0)
            ++live_blocks;
    return std::max(kMinFunctions,
                    std::min(kMaxFunctions,
                             live_blocks / kBlocksPerFunction));
}

class SkeletonBuilder
{
  public:
    SkeletonBuilder(const Sfgl &g, Rng &r, const SkeletonOptions &o)
        : sfgl(g), rng(r), opts(o)
    {
        remaining.resize(sfgl.blocks.size());
        for (size_t i = 0; i < sfgl.blocks.size(); ++i)
            remaining[i] = sfgl.blocks[i].execCount;
        loopEntriesLeft.resize(sfgl.loops.size());
        for (size_t i = 0; i < sfgl.loops.size(); ++i)
            loopEntriesLeft[i] = sfgl.loops[i].entries;
    }

    Skeleton
    run()
    {
        std::vector<SynNode> segments;
        // Bounded by the number of blocks plus loops; every iteration
        // provably zeroes at least one counter.
        size_t guard = 4 * (sfgl.blocks.size() + sfgl.loops.size()) + 64;
        while (guard-- > 0) {
            int b = pickBlock();
            if (b < 0)
                break;
            int outer = opts.useLoopInfo ? outermostLoopOf(b) : -1;
            if (outer >= 0 && loopEntriesLeft[static_cast<size_t>(outer)] >
                                  0) {
                segments.push_back(buildLoopNode(outer));
            } else {
                segments.push_back(buildChain(b));
            }
        }
        // Anything left (counter-rounding residue) becomes repeat
        // wrappers so the instruction budget is honoured.
        for (size_t i = 0; i < remaining.size(); ++i) {
            if (remaining[i] == 0)
                continue;
            segments.push_back(makeRepeat(static_cast<int>(i),
                                          remaining[i]));
            remaining[i] = 0;
        }
        return assignFunctions(std::move(segments));
    }

  private:
    // --- Selection -------------------------------------------------------

    int
    pickBlock()
    {
        std::vector<double> weights(remaining.size());
        double total = 0;
        for (size_t i = 0; i < remaining.size(); ++i) {
            weights[i] = double(remaining[i]) *
                         double(sfgl.blocks[i].bodySize() + 1);
            total += weights[i];
        }
        if (total <= 0)
            return -1;
        return static_cast<int>(rng.nextWeighted(weights));
    }

    int
    outermostLoopOf(int block)
    {
        int loop = sfgl.blocks[static_cast<size_t>(block)].loopId;
        if (loop < 0)
            return -1;
        while (sfgl.loops[static_cast<size_t>(loop)].parent >= 0)
            loop = sfgl.loops[static_cast<size_t>(loop)].parent;
        return loop;
    }

    // --- Loop structures ---------------------------------------------------

    /**
     * Build the structure for loop @p loop_id: a counted loop whose body
     * holds the member blocks at this nesting level (header first,
     * conditional members wrapped per their per-iteration probability)
     * and nested Loop nodes for the direct child loops. Consumes all
     * remaining entries of the loop.
     */
    SynNode
    buildLoopNode(int loop_id)
    {
        const SfglLoop &loop = sfgl.loops[static_cast<size_t>(loop_id)];
        uint64_t entries = loopEntriesLeft[static_cast<size_t>(loop_id)];
        loopEntriesLeft[static_cast<size_t>(loop_id)] = 0;
        if (entries == 0)
            entries = 1;

        uint64_t iters = std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(loop.avgIterations)));

        SynNode loop_node;
        loop_node.kind = SynNode::Kind::Loop;
        loop_node.iterations = iters;
        loop_node.body = buildLoopBody(loop_id, entries, iters);

        if (entries > 1) {
            SynNode rep;
            rep.kind = SynNode::Kind::Repeat;
            rep.iterations = entries;
            rep.body.push_back(std::move(loop_node));
            return rep;
        }
        return loop_node;
    }

    std::vector<SynNode>
    buildLoopBody(int loop_id, uint64_t entries, uint64_t iters)
    {
        const SfglLoop &loop = sfgl.loops[static_cast<size_t>(loop_id)];
        uint64_t header_exec = entries * iters;

        // Direct children and their member sets.
        std::set<int> nested_blocks;
        std::vector<int> children;
        for (size_t li = 0; li < sfgl.loops.size(); ++li) {
            if (sfgl.loops[li].parent == loop_id) {
                children.push_back(static_cast<int>(li));
                for (int b : sfgl.loops[li].blocks)
                    nested_blocks.insert(b);
            }
        }

        std::vector<SynNode> body;
        // Own members (not in any child loop), in block-id order with the
        // header first.
        std::vector<int> members = loop.blocks;
        std::sort(members.begin(), members.end());
        std::stable_partition(members.begin(), members.end(),
                              [&](int b) { return b == loop.header; });

        for (int b : members) {
            if (nested_blocks.count(b))
                continue;
            const SfglBlock &blk = sfgl.blocks[static_cast<size_t>(b)];
            double prob =
                header_exec
                    ? std::min(1.0, double(remaining[
                                        static_cast<size_t>(b)]) /
                                        double(header_exec))
                    : 0.0;
            // The header itself always executes.
            if (b == loop.header)
                prob = 1.0;
            if (prob <= 0.0 && b != loop.header)
                continue;

            uint64_t consumed = std::min(
                remaining[static_cast<size_t>(b)],
                static_cast<uint64_t>(
                    std::llround(prob * double(header_exec))));
            remaining[static_cast<size_t>(b)] -=
                std::min(remaining[static_cast<size_t>(b)], consumed);

            SynNode block_node;
            block_node.kind = SynNode::Kind::Block;
            block_node.sfglBlock = b;

            if (prob >= kHotThreshold) {
                body.push_back(std::move(block_node));
            } else {
                SynNode cond = makeIf(blk, prob);
                cond.body.push_back(std::move(block_node));
                body.push_back(std::move(cond));
            }
        }

        // Nested loops.
        for (int child : children) {
            const SfglLoop &cl = sfgl.loops[static_cast<size_t>(child)];
            uint64_t child_entries =
                loopEntriesLeft[static_cast<size_t>(child)];
            loopEntriesLeft[static_cast<size_t>(child)] = 0;
            if (child_entries == 0)
                continue;
            uint64_t citers = std::max<uint64_t>(
                1,
                static_cast<uint64_t>(std::llround(cl.avgIterations)));

            // How often does one outer iteration enter the child?
            double enter_prob =
                header_exec ? std::min(1.0, double(child_entries) /
                                                double(header_exec))
                            : 1.0;

            SynNode child_node;
            child_node.kind = SynNode::Kind::Loop;
            child_node.iterations = citers;
            child_node.body = buildLoopBody(child, child_entries, citers);

            if (enter_prob >= kHotThreshold) {
                body.push_back(std::move(child_node));
            } else {
                const SfglBlock &chb =
                    sfgl.blocks[static_cast<size_t>(cl.header)];
                SynNode cond = makeIf(chb, enter_prob);
                cond.body.push_back(std::move(child_node));
                body.push_back(std::move(cond));
            }
        }
        return body;
    }

    /** Build an If node modelling a branch with probability @p prob. */
    SynNode
    makeIf(const SfglBlock &governed, double prob)
    {
        SynNode cond;
        cond.kind = SynNode::Kind::If;
        cond.execProb = prob;
        // Classification: use the governing block's own branch profile
        // when it ends in a conditional branch, else derive from the
        // probability (cold path = easy/never-taken).
        if (governed.term == SfglTerm::Branch) {
            cond.easyBranch = governed.easyBranch;
            cond.transitionRate = governed.transitionRate;
        } else {
            cond.easyBranch = prob < kColdThreshold ||
                              prob > (1.0 - kColdThreshold);
            cond.transitionRate = std::min(prob, 1.0 - prob) * 2.0;
        }
        if (prob < kColdThreshold)
            cond.easyBranch = true;
        return cond;
    }

    // --- Straight-line chains ---------------------------------------------

    SynNode
    makeRepeat(int block, uint64_t count)
    {
        SynNode block_node;
        block_node.kind = SynNode::Kind::Block;
        block_node.sfglBlock = block;
        if (count <= 1)
            return block_node;
        SynNode rep;
        rep.kind = SynNode::Kind::Repeat;
        rep.iterations = count;
        rep.body.push_back(std::move(block_node));
        return rep;
    }

    /**
     * Build a straight-line chain starting at @p start: follow the
     * heaviest remaining successor edge until the trail goes cold
     * (paper: "if there are no successors ... restart the generation
     * algorithm").
     */
    SynNode
    buildChain(int start)
    {
        SynNode seq;
        seq.kind = SynNode::Kind::Repeat;
        seq.iterations = 1;

        int cur = start;
        std::set<int> visited;
        while (cur >= 0 && remaining[static_cast<size_t>(cur)] > 0 &&
               !visited.count(cur)) {
            visited.insert(cur);
            --remaining[static_cast<size_t>(cur)];
            SynNode bn;
            bn.kind = SynNode::Kind::Block;
            bn.sfglBlock = cur;
            seq.body.push_back(std::move(bn));

            const SfglBlock &blk = sfgl.blocks[static_cast<size_t>(cur)];
            // Pick the heaviest successor with remaining budget that is
            // not inside a loop (loops are generated as structures).
            int next = -1;
            uint64_t best = 0;
            for (const auto &e : blk.succs) {
                const SfglBlock &succ =
                    sfgl.blocks[static_cast<size_t>(e.to)];
                if (remaining[static_cast<size_t>(e.to)] == 0)
                    continue;
                if (opts.useLoopInfo && succ.loopId >= 0)
                    continue;
                if (e.count > best) {
                    best = e.count;
                    next = e.to;
                }
            }
            cur = next;
        }
        return seq;
    }

    // --- Function assignment (paper §III-B.3) --------------------------------

    Skeleton
    assignFunctions(std::vector<SynNode> segments)
    {
        Skeleton sk;
        if (segments.empty()) {
            sk.funcs.push_back({opts.funcPrefix + "0", {}});
            return sk;
        }
        size_t nfuncs = std::min(functionBudget(sfgl), segments.size());
        // Contiguous runs keep rough phase order; the split points are
        // random, which detaches the synthetic's functions from the
        // original program's (information hiding).
        std::vector<size_t> cuts{0, segments.size()};
        while (cuts.size() < nfuncs + 1) {
            size_t c = 1 + rng.nextBounded(segments.size());
            cuts.push_back(c);
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

        size_t fi = 0;
        for (size_t c = 0; c + 1 < cuts.size(); ++c) {
            SynFunction fn;
            fn.name = opts.funcPrefix + std::to_string(fi++);
            for (size_t s = cuts[c]; s < cuts[c + 1]; ++s)
                fn.roots.push_back(std::move(segments[s]));
            if (!fn.roots.empty())
                sk.funcs.push_back(std::move(fn));
        }
        if (sk.funcs.empty())
            sk.funcs.push_back({opts.funcPrefix + "0", {}});
        return sk;
    }

    const Sfgl &sfgl;
    Rng &rng;
    const SkeletonOptions &opts;

    std::vector<uint64_t> remaining;
    std::vector<uint64_t> loopEntriesLeft;
};

} // namespace

Skeleton
buildSkeleton(const Sfgl &scaled, Rng &rng, const SkeletonOptions &opts)
{
    return SkeletonBuilder(scaled, rng, opts).run();
}

} // namespace bsyn::synth
