/**
 * @file
 * Control-flow-graph utilities: predecessor lists, reverse post order,
 * reachability, and per-register liveness analysis.
 */

#ifndef BSYN_IR_CFG_HH
#define BSYN_IR_CFG_HH

#include <cstdint>
#include <vector>

#include "ir/function.hh"

namespace bsyn::ir
{

/** Predecessor/successor adjacency for a function's CFG. */
class Cfg
{
  public:
    explicit Cfg(const Function &fn);

    const std::vector<int> &preds(int bb) const
    {
        return predecessors[static_cast<size_t>(bb)];
    }
    const std::vector<int> &succs(int bb) const
    {
        return successors_[static_cast<size_t>(bb)];
    }

    /** Blocks in reverse post order from the entry. */
    const std::vector<int> &rpo() const { return rpoOrder; }

    /** @return true if @p bb is reachable from the entry. */
    bool reachable(int bb) const
    {
        return reachable_[static_cast<size_t>(bb)];
    }

  private:
    std::vector<std::vector<int>> predecessors;
    std::vector<std::vector<int>> successors_;
    std::vector<int> rpoOrder;
    std::vector<bool> reachable_;
};

/**
 * Register liveness: for each block, the set of registers live on entry
 * and exit. Computed by the usual backward iterative dataflow.
 */
class Liveness
{
  public:
    Liveness(const Function &fn, const Cfg &cfg);

    /** @return true if register @p reg is live on entry to @p bb. */
    bool
    liveIn(int bb, int reg) const
    {
        return bit(in, bb, reg);
    }

    /** @return true if register @p reg is live on exit of @p bb. */
    bool
    liveOut(int bb, int reg) const
    {
        return bit(out, bb, reg);
    }

  private:
    // Bit sets are packed into 64-bit words so the dataflow iteration
    // is word-parallel; functions emitted by the synthesizer can have
    // thousands of virtual registers.
    size_t words = 0;

    bool
    bit(const std::vector<uint64_t> &set, int bb, int reg) const
    {
        size_t idx = static_cast<size_t>(bb) * words +
                     static_cast<size_t>(reg) / 64;
        return (set[idx] >> (static_cast<size_t>(reg) % 64)) & 1;
    }

    std::vector<uint64_t> in;
    std::vector<uint64_t> out;
};

} // namespace bsyn::ir

#endif // BSYN_IR_CFG_HH
