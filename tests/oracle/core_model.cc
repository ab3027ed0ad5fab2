#include "oracle/core_model.hh"

#include <algorithm>

namespace bsyn::oracle
{

CoreModel::CoreModel(const sim::CoreConfig &config)
    : cfg(config), l1(config.l1d), l2cache(config.l2),
      pred(makePredictor(config.predictor))
{
    robRing.assign(static_cast<size_t>(std::max(cfg.robSize, 1)), 0);
    ready.assign(64, 0);
}

uint64_t &
CoreModel::regReady(int r)
{
    size_t idx = static_cast<size_t>(r);
    if (idx >= ready.size())
        ready.resize(idx + 64, 0);
    return ready[idx];
}

void
CoreModel::onInstruction(int pc, const isa::MInst &mi)
{
    retirePending();
    pending.valid = true;
    pending.pc = pc;
    pending.inst = sim::prepareTimingInst(mi, cfg);
    pending.extraLatency = pending.inst.fusedLoadLatency;
    pending.taken = false;
    pending.hasLoad = false;
    pending.hasStore = false;
}

void
CoreModel::onMemAccess(int, uint64_t addr, uint32_t size, bool is_write,
                       uint64_t)
{
    bool l1_hit = l1.access(addr, size);
    bool l2_hit = true;
    if (!l1_hit && cfg.hasL2)
        l2_hit = l2cache.access(addr, size);
    if (events && !l1_hit) {
        ++events->l1Misses[static_cast<size_t>(pending.pc)];
        if (cfg.hasL2 && !l2_hit)
            ++events->l2Misses[static_cast<size_t>(pending.pc)];
    }
    if (is_write) {
        pending.hasStore = true;
        pending.storeAddr = addr >> 2; // word granularity
        return; // stores retire without stalling the chain
    }
    pending.hasLoad = true;
    pending.loadAddr = addr >> 2;
    if (!l1_hit) {
        pending.extraLatency += static_cast<uint64_t>(cfg.l1MissPenalty);
        if (cfg.hasL2 && !l2_hit)
            pending.extraLatency +=
                static_cast<uint64_t>(cfg.l2MissPenalty);
    }
}

void
CoreModel::onBranch(int, bool taken)
{
    pending.taken = taken;
}

void
CoreModel::retirePending()
{
    if (!pending.valid)
        return;
    Pending p = pending;
    pending.valid = false;
    ++instructions;

    // --- Dispatch: width-limited, gated by fetch redirect and ROB space.
    uint64_t rob_free = robRing[robHead]; // retire cycle of the entry we
                                          // are about to reuse
    uint64_t min_dispatch = std::max(fetchReady, rob_free);
    if (min_dispatch > dispatchCycle) {
        dispatchCycle = min_dispatch;
        dispatchSlots = 0;
    }
    if (dispatchSlots >= cfg.width) {
        ++dispatchCycle;
        dispatchSlots = 0;
        if (dispatchCycle < min_dispatch)
            dispatchCycle = min_dispatch;
    }
    ++dispatchSlots;

    // --- Issue: operands ready; in-order cores also issue in order.
    uint64_t issue = dispatchCycle;
    for (int i = 0; i < p.inst.numSrcs; ++i)
        issue = std::max(issue, regReady(p.inst.srcs[i]));
    if (p.hasLoad) {
        const FwdEntry &e = storeReady[p.loadAddr % fwdSlots];
        if (e.addr == p.loadAddr)
            issue = std::max(issue, e.ready); // forwarded value
    }
    if (cfg.inOrder) {
        if (issue < lastIssue) {
            issue = lastIssue;
        }
        if (issue == lastIssue && issueSlots >= cfg.width)
            issue = lastIssue + 1;
        if (issue != lastIssue) {
            lastIssue = issue;
            issueSlots = 0;
        }
        ++issueSlots;
    }

    uint64_t complete =
        issue + sim::timingBaseLatency(p.inst.cls, cfg) + p.extraLatency;

    if (p.inst.dst >= 0)
        regReady(p.inst.dst) = complete;
    if (p.hasStore) {
        FwdEntry &e = storeReady[p.storeAddr % fwdSlots];
        e.addr = p.storeAddr;
        e.ready = complete;
    }
    if (p.inst.isCallRet) {
        // Frame switch: approximate by making every register ready when
        // the call/return completes.
        for (auto &r : ready)
            r = std::max(r, complete);
    }

    // --- In-order retirement (ROB).
    uint64_t retire = std::max(complete, lastRetire);
    lastRetire = retire;
    robRing[robHead] = retire;
    robHead = (robHead + 1) % robRing.size();

    // --- Branch resolution.
    if (p.inst.isBranch) {
        bool predicted = pred->predict(static_cast<uint64_t>(p.pc));
        pred->branch(static_cast<uint64_t>(p.pc), p.taken);
        if (predicted != p.taken) {
            if (events)
                ++events->mispredicts[static_cast<size_t>(p.pc)];
            fetchReady = std::max(
                fetchReady,
                complete + static_cast<uint64_t>(cfg.mispredictPenalty));
        }
    }
}

sim::TimingStats
CoreModel::finish()
{
    retirePending();
    sim::TimingStats out;
    out.instructions = instructions;
    out.cycles = std::max<uint64_t>(lastRetire, 1);
    out.branch = pred->stats();
    out.l1d = l1.stats();
    out.l2 = l2cache.stats();
    return out;
}

} // namespace bsyn::oracle
