#include "sim/timed_core.hh"

#include <algorithm>

#include "sim/dispatch.hh"
#include "support/error.hh"

namespace bsyn::sim
{

TimedProgram::TimedProgram(const DecodedProgram &prog,
                           const CoreConfig &cfg)
    : l1HitLatency_(cfg.l1HitLatency)
{
    const isa::MachineProgram &mp = prog.program();
    const std::vector<DecodedInst> &code = prog.code();
    insts_.reserve(code.size());
    for (size_t pc = 0; pc < code.size(); ++pc) {
        PreparedTimingInst p = prepareTimingInst(mp.code[pc], cfg);
        Inst ti;
        // The timing class is also attached to the DecodedInst at
        // decode time; fold its base latency together with the fused
        // load's so the scheduler adds one precomputed number.
        BSYN_ASSERT(static_cast<isa::MClass>(code[pc].tcls) == p.cls,
                    "decode-time timing class out of sync at pc %zu",
                    pc);
        ti.lat = static_cast<uint32_t>(
            timingBaseLatency(p.cls, cfg) + p.fusedLoadLatency);
        // Pre-encode operands as ready-table indices (see Inst): dst
        // 0 = write sink, src 1 = always-zero slot, registers at +2.
        // maxReg covers exactly the slots the reference would touch,
        // so one watermark check per retire reproduces its lazy
        // ready-table growth.
        ti.dst = p.dst >= 0 ? static_cast<uint32_t>(p.dst) + 2 : 0;
        ti.maxReg = ti.dst > 1 ? ti.dst : 1;
        for (int i = 0; i < 4; ++i) {
            ti.srcs[i] = i < p.numSrcs
                             ? static_cast<uint32_t>(p.srcs[i]) + 2
                             : 1;
            if (ti.srcs[i] > ti.maxReg)
                ti.maxReg = ti.srcs[i];
        }
        ti.flags = (p.isBranch ? kBranch : 0) |
                   (p.isCallRet ? kCallRet : 0);
        // Resolve the retire point per PC. kSimple must imply "fires
        // no timing hooks": loads, stores and their fused compute
        // forms call onMemRead/onMemWrite; conditional branches
        // (including the fused BrCmp handlers) call onBranch;
        // everything else delivers no dynamic facts and retires at
        // dispatch. Read-only memory instructions retire at the read
        // hook; anything that writes retires at the write hook (the
        // write is always the later fact — fused handlers read first).
        bool reads = mp.code[pc].readsMemory();
        bool writes = mp.code[pc].writesMemory();
        if (!p.isBranch && !p.isCallRet && !reads && !writes)
            ti.flags |= kSimple;
        if (reads && !writes)
            ti.flags |= kRetireAtRead;
        ti.predIdx =
            static_cast<uint16_t>(pc & BranchPredictor::kIndexMask);
        insts_.push_back(ti);
    }
}

TimedCore::TimedCore(const CoreConfig &cfg)
    : l1_(cfg.l1d), l2_(cfg.l2), pred_(cfg.predictor),
      width_(cfg.width), inOrder_(cfg.inOrder), hasL2_(cfg.hasL2),
      mispredictPenalty_(static_cast<uint64_t>(cfg.mispredictPenalty)),
      l1MissPenalty_(static_cast<uint64_t>(cfg.l1MissPenalty)),
      l2MissPenalty_(static_cast<uint64_t>(cfg.l2MissPenalty))
{
    robSize_ = static_cast<size_t>(std::max(cfg.robSize, 1));
    rob_.assign(robSize_, 0);
    // Reference starts with 64 register slots; +2 for the sink and
    // always-zero slots of the shifted operand-index layout.
    ready_.assign(64 + 2, 0);
    readySize_ = 64 + 2;
    fwd_.assign(kFwdSlots, FwdEntry());
}

uint64_t *
TimedCore::growReadyCold(size_t idx)
{
    // Replicates the reference model's resize(idx + 64) in the shifted
    // layout (reference register r lives at slot r + 2, so its new
    // size idx_reg + 64 maps to idx_shifted + 64): the lazy size
    // watermark is part of the golden model's observable behaviour
    // (call/return readiness maxes only registers grown so far).
    readySize_ = idx + 64;
    if (ready_.size() < readySize_)
        ready_.resize(readySize_, 0);
    return ready_.data();
}

bool
TimedCore::accessL2Cold(uint64_t addr, uint32_t size)
{
    return l2_.access(addr, size);
}

void
TimedCore::setCheckpoints(std::vector<uint64_t> boundaries)
{
    checkBounds_ = std::move(boundaries);
    checkCycles_.clear();
    checkCycles_.reserve(checkBounds_.size());
    checkNextIdx_ = 0;
    nextCheck_ = checkBounds_.empty() ? ~0ull : checkBounds_[0];
}

uint64_t
TimedCore::cutCheckpointCold(uint64_t last_retire)
{
    checkCycles_.push_back(last_retire);
    ++checkNextIdx_;
    return checkNextIdx_ < checkBounds_.size()
               ? checkBounds_[checkNextIdx_]
               : ~0ull;
}

TimingStats
TimedCore::finish()
{
    // Nothing to drain: every instruction retired inside its handler
    // (the last hook fires before the dispatch loop can exit).
    TimingStats out;
    out.instructions = instructions_;
    out.cycles = std::max<uint64_t>(lastRetire_, 1);
    out.branch = pred_.stats();
    out.l1d = l1_.stats();
    out.l2 = l2_.stats();
    return out;
}

namespace
{

using detail::Engine;

/** The timed mode: a TimedCore stepped over the dense
 *  per-PC TimedProgram metadata. Each hook hands the core the
 *  prepared instruction it refers to, so the per-class retire paths
 *  read their metadata straight from the dense array instead of an
 *  in-flight slot; the scheduler's hot scalars ride in the engine's
 *  checked-out Local (TimedCore::Sched), where they stay in
 *  registers. */
struct TimedHooks
{
    TimedCore &core;
    const TimedProgram::Inst *ti;

    using Local = TimedCore::Sched;
    BSYN_FORCE_INLINE Local enter() { return core.makeSched(); }
    BSYN_FORCE_INLINE void leave(Local &l) { core.sync(l); }

    BSYN_FORCE_INLINE void
    onInstruction(Local &l, int pc)
    {
        core.step(l, ti[static_cast<size_t>(pc)], pc);
    }
    BSYN_FORCE_INLINE void
    onMemRead(Local &l, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        core.noteRead(l, ti[static_cast<size_t>(pc)], pc, addr, size);
    }
    BSYN_FORCE_INLINE void
    onMemWrite(Local &l, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        core.noteWrite(l, ti[static_cast<size_t>(pc)], pc, addr, size);
    }
    BSYN_FORCE_INLINE void
    onBranch(Local &l, int pc, bool taken)
    {
        core.noteBranch(l, ti[static_cast<size_t>(pc)], pc, taken);
    }
};

} // namespace

ExecStats
executeOnCore(const DecodedProgram &prog, const TimedProgram &timed,
              TimedCore &core, const ExecLimits &limits)
{
    BSYN_ASSERT(timed.size() == prog.size(),
                "TimedProgram prepared from a different program "
                "(%zu PCs vs %zu)",
                timed.size(), prog.size());
    TimedHooks hooks{core, timed.data()};
    return Engine<TimedHooks>(prog, hooks, limits).run();
}

} // namespace bsyn::sim
