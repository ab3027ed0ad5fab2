/**
 * @file
 * The timing engine: per-PC scheduling metadata baked at decode/prepare
 * time (TimedProgram) and the out-of-order/in-order scheduler
 * (TimedCore) driving sim::Cache and sim::BranchPredictor inline from
 * the timed dispatch mode (executeOnCore). The golden trace-driven
 * core model it must match cycle-for-cycle lives in tests/oracle (the
 * differential-timing suite asserts TimingStats, ExecStats and the
 * per-PC event counters identical).
 *
 * What makes it fast:
 *  - no virtual predictor calls and no double predict: predict() is
 *    pure in every predictor kind, so one predict-and-train table walk
 *    per branch resolves both the mispredict check and the training;
 *  - no per-instruction Pending struct copy: each instruction retires
 *    at the point its last dynamic fact arrives (hook-free ones at
 *    dispatch, loads at the read hook, stores at the write hook,
 *    branches at the branch hook — the retire point is resolved per
 *    PC at prepare time), so nothing is carried across handlers;
 *  - the ROB ring advances by compare-and-reset instead of a runtime
 *    integer modulo;
 *  - the cache's same-line memo batches the tag checks of consecutive
 *    accesses to one cache line, and only the L1 memo check is inlined
 *    into the memory handlers (the L2 lookup behind a miss is cold);
 *  - base latencies, source registers and the predictor table index
 *    are read from a dense per-PC array prepared once (and reusable
 *    across sweep points with equal latencies — see TimedProgram).
 */

#ifndef BSYN_SIM_TIMED_CORE_HH
#define BSYN_SIM_TIMED_CORE_HH

#include <cstdint>
#include <vector>

#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/core_model.hh"
#include "sim/decoded_program.hh"
#include "support/inline.hh"

namespace bsyn::sim
{

/**
 * Scheduling metadata of one program prepared for one latency
 * configuration: prepareTimingInst() for every PC, with the
 * base latency pre-folded (so the scheduler adds one precomputed
 * number instead of switching on the class) and the predictor table
 * index pre-masked. Depends on the CoreConfig only through
 * l1HitLatency — cache geometry, predictor choice and core width are
 * runtime state of TimedCore — so one TimedProgram serves every point
 * of a cache-size sweep (Fig 10) over the same decode.
 */
class TimedProgram
{
  public:
    /**
     * One PC's scheduling metadata, laid out so the scheduler's inner
     * loop is branch-free: register operands are pre-encoded as
     * indices into TimedCore's ready table (slot 0 is a write sink for
     * dst-less instructions, slot 1 a read-only always-zero slot for
     * unused sources, registers live at +2), so every instruction
     * reads exactly four source slots and writes exactly one — no
     * per-slot validity tests, no operand-count loop.
     */
    struct Inst
    {
        uint32_t lat = 1;  ///< baseLatency(class) + fused-load latency
        uint32_t dst = 0;  ///< ready-table index (0 = no destination)
        uint32_t srcs[4] = {1, 1, 1, 1}; ///< ready-table indices
        uint32_t maxReg = 1; ///< highest ready-table index touched
        uint16_t predIdx = 0; ///< pc & predictor table mask
        uint8_t flags = 0;
    };

    static constexpr uint8_t kBranch = 1u << 0;
    static constexpr uint8_t kCallRet = 1u << 1;
    /** No memory access, no branch, no call/return: the handler fires
     *  no timing hooks, so the scheduler retires the instruction
     *  immediately at step() instead of putting it in flight. */
    static constexpr uint8_t kSimple = 1u << 2;
    /** Reads memory but never writes it (plain load or fused-load-only
     *  compute): onMemRead is the last dynamic fact, so the scheduler
     *  retires there. Load-op-stores clear this and retire at
     *  onMemWrite instead, carrying the load's penalty and address. */
    static constexpr uint8_t kRetireAtRead = 1u << 3;

    TimedProgram(const DecodedProgram &prog, const CoreConfig &cfg);

    const Inst *data() const { return insts_.data(); }
    size_t size() const { return insts_.size(); }

    /** The latency fingerprint the metadata was folded under; a core
     *  config replayed over this program must agree (asserted by
     *  simulateTiming). */
    int l1HitLatency() const { return l1HitLatency_; }

  private:
    std::vector<Inst> insts_;
    int l1HitLatency_ = 0;
};

/**
 * The core scheduler: the reference model's monolithic retire step
 * split into per-class retire points that run inside the hook
 * delivering the instruction's last dynamic fact. Drive it through
 * executeOnCore(); cycle counts, cache stats and predictor stats are
 * bit-identical to the reference core model (tests/oracle) on the same
 * stream.
 */
class TimedCore
{
  public:
    explicit TimedCore(const CoreConfig &cfg);

    /** Store-to-load forwarding table entry, same geometry and
     *  semantics as the reference model's. Load lookups index with
     *  `addr & (kFwdSlots - 1)` and verify the full address. */
    static constexpr size_t kFwdSlots = 1u << 16;
    struct FwdEntry
    {
        uint64_t addr = ~0ull;
        uint64_t ready = 0;
    };

    /**
     * Sentinel word address for "no fused load this instruction". Real
     * word addresses (byte address >> 2) can never reach this value:
     * retireStore's probe with it indexes a real forwarding slot but
     * can never match a stored address.
     */
    static constexpr uint64_t kNoLoad = ~0ull;

    /**
     * The scheduler's hot state as a plain value, checked out with
     * makeSched() and written back with sync(). The dispatch loop
     * keeps one of these in its own stack frame (see the engine's
     * enter()/leave() hook protocol): because its address never
     * escapes — the cold spill paths growReadyCold/cutCheckpointCold
     * take and return scalars — the compiler can hold the whole
     * struct in registers across the simulated program's memory
     * writes, which would otherwise force a reload of every member on
     * every handler. Moving this state out of TimedCore members
     * roughly triples simple-retire throughput.
     */
    struct Sched
    {
        // Carry state between step() and the retiring hook.
        uint64_t extra = 0;
        uint64_t loadAddr = kNoLoad;
        uint64_t issuePre = 0;
        // Dispatch / issue / retire scalars.
        uint64_t dispatchCycle = 0;
        uint64_t lastIssue = 0;
        uint64_t lastRetire = 0;
        uint64_t fetchReady = 0;
        uint64_t instructions = 0;
        uint64_t nextCheck = ~0ull;
        int dispatchSlots = 0;
        int issueSlots = 0;
        size_t robHead = 0;
        // Table views (the vectors stay owned by TimedCore).
        uint64_t *ready = nullptr;
        size_t readySize = 0;
        uint64_t *rob = nullptr;
        size_t robSize = 1;
        FwdEntry *fwd = nullptr;
        // Run constants, copied so reads never touch the core object
        // (whose fields the compiler must assume the simulated
        // program's stores may alias).
        int width = 2;
        bool inOrder = false;
        bool hasL2 = true;
        uint64_t mispredictPenalty = 10;
        uint64_t l1MissPenalty = 12;
        uint64_t l2MissPenalty = 120;
        PerPcTimingEvents *events = nullptr;
    };

    /**
     * Check out the hot state for a dispatch run. Defined inline: if
     * this call (or sync below) stayed out of line, the dispatch
     * loop's Sched would have its address taken by an opaque callee
     * and the compiler could no longer scalarize it into registers.
     */
    BSYN_FORCE_INLINE Sched
    makeSched()
    {
        Sched s;
        s.dispatchCycle = dispatchCycle_;
        s.lastIssue = lastIssue_;
        s.lastRetire = lastRetire_;
        s.fetchReady = fetchReady_;
        s.instructions = instructions_;
        s.nextCheck = nextCheck_;
        s.dispatchSlots = dispatchSlots_;
        s.issueSlots = issueSlots_;
        s.robHead = robHead_;
        s.ready = ready_.data();
        s.readySize = readySize_;
        s.rob = rob_.data();
        s.robSize = robSize_;
        s.fwd = fwd_.data();
        s.width = width_;
        s.inOrder = inOrder_;
        s.hasL2 = hasL2_;
        s.mispredictPenalty = mispredictPenalty_;
        s.l1MissPenalty = l1MissPenalty_;
        s.l2MissPenalty = l2MissPenalty_;
        s.events = events_;
        return s;
    }

    /** Write a checked-out state back (finish() reads members). */
    BSYN_FORCE_INLINE void
    sync(const Sched &s)
    {
        dispatchCycle_ = s.dispatchCycle;
        lastIssue_ = s.lastIssue;
        lastRetire_ = s.lastRetire;
        fetchReady_ = s.fetchReady;
        instructions_ = s.instructions;
        nextCheck_ = s.nextCheck;
        dispatchSlots_ = s.dispatchSlots;
        issueSlots_ = s.issueSlots;
        robHead_ = s.robHead;
        // readySize_ is already current: growReadyCold maintains it
        // (the vectors themselves never left the core).
    }

    /** Attach per-PC event counters (differential testing). */
    void
    recordEvents(PerPcTimingEvents *e, size_t nPcs)
    {
        events_ = e;
        if (events_)
            events_->init(nPcs);
    }

    /**
     * Record the cycle count at retired-instruction boundaries (for
     * per-phase CPI): after boundary[i] instructions have retired, the
     * core's cycle count so far is checkpointCycles()[i]. Boundaries
     * must be strictly increasing; one compare per retire otherwise.
     */
    void setCheckpoints(std::vector<uint64_t> boundaries);

    const std::vector<uint64_t> &checkpointCycles() const
    {
        return checkCycles_;
    }

    /**
     * Dispatch the instruction at @p pc.
     *
     * Every instruction retires at the point where its last dynamic
     * fact becomes known, with the per-PC retire point resolved at
     * prepare time. kSimple and call/return instructions fire no
     * hooks, so they retire entirely here, fused with their dispatch
     * and operand-readiness computation. Memory and branch
     * instructions compute their dispatch half now (overlapping with
     * the handler body) and retire inside noteRead / noteWrite /
     * noteBranch — so no instruction is ever carried in flight across
     * handlers, and the scheduler keeps no per-instruction pending
     * state beyond the precomputed issue cycle.
     */
    BSYN_FORCE_INLINE void
    step(Sched &s, const TimedProgram::Inst &ti, int pc)
    {
        (void)pc;
        if (ti.flags &
            (TimedProgram::kSimple | TimedProgram::kCallRet)) {
            retireLocal(s, ti);
            return;
        }
        s.extra = 0;
        s.loadAddr = kNoLoad;
        s.issuePre = frontHalf(s, ti);
    }

    /** A load (or the fused-load half of a compute) at @p pc. Retire
     *  point for everything except load-op-store instructions, which
     *  carry the penalty and address to their write. */
    BSYN_FORCE_INLINE void
    noteRead(Sched &s, const TimedProgram::Inst &ti, int pc,
             uint64_t addr, uint32_t size)
    {
        bool l1_hit = l1_.access(addr, size);
        bool l2_hit = true;
        if (!l1_hit && s.hasL2)
            l2_hit = accessL2Cold(addr, size);
        uint64_t penalty = 0;
        if (!l1_hit) {
            penalty = s.l1MissPenalty;
            if (s.hasL2 && !l2_hit)
                penalty += s.l2MissPenalty;
            if (s.events) {
                ++s.events->l1Misses[static_cast<size_t>(pc)];
                if (s.hasL2 && !l2_hit)
                    ++s.events->l2Misses[static_cast<size_t>(pc)];
            }
        }
        if (ti.flags & TimedProgram::kRetireAtRead)
            retireLoad(s, ti, addr >> 2, penalty);
        else {
            s.extra = penalty;
            s.loadAddr = addr >> 2; // word granularity
        }
    }

    /** A store (or fused-store half of a compute) at @p pc — always
     *  the retire point. Store misses record events but add no
     *  latency: stores retire without stalling the chain. */
    BSYN_FORCE_INLINE void
    noteWrite(Sched &s, const TimedProgram::Inst &ti, int pc,
              uint64_t addr, uint32_t size)
    {
        bool l1_hit = l1_.access(addr, size);
        bool l2_hit = true;
        if (!l1_hit && s.hasL2)
            l2_hit = accessL2Cold(addr, size);
        if (s.events && !l1_hit) {
            ++s.events->l1Misses[static_cast<size_t>(pc)];
            if (s.hasL2 && !l2_hit)
                ++s.events->l2Misses[static_cast<size_t>(pc)];
        }
        retireStore(s, ti, addr >> 2);
    }

    /** A conditional branch resolving at @p pc — its retire point. */
    BSYN_FORCE_INLINE void
    noteBranch(Sched &s, const TimedProgram::Inst &ti, int pc,
               bool taken)
    {
        uint64_t complete = retireCommon(s, ti, s.issuePre, 0);
        bool predicted = pred_.predictAndTrain(ti.predIdx, taken);
        if (predicted != taken) {
            if (s.events)
                ++s.events->mispredicts[static_cast<size_t>(pc)];
            uint64_t redo = complete + s.mispredictPenalty;
            if (redo > s.fetchReady)
                s.fetchReady = redo;
        }
    }

    /** @return the totals. Nothing is left in flight: every
     *  instruction retired at its hook or dispatch point. */
    TimingStats finish();

  private:
    /**
     * Dispatch + operand readiness for the instruction about to go in
     * flight (or retire immediately, for kSimple). Depends only on
     * post-previous-retirement state. Written as conditional moves —
     * the lag/width conditions flip data-dependently, and a mispredict
     * here would cost more than the arithmetic. @return the issue
     * cycle before store-forwarding and in-order constraints.
     */
    BSYN_FORCE_INLINE uint64_t
    frontHalf(Sched &s, const TimedProgram::Inst &ti)
    {
        // Dispatch: width-limited, gated by fetch redirect + ROB
        // space. (The reference re-clamps to min_dispatch after the
        // width rollover; that clamp is provably dead — the first
        // condition already established dispatchCycle >= min_dispatch
        // — so it is dropped here.)
        uint64_t rob_free = s.rob[s.robHead];
        uint64_t min_dispatch =
            s.fetchReady > rob_free ? s.fetchReady : rob_free;
        uint64_t c = s.dispatchCycle;
        int sl = s.dispatchSlots;
        bool lag = min_dispatch > c;
        c = lag ? min_dispatch : c;
        sl = lag ? 0 : sl;
        bool full = sl >= s.width;
        c += full ? 1 : 0;
        sl = full ? 0 : sl;
        s.dispatchCycle = c;
        s.dispatchSlots = sl + 1;

        // One watermark check covers every ready-table access (the
        // reference grows per touched register to idx + 64; one grow
        // to the max touched index lands on the same watermark). The
        // cold grow path takes and returns scalars so the checked-out
        // state's address never escapes this inlined body.
        if (ti.maxReg >= s.readySize) {
            s.ready = growReadyCold(ti.maxReg);
            s.readySize = readySize_;
        }

        // All four source slots load unconditionally — unused ones hit
        // the always-zero slot.
        uint64_t r0 = s.ready[ti.srcs[0]];
        uint64_t r1 = s.ready[ti.srcs[1]];
        uint64_t r2 = s.ready[ti.srcs[2]];
        uint64_t r3 = s.ready[ti.srcs[3]];
        uint64_t r01 = r0 > r1 ? r0 : r1;
        uint64_t r23 = r2 > r3 ? r2 : r3;
        uint64_t rmax = r01 > r23 ? r01 : r23;
        return rmax > c ? rmax : c;
    }

    /** In-order issue-port constraint: no-op for out-of-order cores. */
    BSYN_FORCE_INLINE uint64_t
    applyInOrder(Sched &s, uint64_t issue)
    {
        if (s.inOrder) {
            if (issue < s.lastIssue)
                issue = s.lastIssue;
            if (issue == s.lastIssue && s.issueSlots >= s.width)
                issue = s.lastIssue + 1;
            if (issue != s.lastIssue) {
                s.lastIssue = issue;
                s.issueSlots = 0;
            }
            ++s.issueSlots;
        }
        return issue;
    }

    /**
     * The retirement obligations every instruction shares: the
     * in-order issue constraint, the writeback (unconditional —
     * dst-less instructions hit the slot-0 write sink, never read),
     * the ROB advance (compare-and-reset, same wrap as the reference's
     * modulo) and the checkpoint cut. The class-specific extras the
     * callers append — forwarding-entry write, call/return readiness
     * sweep, branch resolution — touch none of the state read here, so
     * appending them after the common tail is order-equivalent to the
     * reference's monolithic retirePending(). @return the completion
     * cycle for those extras.
     */
    BSYN_FORCE_INLINE uint64_t
    retireCommon(Sched &s, const TimedProgram::Inst &ti,
                 uint64_t issue, uint64_t extra)
    {
        ++s.instructions;
        issue = applyInOrder(s, issue);
        uint64_t complete = issue + ti.lat + extra;
        s.ready[ti.dst] = complete;
        uint64_t ret = complete > s.lastRetire ? complete : s.lastRetire;
        s.lastRetire = ret;
        s.rob[s.robHead] = ret;
        if (++s.robHead == s.robSize)
            s.robHead = 0;
        if (s.instructions == s.nextCheck)
            s.nextCheck = cutCheckpointCold(s.lastRetire);
        return complete;
    }

    /** Hook-free instructions (kSimple and call/return) retire fused
     *  with their dispatch: no store-forward probe (nothing to match),
     *  no miss penalty, no branch resolution. Call/return additionally
     *  approximates the frame switch by making every register grown so
     *  far ready at completion (slots 0/1 — sink/zero — skipped: the
     *  zero slot must stay zero). */
    BSYN_FORCE_INLINE void
    retireLocal(Sched &s, const TimedProgram::Inst &ti)
    {
        uint64_t complete = retireCommon(s, ti, frontHalf(s, ti), 0);
        if (ti.flags & TimedProgram::kCallRet) {
            for (size_t i = 2; i < s.readySize; ++i)
                if (s.ready[i] < complete)
                    s.ready[i] = complete;
        }
    }

    /** Retire a load (kRetireAtRead) at its onMemRead hook. */
    BSYN_FORCE_INLINE void
    retireLoad(Sched &s, const TimedProgram::Inst &ti, uint64_t waddr,
               uint64_t penalty)
    {
        const FwdEntry &e = s.fwd[waddr & (kFwdSlots - 1)];
        uint64_t issue = s.issuePre;
        uint64_t fwd_ready = e.addr == waddr ? e.ready : 0;
        if (fwd_ready > issue)
            issue = fwd_ready;
        retireCommon(s, ti, issue, penalty);
    }

    /** Retire a store at its onMemWrite hook. The forward probe uses
     *  loadAddr — the fused-load address a load-op-store carried from
     *  its read hook, or kNoLoad (matches nothing) for plain stores.
     *  extra carries the fused load's miss penalty the same way. */
    BSYN_FORCE_INLINE void
    retireStore(Sched &s, const TimedProgram::Inst &ti, uint64_t waddr)
    {
        const FwdEntry &e = s.fwd[s.loadAddr & (kFwdSlots - 1)];
        uint64_t issue = s.issuePre;
        uint64_t fwd_ready = e.addr == s.loadAddr ? e.ready : 0;
        if (fwd_ready > issue)
            issue = fwd_ready;
        uint64_t complete = retireCommon(s, ti, issue, s.extra);
        FwdEntry &w = s.fwd[waddr & (kFwdSlots - 1)];
        w.addr = waddr;
        w.ready = complete;
    }

    /** Cold: grow the ready table to cover @p idx (reference's lazy
     *  watermark); @return the fresh data pointer for the checked-out
     *  state. Takes/returns scalars only — see Sched. */
    uint64_t *growReadyCold(size_t idx);

    /** Cold: record a checkpoint cut at @p last_retire; @return the
     *  next boundary. Takes/returns scalars only — see Sched. */
    uint64_t cutCheckpointCold(uint64_t last_retire);

    /** Cold: the L2 lookup behind an L1 miss. */
    bool accessL2Cold(uint64_t addr, uint32_t size);

    Cache l1_;
    Cache l2_;
    BranchPredictor pred_;

    // Core parameters, copied out of CoreConfig.
    int width_ = 2;
    bool inOrder_ = false;
    bool hasL2_ = true;
    uint64_t mispredictPenalty_ = 10;
    uint64_t l1MissPenalty_ = 12;
    uint64_t l2MissPenalty_ = 120;

    /**
     * Per-register ready cycles in the shifted layout the prepared
     * operand indices address: slot 0 is the dst write sink (garbage,
     * never read), slot 1 the always-zero source slot (never written),
     * registers at +2. readySize_ replicates the reference's lazy
     * growth watermark exactly: a call/return maxes only the registers
     * the table has been grown to, so a register first touched *after*
     * a call must still read 0 — pre-sizing the whole table would time
     * such programs differently from the golden model.
     */
    std::vector<uint64_t> ready_;
    size_t readySize_ = 0;
    uint64_t dispatchCycle_ = 0;
    int dispatchSlots_ = 0;
    uint64_t lastIssue_ = 0;
    int issueSlots_ = 0;
    uint64_t lastRetire_ = 0;
    uint64_t fetchReady_ = 0;
    std::vector<uint64_t> rob_;
    size_t robHead_ = 0;
    size_t robSize_ = 1;
    uint64_t instructions_ = 0;
    std::vector<FwdEntry> fwd_;

    PerPcTimingEvents *events_ = nullptr;
    std::vector<uint64_t> checkBounds_;
    std::vector<uint64_t> checkCycles_;
    size_t checkNextIdx_ = 0;
    uint64_t nextCheck_ = ~0ull;
};

/**
 * Execute @p prog on the timed dispatch mode, driving @p core. @p timed
 * must be prepared from the same decode; call core.finish() afterwards.
 * Semantics and ExecStats are identical to execute().
 */
ExecStats executeOnCore(const DecodedProgram &prog,
                        const TimedProgram &timed, TimedCore &core,
                        const ExecLimits &limits = {});

} // namespace bsyn::sim

#endif // BSYN_SIM_TIMED_CORE_HH
