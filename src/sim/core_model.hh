/**
 * @file
 * Trace-driven processor timing: the core configuration, the timing
 * results and the simulateTiming entry points. The cores are an
 * out-of-order model (ROB, width-limited dispatch, operand-ready
 * scheduling, cache-miss and branch-misprediction penalties) standing
 * in for the paper's PTLSim 2-wide out-of-order configuration, and an
 * in-order (EPIC-like) variant whose performance depends much more
 * strongly on code quality — the property that makes the paper's
 * Itanium 2 respond to -O2/-O3. The scheduler itself is TimedCore
 * (sim/timed_core.hh).
 */

#ifndef BSYN_SIM_CORE_MODEL_HH
#define BSYN_SIM_CORE_MODEL_HH

#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/interpreter.hh"

namespace bsyn::sim
{

class DecodedProgram;

/** Microarchitecture parameters of a core. */
struct CoreConfig
{
    std::string name = "ooo2";
    int width = 2;          ///< dispatch/issue width
    int robSize = 32;       ///< reorder-buffer entries
    bool inOrder = false;   ///< true = EPIC-style in-order issue
    int mispredictPenalty = 10;

    CacheConfig l1d;        ///< level-1 data cache
    int l1HitLatency = 2;   ///< load-to-use latency on a hit
    int l1MissPenalty = 12; ///< additional cycles on an L1 miss (L2 hit)

    bool hasL2 = true;
    CacheConfig l2;         ///< unified second level
    int l2MissPenalty = 120; ///< additional cycles on an L2 miss

    std::string predictor = "tournament";
};

/**
 * Per-PC dynamic timing event counters, for differential comparison
 * against the reference core model at per-instruction granularity
 * (aggregate TimingStats could mask compensating errors; per-PC
 * attribution cannot). Filled only when a caller attaches one via
 * TimedCore::recordEvents.
 */
struct PerPcTimingEvents
{
    std::vector<uint64_t> l1Misses;
    std::vector<uint64_t> l2Misses;
    std::vector<uint64_t> mispredicts;

    void
    init(size_t n)
    {
        l1Misses.assign(n, 0);
        l2Misses.assign(n, 0);
        mispredicts.assign(n, 0);
    }

    bool
    operator==(const PerPcTimingEvents &o) const
    {
        return l1Misses == o.l1Misses && l2Misses == o.l2Misses &&
               mispredicts == o.mispredicts;
    }
};

/** Timing results. */
struct TimingStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    PredictorStats branch;
    CacheStats l1d;
    CacheStats l2;

    double
    cpi() const
    {
        return instructions ? double(cycles) / double(instructions) : 0.0;
    }
};

/** Static scheduling metadata of one PC (see prepareTimingInst). */
struct PreparedTimingInst
{
    isa::MClass cls = isa::MClass::IntAlu;
    int32_t dst = -1;
    int32_t srcs[4] = {-1, -1, -1, -1};
    int8_t numSrcs = 0;
    bool isBranch = false;
    bool isCallRet = false;
    uint32_t fusedLoadLatency = 0;
};

/**
 * Derive one PC's scheduling metadata from its MInst — the single
 * source of truth for every timing path (TimedProgram folds it further
 * for the scheduler; the reference model derives it per retired
 * instruction).
 */
PreparedTimingInst prepareTimingInst(const isa::MInst &mi,
                                     const CoreConfig &cfg);

/**
 * Timing class of an instruction. Unlike MInst::cls() — which follows
 * Pin's memory-behaviour view for the instruction-mix statistics — the
 * scheduler needs the execution latency of the *operation*, with fused
 * memory operands accounted for separately.
 */
isa::MClass timingClass(const isa::MInst &mi);

/** Execution latency of a timing class under @p cfg. */
uint64_t timingBaseLatency(isa::MClass cls, const CoreConfig &cfg);

class TimedProgram;

/** Convenience: execute @p prog under a core model; @return timing.
 *  Decodes once and runs the timed dispatch mode. */
TimingStats simulateTiming(const isa::MachineProgram &prog,
                           const CoreConfig &cfg,
                           const ExecLimits &limits = {});

/** Timed run over an existing decode — callers sweeping one program
 *  across several core configs (Fig 10) decode once and reuse it. */
TimingStats simulateTiming(const DecodedProgram &prog,
                           const CoreConfig &cfg,
                           const ExecLimits &limits = {});

/** Timed run over an existing decode *and* prepared metadata — the
 *  innermost sweep form: one TimedProgram serves every configuration
 *  that shares its latencies (asserted), so a cache-size sweep pays
 *  decode + prepare once. */
TimingStats simulateTiming(const DecodedProgram &prog,
                           const TimedProgram &timed,
                           const CoreConfig &cfg,
                           const ExecLimits &limits = {});

/** Timing stats plus the cycle count observed at each requested
 *  retired-instruction boundary (TimedCore::setCheckpoints). */
struct PhasedTimingStats
{
    TimingStats stats;
    /** checkpointCycles[i] = cycles after boundaries[i] retires; one
     *  entry per boundary actually reached before the run ended. */
    std::vector<uint64_t> checkpointCycles;
};

/** Timed run that records the cycle count at each retired-instruction
 *  boundary — the per-phase CPI primitive (fidelity scoring cuts both
 *  the original and the clone at the original's phase boundaries).
 *  Checkpoints ride the scheduler's retire path, so the
 *  timing result is identical to simulateTiming over the same decode.
 *  @p boundaries must be strictly increasing. */
PhasedTimingStats
simulateTimingPhased(const DecodedProgram &prog, const CoreConfig &cfg,
                     std::vector<uint64_t> boundaries,
                     const ExecLimits &limits = {});

} // namespace bsyn::sim

#endif // BSYN_SIM_CORE_MODEL_HH
