/**
 * @file
 * The reference core timing model: a trace-driven out-of-order /
 * in-order scheduler that consumes the dynamic stream as an
 * ExecObserver, keeps one instruction in flight until the next one
 * arrives, and drives the reference cache and predictors. The timed
 * engine (sim/timed_core.hh) must match it cycle for cycle.
 */

#ifndef BSYN_ORACLE_CORE_MODEL_HH
#define BSYN_ORACLE_CORE_MODEL_HH

#include <array>
#include <memory>

#include "oracle/branch_predictor.hh"
#include "oracle/cache.hh"
#include "sim/core_model.hh"

namespace bsyn::oracle
{

/** Attach to sim::execute() and call finish() afterwards. */
class CoreModel : public sim::ExecObserver
{
  public:
    explicit CoreModel(const sim::CoreConfig &cfg);

    void onInstruction(int pc, const isa::MInst &mi) override;
    void onMemAccess(int pc, uint64_t addr, uint32_t size,
                     bool is_write, uint64_t raw_value = 0) override;
    void onBranch(int pc, bool taken) override;

    /** Attach per-PC event counters. */
    void
    recordEvents(sim::PerPcTimingEvents *e, size_t nPcs)
    {
        events = e;
        if (events)
            events->init(nPcs);
    }

    /** Finalize the last in-flight instruction and return the totals. */
    sim::TimingStats finish();

  private:
    struct Pending
    {
        bool valid = false;
        int pc = 0;
        sim::PreparedTimingInst inst;
        uint64_t extraLatency = 0;
        bool taken = false;
        uint64_t loadAddr = 0;  ///< address read (store-forward check)
        bool hasLoad = false;
        uint64_t storeAddr = 0; ///< address written
        bool hasStore = false;
    };

    void retirePending();
    uint64_t &regReady(int r);

    sim::CoreConfig cfg;
    Cache l1;
    Cache l2cache;
    std::unique_ptr<BranchPredictor> pred;

    Pending pending;
    std::vector<uint64_t> ready; ///< per-register ready cycle

    uint64_t dispatchCycle = 0;
    int dispatchSlots = 0;
    uint64_t lastIssue = 0;
    int issueSlots = 0;
    uint64_t lastRetire = 0;
    uint64_t fetchReady = 0;
    std::vector<uint64_t> robRing; ///< retire cycles of last robSize insts
    size_t robHead = 0;

    uint64_t instructions = 0;

    /**
     * Store-to-load forwarding: completion cycle of the last store per
     * (word-granular) address, so memory-carried dependence chains —
     * ubiquitous in -O0 code — are timed honestly. Direct-mapped and
     * tagged; collisions simply miss (no false dependences).
     */
    static constexpr size_t fwdSlots = 1u << 16;
    struct FwdEntry
    {
        uint64_t addr = ~0ull;
        uint64_t ready = 0;
    };
    std::array<FwdEntry, fwdSlots> storeReady{};

    sim::PerPcTimingEvents *events = nullptr;
};

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_CORE_MODEL_HH
