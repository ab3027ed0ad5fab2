#include "oracle/profiler.hh"

#include "isa/lowering.hh"
#include "oracle/cache.hh"
#include "oracle/interpreter.hh"
#include "support/error.hh"

namespace bsyn::oracle
{

namespace
{

using isa::MInst;
using isa::MKind;

/** Fills one run's measurements from the callback stream. */
class ProfileObserver : public sim::ExecObserver
{
  public:
    ProfileObserver(const isa::MachineProgram &p,
                    const sim::CacheConfig &cache_cfg,
                    sim::SliceRecorder &rec, profile::RunMeasurements &out)
        : prog(p), cache(cache_cfg), recorder(rec), m(out)
    {
        // An SFGL block is a maximal run of PCs lowered from one IR
        // block of one function.
        int block = -1;
        for (size_t pc = 0; pc < prog.code.size(); ++pc) {
            const MInst &mi = prog.code[pc];
            if (pc == 0 || prog.code[pc - 1].funcId != mi.funcId ||
                prog.code[pc - 1].irBlockId != mi.irBlockId)
                ++block;
            pcToBlock.push_back(block);
        }
        size_t n = prog.code.size();
        m.blockExec.assign(static_cast<size_t>(block + 1), 0);
        m.counters.execCount.assign(n, 0);
        m.counters.memMisses.assign(n, 0);
        m.counters.branch.assign(n, sim::InstrumentedCounters::Branch());
        accesses.assign(n, 0);
        branchExecutions.assign(n, 0);
        lastOutcome.assign(n, -1);
    }

    void
    onInstruction(int pc, const MInst &mi) override
    {
        // Checkpoint before counting: a boundary never splits one
        // instruction's events across two slices.
        recorder.beforeRetire(m.counters);
        ++m.counters.execCount[static_cast<size_t>(pc)];
        m.mix.add(mi.cls());

        // A block "starts" at a PC whose predecessor PC belongs to a
        // different block. Returns land mid-block (just after the call
        // instruction), so they do not retrigger a block start — the
        // IR block's execution simply continues.
        int block = pcToBlock[static_cast<size_t>(pc)];
        bool block_start =
            pc == 0 || pcToBlock[static_cast<size_t>(pc - 1)] != block;
        if (block_start) {
            ++m.blockExec[static_cast<size_t>(block)];
            if (lastBlock >= 0 && lastWasIntraFunc &&
                prog.code[static_cast<size_t>(lastPc)].funcId ==
                    mi.funcId) {
                ++m.edges[{lastBlock, block}];
            }
        }

        lastWasIntraFunc =
            mi.kind != MKind::Call && mi.kind != MKind::Ret;
        lastBlock = block;
        lastPc = pc;
    }

    void
    onMemAccess(int pc, uint64_t addr, uint32_t size, bool,
                uint64_t) override
    {
        ++accesses[static_cast<size_t>(pc)];
        if (!cache.access(addr, size))
            ++m.counters.memMisses[static_cast<size_t>(pc)];
    }

    void
    onBranch(int pc, bool taken) override
    {
        // A transition is an outcome that differs from the previous.
        auto &b = m.counters.branch[static_cast<size_t>(pc)];
        ++branchExecutions[static_cast<size_t>(pc)];
        b.taken += taken;
        int &last = lastOutcome[static_cast<size_t>(pc)];
        if (last >= 0 && taken != (last != 0))
            ++b.transitions;
        last = taken;
    }

    /**
     * The fused profiler counts neither accesses nor branch executions:
     * profile::derivedAccesses and derivedBranches derive them from the
     * exec counts. Panics unless what this run observed at every PC is
     * what they derive.
     */
    void
    checkDerivedCounts() const
    {
        for (size_t pc = 0; pc < prog.code.size(); ++pc) {
            const MInst &mi = prog.code[pc];
            uint64_t exec = m.counters.execCount[pc];
            uint64_t derived[] = {profile::derivedAccesses(mi, exec),
                                  profile::derivedBranches(mi, exec)};
            if (accesses[pc] != derived[0] ||
                branchExecutions[pc] != derived[1])
                panic("reference profiler: pc %zu retired %llu times and "
                      "made %llu accesses and %llu branch executions, "
                      "not the derived %llu and %llu",
                      pc, static_cast<unsigned long long>(exec),
                      static_cast<unsigned long long>(accesses[pc]),
                      static_cast<unsigned long long>(branchExecutions[pc]),
                      static_cast<unsigned long long>(derived[0]),
                      static_cast<unsigned long long>(derived[1]));
        }
    }

  private:
    const isa::MachineProgram &prog;
    Cache cache;
    sim::SliceRecorder &recorder;
    profile::RunMeasurements &m;
    std::vector<int> pcToBlock;

    // Counted here, from the callback stream, only to check the
    // derivation: the measurements do not hold them.
    std::vector<uint64_t> accesses;
    std::vector<uint64_t> branchExecutions;
    std::vector<int> lastOutcome; ///< -1 before the first outcome

    int lastBlock = -1;
    int lastPc = 0;
    bool lastWasIntraFunc = false;
};

} // namespace

profile::StatisticalProfile
profileWorkload(const ir::Module &mod, const isa::MachineProgram &prog,
                const profile::ProfileOptions &opts)
{
    profile::RunMeasurements run;
    sim::SliceRecorder rec(opts.sliceOptions(), &run.slices);
    ProfileObserver obs(prog, opts.profilingCache, rec, run);
    run.exec = executeReference(prog, &obs);
    rec.finish(run.counters);
    obs.checkDerivedCounts();
    return profile::assembleProfile(mod, prog, run);
}

profile::StatisticalProfile
profileModule(const ir::Module &mod, const profile::ProfileOptions &opts)
{
    isa::LoweringOptions lopts;
    lopts.applyFusion = false;
    return oracle::profileWorkload(
        mod, isa::lower(mod, isa::targetX86(), lopts), opts);
}

} // namespace bsyn::oracle
