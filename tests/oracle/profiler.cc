#include "oracle/profiler.hh"

#include "isa/lowering.hh"
#include "oracle/cache.hh"
#include "oracle/interpreter.hh"

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
        m.blockExec.assign(static_cast<size_t>(block + 1), 0);
        m.counters.execCount.assign(prog.code.size(), 0);
        m.counters.memAccesses.assign(prog.code.size(), 0);
        m.counters.memMisses.assign(prog.code.size(), 0);
        m.counters.branch.assign(prog.code.size(),
                                 sim::InstrumentedCounters::Branch());
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
        ++m.counters.memAccesses[static_cast<size_t>(pc)];
        if (!cache.access(addr, size))
            ++m.counters.memMisses[static_cast<size_t>(pc)];
    }

    void
    onBranch(int pc, bool taken) override
    {
        // A transition is an outcome that differs from the previous.
        auto &b = m.counters.branch[static_cast<size_t>(pc)];
        ++b.executions;
        b.taken += taken;
        if (b.hasLast && taken != (b.lastOutcome != 0))
            ++b.transitions;
        b.lastOutcome = taken;
        b.hasLast = 1;
    }

  private:
    const isa::MachineProgram &prog;
    Cache cache;
    sim::SliceRecorder &recorder;
    profile::RunMeasurements &m;
    std::vector<int> pcToBlock;

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
