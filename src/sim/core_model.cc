#include "sim/core_model.hh"

#include <utility>

#include "sim/decoded_program.hh"
#include "sim/timed_core.hh"
#include "support/error.hh"

namespace bsyn::sim
{

using isa::MClass;
using isa::MInst;
using isa::MKind;

uint64_t
timingBaseLatency(MClass cls, const CoreConfig &cfg)
{
    switch (cls) {
      case MClass::IntAlu: return 1;
      case MClass::IntMul: return 4;
      case MClass::IntDiv: return 24;
      case MClass::FpAlu: return 5;   // x87-era add/sub/convert
      case MClass::FpMul: return 7;
      case MClass::FpDiv: return 38;
      case MClass::Load: return static_cast<uint64_t>(cfg.l1HitLatency);
      case MClass::Store: return 1;
      case MClass::Branch: return 1;
      case MClass::Jump: return 1;
      case MClass::Call: return 2;
      case MClass::Ret: return 2;
      case MClass::Other: return 1;
    }
    return 1;
}

MClass
timingClass(const MInst &mi)
{
    if (mi.kind != MKind::Compute)
        return mi.cls();
    switch (mi.op) {
      case ir::Opcode::Mul:
        return MClass::IntMul;
      case ir::Opcode::Div:
      case ir::Opcode::Rem:
        return MClass::IntDiv;
      case ir::Opcode::FMul:
        return MClass::FpMul;
      case ir::Opcode::FDiv:
        return MClass::FpDiv;
      case ir::Opcode::FAdd:
      case ir::Opcode::FSub:
      case ir::Opcode::FNeg:
      case ir::Opcode::CvtIF:
      case ir::Opcode::CvtFI:
        return MClass::FpAlu;
      default:
        return MClass::IntAlu;
    }
}

PreparedTimingInst
prepareTimingInst(const MInst &mi, const CoreConfig &cfg)
{
    PreparedTimingInst p;
    p.cls = timingClass(mi);
    p.dst = mi.dst;
    // A fused load operand serializes in front of the operation.
    if (mi.kind == MKind::Compute && mi.loadFused)
        p.fusedLoadLatency = static_cast<uint32_t>(cfg.l1HitLatency);
    p.isBranch = mi.kind == MKind::CondBr;
    p.isCallRet = mi.kind == MKind::Call || mi.kind == MKind::Ret;
    auto addSrc = [&](int r) {
        if (r >= 0 && p.numSrcs < 4)
            p.srcs[p.numSrcs++] = r;
    };
    addSrc(mi.src0);
    addSrc(mi.src1);
    if (mi.memValid)
        addSrc(mi.mem.indexReg);
    // Call/print argument registers gate issue too (cap at 4 tracked).
    for (int a : mi.args)
        addSrc(a);
    return p;
}

TimingStats
simulateTiming(const isa::MachineProgram &prog, const CoreConfig &cfg,
               const ExecLimits &limits)
{
    return simulateTiming(DecodedProgram(prog), cfg, limits);
}

TimingStats
simulateTiming(const DecodedProgram &prog, const CoreConfig &cfg,
               const ExecLimits &limits)
{
    return simulateTiming(prog, TimedProgram(prog, cfg), cfg, limits);
}

TimingStats
simulateTiming(const DecodedProgram &prog, const TimedProgram &timed,
               const CoreConfig &cfg, const ExecLimits &limits)
{
    BSYN_ASSERT(timed.l1HitLatency() == cfg.l1HitLatency,
                "TimedProgram prepared for l1HitLatency=%d replayed "
                "under l1HitLatency=%d",
                timed.l1HitLatency(), cfg.l1HitLatency);
    TimedCore core(cfg);
    executeOnCore(prog, timed, core, limits);
    return core.finish();
}

PhasedTimingStats
simulateTimingPhased(const DecodedProgram &prog, const CoreConfig &cfg,
                     std::vector<uint64_t> boundaries,
                     const ExecLimits &limits)
{
    TimedProgram timed(prog, cfg);
    TimedCore core(cfg);
    core.setCheckpoints(std::move(boundaries));
    executeOnCore(prog, timed, core, limits);
    PhasedTimingStats out;
    out.stats = core.finish();
    out.checkpointCycles = core.checkpointCycles();
    return out;
}

} // namespace bsyn::sim
