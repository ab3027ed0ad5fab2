/**
 * @file
 * The threaded-dispatch loop every execution mode runs, templated over
 * the mode's hooks. Internal to sim: decoded_program.cc instantiates
 * the fast, observer and profiling modes and timed_core.cc the timed
 * mode, so the largest loop compiles in its own translation unit and
 * its inlining does not depend on the other modes.
 */

#ifndef BSYN_SIM_DISPATCH_HH
#define BSYN_SIM_DISPATCH_HH

#include <cmath>

#include "sim/decoded_program.hh"
#include "sim/memory_image.hh"
#include "sim/printf_format.hh"
#include "sim/value_bits.hh"
#include "support/error.hh"
#include "support/inline.hh"

// Threaded dispatch needs the GNU computed-goto extension; elsewhere the
// same handler bodies compile into a dense switch.
#if defined(__GNUC__) || defined(__clang__)
#define BSYN_COMPUTED_GOTO 1
#else
#define BSYN_COMPUTED_GOTO 0
#endif

namespace bsyn::sim::detail
{

using isa::MInst;

/** A call frame: registers live in a shared stack for speed. */
struct Frame
{
    int funcIndex = -1;
    size_t regBase = 0;
    uint64_t fp = 0;
    int retPc = -1;
    int retDst = -1;
};

/** Fetch one pre-split compute operand. */
inline uint64_t
fetchOperand(uint8_t mode, int32_t r, uint64_t imm, uint64_t fused,
             const uint64_t *regs)
{
    if (mode == OperandReg)
        return regs[static_cast<size_t>(r)];
    if (mode == OperandImm)
        return imm;
    return fused;
}

/**
 * The threaded-dispatch execution engine, templated over the
 * instrumentation mode. Each Hooks type (NullHooks, ObserverHooks and
 * ProfileHooks in decoded_program.cc, TimedHooks in timed_core.cc)
 * instantiates its own copy of the dispatch loop (its own
 * computed-goto handler table) with the hook bodies inlined into the
 * handlers, so the fast path carries no callback sites at all and the
 * instrumented modes pay plain counter updates instead of virtual
 * calls.
 *
 * Each Hooks type additionally defines a Local value type the engine
 * checks out with enter() before the first dispatch, threads through
 * every hook call, and hands back with leave() on exit. Hot per-mode
 * state placed there lives in the dispatch loop's own stack frame —
 * its address never escapes, so the compiler can keep it in registers
 * across the simulated program's memory writes, which member state
 * behind the hooks reference cannot be (every handler store would
 * force a reload). Modes without register-resident state use an empty
 * Local, which compiles away.
 */
template <class Hooks>
class Engine
{
  public:
    Engine(const DecodedProgram &dp, Hooks &h, const ExecLimits &lim)
        : prog(dp.program()), dcode(dp.code().data()), hooks(h),
          limits(lim), mem(prog.globals)
    {}

    ExecStats run();

  private:
    BSYN_FORCE_INLINE uint64_t
    ea(const DecodedInst &d) const
    {
        uint64_t base = (d.flags & DecodedInst::kMemFrame)
                            ? curFp
                            : mem.globalAddress(d.memSym);
        int64_t index = 0;
        if (d.memIndex >= 0)
            index = static_cast<int64_t>(
                        asI32(regs[static_cast<size_t>(d.memIndex)])) *
                    d.memScale;
        return base + static_cast<uint64_t>(
                          index + static_cast<int64_t>(d.memOffset));
    }

    BSYN_FORCE_INLINE void
    noteRead(typename Hooks::Local &l, int pc, uint64_t addr,
             uint32_t size, uint64_t raw)
    {
        ++stats.memReads;
        hooks.onMemRead(l, pc, addr, size, raw);
    }

    BSYN_FORCE_INLINE void
    noteWrite(typename Hooks::Local &l, int pc, uint64_t addr,
              uint32_t size, uint64_t raw)
    {
        ++stats.memWrites;
        hooks.onMemWrite(l, pc, addr, size, raw);
    }

    BSYN_FORCE_INLINE uint64_t
    fusedLoad(typename Hooks::Local &l, const DecodedInst &d, int pc)
    {
        uint64_t addr = ea(d);
        uint64_t v;
        uint32_t size;
        if (d.flags & DecodedInst::kMem64) {
            v = mem.load64(addr);
            size = 8;
        } else {
            v = mem.load32(addr);
            size = 4;
        }
        noteRead(l, pc, addr, size, v);
        return v;
    }

    BSYN_FORCE_INLINE void
    finishCompute(typename Hooks::Local &l, const DecodedInst &d,
                  uint64_t result, int pc)
    {
        if (d.dst >= 0)
            regs[static_cast<size_t>(d.dst)] = result;
        if (d.flags & DecodedInst::kFusedStore) {
            uint64_t addr = ea(d);
            uint32_t size;
            if (d.flags & DecodedInst::kMem64) {
                mem.store64(addr, result);
                size = 8;
            } else {
                mem.store32(addr, asU32(result));
                size = 4;
            }
            noteWrite(l, pc, addr, size, result);
        }
    }

    void
    pushFrame(int func_index, int ret_pc, int ret_dst)
    {
        const isa::MFunction &fn =
            prog.funcs[static_cast<size_t>(func_index)];
        uint64_t frame_bytes = (fn.frameSize + 15u) & ~15u;
        if (sp < mem.stackLimit() + frame_bytes)
            fatal("stack overflow in '%s'", fn.name.c_str());
        sp -= frame_bytes;

        Frame f;
        f.funcIndex = func_index;
        f.regBase = regStack.size();
        f.fp = sp;
        f.retPc = ret_pc;
        f.retDst = ret_dst;
        regStack.resize(regStack.size() + fn.numRegs, 0);
        frames.push_back(f);
        regs = regStack.data() + f.regBase;
        curFp = sp;
    }

    void
    popFrame()
    {
        const Frame &f = frames.back();
        const isa::MFunction &fn =
            prog.funcs[static_cast<size_t>(f.funcIndex)];
        sp += (fn.frameSize + 15u) & ~15u;
        regStack.resize(f.regBase);
        frames.pop_back();
        if (!frames.empty()) {
            regs = regStack.data() + frames.back().regBase;
            curFp = frames.back().fp;
        }
    }

    [[noreturn]] void
    limitExceeded(uint64_t retired) const
    {
        fatal("instruction limit of %llu exceeded after retiring "
              "%llu instructions",
              static_cast<unsigned long long>(limits.maxInstructions),
              static_cast<unsigned long long>(retired));
    }

    const isa::MachineProgram &prog;
    const DecodedInst *dcode;
    Hooks &hooks;
    ExecLimits limits;
    MemoryImage mem;

    std::vector<Frame> frames;
    std::vector<uint64_t> regStack;
    std::vector<uint64_t> argBuffer;
    uint64_t *regs = nullptr; ///< current frame's register window
    uint64_t curFp = 0;       ///< current frame pointer
    uint64_t sp = 0;
    ExecStats stats;
};

template <class Hooks>
ExecStats
Engine<Hooks>::run()
{
    if (prog.entryFunc < 0)
        fatal("program '%s' has no main()", prog.name.c_str());
    const isa::MFunction &main_fn =
        prog.funcs[static_cast<size_t>(prog.entryFunc)];
    if (main_fn.numParams != 0)
        fatal("main() must not take parameters");

    sp = mem.stackTop();
    pushFrame(prog.entryFunc, -1, -1);

    // Hot loop state lives in locals so it can stay in registers across
    // the threaded dispatch; the retired count is flushed to stats on
    // every exit path. The hooks' checked-out Local lives here for the
    // same reason — its address never escapes the dispatch loop, so
    // the simulated program's memory writes can't force it out of
    // registers (fatal() exits skip leave(): the run is aborted and
    // the mode's results are never read).
    int pc = main_fn.entry;
    uint64_t icount = 0;
    const uint64_t maxInstr = limits.maxInstructions;
    const DecodedInst *d = nullptr;
    typename Hooks::Local hlocal = hooks.enter();

// The guard runs before the instruction is counted, observed or
// executed (matching the reference engine), so a limit-hit run reports
// exactly the retired count.
#define BSYN_FETCH()                                                     \
    do {                                                                 \
        if (icount >= maxInstr)                                          \
            limitExceeded(icount);                                       \
        ++icount;                                                        \
        d = &dcode[pc];                                                  \
        hooks.onInstruction(hlocal, pc);                                         \
    } while (0)

#if BSYN_COMPUTED_GOTO
    // One jump-table entry per Handler, in enum order.
    static const void *const jump[] = {
        &&L_Load32, &&L_Load64, &&L_StoreReg32, &&L_StoreReg64,
        &&L_StoreImm32, &&L_StoreImm64, &&L_CondBrNZ, &&L_CondBrZ,
        &&L_Jmp, &&L_Call, &&L_Ret, &&L_Print, &&L_Mov, &&L_MovImm,
        &&L_NegInt, &&L_NotInt, &&L_FNeg, &&L_CvtIFSigned,
        &&L_CvtIFUnsigned, &&L_CvtFISigned, &&L_CvtFIUnsigned, &&L_Add,
        &&L_Sub, &&L_Mul, &&L_DivS, &&L_DivU, &&L_RemS, &&L_RemU,
        &&L_And, &&L_Or, &&L_Xor, &&L_Shl, &&L_ShrS, &&L_ShrU,
        &&L_CmpEqInt, &&L_CmpNeInt, &&L_CmpLtS, &&L_CmpLeS, &&L_CmpGtS,
        &&L_CmpGeS, &&L_CmpLtU, &&L_CmpLeU, &&L_CmpGtU, &&L_CmpGeU,
        &&L_FAdd, &&L_FSub, &&L_FMul, &&L_FDiv, &&L_CmpEqF, &&L_CmpNeF,
        &&L_CmpLtF, &&L_CmpLeF, &&L_CmpGtF, &&L_CmpGeF,
        &&L_Load32FrameC, &&L_Load64FrameC, &&L_StoreReg32FrameC,
        &&L_StoreReg64FrameC, &&L_StoreImm32FrameC,
        &&L_StoreImm64FrameC, &&L_BrCmpEq, &&L_BrCmpNe, &&L_BrCmpLtS,
        &&L_BrCmpLeS, &&L_BrCmpGtS, &&L_BrCmpGeS, &&L_BrCmpLtU,
        &&L_BrCmpLeU, &&L_BrCmpGtU, &&L_BrCmpGeU, &&L_Trap,
    };
    static_assert(sizeof(jump) / sizeof(jump[0]) ==
                      static_cast<size_t>(Handler::Count),
                  "jump table out of sync with Handler");

#define BSYN_CASE(name) L_##name:
#define BSYN_NEXT()                                                      \
    do {                                                                 \
        BSYN_FETCH();                                                    \
        goto *jump[static_cast<size_t>(d->h)];                           \
    } while (0)

    BSYN_NEXT();
#else
#define BSYN_CASE(name) case Handler::name:
#define BSYN_NEXT() continue

    for (;;) {
        BSYN_FETCH();
        switch (d->h) {
#endif

    BSYN_CASE(Load32)
    {
        uint64_t addr = ea(*d);
        uint64_t v = mem.load32(addr);
        noteRead(hlocal, pc, addr, 4, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(Load64)
    {
        uint64_t addr = ea(*d);
        uint64_t v = mem.load64(addr);
        noteRead(hlocal, pc, addr, 8, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg32)
    {
        uint64_t addr = ea(*d);
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store32(addr, asU32(v));
        noteWrite(hlocal, pc, addr, 4, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg64)
    {
        uint64_t addr = ea(*d);
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store64(addr, v);
        noteWrite(hlocal, pc, addr, 8, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm32)
    {
        uint64_t addr = ea(*d);
        mem.store32(addr, asU32(d->imm));
        noteWrite(hlocal, pc, addr, 4, d->imm);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm64)
    {
        uint64_t addr = ea(*d);
        mem.store64(addr, d->imm);
        noteWrite(hlocal, pc, addr, 8, d->imm);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(CondBrNZ)
    {
        bool taken = asU32(regs[static_cast<size_t>(d->a)]) != 0;
        ++stats.branches;
        stats.takenBranches += taken;
        hooks.onBranch(hlocal, pc, taken);
        pc = taken ? d->target : pc + 1;
        BSYN_NEXT();
    }
    BSYN_CASE(CondBrZ)
    {
        bool taken = asU32(regs[static_cast<size_t>(d->a)]) == 0;
        ++stats.branches;
        stats.takenBranches += taken;
        hooks.onBranch(hlocal, pc, taken);
        pc = taken ? d->target : pc + 1;
        BSYN_NEXT();
    }
    BSYN_CASE(Jmp)
    {
        pc = d->target;
        BSYN_NEXT();
    }
    BSYN_CASE(Call)
    {
        ++stats.calls;
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        const isa::MFunction &callee =
            prog.funcs[static_cast<size_t>(d->target)];
        // Read args in the caller frame before pushing.
        argBuffer.clear();
        for (int a : mi.args)
            argBuffer.push_back(regs[static_cast<size_t>(a)]);
        pushFrame(d->target, pc + 1, d->dst);
        for (size_t i = 0; i < argBuffer.size(); ++i)
            regs[i] = argBuffer[i];
        pc = callee.entry;
        BSYN_NEXT();
    }
    BSYN_CASE(Ret)
    {
        uint64_t value =
            d->a >= 0 ? regs[static_cast<size_t>(d->a)] : 0;
        int ret_pc = frames.back().retPc;
        int ret_dst = frames.back().retDst;
        popFrame();
        if (frames.empty()) {
            stats.exitCode = asI32(value);
            goto done;
        }
        if (ret_dst >= 0)
            regs[static_cast<size_t>(ret_dst)] = value;
        pc = ret_pc;
        BSYN_NEXT();
    }
    BSYN_CASE(Print)
    {
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        argBuffer.clear();
        for (int a : mi.args)
            argBuffer.push_back(regs[static_cast<size_t>(a)]);
        stats.output +=
            formatPrintf(mi.text, argBuffer.data(), argBuffer.size());
        ++pc;
        BSYN_NEXT();
    }

// Compute handlers share the fused-load prologue, the operand fetch and
// the writeback/fused-store epilogue; only the core expression differs.
#define BSYN_COMPUTE1(expr)                                              \
    {                                                                    \
        uint64_t fused = 0;                                              \
        if (d->flags & DecodedInst::kFusedLoad)                          \
            fused = fusedLoad(hlocal, *d, pc);                                       \
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs); \
        finishCompute(hlocal, *d, (expr), pc);                                       \
        ++pc;                                                            \
        BSYN_NEXT();                                                     \
    }
#define BSYN_COMPUTE2(expr)                                              \
    {                                                                    \
        uint64_t fused = 0;                                              \
        if (d->flags & DecodedInst::kFusedLoad)                          \
            fused = fusedLoad(hlocal, *d, pc);                                       \
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs); \
        uint64_t vb = fetchOperand(d->bMode, d->b, d->imm, fused, regs); \
        finishCompute(hlocal, *d, (expr), pc);                                       \
        ++pc;                                                            \
        BSYN_NEXT();                                                     \
    }

    BSYN_CASE(Mov)
    BSYN_COMPUTE1(va)
    BSYN_CASE(MovImm)
    {
        uint64_t fused = 0;
        if (d->flags & DecodedInst::kFusedLoad)
            fused = fusedLoad(hlocal, *d, pc);
        (void)fused;
        finishCompute(hlocal, *d, d->imm, pc);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(NegInt)
    BSYN_COMPUTE1(asU32(static_cast<uint64_t>(
        -static_cast<int64_t>(asI32(va)))))
    BSYN_CASE(NotInt)
    BSYN_COMPUTE1(asU32(~asU32(va)))
    BSYN_CASE(FNeg)
    BSYN_COMPUTE1(f64Bits(-asF64(va)))
    BSYN_CASE(CvtIFSigned)
    BSYN_COMPUTE1(f64Bits(static_cast<double>(asI32(va))))
    BSYN_CASE(CvtIFUnsigned)
    BSYN_COMPUTE1(f64Bits(static_cast<double>(asU32(va))))
    BSYN_CASE(CvtFISigned)
    {
        uint64_t fused = 0;
        if (d->flags & DecodedInst::kFusedLoad)
            fused = fusedLoad(hlocal, *d, pc);
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs);
        double dv = asF64(va);
        if (std::isnan(dv))
            dv = 0.0;
        double clamped =
            dv < -2147483648.0
                ? -2147483648.0
                : (dv > 2147483647.0 ? 2147483647.0 : dv);
        finishCompute(hlocal, *d,
                      asU32(static_cast<uint64_t>(
                          static_cast<int64_t>(clamped))),
                      pc);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(CvtFIUnsigned)
    {
        uint64_t fused = 0;
        if (d->flags & DecodedInst::kFusedLoad)
            fused = fusedLoad(hlocal, *d, pc);
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, fused, regs);
        double dv = asF64(va);
        if (std::isnan(dv))
            dv = 0.0;
        double clamped =
            dv < 0 ? 0 : (dv > 4294967295.0 ? 4294967295.0 : dv);
        finishCompute(hlocal, *d, asU32(static_cast<uint64_t>(clamped)),
                      pc);
        ++pc;
        BSYN_NEXT();
    }

    BSYN_CASE(Add)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) + asU32(vb)))
    BSYN_CASE(Sub)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) - asU32(vb)))
    BSYN_CASE(Mul)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) * asU32(vb)))
    BSYN_CASE(DivS)
    BSYN_COMPUTE2(asU32(vb) == 0
                      ? 0
                      : (asI32(va) == INT32_MIN && asI32(vb) == -1
                             ? static_cast<uint32_t>(INT32_MIN)
                             : static_cast<uint32_t>(asI32(va) /
                                                     asI32(vb))))
    BSYN_CASE(DivU)
    BSYN_COMPUTE2(asU32(vb) == 0 ? 0 : asU32(va) / asU32(vb))
    BSYN_CASE(RemS)
    BSYN_COMPUTE2(asU32(vb) == 0
                      ? 0
                      : (asI32(va) == INT32_MIN && asI32(vb) == -1
                             ? 0
                             : static_cast<uint32_t>(asI32(va) %
                                                     asI32(vb))))
    BSYN_CASE(RemU)
    BSYN_COMPUTE2(asU32(vb) == 0 ? 0 : asU32(va) % asU32(vb))
    BSYN_CASE(And)
    BSYN_COMPUTE2(asU32(va) & asU32(vb))
    BSYN_CASE(Or)
    BSYN_COMPUTE2(asU32(va) | asU32(vb))
    BSYN_CASE(Xor)
    BSYN_COMPUTE2(asU32(va) ^ asU32(vb))
    BSYN_CASE(Shl)
    BSYN_COMPUTE2(static_cast<uint32_t>(asU32(va) << (asU32(vb) & 31)))
    BSYN_CASE(ShrS)
    BSYN_COMPUTE2(static_cast<uint32_t>(asI32(va) >> (asU32(vb) & 31)))
    BSYN_CASE(ShrU)
    BSYN_COMPUTE2(asU32(va) >> (asU32(vb) & 31))
    BSYN_CASE(CmpEqInt)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) == asU32(vb)))
    BSYN_CASE(CmpNeInt)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) != asU32(vb)))
    BSYN_CASE(CmpLtS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) < asI32(vb)))
    BSYN_CASE(CmpLeS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) <= asI32(vb)))
    BSYN_CASE(CmpGtS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) > asI32(vb)))
    BSYN_CASE(CmpGeS)
    BSYN_COMPUTE2(static_cast<uint64_t>(asI32(va) >= asI32(vb)))
    BSYN_CASE(CmpLtU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) < asU32(vb)))
    BSYN_CASE(CmpLeU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) <= asU32(vb)))
    BSYN_CASE(CmpGtU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) > asU32(vb)))
    BSYN_CASE(CmpGeU)
    BSYN_COMPUTE2(static_cast<uint64_t>(asU32(va) >= asU32(vb)))

    BSYN_CASE(FAdd)
    BSYN_COMPUTE2(f64Bits(asF64(va) + asF64(vb)))
    BSYN_CASE(FSub)
    BSYN_COMPUTE2(f64Bits(asF64(va) - asF64(vb)))
    BSYN_CASE(FMul)
    BSYN_COMPUTE2(f64Bits(asF64(va) * asF64(vb)))
    BSYN_CASE(FDiv)
    BSYN_COMPUTE2(f64Bits(asF64(vb) == 0.0 ? 0.0
                                           : asF64(va) / asF64(vb)))
    BSYN_CASE(CmpEqF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) == asF64(vb)))
    BSYN_CASE(CmpNeF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) != asF64(vb)))
    BSYN_CASE(CmpLtF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) < asF64(vb)))
    BSYN_CASE(CmpLeF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) <= asF64(vb)))
    BSYN_CASE(CmpGtF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) > asF64(vb)))
    BSYN_CASE(CmpGeF)
    BSYN_COMPUTE2(static_cast<uint64_t>(asF64(va) >= asF64(vb)))

// Frame-relative constant-offset memory: the generic ea()'s
// base-select and index-scale branches are statically resolved away.
#define BSYN_FRAME_EA()                                                  \
    (curFp + static_cast<uint64_t>(static_cast<int64_t>(d->memOffset)))

    BSYN_CASE(Load32FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = mem.load32(addr);
        noteRead(hlocal, pc, addr, 4, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(Load64FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = mem.load64(addr);
        noteRead(hlocal, pc, addr, 8, v);
        regs[static_cast<size_t>(d->dst)] = v;
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg32FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store32(addr, asU32(v));
        noteWrite(hlocal, pc, addr, 4, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreReg64FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        uint64_t v = regs[static_cast<size_t>(d->a)];
        mem.store64(addr, v);
        noteWrite(hlocal, pc, addr, 8, v);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm32FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        mem.store32(addr, asU32(d->imm));
        noteWrite(hlocal, pc, addr, 4, d->imm);
        ++pc;
        BSYN_NEXT();
    }
    BSYN_CASE(StoreImm64FrameC)
    {
        uint64_t addr = BSYN_FRAME_EA();
        mem.store64(addr, d->imm);
        noteWrite(hlocal, pc, addr, 8, d->imm);
        ++pc;
        BSYN_NEXT();
    }

// Fused integer compare + conditional branch: one dispatch, both
// instructions' accounting. The block between the compare's writeback
// and the branch condition replays BSYN_FETCH for pc+1 minus the
// decode load (the branch target and sense live in the fused decode),
// so retire counts, the limit guard and every hook fire exactly as on
// the unfused path.
#define BSYN_BRCMP(expr)                                                 \
    {                                                                    \
        uint64_t va = fetchOperand(d->aMode, d->a, d->imm, 0, regs);     \
        uint64_t vb = fetchOperand(d->bMode, d->b, d->imm, 0, regs);     \
        uint64_t res = (expr);                                           \
        regs[static_cast<size_t>(d->dst)] = res;                         \
        if (icount >= maxInstr)                                          \
            limitExceeded(icount);                                       \
        ++icount;                                                        \
        ++pc;                                                            \
        hooks.onInstruction(hlocal, pc);                                         \
        bool taken =                                                     \
            (res != 0) != ((d->flags & DecodedInst::kBrIfZero) != 0);    \
        ++stats.branches;                                                \
        stats.takenBranches += taken;                                    \
        hooks.onBranch(hlocal, pc, taken);                                       \
        pc = taken ? d->target : pc + 1;                                 \
        BSYN_NEXT();                                                     \
    }

    BSYN_CASE(BrCmpEq)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) == asU32(vb)))
    BSYN_CASE(BrCmpNe)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) != asU32(vb)))
    BSYN_CASE(BrCmpLtS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) < asI32(vb)))
    BSYN_CASE(BrCmpLeS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) <= asI32(vb)))
    BSYN_CASE(BrCmpGtS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) > asI32(vb)))
    BSYN_CASE(BrCmpGeS)
    BSYN_BRCMP(static_cast<uint64_t>(asI32(va) >= asI32(vb)))
    BSYN_CASE(BrCmpLtU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) < asU32(vb)))
    BSYN_CASE(BrCmpLeU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) <= asU32(vb)))
    BSYN_CASE(BrCmpGtU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) > asU32(vb)))
    BSYN_CASE(BrCmpGeU)
    BSYN_BRCMP(static_cast<uint64_t>(asU32(va) >= asU32(vb)))

    BSYN_CASE(Trap)
    {
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        panic("predecoded engine: invalid compute %s at pc %d",
              ir::opcodeName(mi.op), pc);
    }

#if !BSYN_COMPUTED_GOTO
        }
    }
#endif

#undef BSYN_COMPUTE1
#undef BSYN_COMPUTE2
#undef BSYN_BRCMP
#undef BSYN_FRAME_EA
#undef BSYN_CASE
#undef BSYN_NEXT
#undef BSYN_FETCH

done:
    hooks.leave(hlocal);
    stats.instructions = icount;
    return std::move(stats);
}

} // namespace bsyn::sim::detail

#endif // BSYN_SIM_DISPATCH_HH
