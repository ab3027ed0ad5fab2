#include "oracle/interpreter.hh"

#include <cmath>

#include "sim/memory_image.hh"
#include "sim/printf_format.hh"
#include "sim/value_bits.hh"
#include "support/error.hh"

namespace bsyn::oracle
{

namespace
{

using namespace sim;
using isa::MInst;
using isa::MKind;
using ir::Opcode;
using ir::Type;

/** A call frame: registers live in a shared stack for speed. */
struct Frame
{
    int funcIndex = -1;
    size_t regBase = 0;
    uint64_t fp = 0;
    int retPc = -1;
    int retDst = -1;
};

class Machine
{
  public:
    Machine(const isa::MachineProgram &p, ExecObserver *obs,
            const ExecLimits &lim)
        : prog(p), observer(obs), limits(lim), mem(p.globals)
    {}

    ExecStats
    run()
    {
        if (prog.entryFunc < 0)
            fatal("program '%s' has no main()", prog.name.c_str());
        const isa::MFunction &main_fn =
            prog.funcs[static_cast<size_t>(prog.entryFunc)];
        if (main_fn.numParams != 0)
            fatal("main() must not take parameters");

        sp = mem.stackTop();
        pushFrame(prog.entryFunc, -1, -1);
        pc = main_fn.entry;

        while (!frames.empty())
            step();
        return std::move(stats);
    }

  private:
    // --- Register access -------------------------------------------------

    uint64_t
    reg(int r) const
    {
        return regStack[frames.back().regBase + static_cast<size_t>(r)];
    }

    void
    setReg(int r, uint64_t v)
    {
        regStack[frames.back().regBase + static_cast<size_t>(r)] = v;
    }

    // --- Frames ------------------------------------------------------------

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
    }

    // --- Memory ------------------------------------------------------------

    uint64_t
    effectiveAddress(const ir::MemRef &m) const
    {
        uint64_t base = m.symbol == ir::MemRef::frameBase
                            ? frames.back().fp
                            : mem.globalAddress(m.symbol);
        int64_t index = 0;
        if (m.indexReg >= 0)
            index = static_cast<int64_t>(asI32(reg(m.indexReg))) * m.scale;
        return base + static_cast<uint64_t>(
                          index + static_cast<int64_t>(m.offset));
    }

    uint64_t
    loadTyped(uint64_t addr, Type t)
    {
        if (t == Type::F64)
            return mem.load64(addr);
        return mem.load32(addr);
    }

    void
    storeTyped(uint64_t addr, Type t, uint64_t v)
    {
        if (t == Type::F64)
            mem.store64(addr, v);
        else
            mem.store32(addr, asU32(v));
    }

    // --- Execution -----------------------------------------------------------

    uint64_t
    immRaw(const MInst &mi) const
    {
        if (mi.type == Type::F64)
            return f64Bits(mi.fimm);
        return asU32(static_cast<uint64_t>(mi.imm));
    }

    void
    step()
    {
        const MInst &mi = prog.code[static_cast<size_t>(pc)];
        // The guard runs before the instruction is counted, observed or
        // executed, so a limit-hit run reports exactly the number of
        // instructions that actually retired.
        if (stats.instructions >= limits.maxInstructions)
            fatal("instruction limit of %llu exceeded after retiring "
                  "%llu instructions",
                  static_cast<unsigned long long>(limits.maxInstructions),
                  static_cast<unsigned long long>(stats.instructions));
        ++stats.instructions;
        if (observer)
            observer->onInstruction(pc, mi);

        switch (mi.kind) {
          case MKind::Load: {
            uint64_t addr = effectiveAddress(mi.mem);
            uint64_t v = loadTyped(addr, mi.type);
            noteRead(addr, ir::typeSize(mi.type), v);
            setReg(mi.dst, v);
            ++pc;
            break;
          }
          case MKind::Store: {
            uint64_t addr = effectiveAddress(mi.mem);
            uint64_t v = mi.srcIsImm ? immRaw(mi) : reg(mi.src0);
            storeTyped(addr, mi.type, v);
            noteWrite(addr, ir::typeSize(mi.type), v);
            ++pc;
            break;
          }
          case MKind::Compute:
            executeCompute(mi);
            ++pc;
            break;
          case MKind::CondBr: {
            bool nonzero = asU32(reg(mi.src0)) != 0;
            bool taken = mi.brIfZero ? !nonzero : nonzero;
            ++stats.branches;
            if (taken)
                ++stats.takenBranches;
            if (observer)
                observer->onBranch(pc, taken);
            pc = taken ? mi.target : pc + 1;
            break;
          }
          case MKind::Jmp:
            pc = mi.target;
            break;
          case MKind::Call: {
            ++stats.calls;
            const isa::MFunction &callee =
                prog.funcs[static_cast<size_t>(mi.callee)];
            // Read args in the caller frame before pushing.
            argBuffer.clear();
            for (int a : mi.args)
                argBuffer.push_back(reg(a));
            pushFrame(mi.callee, pc + 1, mi.dst);
            for (size_t i = 0; i < argBuffer.size(); ++i)
                setReg(static_cast<int>(i), argBuffer[i]);
            pc = callee.entry;
            break;
          }
          case MKind::Ret: {
            uint64_t value = mi.src0 >= 0 ? reg(mi.src0) : 0;
            int ret_pc = frames.back().retPc;
            int ret_dst = frames.back().retDst;
            popFrame();
            if (frames.empty()) {
                stats.exitCode = asI32(value);
                return;
            }
            if (ret_dst >= 0)
                setReg(ret_dst, value);
            pc = ret_pc;
            break;
          }
          case MKind::Print:
            doPrint(mi);
            ++pc;
            break;
        }
    }

    void
    noteRead(uint64_t addr, uint32_t size, uint64_t raw_value)
    {
        ++stats.memReads;
        if (observer)
            observer->onMemAccess(pc, addr, size, false, raw_value);
    }

    void
    noteWrite(uint64_t addr, uint32_t size, uint64_t raw_value)
    {
        ++stats.memWrites;
        if (observer)
            observer->onMemAccess(pc, addr, size, true, raw_value);
    }

    uint64_t
    computeSrc(const MInst &mi, int slot, uint64_t fused_value)
    {
        if (mi.loadFused && mi.fusedSlot == slot)
            return fused_value;
        if (mi.srcIsImm && mi.immSlot == slot)
            return immRaw(mi);
        int r = slot == 0 ? mi.src0 : mi.src1;
        BSYN_ASSERT(r >= 0, "compute reads undefined source slot %d", slot);
        return reg(r);
    }

    void
    executeCompute(const MInst &mi)
    {
        uint64_t fused_value = 0;
        if (mi.loadFused) {
            uint64_t addr = effectiveAddress(mi.mem);
            fused_value = loadTyped(addr, mi.type);
            noteRead(addr, ir::typeSize(mi.type), fused_value);
        }

        uint64_t result = 0;
        switch (mi.op) {
          case Opcode::MovImm:
            result = immRaw(mi);
            break;
          case Opcode::Mov:
            result = computeSrc(mi, 0, fused_value);
            break;
          case Opcode::Neg:
            result = asU32(-static_cast<int64_t>(
                asI32(computeSrc(mi, 0, fused_value))));
            break;
          case Opcode::Not:
            result = asU32(~asU32(computeSrc(mi, 0, fused_value)));
            break;
          case Opcode::FNeg:
            result = f64Bits(-asF64(computeSrc(mi, 0, fused_value)));
            break;
          case Opcode::CvtIF: {
            uint64_t s = computeSrc(mi, 0, fused_value);
            double d = mi.type == Type::U32
                           ? static_cast<double>(asU32(s))
                           : static_cast<double>(asI32(s));
            result = f64Bits(d);
            break;
          }
          case Opcode::CvtFI: {
            double d = asF64(computeSrc(mi, 0, fused_value));
            if (std::isnan(d))
                d = 0.0;
            if (mi.type == Type::U32) {
                // Saturate into the 64-bit range then truncate (avoids UB).
                double clamped = d < 0 ? 0 : (d > 4294967295.0
                                                  ? 4294967295.0
                                                  : d);
                result = asU32(static_cast<uint64_t>(clamped));
            } else {
                double clamped = d < -2147483648.0
                                     ? -2147483648.0
                                     : (d > 2147483647.0 ? 2147483647.0
                                                         : d);
                result = asU32(static_cast<uint64_t>(
                    static_cast<int64_t>(clamped)));
            }
            break;
          }
          default:
            result = executeBinary(mi, fused_value);
            break;
        }

        if (mi.dst >= 0)
            setReg(mi.dst, result);
        if (mi.storeFused) {
            uint64_t addr = effectiveAddress(mi.mem);
            storeTyped(addr, mi.type, result);
            noteWrite(addr, ir::typeSize(mi.type), result);
        }
    }

    uint64_t
    executeBinary(const MInst &mi, uint64_t fused_value)
    {
        uint64_t a = computeSrc(mi, 0, fused_value);
        uint64_t b = computeSrc(mi, 1, fused_value);

        if (mi.type == Type::F64) {
            double x = asF64(a), y = asF64(b);
            switch (mi.op) {
              case Opcode::FAdd: return f64Bits(x + y);
              case Opcode::FSub: return f64Bits(x - y);
              case Opcode::FMul: return f64Bits(x * y);
              case Opcode::FDiv: return f64Bits(y == 0.0
                                                    ? 0.0
                                                    : x / y);
              case Opcode::CmpEq: return x == y;
              case Opcode::CmpNe: return x != y;
              case Opcode::CmpLt: return x < y;
              case Opcode::CmpLe: return x <= y;
              case Opcode::CmpGt: return x > y;
              case Opcode::CmpGe: return x >= y;
              default:
                panic("fp compute with integer opcode %s",
                      ir::opcodeName(mi.op));
            }
        }

        bool is_signed = mi.type == Type::I32;
        int32_t sa = asI32(a), sb = asI32(b);
        uint32_t ua = asU32(a), ub = asU32(b);
        switch (mi.op) {
          case Opcode::Add: return asU32(ua + ub);
          case Opcode::Sub: return asU32(ua - ub);
          case Opcode::Mul: return asU32(ua * ub);
          case Opcode::Div:
            if (ub == 0)
                return 0; // defined semantics: x/0 == 0 (see DESIGN.md)
            if (is_signed) {
                if (sa == INT32_MIN && sb == -1)
                    return asU32(static_cast<uint32_t>(INT32_MIN));
                return asU32(static_cast<uint32_t>(sa / sb));
            }
            return asU32(ua / ub);
          case Opcode::Rem:
            if (ub == 0)
                return 0;
            if (is_signed) {
                if (sa == INT32_MIN && sb == -1)
                    return 0;
                return asU32(static_cast<uint32_t>(sa % sb));
            }
            return asU32(ua % ub);
          case Opcode::And: return ua & ub;
          case Opcode::Or: return ua | ub;
          case Opcode::Xor: return ua ^ ub;
          case Opcode::Shl: return asU32(ua << (ub & 31));
          case Opcode::Shr:
            if (is_signed)
                return asU32(static_cast<uint32_t>(sa >> (ub & 31)));
            return ua >> (ub & 31);
          case Opcode::CmpEq: return ua == ub;
          case Opcode::CmpNe: return ua != ub;
          case Opcode::CmpLt: return is_signed ? sa < sb : ua < ub;
          case Opcode::CmpLe: return is_signed ? sa <= sb : ua <= ub;
          case Opcode::CmpGt: return is_signed ? sa > sb : ua > ub;
          case Opcode::CmpGe: return is_signed ? sa >= sb : ua >= ub;
          default:
            panic("integer compute with bad opcode %s",
                  ir::opcodeName(mi.op));
        }
    }

    void
    doPrint(const MInst &mi)
    {
        argBuffer.clear();
        for (int a : mi.args)
            argBuffer.push_back(reg(a));
        stats.output +=
            formatPrintf(mi.text, argBuffer.data(), argBuffer.size());
    }

    const isa::MachineProgram &prog;
    ExecObserver *observer;
    ExecLimits limits;
    sim::MemoryImage mem;

    std::vector<Frame> frames;
    std::vector<uint64_t> regStack;
    std::vector<uint64_t> argBuffer;
    uint64_t sp = 0;
    int pc = 0;
    ExecStats stats;
};

} // namespace

ExecStats
executeReference(const isa::MachineProgram &prog, ExecObserver *observer,
                 const ExecLimits &limits)
{
    return Machine(prog, observer, limits).run();
}

} // namespace bsyn::oracle
