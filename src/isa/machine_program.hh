/**
 * @file
 * The lowered, executable machine program: a flat instruction array with
 * resolved branch targets. This is what the interpreter runs, what the
 * profiler observes (its PCs play the role of binary addresses under
 * Pin), and what the timing models consume.
 */

#ifndef BSYN_ISA_MACHINE_PROGRAM_HH
#define BSYN_ISA_MACHINE_PROGRAM_HH

#include <string>
#include <vector>

#include "ir/module.hh"
#include "isa/target.hh"

namespace bsyn::isa
{

/** Broad instruction classes used for mix statistics and timing. */
enum class MClass : uint8_t
{
    IntAlu, IntMul, IntDiv,
    FpAlu, FpMul, FpDiv,
    Load, Store,
    Branch, ///< conditional branch
    Jump,   ///< unconditional jump
    Call, Ret,
    Other,  ///< print, nop
};

/** Structural kind of a machine instruction. */
enum class MKind : uint8_t
{
    Compute, ///< ALU/compare/convert/mov (possibly with fused memory)
    Load,    ///< pure load
    Store,   ///< pure store (possibly with immediate source)
    CondBr,  ///< conditional branch: taken -> target, else fall through
    Jmp,     ///< unconditional branch
    Call,
    Ret,
    Print,
};

/** One machine instruction. */
struct MInst
{
    MKind kind = MKind::Compute;
    ir::Opcode op = ir::Opcode::Nop; ///< semantic op (Compute/Load/Store)
    ir::Type type = ir::Type::I32;

    int dst = -1;
    int src0 = -1;
    int src1 = -1;

    int64_t imm = 0;
    double fimm = 0.0;
    bool srcIsImm = false; ///< CISC: src operand is 'imm'/'fimm'
    int immSlot = 1;       ///< which source slot the immediate fills (0/1)

    ir::MemRef mem;        ///< memory operand
    bool memValid = false;
    bool loadFused = false;  ///< Compute reads mem as the 'fusedSlot' src
    bool storeFused = false; ///< Compute also writes its result to mem
    int fusedSlot = 1;       ///< source slot fed by the fused load

    /** CondBr: branch if cond register is zero instead of non-zero. */
    bool brIfZero = false;

    int target = -1; ///< CondBr/Jmp: flat PC of the taken target
    int callee = -1; ///< Call: function index

    std::string text;      ///< Print format
    std::vector<int> args; ///< Call/Print argument registers

    // Provenance back to the pre-lowering IR (drives the SFGL).
    int funcId = -1;
    int irBlockId = -1;

    /** Instruction class for statistics/timing. */
    MClass cls() const;

    /** @return true if executing this instruction reads memory. */
    bool readsMemory() const
    {
        return kind == MKind::Load || loadFused;
    }

    /** @return true if executing this instruction writes memory. */
    bool writesMemory() const
    {
        return kind == MKind::Store || storeFused;
    }

    /**
     * @return true if this instruction ends a basic block: control may
     * leave the straight-line sequence here (branches, jumps, calls and
     * returns). The next PC, if any, starts a new block.
     */
    bool isBlockEnd() const
    {
        return kind == MKind::CondBr || kind == MKind::Jmp ||
               kind == MKind::Call || kind == MKind::Ret;
    }
};

/** Per-function metadata in the lowered program. */
struct MFunction
{
    std::string name;
    int entry = -1;   ///< flat PC of the first instruction
    int end = -1;     ///< one-past-last flat PC
    uint32_t numRegs = 0;
    uint32_t frameSize = 0;
    uint32_t numParams = 0;
    ir::Type retType = ir::Type::Void;
};

/** The complete lowered program. */
struct MachineProgram
{
    std::string name;
    TargetInfo target;
    std::vector<MInst> code;
    std::vector<MFunction> funcs;
    std::vector<ir::Global> globals;
    int entryFunc = -1; ///< index of main()

    size_t size() const { return code.size(); }

    /** Function containing @p pc (linear search; diagnostics only). */
    const MFunction *functionAt(int pc) const;

    /** Static instruction counts per class. */
    std::vector<size_t> staticMix() const;

    /**
     * Basic-block leader PCs, sorted ascending: every function entry,
     * every branch/jump target, and every fall-through successor of a
     * block-ending instruction (see MInst::isBlockEnd). This is the
     * block structure the predecoded execution engine groups its
     * instructions by.
     */
    std::vector<int> blockLeaders() const;
};

} // namespace bsyn::isa

#endif // BSYN_ISA_MACHINE_PROGRAM_HH
