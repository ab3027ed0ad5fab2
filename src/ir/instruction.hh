/**
 * @file
 * Three-address IR instructions. The IR is deliberately close to what a
 * non-optimizing C compiler emits for a load/store machine: virtual
 * registers hold temporaries, locals live in frame slots, and memory is
 * accessed through explicit base+index*scale+offset references. This is
 * the representation the profiler observes (the paper profiles -O0
 * binaries precisely because they have this shape).
 */

#ifndef BSYN_IR_INSTRUCTION_HH
#define BSYN_IR_INSTRUCTION_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/type.hh"

namespace bsyn::ir
{

/** Operation codes. Terminators (Jmp/Br/Ret) live on BasicBlock instead. */
enum class Opcode : uint8_t
{
    // Data movement.
    MovImm, ///< dst = imm (int) or fimm (F64)
    Mov,    ///< dst = src0

    // Integer arithmetic/logic (I32/U32). Shr is arithmetic for I32 and
    // logical for U32; shift amounts are masked to 5 bits.
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr,
    Neg, Not,

    // Floating-point arithmetic (F64).
    FAdd, FSub, FMul, FDiv, FNeg,

    // Comparisons: dst (I32, 0/1) = src0 <rel> src1; 'type' is the
    // operand type being compared.
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,

    // Conversions.
    CvtIF, ///< dst (F64) = (double)src0 (int per 'type')
    CvtFI, ///< dst ('type') = truncate(src0 as double)

    // Memory. 'type' is the access type and determines access size.
    Load,  ///< dst = mem[memRef]
    Store, ///< mem[memRef] = src0

    // Call is not a terminator: control returns to the next instruction.
    Call,  ///< dst (optional) = callee(args...)

    // Output. Counts as one dynamic instruction of class Other; keeps
    // values observable so DCE cannot delete the computation chain.
    Print, ///< print(text, printArgs...)

    Nop,
};

/** @return a printable mnemonic. */
const char *opcodeName(Opcode op);

/** @return true for the commutative integer/fp arithmetic opcodes. */
bool isCommutative(Opcode op);

/** @return true if the opcode is a pure computation (no side effects). */
bool isPure(Opcode op);

/** @return true for binary ALU opcodes (two register sources). */
bool isBinaryAlu(Opcode op);

/** @return true for unary ALU opcodes (one register source). */
bool isUnaryAlu(Opcode op);

/** @return true for comparison opcodes. */
bool isCompare(Opcode op);

/**
 * A memory reference: base + indexReg*scale + offset.
 *
 * The base is either a module global (symbol >= 0) or the current frame
 * pointer (symbol == frameBase). All quantities are in bytes.
 */
struct MemRef
{
    /** Sentinel base meaning "current function frame". */
    static constexpr int frameBase = -1;

    int symbol = frameBase; ///< global symbol id, or frameBase
    int indexReg = -1;      ///< register holding the index, or -1
    int32_t scale = 1;      ///< bytes per index unit
    int32_t offset = 0;     ///< constant byte offset

    bool hasIndex() const { return indexReg >= 0; }

    bool
    operator==(const MemRef &o) const
    {
        return symbol == o.symbol && indexReg == o.indexReg &&
               scale == o.scale && offset == o.offset;
    }
};

/** One three-address instruction. */
struct Instruction
{
    Opcode op = Opcode::Nop;
    Type type = Type::I32;

    int dst = -1;  ///< destination virtual register, or -1
    int src0 = -1; ///< first source register, or -1
    int src1 = -1; ///< second source register, or -1

    int64_t imm = 0;   ///< integer immediate (MovImm with int type)
    double fimm = 0.0; ///< fp immediate (MovImm with F64 type)

    MemRef mem; ///< memory reference (Load/Store)

    int callee = -1;       ///< function index (Call)
    std::vector<int> args; ///< argument registers (Call) / values (Print)

    std::string text; ///< format text (Print)

    /** Collect source registers (including address index and args). */
    void forEachSrc(const std::function<void(int)> &fn) const;

    /** Rewrite source registers through @p fn (returns replacement). */
    void mapSrcs(const std::function<int(int)> &fn);

    /** @return true if this instruction reads or writes memory. */
    bool touchesMemory() const
    {
        return op == Opcode::Load || op == Opcode::Store;
    }

    // --- Convenience constructors -------------------------------------

    static Instruction movImm(int dst, int64_t value, Type t = Type::I32);
    static Instruction movFImm(int dst, double value);
    static Instruction mov(int dst, int src, Type t = Type::I32);
    static Instruction binary(Opcode op, Type t, int dst, int a, int b);
    static Instruction unary(Opcode op, Type t, int dst, int a);
    static Instruction load(int dst, MemRef m, Type t);
    static Instruction store(int src, MemRef m, Type t);
    static Instruction call(int dst, int callee, std::vector<int> args,
                            Type ret_type);
    static Instruction print(std::string text, std::vector<int> args);
};

} // namespace bsyn::ir

#endif // BSYN_IR_INSTRUCTION_HH
