#include "opt/const_fold.hh"

#include <cmath>
#include <map>
#include <set>

#include "support/bits.hh"
#include "support/error.hh"

namespace bsyn::opt
{

using ir::Instruction;
using ir::Opcode;
using ir::Terminator;
using ir::Type;

namespace
{

struct ConstVal
{
    bool isFloat = false;
    uint32_t i = 0;
    double f = 0.0;
};

/** Evaluate an integer binary op on constants (mirrors the interpreter). */
uint32_t
evalInt(Opcode op, Type t, uint32_t a, uint32_t b)
{
    bool s = t == Type::I32;
    int32_t sa = static_cast<int32_t>(a), sb = static_cast<int32_t>(b);
    switch (op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::Mul: return a * b;
      case Opcode::Div:
        if (b == 0)
            return 0;
        if (s)
            return sa == INT32_MIN && sb == -1
                       ? static_cast<uint32_t>(INT32_MIN)
                       : static_cast<uint32_t>(sa / sb);
        return a / b;
      case Opcode::Rem:
        if (b == 0)
            return 0;
        if (s)
            return sa == INT32_MIN && sb == -1
                       ? 0
                       : static_cast<uint32_t>(sa % sb);
        return a % b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return a << (b & 31);
      case Opcode::Shr:
        return s ? static_cast<uint32_t>(sa >> (b & 31)) : a >> (b & 31);
      case Opcode::CmpEq: return a == b;
      case Opcode::CmpNe: return a != b;
      case Opcode::CmpLt: return s ? sa < sb : a < b;
      case Opcode::CmpLe: return s ? sa <= sb : a <= b;
      case Opcode::CmpGt: return s ? sa > sb : a > b;
      case Opcode::CmpGe: return s ? sa >= sb : a >= b;
      default: panic("evalInt: bad opcode");
    }
}

double
evalFp(Opcode op, double a, double b)
{
    switch (op) {
      case Opcode::FAdd: return a + b;
      case Opcode::FSub: return a - b;
      case Opcode::FMul: return a * b;
      case Opcode::FDiv: return b == 0.0 ? 0.0 : a / b;
      default: panic("evalFp: bad opcode");
    }
}

class BlockFolder
{
  public:
    BlockFolder(ir::Function &fn, ir::BasicBlock &bb,
                const FoldOptions &opts)
        : func(fn), block(bb), options(opts)
    {}

    bool
    run()
    {
        for (auto &in : block.insts)
            foldInst(in);
        foldTerminator();
        return changed;
    }

  private:
    void
    define(int reg, const ConstVal &v)
    {
        consts[reg] = v;
        boolValued.erase(reg);
    }

    void
    kill(int reg)
    {
        consts.erase(reg);
        boolValued.erase(reg);
    }

    bool
    getConst(int reg, ConstVal &out) const
    {
        auto it = consts.find(reg);
        if (it == consts.end())
            return false;
        out = it->second;
        return true;
    }

    void
    replaceWithMovImm(Instruction &in, Type t, uint32_t iv, double fv)
    {
        int dst = in.dst;
        if (t == Type::F64)
            in = Instruction::movFImm(dst, fv);
        else
            in = Instruction::movImm(dst, static_cast<int32_t>(iv), t);
        changed = true;
    }

    void
    foldInst(Instruction &in)
    {
        // Track constants from immediates.
        if (in.op == Opcode::MovImm) {
            ConstVal v;
            if (in.type == Type::F64) {
                v.isFloat = true;
                v.f = in.fimm;
            } else {
                v.i = static_cast<uint32_t>(in.imm);
            }
            define(in.dst, v);
            return;
        }

        if (in.op == Opcode::Mov) {
            ConstVal v;
            if (getConst(in.src0, v)) {
                replaceWithMovImm(in, v.isFloat ? Type::F64 : in.type, v.i,
                                  v.f);
                define(in.dst, v);
            } else {
                if (boolValued.count(in.src0))
                    boolValued.insert(in.dst);
                else
                    boolValued.erase(in.dst);
                consts.erase(in.dst);
            }
            return;
        }

        if (ir::isBinaryAlu(in.op)) {
            foldBinary(in);
            return;
        }

        if (in.op == Opcode::Neg || in.op == Opcode::Not) {
            ConstVal v;
            if (getConst(in.src0, v) && !v.isFloat) {
                uint32_t r = in.op == Opcode::Neg
                                 ? static_cast<uint32_t>(
                                       -static_cast<int64_t>(
                                           static_cast<int32_t>(v.i)))
                                 : ~v.i;
                ConstVal nv;
                nv.i = r;
                replaceWithMovImm(in, in.type, r, 0.0);
                define(in.dst, nv);
                return;
            }
        } else if (in.op == Opcode::FNeg) {
            ConstVal v;
            if (getConst(in.src0, v) && v.isFloat) {
                ConstVal nv;
                nv.isFloat = true;
                nv.f = -v.f;
                replaceWithMovImm(in, Type::F64, 0, nv.f);
                define(in.dst, nv);
                return;
            }
        } else if (in.op == Opcode::CvtIF) {
            ConstVal v;
            if (getConst(in.src0, v) && !v.isFloat) {
                ConstVal nv;
                nv.isFloat = true;
                nv.f = in.type == Type::U32
                           ? double(v.i)
                           : double(static_cast<int32_t>(v.i));
                replaceWithMovImm(in, Type::F64, 0, nv.f);
                define(in.dst, nv);
                return;
            }
        }

        if (in.dst >= 0)
            kill(in.dst);
    }

    void
    foldBinary(Instruction &in)
    {
        ConstVal a, b;
        bool ca = getConst(in.src0, a);
        bool cb = getConst(in.src1, b);

        if (in.type == Type::F64 && !ir::isCompare(in.op)) {
            if (ca && cb && a.isFloat && b.isFloat) {
                ConstVal nv;
                nv.isFloat = true;
                nv.f = evalFp(in.op, a.f, b.f);
                replaceWithMovImm(in, Type::F64, 0, nv.f);
                define(in.dst, nv);
                return;
            }
            kill(in.dst);
            return;
        }
        if (in.type == Type::F64 && ir::isCompare(in.op)) {
            if (ca && cb && a.isFloat && b.isFloat) {
                double x = a.f, y = b.f;
                bool r = false;
                switch (in.op) {
                  case Opcode::CmpEq: r = x == y; break;
                  case Opcode::CmpNe: r = x != y; break;
                  case Opcode::CmpLt: r = x < y; break;
                  case Opcode::CmpLe: r = x <= y; break;
                  case Opcode::CmpGt: r = x > y; break;
                  case Opcode::CmpGe: r = x >= y; break;
                  default: break;
                }
                ConstVal nv;
                nv.i = r;
                replaceWithMovImm(in, Type::I32, r, 0.0);
                define(in.dst, nv);
                boolValued.insert(in.dst);
                return;
            }
            kill(in.dst);
            boolValued.insert(in.dst);
            return;
        }

        // Integer ops.
        if (ca && cb && !a.isFloat && !b.isFloat) {
            uint32_t r = evalInt(in.op, in.type, a.i, b.i);
            ConstVal nv;
            nv.i = r;
            replaceWithMovImm(in, ir::isCompare(in.op) ? Type::I32
                                                       : in.type,
                              r, 0.0);
            define(in.dst, nv);
            if (ir::isCompare(in.op))
                boolValued.insert(in.dst);
            return;
        }

        // Bool simplification: (x != 0) where x is already 0/1 -> mov.
        if (in.op == Opcode::CmpNe && cb && !b.isFloat && b.i == 0 &&
            boolValued.count(in.src0)) {
            int src = in.src0;
            int dst = in.dst;
            in = Instruction::mov(dst, src, Type::I32);
            changed = true;
            consts.erase(dst);
            boolValued.insert(dst);
            return;
        }

        // Algebraic identities with one constant operand.
        if (!ir::isCompare(in.op) && (ca || cb) &&
            !(ca && a.isFloat) && !(cb && b.isFloat)) {
            if (simplifyAlgebraic(in, ca, a, cb, b))
                return;
        }

        if (in.dst >= 0) {
            kill(in.dst);
            if (ir::isCompare(in.op))
                boolValued.insert(in.dst);
        }
    }

    /** x+0, x-0, x*1, x*0, x/1, x&0, x|0, x^0, shifts by 0, pow2 tricks. */
    bool
    simplifyAlgebraic(Instruction &in, bool ca, const ConstVal &a, bool cb,
                      const ConstVal &b)
    {
        int dst = in.dst;
        auto toMov = [&](int src) {
            in = Instruction::mov(dst, src, in.type);
            changed = true;
            kill(dst);
            return true;
        };
        auto toZero = [&]() {
            in = Instruction::movImm(dst, 0, in.type);
            ConstVal z;
            define(dst, z);
            changed = true;
            return true;
        };

        uint32_t k = cb ? b.i : a.i;
        switch (in.op) {
          case Opcode::Add:
          case Opcode::Or:
          case Opcode::Xor:
            if (cb && k == 0)
                return toMov(in.src0);
            if (ca && k == 0)
                return toMov(in.src1);
            break;
          case Opcode::Sub:
          case Opcode::Shl:
          case Opcode::Shr:
            if (cb && k == 0)
                return toMov(in.src0);
            break;
          case Opcode::And:
            if ((cb && k == 0) || (ca && k == 0))
                return toZero();
            break;
          case Opcode::Mul:
            if ((cb && k == 0) || (ca && k == 0))
                return toZero();
            if (cb && k == 1)
                return toMov(in.src0);
            if (ca && k == 1)
                return toMov(in.src1);
            if (options.strengthReduction && cb && isPow2(k)) {
                // mul by 2^n -> shl (valid for wrapping arithmetic).
                int src = in.src0;
                int sh = func.newReg();
                Instruction mk =
                    Instruction::movImm(sh, log2u(k), Type::I32);
                Instruction shl = Instruction::binary(Opcode::Shl, in.type,
                                                      dst, src, sh);
                in = shl;
                pendingPrefix.push_back(mk);
                changed = true;
                kill(dst);
                return true;
            }
            break;
          case Opcode::Div:
            if (cb && k == 1)
                return toMov(in.src0);
            if (options.strengthReduction && cb && isPow2(k) &&
                in.type == Type::U32) {
                int src = in.src0;
                int sh = func.newReg();
                pendingPrefix.push_back(
                    Instruction::movImm(sh, log2u(k), Type::I32));
                in = Instruction::binary(Opcode::Shr, Type::U32, dst, src,
                                         sh);
                changed = true;
                kill(dst);
                return true;
            }
            break;
          case Opcode::Rem:
            if (options.strengthReduction && cb && isPow2(k) &&
                in.type == Type::U32) {
                int src = in.src0;
                int msk = func.newReg();
                pendingPrefix.push_back(Instruction::movImm(
                    msk, static_cast<int32_t>(k - 1), Type::U32));
                in = Instruction::binary(Opcode::And, Type::U32, dst, src,
                                         msk);
                changed = true;
                kill(dst);
                return true;
            }
            break;
          default:
            break;
        }
        return false;
    }

    void
    foldTerminator()
    {
        if (block.term.kind != Terminator::Kind::Br)
            return;
        ConstVal v;
        if (getConst(block.term.cond, v) && !v.isFloat) {
            int tgt = v.i != 0 ? block.term.target
                               : block.term.fallthrough;
            block.term = Terminator::jmp(tgt);
            changed = true;
        }
    }

  public:
    /** Helper immediates (shift counts/masks) to prepend to the block. */
    std::vector<Instruction> pendingPrefix;

  private:
    ir::Function &func;
    ir::BasicBlock &block;
    const FoldOptions &options;
    std::map<int, ConstVal> consts;
    std::set<int> boolValued;
    bool changed = false;
};

} // namespace

bool
foldConstants(ir::Function &fn, const FoldOptions &opts)
{
    bool changed = false;
    for (auto &bb : fn.blocks) {
        BlockFolder folder(fn, bb, opts);
        changed |= folder.run();
        if (!folder.pendingPrefix.empty()) {
            // Strength-reduction helpers (shift counts, masks) only
            // define fresh registers, so hoisting them to the block head
            // keeps them ahead of their single consumer.
            std::vector<Instruction> out;
            out.reserve(bb.insts.size() + folder.pendingPrefix.size());
            out.insert(out.end(), folder.pendingPrefix.begin(),
                       folder.pendingPrefix.end());
            out.insert(out.end(), bb.insts.begin(), bb.insts.end());
            bb.insts = std::move(out);
        }
    }
    return changed;
}

bool
foldConstants(ir::Module &mod, const FoldOptions &opts)
{
    bool changed = false;
    for (auto &fn : mod.functions)
        changed |= foldConstants(fn, opts);
    return changed;
}

} // namespace bsyn::opt
