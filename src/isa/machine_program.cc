#include "isa/machine_program.hh"

#include "support/error.hh"

namespace bsyn::isa
{

MClass
MInst::cls() const
{
    switch (kind) {
      case MKind::Load:
        return MClass::Load;
      case MKind::Store:
        return MClass::Store;
      case MKind::CondBr:
        return MClass::Branch;
      case MKind::Jmp:
        return MClass::Jump;
      case MKind::Call:
        return MClass::Call;
      case MKind::Ret:
        return MClass::Ret;
      case MKind::Print:
        return MClass::Other;
      case MKind::Compute:
        // A fused load-op behaves like a load in the memory system but
        // retires as one instruction; we classify by memory behaviour
        // (load first, store second) as Pin's mix tool would.
        if (loadFused && !storeFused)
            return MClass::Load;
        if (storeFused)
            return MClass::Store;
        switch (op) {
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
    panic("MInst::cls: bad kind");
}

const MFunction *
MachineProgram::functionAt(int pc) const
{
    for (const auto &f : funcs)
        if (pc >= f.entry && pc < f.end)
            return &f;
    return nullptr;
}

std::vector<int>
MachineProgram::blockLeaders() const
{
    std::vector<bool> leader(code.size(), false);
    for (const auto &f : funcs)
        if (f.entry >= 0 && static_cast<size_t>(f.entry) < code.size())
            leader[static_cast<size_t>(f.entry)] = true;
    for (size_t pc = 0; pc < code.size(); ++pc) {
        const MInst &mi = code[pc];
        if ((mi.kind == MKind::CondBr || mi.kind == MKind::Jmp) &&
            mi.target >= 0 && static_cast<size_t>(mi.target) < code.size())
            leader[static_cast<size_t>(mi.target)] = true;
        if (mi.isBlockEnd() && pc + 1 < code.size())
            leader[pc + 1] = true;
    }
    std::vector<int> out;
    for (size_t pc = 0; pc < code.size(); ++pc)
        if (leader[pc])
            out.push_back(static_cast<int>(pc));
    return out;
}

std::vector<size_t>
MachineProgram::staticMix() const
{
    std::vector<size_t> mix(static_cast<size_t>(MClass::Other) + 1, 0);
    for (const auto &mi : code)
        ++mix[static_cast<size_t>(mi.cls())];
    return mix;
}

} // namespace bsyn::isa
