/**
 * @file
 * An IR module: global data symbols plus functions. The module is the
 * unit that the MiniC front end produces, the optimizer transforms, and
 * the lowering layer turns into an executable MachineProgram.
 */

#ifndef BSYN_IR_MODULE_HH
#define BSYN_IR_MODULE_HH

#include <string>
#include <vector>

#include "ir/function.hh"

namespace bsyn::ir
{

/** A global scalar or array symbol. */
struct Global
{
    std::string name;
    Type elemType = Type::I32;
    uint64_t elems = 1;          ///< element count (1 for scalars)
    std::vector<uint64_t> init;  ///< raw element bit patterns; empty = zero

    /** Total size in bytes. */
    uint64_t sizeBytes() const { return elems * typeSize(elemType); }
};

/** A complete program: globals + functions; entry point by name. */
struct Module
{
    std::string name;
    std::vector<Global> globals;
    std::vector<Function> functions;

    /** Add a global; @return its symbol index. */
    int addGlobal(Global g);

    /** Find a function index by name, or -1. */
    int findFunction(const std::string &name) const;

    /** Total static body instruction count. */
    size_t instructionCount() const;
};

} // namespace bsyn::ir

#endif // BSYN_IR_MODULE_HH
