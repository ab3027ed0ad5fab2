/**
 * @file
 * The reference decode-per-step interpreter: every step re-reads the
 * MInst and walks the kind/opcode/type decision tree. It is the golden
 * model the predecoded engine (sim/decoded_program.hh) is
 * differentially tested against.
 */

#ifndef BSYN_ORACLE_INTERPRETER_HH
#define BSYN_ORACLE_INTERPRETER_HH

#include "sim/interpreter.hh"

namespace bsyn::oracle
{

/** Execute @p prog to completion; same contract as sim::execute(). */
sim::ExecStats executeReference(const isa::MachineProgram &prog,
                                sim::ExecObserver *observer = nullptr,
                                const sim::ExecLimits &limits = {});

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_INTERPRETER_HH
