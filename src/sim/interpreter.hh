/**
 * @file
 * Functional execution of MachinePrograms with Pin-style observation
 * hooks: the observer interface, the execution statistics and limits,
 * and the decode-and-run entry point. The engine itself is the
 * predecoded dispatch loop of sim/decoded_program.hh.
 */

#ifndef BSYN_SIM_INTERPRETER_HH
#define BSYN_SIM_INTERPRETER_HH

#include <string>
#include <vector>

#include "isa/machine_program.hh"
#include "sim/memory_image.hh"

namespace bsyn::sim
{

/**
 * Observation interface over the executed instruction stream, in the
 * spirit of Pin's instrumentation callbacks.
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /** Called once for every retired instruction. */
    virtual void onInstruction(int pc, const isa::MInst &mi) = 0;

    /**
     * Called for every data memory access (including accesses made by
     * fused CISC memory operands).
     */
    virtual void onMemAccess(int pc, uint64_t addr, uint32_t size,
                             bool is_write, uint64_t raw_value = 0) = 0;

    /** Called for every executed conditional branch. */
    virtual void onBranch(int pc, bool taken) = 0;
};

/** Execution statistics. */
struct ExecStats
{
    uint64_t instructions = 0; ///< retired dynamic instructions
    uint64_t memReads = 0;
    uint64_t memWrites = 0;
    uint64_t branches = 0;     ///< conditional branches executed
    uint64_t takenBranches = 0;
    uint64_t calls = 0;
    int exitCode = 0;
    std::string output;        ///< everything printf'd

    bool
    operator==(const ExecStats &o) const
    {
        return instructions == o.instructions && memReads == o.memReads &&
               memWrites == o.memWrites && branches == o.branches &&
               takenBranches == o.takenBranches && calls == o.calls &&
               exitCode == o.exitCode && output == o.output;
    }
    bool operator!=(const ExecStats &o) const { return !(*this == o); }
};

/** Interpreter configuration. */
struct ExecLimits
{
    uint64_t maxInstructions = 4ull << 30; ///< runaway guard
};

/**
 * Execute @p prog from its entry function to completion. Decodes once
 * per call; callers re-running one program should predecode and use
 * the DecodedProgram overload.
 *
 * @param prog the lowered program (must have an entry function).
 * @param observer optional observation hooks (nullptr = fast path).
 * @param limits execution limits.
 * @return execution statistics including captured output.
 */
ExecStats execute(const isa::MachineProgram &prog,
                  ExecObserver *observer = nullptr,
                  const ExecLimits &limits = {});

} // namespace bsyn::sim

#endif // BSYN_SIM_INTERPRETER_HH
