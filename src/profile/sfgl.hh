/**
 * @file
 * The SFGL — Statistical Flow Graph with Loop annotation — the paper's
 * central profiling structure (§III-A.1, Fig 2). Nodes are basic blocks
 * annotated with execution counts and per-instruction type descriptors;
 * edges carry transition counts; natural loops are annotated with their
 * average iteration counts; conditional branches carry taken and
 * transition rates; memory instructions carry their hit/miss class.
 */

#ifndef BSYN_PROFILE_SFGL_HH
#define BSYN_PROFILE_SFGL_HH

#include <cmath>
#include <string>
#include <vector>

#include "isa/machine_program.hh"
#include "profile/branch_profile.hh"
#include "profile/memory_profile.hh"
#include "support/json.hh"

namespace bsyn::profile
{

/** Static description of one profiled machine instruction. */
struct InstrDescriptor
{
    ir::Opcode op = ir::Opcode::Nop;
    ir::Type type = ir::Type::I32;
    isa::MClass cls = isa::MClass::IntAlu;
    bool readsMem = false;
    bool writesMem = false;
    bool isControl = false; ///< CondBr/Jmp/Ret (not a body statement)
    int missClass = 0;      ///< Table I class for memory instructions

    /** Per-branch annotation (CondBr descriptors only): every CondBr
     *  in a block carries its own observed rates, so a block that
     *  lowers to more than one conditional branch loses nothing — the
     *  block-level rates summarize only the first executed one. */
    uint64_t branchExecutions = 0;
    double takenRate = 0.0;
    double transitionRate = 0.0;
};

/** A control-flow edge with its observed traversal count. */
struct SfglEdge
{
    int to = -1;
    uint64_t count = 0;
};

/** Terminator category of an SFGL block. */
enum class SfglTerm : uint8_t { Jump, Branch, Ret };

/** One SFGL node. */
struct SfglBlock
{
    int id = -1;
    int funcId = -1;
    int irBlockId = -1;
    uint64_t execCount = 0;
    std::vector<InstrDescriptor> code;
    std::vector<SfglEdge> succs;

    SfglTerm term = SfglTerm::Jump;
    double takenRate = 0.0;
    double transitionRate = 0.0;
    bool easyBranch = true;

    int loopId = -1; ///< innermost containing loop, or -1

    /** Number of non-control instructions. */
    size_t bodySize() const;
};

/** One annotated natural loop. */
struct SfglLoop
{
    int id = -1;
    int header = -1;          ///< SFGL block id
    std::vector<int> blocks;  ///< member SFGL block ids
    int parent = -1;
    int depth = 1;
    uint64_t entries = 0;     ///< times the loop was entered
    double avgIterations = 0; ///< header executions per entry
};

/** The complete statistical flow graph with loop annotation. */
struct Sfgl
{
    std::vector<SfglBlock> blocks;
    std::vector<SfglLoop> loops;
    std::vector<std::string> funcNames;

    /** Sum of (block exec count * body size): dynamic body instrs. */
    uint64_t dynamicBodyInstructions() const;

    /** Total dynamic instructions including control. */
    uint64_t dynamicInstructions() const;

    /** Append the graph as JSON: blocks, loops, funcNames. */
    void writeJson(std::string &out) const;
    /** Read the graph at @p cur ("sfgl", "phases[1].sfgl"). Every id,
     *  enum, count and rate is checked, and a failure names the field's
     *  JSON path. */
    static Sfgl readJson(JsonCursor &cur);
};

/**
 * Reports that @p v, read from the profile field @p field, is not
 * @p what ("a count"): "dynamicInstructions: -1 is not a count".
 * Always throws FatalError.
 */
[[noreturn]] void rejectProfileValue(double v, const std::string &field,
                                     const char *what);

/**
 * @p v, read from a profile, as a count: finite, integral and in
 * [0, 2^53), where a double holds every integer exactly. Anything else
 * is fatal, naming the field @p path() — built only on failure, so a
 * valid load pays for no strings.
 */
template <typename Path>
uint64_t
checkedCount(double v, const Path &path)
{
    if (std::isfinite(v) && v >= 0 && v < 0x1p53 && v == std::floor(v))
        return static_cast<uint64_t>(v);
    rejectProfileValue(v, path(), "a count");
}

/** @p v, read from a profile, as a taken rate: finite and within
 *  [0, 1]. */
template <typename Path>
double
checkedRate(double v, const Path &path)
{
    if (std::isfinite(v) && v >= 0 && v <= 1)
        return v;
    rejectProfileValue(v, path(), "a rate in [0, 1]");
}

/**
 * @p v, read from a profile, as a transition rate: finite and within
 * [0, 2]. BranchStats::transitionRate divides by executions - 1, and
 * a phase's first execution of a branch can flip from the outcome the
 * previous phase ended on, so a phase's transitions can equal its
 * executions e and its rate reach e / (e - 1), at most 2 (e >= 2).
 */
template <typename Path>
double
checkedTransitionRate(double v, const Path &path)
{
    if (std::isfinite(v) && v >= 0 && v <= 2)
        return v;
    rejectProfileValue(v, path(), "a transition rate in [0, 2]");
}

} // namespace bsyn::profile

#endif // BSYN_PROFILE_SFGL_HH
