/**
 * @file
 * Predecoded execution engine. A DecodedProgram is built once per
 * MachineProgram: every MInst is resolved into a dense DecodedInst —
 * operand forms split apart (register / immediate / fused-load),
 * signedness and access width folded into a precomputed handler id,
 * branch targets and callees validated — and grouped into basic blocks.
 * The dispatch loop threads through a computed-goto table (a plain
 * switch on non-GNU compilers) with a separate fast path when no
 * ExecObserver is attached, so the per-step field-chasing and nested
 * switches of the reference interpreter disappear from the hot path.
 *
 * The decoded form is a pure accelerator: executing it produces
 * ExecStats byte-identical to the reference decode-per-step
 * interpreter in tests/oracle (asserted by the differential suite).
 */

#ifndef BSYN_SIM_DECODED_PROGRAM_HH
#define BSYN_SIM_DECODED_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "isa/machine_program.hh"
#include "sim/cache.hh"
#include "sim/interpreter.hh"

namespace bsyn::sim
{

/**
 * Precomputed handler id: the MKind/opcode/type/signedness decision
 * tree of the reference interpreter, resolved at decode time.
 */
enum class Handler : uint8_t
{
    // Memory (access width pre-resolved).
    Load32, Load64,
    StoreReg32, StoreReg64, StoreImm32, StoreImm64,

    // Control (branch sense pre-resolved; Ret covers both value forms).
    CondBrNZ, CondBrZ, Jmp, Call, Ret, Print,

    // Moves and unary/conversion computes.
    Mov, MovImm, NegInt, NotInt, FNeg,
    CvtIFSigned, CvtIFUnsigned, CvtFISigned, CvtFIUnsigned,

    // Integer binary computes (signedness pre-resolved where it matters).
    Add, Sub, Mul, DivS, DivU, RemS, RemU,
    And, Or, Xor, Shl, ShrS, ShrU,
    CmpEqInt, CmpNeInt,
    CmpLtS, CmpLeS, CmpGtS, CmpGeS,
    CmpLtU, CmpLeU, CmpGtU, CmpGeU,

    // Floating-point computes.
    FAdd, FSub, FMul, FDiv,
    CmpEqF, CmpNeF, CmpLtF, CmpLeF, CmpGtF, CmpGeF,

    // Memory handlers specialized by statically known operand form:
    // frame-relative with a constant offset and no index register —
    // the dominant -O0 access shape (locals and spills). The effective
    // address is one add; the generic handlers' base-select and
    // index-scale branches disappear.
    Load32FrameC, Load64FrameC,
    StoreReg32FrameC, StoreReg64FrameC,
    StoreImm32FrameC, StoreImm64FrameC,

    // Superblock-fused integer compare + conditional branch: when a
    // compare's only consumer is the CondBr at the next PC inside the
    // same superblock, the pair dispatches as one handler (the branch
    // sense lives in the kBrIfZero flag; the CondBr keeps its own
    // unfused decode at its PC so side entries still work). All
    // per-instruction accounting — retire counts, limits, hooks — is
    // performed for both PCs, so every dispatch mode stays
    // byte-identical to the unfused form.
    BrCmpEq, BrCmpNe,
    BrCmpLtS, BrCmpLeS, BrCmpGtS, BrCmpGeS,
    BrCmpLtU, BrCmpLeU, BrCmpGtU, BrCmpGeU,

    /** Malformed compute: panics if it is ever executed (the reference
     *  interpreter panics lazily too, so decode must not reject it). */
    Trap,

    Count
};

/** Where a compute operand slot comes from, resolved at decode time. */
enum OperandMode : uint8_t
{
    OperandNone = 0,  ///< slot unused
    OperandReg = 1,   ///< register in the slot's reg field
    OperandImm = 2,   ///< the instruction's raw immediate bits
    OperandFused = 3, ///< the value produced by the fused load
};

/** One predecoded instruction (dense, trivially copyable). */
struct DecodedInst
{
    Handler h = Handler::Trap;
    uint8_t aMode = OperandNone; ///< source slot 0 origin
    uint8_t bMode = OperandNone; ///< source slot 1 origin
    uint8_t flags = 0;           ///< kFusedLoad | kFusedStore | ...

    /** Timing class (isa::MClass), resolved at decode time so the
     *  timing engines never re-derive it from the MInst (see
     *  sim::timingClass). */
    uint8_t tcls = 0;

    int32_t dst = -1; ///< destination register (or -1)
    int32_t a = -1;   ///< slot-0 register / store value / branch cond / ret value
    int32_t b = -1;   ///< slot-1 register

    int32_t memIndex = -1; ///< memory index register (or -1)
    int32_t memScale = 1;
    int32_t memOffset = 0;
    int32_t memSym = 0;    ///< global symbol id (kMemFrame clear)

    int32_t target = -1; ///< branch target PC / call callee index
    uint64_t imm = 0;    ///< raw immediate bits (f64 image or zext u32)

    static constexpr uint8_t kFusedLoad = 1u << 0;  ///< pre-op memory read
    static constexpr uint8_t kFusedStore = 1u << 1; ///< post-op memory write
    static constexpr uint8_t kMemFrame = 1u << 2;   ///< mem base is the frame
    static constexpr uint8_t kMem64 = 1u << 3;      ///< fused access is 8 bytes
    static constexpr uint8_t kBrIfZero = 1u << 4;   ///< fused BrCmp* sense
};

/** One basic block of the decoded program: PCs [first, end). */
struct DecodedBlock
{
    int32_t first = 0;
    int32_t end = 0;
};

/**
 * One superblock: a maximal chain of consecutive basic blocks
 * [firstBlock, endBlock) where every block but the last falls through
 * to its successor (its final instruction is not a control transfer) —
 * the straight-line / single-successor chains of
 * MachineProgram::blockLeaders() structure. Handler fusion (the
 * BrCmp* forms) only crosses instruction boundaries inside one
 * superblock; side entries into the middle of a chain stay legal
 * because every PC keeps a dispatchable decode.
 */
struct Superblock
{
    int32_t firstBlock = 0;
    int32_t endBlock = 0;
};

/** Decode-time options. */
struct DecodeOptions
{
    /** Fuse compare+branch pairs inside superblocks (all dispatch
     *  modes execute fewer, larger handlers). Off: one handler per
     *  instruction — the layout the specialized-vs-fused differential
     *  checks compare against. */
    bool superblockFusion = true;
};

/**
 * A MachineProgram resolved for fast dispatch. Holds a reference to the
 * source program (for observer callbacks, call/print argument lists and
 * diagnostics) — the MachineProgram must outlive the DecodedProgram.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const isa::MachineProgram &prog,
                            const DecodeOptions &opts = {});

    const isa::MachineProgram &program() const { return *prog_; }
    const std::vector<DecodedInst> &code() const { return code_; }
    size_t size() const { return code_.size(); }

    /** Basic blocks in PC order. */
    const std::vector<DecodedBlock> &blocks() const { return blocks_; }

    /** Index into blocks() of the block containing @p pc. */
    int blockOf(int pc) const
    {
        return blockOf_[static_cast<size_t>(pc)];
    }

    /** Superblocks in block order (they partition blocks()). */
    const std::vector<Superblock> &superblocks() const
    {
        return superblocks_;
    }

    /** Index into superblocks() of the chain containing @p block. */
    int superblockOf(int block) const
    {
        return superblockOf_[static_cast<size_t>(block)];
    }

  private:
    const isa::MachineProgram *prog_;
    std::vector<DecodedInst> code_;
    std::vector<DecodedBlock> blocks_;
    std::vector<int32_t> blockOf_;
    std::vector<Superblock> superblocks_;
    std::vector<int32_t> superblockOf_;
};

/**
 * Execute a predecoded program to completion. Semantics and resulting
 * ExecStats are identical to executing the underlying MachineProgram on
 * the reference engine; this entry point simply skips re-decoding, so
 * callers that run one program many times (timing sweeps, calibration)
 * should decode once and call this.
 */
ExecStats execute(const DecodedProgram &prog,
                  ExecObserver *observer = nullptr,
                  const ExecLimits &limits = {});

/**
 * Dense per-PC dynamic counters filled by the instrumented dispatch
 * mode (executeInstrumented). Everything the statistical profiler
 * derives from the ExecObserver callback stream is reconstructible
 * from these plus the program's static structure, so the instrumented
 * engine never pays a virtual call per retired instruction. Accesses
 * and branch executions are not counted: they follow from the exec
 * counts (profile::derivedAccesses, derivedBranches).
 */
struct InstrumentedCounters
{
    /** Times the instruction at each PC retired. */
    std::vector<uint64_t> execCount;

    /** Data-cache misses attributed to each PC (both pure loads/stores
     *  and fused memory operands), measured against the profiling
     *  cache fed in execution order. */
    std::vector<uint64_t> memMisses;

    /** Per-CondBr outcome counters; a transition is an outcome that
     *  differs from the same branch's previous one. */
    struct Branch
    {
        static constexpr uint8_t kNone = 0, kNotTaken = 1, kTaken = 2;
        uint64_t taken = 0;
        uint64_t transitions = 0;
        uint8_t previous = kNone; ///< the last outcome, kNone before one
    };
    std::vector<Branch> branch;
};

/**
 * Execute on the instrumented dispatch mode: identical semantics and
 * ExecStats to execute(), plus @p out filled with the dense counters a
 * cache of geometry @p profiling_cache observes. The per-access cache
 * lookup is inlined into the memory handlers; no ExecObserver is
 * involved. This is the sliced mode with slicing off.
 */
ExecStats executeInstrumented(const DecodedProgram &prog,
                              const CacheConfig &profiling_cache,
                              InstrumentedCounters &out,
                              const ExecLimits &limits = {});

/**
 * Slice parameters. The run is cut into a slice every baseSliceLength
 * retired instructions; once maxSlices slices accumulate, adjacent
 * slice pairs coalesce (every second boundary is kept and the interval
 * doubles), so the final interval is baseSliceLength * 2^k — derived
 * from the run's total retired count with no wall-clock input, hence
 * fully deterministic.
 */
struct SliceOptions
{
    uint64_t baseSliceLength = 4096;
    uint32_t maxSlices = 64; ///< rounded down to an even count, >= 2
};

/** One PC's counters within one slice (the branch fields stay 0 at a
 *  PC that is no CondBr). */
struct PcDelta
{
    uint32_t pc = 0;
    uint64_t exec = 0;
    uint64_t memMisses = 0;
    uint64_t brTaken = 0;
    uint64_t brTransitions = 0;
};

/**
 * One slice of a run, stored sparsely: one PcDelta for each PC that
 * retired in the slice, in PC order — the shape of SimPoint's
 * per-interval basic block vectors. An instruction's memory and branch
 * events follow its retire and precede the next one, and a cut lands
 * between instructions, so a PC's events always fall in a slice where
 * it retires: the entries hold every event of the slice.
 */
struct CounterSlice
{
    uint64_t end = 0; ///< instructions retired at the slice's end boundary
    std::vector<PcDelta> pcs;
};

/** The slice stream of one instrumented run. */
struct SlicedCounters
{
    /** Final (possibly doubled) slice interval. */
    uint64_t sliceLength = 0;

    /** Slices in boundary order. The last one ends at end of run, so
     *  its boundary is the run's retired count and the deltas of all
     *  slices sum to the aggregate counters. */
    std::vector<CounterSlice> slices;
};

/**
 * The slice policy, shared verbatim by the instrumented engine hooks
 * and the reference profiler in tests/oracle so both produce the same
 * boundaries on the same retired-instruction stream (the
 * differential-profile suite depends on it). beforeRetire() must be
 * called before each instruction's counters are bumped: a boundary cut
 * therefore lands between instructions, never splitting one
 * instruction's retire/memory/branch events across two slices. With
 * slicing off (no output, or a zero base length) the next boundary is
 * unreachable, so the check is one never-taken compare.
 *
 * A cut costs one read of the exec counts: the recorder keeps the
 * counters as they were at the previous cut, and a PC whose exec count
 * moved since is a PC the slice touched. The stream grows with the PCs
 * each slice touched, not with the program's size.
 */
class SliceRecorder
{
  public:
    SliceRecorder(const SliceOptions &opts, SlicedCounters *out);

    void
    beforeRetire(const InstrumentedCounters &c)
    {
        if (retired_ == nextBoundary_)
            cut(c);
        ++retired_;
    }

    /** Record the final slice, which ends at end of run. */
    void finish(const InstrumentedCounters &c);

  private:
    void cut(const InstrumentedCounters &c); // cold: out of line
    void append(const InstrumentedCounters &c);
    void coalesce();

    SlicedCounters *out_;
    uint64_t retired_ = 0;
    uint64_t sliceLen_ = 0;
    uint64_t nextBoundary_ = ~0ull;
    uint32_t maxSlices_ = 0;

    /** The counters at the previous cut (the slice stream's running
     *  total). */
    InstrumentedCounters last_;

    /** Reused while a slice is built, so each slice allocates once. */
    std::vector<PcDelta> scratch_;
};

/**
 * executeInstrumented() plus the deterministic slice stream: identical
 * semantics, ExecStats and aggregate counters, with @p slices filled
 * with the per-slice deltas under @p slice_opts.
 */
ExecStats executeInstrumentedSliced(const DecodedProgram &prog,
                                    const CacheConfig &profiling_cache,
                                    InstrumentedCounters &out,
                                    SlicedCounters &slices,
                                    const SliceOptions &slice_opts = {},
                                    const ExecLimits &limits = {});

} // namespace bsyn::sim

#endif // BSYN_SIM_DECODED_PROGRAM_HH
