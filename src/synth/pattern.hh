/**
 * @file
 * Pattern-driven C statement generation (paper §III-B.4 + Table II):
 * the recognizer scans each profiled basic block's instruction-type
 * sequence and emits C statements whose compiled form reproduces those
 * sequences — mem[i] = mem[j] op mem[k], mem[i] = mem[j] op cst,
 * mem[i] = cst, and register-temporary arithmetic chains. Constants are
 * chosen randomly (obfuscation), coverage is deliberately below 100%,
 * and a compensation mechanism pays back accumulated per-class deficits
 * with extra loads/stores, as the paper describes.
 */

#ifndef BSYN_SYNTH_PATTERN_HH
#define BSYN_SYNTH_PATTERN_HH

#include <string>
#include <vector>

#include "profile/sfgl.hh"
#include "support/rng.hh"
#include "synth/memory_streams.hh"

namespace bsyn::synth
{

/** Per-function emission context: which locals the body used. */
struct FunctionCtx
{
    int maxLoopDepth = 0;      ///< iterators i0..i{depth-1}
    bool usesCounter = false;  ///< 'cnt' for top-level hard branches
    std::vector<bool> intTemps; ///< t0..tN
    std::vector<bool> fpTemps;  ///< ft0..ftN
    std::vector<bool> intIdx = std::vector<bool>(16, false);
    std::vector<bool> fpIdx = std::vector<bool>(16, false);

    /** Innermost live loop iterator name, or "cnt" fallback. */
    std::string iteratorName(int depth) const;
};

/** Pattern-generation statistics (Table II's coverage row). */
struct PatternStats
{
    uint64_t coveredInstrs = 0;   ///< descriptors turned into statements
    uint64_t uncoveredInstrs = 0; ///< skipped (compensated later)
    uint64_t statements = 0;
    uint64_t compensationStmts = 0;

    double
    coverage() const
    {
        uint64_t total = coveredInstrs + uncoveredInstrs;
        return total ? double(coveredInstrs) / double(total) : 1.0;
    }
};

/** The pattern recognizer / statement generator. */
class PatternCodegen
{
  public:
    /** @p use_patterns false is the ablation baseline: ignore the
     *  observed instruction sequences and draw statement shapes from
     *  the block's aggregate class histogram instead (the "statistics,
     *  not patterns" prior work the paper differentiates itself
     *  from). */
    PatternCodegen(Rng &rng, StreamPlan &streams, bool use_patterns);

    /**
     * Emit C statements reproducing @p block's instruction sequence.
     *
     * @param block the profiled block.
     * @param ctx per-function local-variable usage tracking.
     * @param loop_depth current loop nesting (selects the iterator).
     * @param out statement strings (no indentation) appended here.
     */
    void emitBlock(const profile::SfglBlock &block, FunctionCtx &ctx,
                   int loop_depth, std::vector<std::string> &out);

    /** Statements for a guarded never-executed path (prints results). */
    std::vector<std::string> neverTakenBody(FunctionCtx &ctx);

    const PatternStats &stats() const { return stats_; }

  private:
    struct Operand
    {
        std::string expr;
        bool isFp = false;
    };

    Operand memOperand(int miss_class, bool is_fp, FunctionCtx &ctx,
                       std::vector<std::string> &out, int offset_slot);
    std::string advanceIndex(int miss_class, bool is_fp, uint64_t count,
                             FunctionCtx &ctx);
    std::string intTemp(FunctionCtx &ctx);
    std::string fpTemp(FunctionCtx &ctx);
    const char *opToken(ir::Opcode op, bool is_fp, bool &needs_guard);

    void flushPending(FunctionCtx &ctx, std::vector<std::string> &out);
    void emitStore(const profile::InstrDescriptor &store, FunctionCtx &ctx,
                   std::vector<std::string> &out);
    void compensate(FunctionCtx &ctx, std::vector<std::string> &out);

    Rng &rng;
    StreamPlan &streams;
    bool usePatterns;
    PatternStats stats_;

    // Pending pattern state while scanning a block.
    struct PendingLoad
    {
        int missClass = 0;
        bool isFp = false;
    };
    std::vector<PendingLoad> pendingLoads;
    std::vector<ir::Opcode> pendingOps;
    bool pendingFp = false;

    // Benchmark-wide class deficits (paper's compensation counters).
    int64_t loadDeficit = 0;
    int64_t storeDeficit = 0;
    int64_t intOpDeficit = 0;
    int64_t fpOpDeficit = 0;
};

} // namespace bsyn::synth

#endif // BSYN_SYNTH_PATTERN_HH
