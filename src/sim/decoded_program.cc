#include "sim/decoded_program.hh"

#include <algorithm>

#include "sim/core_model.hh"
#include "sim/dispatch.hh"
#include "sim/value_bits.hh"
#include "support/error.hh"
#include "support/inline.hh"

namespace bsyn::sim
{

namespace
{

using isa::MInst;
using isa::MKind;
using ir::Opcode;
using ir::Type;

/** Raw immediate bits exactly as the reference engine's immRaw(). */
uint64_t
immRawBits(const MInst &mi)
{
    if (mi.type == Type::F64)
        return f64Bits(mi.fimm);
    return static_cast<uint32_t>(static_cast<uint64_t>(mi.imm));
}

void
decodeMem(const MInst &mi, DecodedInst &d)
{
    if (mi.mem.symbol == ir::MemRef::frameBase)
        d.flags |= DecodedInst::kMemFrame;
    else
        d.memSym = mi.mem.symbol;
    d.memIndex = mi.mem.indexReg;
    d.memScale = mi.mem.scale;
    d.memOffset = mi.mem.offset;
    if (mi.type == Type::F64)
        d.flags |= DecodedInst::kMem64;
}

/**
 * The MKind::Compute decision tree of the reference engine, folded into
 * one handler id. Combinations the reference panics on at execution
 * (e.g. an integer opcode with an F64 type field) map to Trap so a
 * malformed-but-never-executed instruction stays lazily tolerated.
 */
Handler
computeHandler(const MInst &mi)
{
    // Unary/move forms are matched before the type split, exactly like
    // the switch at the top of the reference executeCompute().
    switch (mi.op) {
      case Opcode::MovImm: return Handler::MovImm;
      case Opcode::Mov: return Handler::Mov;
      case Opcode::Neg: return Handler::NegInt;
      case Opcode::Not: return Handler::NotInt;
      case Opcode::FNeg: return Handler::FNeg;
      case Opcode::CvtIF:
        return mi.type == Type::U32 ? Handler::CvtIFUnsigned
                                    : Handler::CvtIFSigned;
      case Opcode::CvtFI:
        return mi.type == Type::U32 ? Handler::CvtFIUnsigned
                                    : Handler::CvtFISigned;
      default:
        break;
    }

    if (mi.type == Type::F64) {
        switch (mi.op) {
          case Opcode::FAdd: return Handler::FAdd;
          case Opcode::FSub: return Handler::FSub;
          case Opcode::FMul: return Handler::FMul;
          case Opcode::FDiv: return Handler::FDiv;
          case Opcode::CmpEq: return Handler::CmpEqF;
          case Opcode::CmpNe: return Handler::CmpNeF;
          case Opcode::CmpLt: return Handler::CmpLtF;
          case Opcode::CmpLe: return Handler::CmpLeF;
          case Opcode::CmpGt: return Handler::CmpGtF;
          case Opcode::CmpGe: return Handler::CmpGeF;
          default: return Handler::Trap;
        }
    }

    bool s = mi.type == Type::I32;
    switch (mi.op) {
      case Opcode::Add: return Handler::Add;
      case Opcode::Sub: return Handler::Sub;
      case Opcode::Mul: return Handler::Mul;
      case Opcode::Div: return s ? Handler::DivS : Handler::DivU;
      case Opcode::Rem: return s ? Handler::RemS : Handler::RemU;
      case Opcode::And: return Handler::And;
      case Opcode::Or: return Handler::Or;
      case Opcode::Xor: return Handler::Xor;
      case Opcode::Shl: return Handler::Shl;
      case Opcode::Shr: return s ? Handler::ShrS : Handler::ShrU;
      case Opcode::CmpEq: return Handler::CmpEqInt;
      case Opcode::CmpNe: return Handler::CmpNeInt;
      case Opcode::CmpLt: return s ? Handler::CmpLtS : Handler::CmpLtU;
      case Opcode::CmpLe: return s ? Handler::CmpLeS : Handler::CmpLeU;
      case Opcode::CmpGt: return s ? Handler::CmpGtS : Handler::CmpGtU;
      case Opcode::CmpGe: return s ? Handler::CmpGeS : Handler::CmpGeU;
      default: return Handler::Trap;
    }
}

/** How many source slots a compute opcode reads. */
int
computeArity(Opcode op)
{
    switch (op) {
      case Opcode::MovImm:
        return 0;
      case Opcode::Mov:
      case Opcode::Neg:
      case Opcode::Not:
      case Opcode::FNeg:
      case Opcode::CvtIF:
      case Opcode::CvtFI:
        return 1;
      default:
        return 2;
    }
}

/**
 * Specialize a Load/Store handler by its statically known operand
 * form: frame-relative, constant offset, no index register — the
 * address is curFp plus a constant. Handler enum layout guarantees
 * the FrameC variant sits a fixed distance from its generic form.
 */
void
specializeMem(DecodedInst &d)
{
    if (!(d.flags & DecodedInst::kMemFrame) || d.memIndex >= 0)
        return;
    switch (d.h) {
      case Handler::Load32: d.h = Handler::Load32FrameC; break;
      case Handler::Load64: d.h = Handler::Load64FrameC; break;
      case Handler::StoreReg32: d.h = Handler::StoreReg32FrameC; break;
      case Handler::StoreReg64: d.h = Handler::StoreReg64FrameC; break;
      case Handler::StoreImm32: d.h = Handler::StoreImm32FrameC; break;
      case Handler::StoreImm64: d.h = Handler::StoreImm64FrameC; break;
      default: break;
    }
}

DecodedInst
decodeOne(const isa::MachineProgram &prog, int pc)
{
    const MInst &mi = prog.code[static_cast<size_t>(pc)];
    DecodedInst d;
    d.dst = mi.dst;
    d.imm = immRawBits(mi);
    d.tcls = static_cast<uint8_t>(timingClass(mi));

    switch (mi.kind) {
      case MKind::Load:
        d.h = mi.type == Type::F64 ? Handler::Load64 : Handler::Load32;
        decodeMem(mi, d);
        specializeMem(d);
        break;

      case MKind::Store:
        if (mi.srcIsImm) {
            d.h = mi.type == Type::F64 ? Handler::StoreImm64
                                       : Handler::StoreImm32;
        } else {
            d.h = mi.type == Type::F64 ? Handler::StoreReg64
                                       : Handler::StoreReg32;
            d.a = mi.src0;
        }
        decodeMem(mi, d);
        specializeMem(d);
        break;

      case MKind::CondBr:
        d.h = mi.brIfZero ? Handler::CondBrZ : Handler::CondBrNZ;
        d.a = mi.src0;
        d.target = mi.target;
        BSYN_ASSERT(mi.target >= 0 &&
                        static_cast<size_t>(mi.target) < prog.code.size(),
                    "branch target %d out of range at pc %d", mi.target,
                    pc);
        break;

      case MKind::Jmp:
        d.h = Handler::Jmp;
        d.target = mi.target;
        BSYN_ASSERT(mi.target >= 0 &&
                        static_cast<size_t>(mi.target) < prog.code.size(),
                    "jump target %d out of range at pc %d", mi.target, pc);
        break;

      case MKind::Call:
        d.h = Handler::Call;
        d.target = mi.callee;
        BSYN_ASSERT(mi.callee >= 0 &&
                        static_cast<size_t>(mi.callee) < prog.funcs.size(),
                    "callee %d out of range at pc %d", mi.callee, pc);
        break;

      case MKind::Ret:
        d.h = Handler::Ret;
        d.a = mi.src0;
        break;

      case MKind::Print:
        d.h = Handler::Print;
        break;

      case MKind::Compute: {
        d.h = computeHandler(mi);
        if (mi.loadFused || mi.storeFused) {
            decodeMem(mi, d);
            // decodeMem sets kMem64 from the compute's own type field —
            // the width the reference engine's loadTyped/storeTyped use
            // for fused accesses.
            if (mi.loadFused)
                d.flags |= DecodedInst::kFusedLoad;
            if (mi.storeFused)
                d.flags |= DecodedInst::kFusedStore;
        }
        // Split the operand forms: each slot is a register, the
        // immediate, or the fused load — the reference re-derives this
        // per step in computeSrc().
        int arity = computeArity(mi.op);
        auto slot = [&](int which, int reg_field, uint8_t &mode,
                        int32_t &reg_out) {
            if (mi.loadFused && mi.fusedSlot == which) {
                mode = OperandFused;
            } else if (mi.srcIsImm && mi.immSlot == which) {
                mode = OperandImm;
            } else if (reg_field >= 0) {
                mode = OperandReg;
                reg_out = reg_field;
            } else {
                // The reference asserts on an undefined source slot at
                // execution time; stay lazily tolerant of dead junk.
                d.h = Handler::Trap;
            }
        };
        if (arity >= 1)
            slot(0, mi.src0, d.aMode, d.a);
        if (arity >= 2)
            slot(1, mi.src1, d.bMode, d.b);
        break;
      }
    }
    return d;
}

} // namespace

DecodedProgram::DecodedProgram(const isa::MachineProgram &prog,
                               const DecodeOptions &opts)
    : prog_(&prog)
{
    code_.reserve(prog.code.size());
    for (size_t pc = 0; pc < prog.code.size(); ++pc)
        code_.push_back(decodeOne(prog, static_cast<int>(pc)));

    std::vector<int> leaders = prog.blockLeaders();
    if (!prog.code.empty() && (leaders.empty() || leaders.front() != 0))
        leaders.insert(leaders.begin(), 0);
    blockOf_.assign(prog.code.size(), 0);
    blocks_.reserve(leaders.size());
    for (size_t b = 0; b < leaders.size(); ++b) {
        DecodedBlock blk;
        blk.first = leaders[b];
        blk.end = b + 1 < leaders.size()
                      ? leaders[b + 1]
                      : static_cast<int32_t>(prog.code.size());
        for (int32_t pc = blk.first; pc < blk.end; ++pc)
            blockOf_[static_cast<size_t>(pc)] = static_cast<int32_t>(b);
        blocks_.push_back(blk);
    }

    // Superblocks: chain consecutive blocks while the earlier block
    // falls through (its last instruction is not a control transfer —
    // the successor block's leader exists only because it is a branch
    // target elsewhere).
    superblockOf_.assign(blocks_.size(), 0);
    for (size_t b = 0; b < blocks_.size();) {
        size_t e = b;
        while (e + 1 < blocks_.size()) {
            const DecodedBlock &blk = blocks_[e];
            if (blk.first >= blk.end)
                break;
            const MInst &last =
                prog.code[static_cast<size_t>(blk.end - 1)];
            if (last.isBlockEnd())
                break;
            ++e;
        }
        Superblock sb;
        sb.firstBlock = static_cast<int32_t>(b);
        sb.endBlock = static_cast<int32_t>(e + 1);
        for (size_t i = b; i <= e; ++i)
            superblockOf_[i] = static_cast<int32_t>(superblocks_.size());
        superblocks_.push_back(sb);
        b = e + 1;
    }

    // Superblock fusion: an integer compare whose value feeds the
    // conditional branch at the next PC inside the same superblock
    // dispatches as one BrCmp* handler. The CondBr keeps its own
    // decode at pc+1 (side entries from other branches stay legal);
    // the fused handler performs both instructions' retire accounting,
    // so every dispatch mode stays byte-identical to the unfused form.
    if (!opts.superblockFusion)
        return;
    for (size_t pc = 0; pc + 1 < code_.size(); ++pc) {
        DecodedInst &d = code_[pc];
        Handler fused;
        switch (d.h) {
          case Handler::CmpEqInt: fused = Handler::BrCmpEq; break;
          case Handler::CmpNeInt: fused = Handler::BrCmpNe; break;
          case Handler::CmpLtS: fused = Handler::BrCmpLtS; break;
          case Handler::CmpLeS: fused = Handler::BrCmpLeS; break;
          case Handler::CmpGtS: fused = Handler::BrCmpGtS; break;
          case Handler::CmpGeS: fused = Handler::BrCmpGeS; break;
          case Handler::CmpLtU: fused = Handler::BrCmpLtU; break;
          case Handler::CmpLeU: fused = Handler::BrCmpLeU; break;
          case Handler::CmpGtU: fused = Handler::BrCmpGtU; break;
          case Handler::CmpGeU: fused = Handler::BrCmpGeU; break;
          default: continue;
        }
        if (d.dst < 0)
            continue;
        if (d.flags &
            (DecodedInst::kFusedLoad | DecodedInst::kFusedStore))
            continue; // keep fused-memory compares on the generic path
        const DecodedInst &br = code_[pc + 1];
        if (br.h != Handler::CondBrNZ && br.h != Handler::CondBrZ)
            continue;
        if (br.a != d.dst)
            continue;
        if (superblockOf_[static_cast<size_t>(
                blockOf_[pc])] !=
            superblockOf_[static_cast<size_t>(blockOf_[pc + 1])])
            continue;
        d.h = fused;
        d.target = br.target;
        if (br.h == Handler::CondBrZ)
            d.flags |= DecodedInst::kBrIfZero;
    }
}

namespace
{

using detail::Engine;

/** The observer-free fast path: every hook compiles away. */
struct NullHooks
{
    struct Local
    {};
    BSYN_FORCE_INLINE Local enter() { return {}; }
    BSYN_FORCE_INLINE void leave(Local &) {}
    BSYN_FORCE_INLINE void onInstruction(Local &, int) {}
    BSYN_FORCE_INLINE void onMemRead(Local &, int, uint64_t, uint32_t, uint64_t) {}
    BSYN_FORCE_INLINE void onMemWrite(Local &, int, uint64_t, uint32_t, uint64_t) {}
    BSYN_FORCE_INLINE void onBranch(Local &, int, bool) {}
};

/** Generic ExecObserver dispatch (virtual call per event). */
struct ObserverHooks
{
    const isa::MachineProgram &prog;
    ExecObserver &obs;

    struct Local
    {};
    BSYN_FORCE_INLINE Local enter() { return {}; }
    BSYN_FORCE_INLINE void leave(Local &) {}

    BSYN_FORCE_INLINE void
    onInstruction(Local &, int pc)
    {
        obs.onInstruction(pc, prog.code[static_cast<size_t>(pc)]);
    }
    BSYN_FORCE_INLINE void
    onMemRead(Local &, int pc, uint64_t addr, uint32_t size,
              uint64_t raw)
    {
        obs.onMemAccess(pc, addr, size, false, raw);
    }
    BSYN_FORCE_INLINE void
    onMemWrite(Local &, int pc, uint64_t addr, uint32_t size,
               uint64_t raw)
    {
        obs.onMemAccess(pc, addr, size, true, raw);
    }
    BSYN_FORCE_INLINE void
    onBranch(Local &, int pc, bool taken)
    {
        obs.onBranch(pc, taken);
    }
};

/**
 * The fused profiling mode: dense per-PC counters plus the profiling
 * cache, with Cache::access() inlined into the memory handlers, and the
 * slice recorder's boundary check before every retire (one compare;
 * the cut itself is cold).
 */
struct ProfileHooks
{
    InstrumentedCounters &c;
    Cache cache;
    SliceRecorder &rec;

    struct Local
    {};
    BSYN_FORCE_INLINE Local enter() { return {}; }
    BSYN_FORCE_INLINE void leave(Local &) {}

    BSYN_FORCE_INLINE void
    onInstruction(Local &, int pc)
    {
        rec.beforeRetire(c);
        ++c.execCount[static_cast<size_t>(pc)];
    }
    BSYN_FORCE_INLINE void
    onMemRead(Local &, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        note(pc, addr, size);
    }
    BSYN_FORCE_INLINE void
    onMemWrite(Local &, int pc, uint64_t addr, uint32_t size, uint64_t)
    {
        note(pc, addr, size);
    }
    BSYN_FORCE_INLINE void
    onBranch(Local &, int pc, bool taken)
    {
        using Branch = InstrumentedCounters::Branch;
        auto &b = c.branch[static_cast<size_t>(pc)];
        uint8_t now = taken ? Branch::kTaken : Branch::kNotTaken;
        b.taken += taken;
        // Only the two outcomes XOR to 3: kNone XORs to the outcome.
        b.transitions +=
            (b.previous ^ now) == (Branch::kNotTaken ^ Branch::kTaken);
        b.previous = now;
    }

  private:
    BSYN_FORCE_INLINE void
    note(int pc, uint64_t addr, uint32_t size)
    {
        if (!cache.access(addr, size))
            ++c.memMisses[static_cast<size_t>(pc)];
    }
};

} // namespace

ExecStats
execute(const DecodedProgram &prog, ExecObserver *observer,
        const ExecLimits &limits)
{
    if (observer) {
        ObserverHooks hooks{prog.program(), *observer};
        return Engine<ObserverHooks>(prog, hooks, limits).run();
    }
    NullHooks hooks;
    return Engine<NullHooks>(prog, hooks, limits).run();
}

ExecStats
execute(const isa::MachineProgram &prog, ExecObserver *observer,
        const ExecLimits &limits)
{
    return execute(DecodedProgram(prog), observer, limits);
}

ExecStats
executeInstrumented(const DecodedProgram &prog,
                    const CacheConfig &profiling_cache,
                    InstrumentedCounters &out, const ExecLimits &limits)
{
    SlicedCounters none;
    SliceOptions off;
    off.baseSliceLength = 0;
    return executeInstrumentedSliced(prog, profiling_cache, out, none, off,
                                     limits);
}

SliceRecorder::SliceRecorder(const SliceOptions &opts, SlicedCounters *out)
    : out_(opts.baseSliceLength > 0 ? out : nullptr),
      sliceLen_(opts.baseSliceLength),
      maxSlices_(std::max(2u, opts.maxSlices & ~1u))
{
    if (out_) {
        out_->slices.clear();
        out_->sliceLength = sliceLen_;
        nextBoundary_ = sliceLen_;
    } else if (out) {
        out->slices.clear();
        out->sliceLength = 0;
    }
}

void
SliceRecorder::append(const InstrumentedCounters &c)
{
    size_t n = c.execCount.size();
    if (last_.execCount.size() != n) {
        last_.execCount.assign(n, 0);
        last_.memMisses.assign(n, 0);
        last_.branch.assign(n, InstrumentedCounters::Branch());
    }
    auto take = [&](size_t pc) {
        const InstrumentedCounters::Branch &b = c.branch[pc];
        InstrumentedCounters::Branch &lb = last_.branch[pc];
        scratch_.push_back({static_cast<uint32_t>(pc),
                            c.execCount[pc] - last_.execCount[pc],
                            c.memMisses[pc] - last_.memMisses[pc],
                            b.taken - lb.taken,
                            b.transitions - lb.transitions});
        last_.execCount[pc] = c.execCount[pc];
        last_.memMisses[pc] = c.memMisses[pc];
        lb = b;
    };

    // A PC retired in this slice iff its exec count moved since the
    // previous cut. Most PCs of a large program did not, so compare a
    // chunk at a time and look closer only where something moved.
    constexpr size_t kChunk = 64;
    scratch_.clear();
    for (size_t base = 0; base < n; base += kChunk) {
        size_t stop = std::min(n, base + kChunk);
        uint64_t moved = 0;
        for (size_t pc = base; pc < stop; ++pc)
            moved |= c.execCount[pc] ^ last_.execCount[pc];
        for (size_t pc = base; moved && pc < stop; ++pc)
            if (c.execCount[pc] != last_.execCount[pc])
                take(pc);
    }
    out_->slices.push_back(
        {retired_, std::vector<PcDelta>(scratch_.begin(), scratch_.end())});
}

void
SliceRecorder::coalesce()
{
    // Slice pair (2k, 2k+1) becomes slice k: boundary j*sliceLen
    // survives iff j is even. A PC in both halves sums its two deltas;
    // the merge of two PC-ordered lists stays in PC order.
    std::vector<CounterSlice> &v = out_->slices;
    for (size_t k = 0; 2 * k + 1 < v.size(); ++k) {
        const std::vector<PcDelta> &a = v[2 * k].pcs;
        const std::vector<PcDelta> &b = v[2 * k + 1].pcs;
        scratch_.clear();
        size_t i = 0, j = 0;
        while (i < a.size() || j < b.size()) {
            if (j == b.size() || (i < a.size() && a[i].pc < b[j].pc)) {
                scratch_.push_back(a[i++]);
            } else if (i == a.size() || b[j].pc < a[i].pc) {
                scratch_.push_back(b[j++]);
            } else {
                PcDelta d = a[i++];
                const PcDelta &e = b[j++];
                d.exec += e.exec;
                d.memMisses += e.memMisses;
                d.brTaken += e.brTaken;
                d.brTransitions += e.brTransitions;
                scratch_.push_back(d);
            }
        }
        v[k] = {v[2 * k + 1].end,
                std::vector<PcDelta>(scratch_.begin(), scratch_.end())};
    }
    v.resize(v.size() / 2);
    sliceLen_ *= 2;
    out_->sliceLength = sliceLen_;
}

void
SliceRecorder::cut(const InstrumentedCounters &c)
{
    append(c);
    // The stream always describes the whole run in at most maxSlices
    // slices of a power-of-two multiple of the base length.
    if (out_->slices.size() >= maxSlices_)
        coalesce();
    nextBoundary_ = retired_ + sliceLen_;
}

void
SliceRecorder::finish(const InstrumentedCounters &c)
{
    if (!out_)
        return;
    if (out_->slices.empty() || out_->slices.back().end < retired_)
        append(c);
    out_->sliceLength = sliceLen_;
}

ExecStats
executeInstrumentedSliced(const DecodedProgram &prog,
                          const CacheConfig &profiling_cache,
                          InstrumentedCounters &out,
                          SlicedCounters &slices,
                          const SliceOptions &slice_opts,
                          const ExecLimits &limits)
{
    out.execCount.assign(prog.size(), 0);
    out.memMisses.assign(prog.size(), 0);
    out.branch.assign(prog.size(), InstrumentedCounters::Branch());
    SliceRecorder rec(slice_opts, &slices);
    ProfileHooks hooks{out, Cache(profiling_cache), rec};
    ExecStats stats = Engine<ProfileHooks>(prog, hooks, limits).run();
    rec.finish(out);
    return stats;
}

} // namespace bsyn::sim
