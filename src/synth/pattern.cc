#include "synth/pattern.hh"

#include <algorithm>

#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::synth
{

using ir::Opcode;
using ir::Type;
using isa::MClass;
using profile::InstrDescriptor;
using profile::SfglBlock;

std::string
FunctionCtx::iteratorName(int depth) const
{
    if (depth > 0)
        return strprintf("i%d", depth - 1);
    return "cnt";
}

namespace
{

constexpr size_t kMaxOperandsPerStatement = 3; ///< Table II's longest pattern
constexpr size_t kNumIntTemps = 4;
constexpr size_t kNumFpTemps = 2;

} // namespace

PatternCodegen::PatternCodegen(Rng &r, StreamPlan &s, bool use_patterns)
    : rng(r), streams(s), usePatterns(use_patterns)
{}

std::string
PatternCodegen::intTemp(FunctionCtx &ctx)
{
    if (ctx.intTemps.empty())
        ctx.intTemps.assign(kNumIntTemps, false);
    size_t k = rng.nextBounded(ctx.intTemps.size());
    ctx.intTemps[k] = true;
    return strprintf("t%zu", k);
}

std::string
PatternCodegen::fpTemp(FunctionCtx &ctx)
{
    if (ctx.fpTemps.empty())
        ctx.fpTemps.assign(kNumFpTemps, false);
    size_t k = rng.nextBounded(ctx.fpTemps.size());
    ctx.fpTemps[k] = true;
    return strprintf("ft%zu", k);
}

std::string
PatternCodegen::advanceIndex(int miss_class, bool is_fp, uint64_t count,
                             FunctionCtx &ctx)
{
    streams.use(miss_class, is_fp);
    if (miss_class == 0)
        return "";
    auto &used = is_fp ? ctx.fpIdx : ctx.intIdx;
    used[static_cast<size_t>(miss_class)] = true;
    uint64_t step = streams.strideElems(miss_class, is_fp) * count;
    return strprintf("%s = (%s + %llu) & %llu;",
                     streams.indexVar(miss_class, is_fp).c_str(),
                     streams.indexVar(miss_class, is_fp).c_str(),
                     static_cast<unsigned long long>(step),
                     static_cast<unsigned long long>(streams.mask()));
}

PatternCodegen::Operand
PatternCodegen::memOperand(int miss_class, bool is_fp, FunctionCtx &ctx,
                           std::vector<std::string> &, int offset_slot)
{
    streams.use(miss_class, is_fp);
    Operand op;
    op.isFp = is_fp;
    if (miss_class == 0) {
        // Always-hit: small array, constant index (the paper's
        // mStream0[7] style).
        op.expr = strprintf("%s[%llu]",
                            streams.arrayName(0, is_fp).c_str(),
                            static_cast<unsigned long long>(
                                rng.nextBounded(64)));
        return op;
    }
    auto &used = is_fp ? ctx.fpIdx : ctx.intIdx;
    used[static_cast<size_t>(miss_class)] = true;
    uint64_t stride = streams.strideElems(miss_class, is_fp);
    uint64_t off = stride * static_cast<uint64_t>(offset_slot);
    if (off == 0) {
        op.expr = strprintf("%s[%s]",
                            streams.arrayName(miss_class, is_fp).c_str(),
                            streams.indexVar(miss_class, is_fp).c_str());
    } else {
        op.expr = strprintf(
            "%s[(%s + %llu) & %llu]",
            streams.arrayName(miss_class, is_fp).c_str(),
            streams.indexVar(miss_class, is_fp).c_str(),
            static_cast<unsigned long long>(off),
            static_cast<unsigned long long>(streams.mask()));
    }
    return op;
}

const char *
PatternCodegen::opToken(Opcode op, bool is_fp, bool &needs_guard)
{
    needs_guard = false;
    if (is_fp) {
        switch (op) {
          case Opcode::FSub: return "-";
          case Opcode::FMul: return "*";
          case Opcode::FDiv: needs_guard = true; return "/";
          default: return "+";
        }
    }
    switch (op) {
      case Opcode::Sub: return "-";
      case Opcode::Mul: return "*";
      case Opcode::Div: needs_guard = true; return "/";
      case Opcode::Rem: needs_guard = true; return "%";
      case Opcode::And: return "&";
      case Opcode::Or: return "|";
      case Opcode::Xor: return "^";
      case Opcode::Shl: return "<<";
      case Opcode::Shr: return ">>";
      default: return "+";
    }
}

void
PatternCodegen::emitBlock(const SfglBlock &block, FunctionCtx &ctx,
                          int loop_depth, std::vector<std::string> &out)
{
    pendingLoads.clear();
    pendingOps.clear();
    pendingFp = false;

    if (!usePatterns) {
        // Ablation baseline: statement shapes from the aggregate class
        // histogram only (no sequence information).
        uint64_t loads = 0, stores = 0, iops = 0, fops = 0;
        for (const auto &d : block.code) {
            if (d.isControl)
                continue;
            if (d.readsMem)
                ++loads;
            else if (d.writesMem)
                ++stores;
            else if (d.cls == MClass::FpAlu || d.cls == MClass::FpMul ||
                     d.cls == MClass::FpDiv)
                ++fops;
            else
                ++iops;
            ++stats_.coveredInstrs;
        }
        for (uint64_t s = 0; s < std::max<uint64_t>(stores, 1); ++s) {
            InstrDescriptor fake;
            fake.op = Opcode::Store;
            fake.type = fops > iops ? Type::F64 : Type::U32;
            fake.missClass = 1;
            fake.writesMem = true;
            uint64_t per = stores ? loads / stores : loads;
            for (uint64_t l = 0; l < std::min<uint64_t>(per, 3); ++l)
                pendingLoads.push_back({1, fops > iops});
            uint64_t ops_per = stores ? (iops + fops) / stores : 2;
            for (uint64_t o = 0; o < std::min<uint64_t>(ops_per, 3); ++o)
                pendingOps.push_back(Opcode::Add);
            pendingFp = fops > iops;
            emitStore(fake, ctx, out);
        }
        return;
    }

    for (const auto &d : block.code) {
        if (d.isControl)
            continue;
        switch (d.op) {
          case Opcode::Load:
            pendingLoads.push_back({d.missClass, d.type == Type::F64});
            if (d.type == Type::F64)
                pendingFp = true;
            ++stats_.coveredInstrs;
            break;
          case Opcode::Store:
            ++stats_.coveredInstrs;
            emitStore(d, ctx, out);
            break;
          case Opcode::MovImm:
          case Opcode::Mov:
            ++stats_.coveredInstrs; // folded into constants/operands
            break;
          case Opcode::CmpEq:
          case Opcode::CmpNe:
          case Opcode::CmpLt:
          case Opcode::CmpLe:
          case Opcode::CmpGt:
          case Opcode::CmpGe:
            // Comparison work is regenerated by the control structures
            // (loop bounds, if-conditions).
            ++stats_.coveredInstrs;
            break;
          case Opcode::CvtIF:
          case Opcode::CvtFI:
            pendingFp = true;
            ++stats_.coveredInstrs;
            break;
          case Opcode::Call:
          case Opcode::Print:
          case Opcode::Nop:
            // Not representable as data statements: structural or I/O.
            // The work they stood for accrues as class deficits that
            // later statements pay back (the paper's compensation).
            flushPending(ctx, out);
            ++stats_.uncoveredInstrs;
            ++intOpDeficit;
            if (d.op == Opcode::Call)
                ++storeDeficit; // caller-side argument traffic
            break;
          default:
            // Arithmetic.
            pendingOps.push_back(d.op);
            if (d.type == Type::F64 || d.op == Opcode::FAdd ||
                d.op == Opcode::FSub || d.op == Opcode::FMul ||
                d.op == Opcode::FDiv || d.op == Opcode::FNeg)
                pendingFp = true;
            ++stats_.coveredInstrs;
            break;
        }
        if (pendingLoads.size() > 2 * kMaxOperandsPerStatement ||
            pendingOps.size() > 6)
            flushPending(ctx, out);
    }
    flushPending(ctx, out);
    compensate(ctx, out);

    // Occasionally store the loop iterator (the paper's mStream0[6]=i;).
    if (loop_depth > 0 && rng.nextBool(0.10)) {
        streams.use(0, false);
        out.push_back(strprintf("mStream0[%llu] = (unsigned int)%s;",
                                static_cast<unsigned long long>(
                                    rng.nextBounded(64)),
                                ctx.iteratorName(loop_depth).c_str()));
        ++stats_.statements;
    }
}

void
PatternCodegen::emitStore(const InstrDescriptor &store, FunctionCtx &ctx,
                          std::vector<std::string> &out)
{
    bool fp = store.type == Type::F64;

    // Count accesses per (class, fp) in this statement for the index
    // advances: the store plus every memory operand.
    std::vector<std::pair<int, bool>> classes;
    auto bump = [&](int cls, bool f) {
        classes.emplace_back(cls, f);
    };
    bump(store.missClass, fp);

    // Choose operands: memory loads first (honouring pending loads and
    // the load deficit), then constants/temps/iterator.
    size_t terms =
        std::min(pendingOps.size() + 1, kMaxOperandsPerStatement + 1);
    if (terms < 1)
        terms = 1;

    std::vector<Operand> operands;
    std::vector<int> slot_of_class(profile::numMissClasses * 2, 1);
    auto slotFor = [&](int cls, bool f) {
        return slot_of_class[static_cast<size_t>(cls) * 2 + (f ? 1 : 0)]++;
    };
    while (operands.size() < terms && !pendingLoads.empty()) {
        PendingLoad pl = pendingLoads.front();
        pendingLoads.erase(pendingLoads.begin());
        operands.push_back(memOperand(pl.missClass, pl.isFp, ctx, out,
                                      slotFor(pl.missClass, pl.isFp)));
        bump(pl.missClass, pl.isFp);
    }
    // Spend the load deficit on extra memory operands (the paper's
    // "generate load-load-arith-store instead of load-arith-store").
    while (operands.size() < terms && loadDeficit > 0) {
        operands.push_back(
            memOperand(1, fp, ctx, out, slotFor(1, fp)));
        bump(1, fp);
        --loadDeficit;
    }
    while (operands.size() < terms) {
        double roll = rng.nextDouble();
        Operand op;
        op.isFp = fp;
        if (roll < 0.55) {
            op.expr = fp ? strprintf("%llu.%llu",
                                     static_cast<unsigned long long>(
                                         rng.nextBounded(16)),
                                     static_cast<unsigned long long>(
                                         1 + rng.nextBounded(9)))
                         : strprintf("%llu",
                                     static_cast<unsigned long long>(
                                         1 + rng.nextBounded(255)));
        } else if (roll < 0.85) {
            op.expr = fp ? fpTemp(ctx) : intTemp(ctx);
        } else {
            op.expr = fp ? fpTemp(ctx) : intTemp(ctx);
        }
        operands.push_back(std::move(op));
    }

    // Index-advance statements (one per distinct class used).
    std::sort(classes.begin(), classes.end());
    for (size_t i = 0; i < classes.size();) {
        size_t j = i;
        while (j < classes.size() && classes[j] == classes[i])
            ++j;
        std::string adv = advanceIndex(classes[i].first, classes[i].second,
                                       j - i, ctx);
        if (!adv.empty()) {
            out.push_back(adv);
            ++stats_.statements;
        }
        i = j;
    }

    // Build the right-hand side.
    std::string rhs;
    for (size_t i = 0; i < operands.size(); ++i) {
        std::string term = operands[i].expr;
        if (fp && !operands[i].isFp)
            term = "(double)" + term;
        if (!fp && operands[i].isFp)
            term = "(unsigned int)" + term;
        if (i == 0) {
            rhs = term;
            continue;
        }
        Opcode op = Opcode::Add;
        if (!pendingOps.empty()) {
            op = pendingOps.front();
            pendingOps.erase(pendingOps.begin());
        }
        bool guard = false;
        const char *tok = opToken(op, fp, guard);
        if (!fp && (op == Opcode::Shl || op == Opcode::Shr)) {
            term = strprintf("%llu", static_cast<unsigned long long>(
                                         1 + rng.nextBounded(7)));
        } else if (guard) {
            term = fp ? "(" + term + " + 1.000001)"
                      : "(" + term + " | 1)";
        }
        rhs = "(" + rhs + " " + tok + " " + term + ")";
    }
    // Surplus operators fold in as constant terms.
    while (!pendingOps.empty()) {
        Opcode op = pendingOps.front();
        pendingOps.erase(pendingOps.begin());
        bool guard = false;
        const char *tok = opToken(op, fp, guard);
        std::string term =
            fp ? strprintf("%llu.5", static_cast<unsigned long long>(
                                         1 + rng.nextBounded(7)))
               : strprintf("%llu", static_cast<unsigned long long>(
                                       1 + rng.nextBounded(31)));
        if (!fp && (op == Opcode::Shl || op == Opcode::Shr))
            term = strprintf("%llu", static_cast<unsigned long long>(
                                         1 + rng.nextBounded(7)));
        rhs = "(" + rhs + " " + tok + " " + term + ")";
    }

    // Left-hand side.
    Operand lhs = memOperand(store.missClass, fp, ctx, out,
                             0 /* store goes to the walk head */);
    out.push_back(lhs.expr + " = " + rhs + ";");
    ++stats_.statements;
    pendingFp = false;
}

void
PatternCodegen::flushPending(FunctionCtx &ctx,
                             std::vector<std::string> &out)
{
    while (!pendingLoads.empty()) {
        size_t take =
            std::min(pendingLoads.size(), kMaxOperandsPerStatement);
        bool fp = false;
        for (size_t i = 0; i < take; ++i)
            fp |= pendingLoads[i].isFp;
        std::string dst = fp ? fpTemp(ctx) : intTemp(ctx);
        std::string rhs;
        std::vector<int> slot_of_class(profile::numMissClasses * 2, 1);
        for (size_t i = 0; i < take; ++i) {
            PendingLoad pl = pendingLoads.front();
            pendingLoads.erase(pendingLoads.begin());
            int slot =
                slot_of_class[static_cast<size_t>(pl.missClass) * 2 +
                              (pl.isFp ? 1 : 0)]++;
            std::string adv = advanceIndex(pl.missClass, pl.isFp, 1, ctx);
            if (!adv.empty()) {
                out.push_back(adv);
                ++stats_.statements;
            }
            Operand op = memOperand(pl.missClass, pl.isFp, ctx, out, slot);
            std::string term = op.expr;
            if (fp && !op.isFp)
                term = "(double)" + term;
            if (!fp && op.isFp)
                term = "(unsigned int)" + term;
            rhs = rhs.empty() ? term : "(" + rhs + " + " + term + ")";
        }
        out.push_back(dst + " = " + rhs + ";");
        ++stats_.statements;
    }
    // Leftover operators become temp arithmetic (register chains).
    while (!pendingOps.empty()) {
        Opcode op = pendingOps.front();
        pendingOps.erase(pendingOps.begin());
        bool fp = pendingFp && (op == Opcode::FAdd || op == Opcode::FSub ||
                                op == Opcode::FMul || op == Opcode::FDiv ||
                                op == Opcode::FNeg);
        bool guard = false;
        const char *tok = opToken(op, fp, guard);
        std::string t = fp ? fpTemp(ctx) : intTemp(ctx);
        std::string cst;
        if (fp) {
            cst = strprintf("%llu.25", static_cast<unsigned long long>(
                                           1 + rng.nextBounded(7)));
        } else if (op == Opcode::Shl || op == Opcode::Shr) {
            cst = strprintf("%llu", static_cast<unsigned long long>(
                                        1 + rng.nextBounded(7)));
        } else if (guard) {
            cst = strprintf("%llu", static_cast<unsigned long long>(
                                        1 + rng.nextBounded(31)));
        } else {
            cst = strprintf("%llu", static_cast<unsigned long long>(
                                        1 + rng.nextBounded(255)));
        }
        out.push_back(t + " = " + t + " " + tok + " " + cst + ";");
        ++stats_.statements;
    }
    pendingFp = false;
}

void
PatternCodegen::compensate(FunctionCtx &ctx, std::vector<std::string> &out)
{
    // Pay back accumulated store deficit with store-immediate patterns
    // (the paper's "generate an additional store pattern").
    int emitted = 0;
    while (storeDeficit > 0 && emitted < 2) {
        streams.use(0, false);
        out.push_back(strprintf(
            "mStream0[%llu] = %llu;",
            static_cast<unsigned long long>(rng.nextBounded(64)),
            static_cast<unsigned long long>(rng.nextBounded(255))));
        ++stats_.statements;
        ++stats_.compensationStmts;
        --storeDeficit;
        ++emitted;
    }
    // Integer-op deficit: temp arithmetic.
    emitted = 0;
    while (intOpDeficit > 1 && emitted < 2) {
        std::string t = intTemp(ctx);
        out.push_back(strprintf(
            "%s = (%s ^ %llu) + %llu;", t.c_str(), t.c_str(),
            static_cast<unsigned long long>(rng.nextBounded(255)),
            static_cast<unsigned long long>(rng.nextBounded(255))));
        ++stats_.statements;
        ++stats_.compensationStmts;
        intOpDeficit -= 2;
        ++emitted;
    }
    (void)ctx;
}

std::vector<std::string>
PatternCodegen::neverTakenBody(FunctionCtx &ctx)
{
    (void)ctx;
    std::vector<std::string> out;
    auto used = streams.used();
    size_t n = 1 + rng.nextBounded(2);
    for (size_t i = 0; i < n; ++i) {
        if (used.empty()) {
            streams.use(0, false);
            out.push_back("printf(\"%u;\", mStream0[0]);");
            continue;
        }
        auto [cls, fp] = used[rng.nextBounded(used.size())];
        if (fp) {
            out.push_back(strprintf(
                "printf(\"%%f;\", %s[%llu]);",
                streams.arrayName(cls, fp).c_str(),
                static_cast<unsigned long long>(rng.nextBounded(16))));
        } else {
            out.push_back(strprintf(
                "printf(\"%%u;\", %s[%llu]);",
                streams.arrayName(cls, fp).c_str(),
                static_cast<unsigned long long>(rng.nextBounded(16))));
        }
    }
    stats_.statements += n;
    return out;
}

} // namespace bsyn::synth
