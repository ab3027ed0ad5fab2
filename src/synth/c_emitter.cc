#include "synth/c_emitter.hh"

#include <algorithm>
#include <cmath>

#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::synth
{

namespace
{

/** Hard-branch modulo period bounds (paper: modulo 1/transition). */
constexpr long kMinPeriod = 2;
constexpr long kMaxPeriod = 64;

class Emitter
{
  public:
    Emitter(const std::vector<EmitPhase> &ph, Rng &r, bool use_patterns)
        : phases(ph), rng(r), pattern(r, streams, use_patterns)
    {}

    EmitResult
    run()
    {
        // Emit phase by phase in profile order; within a phase, in
        // skeleton order. Each function's statements come from its own
        // phase's scaled SFGL, but all phases draw from the shared
        // stream plan / rng.
        std::vector<std::string> func_bodies;
        std::vector<std::string> func_names;
        for (const EmitPhase &ph : phases) {
            sfgl = &ph.sfgl;
            for (const auto &fn : ph.skeleton.funcs) {
                func_bodies.push_back(emitFunction(fn));
                func_names.push_back(fn.name);
            }
        }

        // Assemble the file. Function definition order is shuffled (one
        // more obfuscation step); call order in main() is preserved.
        std::vector<size_t> def_order(func_bodies.size());
        for (size_t i = 0; i < def_order.size(); ++i)
            def_order[i] = i;
        rng.shuffle(def_order);

        std::string src;
        src += "/* Synthetic benchmark clone generated by bsyn.\n";
        src += " * The code is a statistical proxy: it reproduces the\n";
        src += " * original workload's execution behaviour, not its\n";
        src += " * function. */\n";
        src += "#include <stdio.h>\n\n";
        for (const auto &d : streams.globalDecls())
            src += d + "\n";
        src += "\n";
        // All definitions precede main(), so no forward declarations are
        // needed in either C or MiniC; definition order is shuffled as
        // one more obfuscation step.
        for (size_t i : def_order)
            src += func_bodies[i] + "\n";

        src += "int main(void)\n{\n";
        for (const auto &n : func_names)
            src += "    " + n + "();\n";
        src += strprintf(
            "    printf(\"bsyn_checksum=%%u\\n\", %s);\n",
            streams.checksumExpr().c_str());
        src += "    return 0;\n}\n";

        EmitResult result;
        result.source = std::move(src);
        result.patternStats = pattern.stats();
        return result;
    }

  private:
    // --- Statement buffer with indentation ------------------------------

    void
    line(std::string text)
    {
        body += std::string(static_cast<size_t>(indent) * 4, ' ') + text +
                "\n";
    }

    void
    open(const std::string &head)
    {
        line(head + " {");
        ++indent;
    }

    void
    close()
    {
        --indent;
        line("}");
    }

    // --- Node emission -----------------------------------------------------

    std::string
    emitFunction(const SynFunction &fn)
    {
        body.clear();
        indent = 1;
        ctx = FunctionCtx();
        loopDepth = 0;

        for (const auto &node : fn.roots)
            emitNode(node);

        // Prologue: declarations for everything the body used.
        std::string decls;
        auto dline = [&](const std::string &s) {
            decls += "    " + s + "\n";
        };
        for (int d = 0; d < ctx.maxLoopDepth; ++d)
            dline(strprintf("int i%d;", d));
        if (ctx.usesCounter)
            dline("int cnt = 0;");
        for (size_t i = 0; i < ctx.intTemps.size(); ++i)
            if (ctx.intTemps[i])
                dline(strprintf("unsigned int t%zu = %llu;", i,
                                static_cast<unsigned long long>(
                                    rng.nextBounded(255))));
        for (size_t i = 0; i < ctx.fpTemps.size(); ++i)
            if (ctx.fpTemps[i])
                dline(strprintf("double ft%zu = %llu.5;", i,
                                static_cast<unsigned long long>(
                                    rng.nextBounded(15))));
        for (int c = 1; c < profile::numMissClasses; ++c) {
            if (ctx.intIdx[static_cast<size_t>(c)])
                dline(strprintf("int %s = 0;",
                                streams.indexVar(c, false).c_str()));
            if (ctx.fpIdx[static_cast<size_t>(c)])
                dline(strprintf("int %s = 0;",
                                streams.indexVar(c, true).c_str()));
        }

        std::string out = "void " + fn.name + "(void)\n{\n";
        out += decls;
        out += body;
        out += "}\n";
        return out;
    }

    void
    emitNode(const SynNode &node)
    {
        switch (node.kind) {
          case SynNode::Kind::Block:
            emitBlockNode(node);
            break;
          case SynNode::Kind::Loop:
            emitLoopNode(node, node.iterations);
            break;
          case SynNode::Kind::Repeat:
            if (node.iterations <= 1) {
                for (const auto &child : node.body)
                    emitNode(child);
            } else {
                emitLoopNode(node, node.iterations);
            }
            break;
          case SynNode::Kind::If:
            emitIfNode(node);
            break;
        }
    }

    void
    emitBlockNode(const SynNode &node)
    {
        const profile::SfglBlock &blk =
            sfgl->blocks[static_cast<size_t>(node.sfglBlock)];
        std::vector<std::string> stmts;
        pattern.emitBlock(blk, ctx, loopDepth, stmts);
        for (auto &s : stmts)
            line(std::move(s));
    }

    void
    emitLoopNode(const SynNode &node, uint64_t iterations)
    {
        int d = loopDepth;
        ctx.maxLoopDepth = std::max(ctx.maxLoopDepth, d + 1);
        open(strprintf("for (i%d = 0; i%d < %llu; i%d++)", d, d,
                       static_cast<unsigned long long>(iterations), d));
        ++loopDepth;
        for (const auto &child : node.body)
            emitNode(child);
        --loopDepth;
        close();
    }

    void
    emitIfNode(const SynNode &node)
    {
        double p = std::clamp(node.execProb, 0.0, 1.0);

        if (node.easyBranch && p < 0.5) {
            // Never-taken path guarded by a data comparison the compiler
            // cannot fold; the body prints results computed elsewhere
            // (forcing the compiler to keep them alive). Paper Fig 3.
            streams.use(0, false);
            uint64_t magic = 0x99000000ull + rng.nextBounded(0xffffff);
            open(strprintf("if (mStream0[%llu] == 0x%llx)",
                           static_cast<unsigned long long>(
                               rng.nextBounded(64)),
                           static_cast<unsigned long long>(magic)));
            for (const auto &s : pattern.neverTakenBody(ctx))
                line(s);
            // The intended body is still emitted inside the guard: it
            // contributes static code (and is what the original cold
            // path looked like), but never executes.
            for (const auto &child : node.body)
                emitNode(child);
            close();
            return;
        }

        if (node.easyBranch && p >= 0.5) {
            // Always-taken: execute unconditionally (the paper assumes
            // easy branches are always (not-)taken).
            for (const auto &child : node.body)
                emitNode(child);
            return;
        }

        // Hard branch: modulo on the innermost loop iterator with the
        // period that reproduces the execution probability.
        std::string iter;
        if (loopDepth > 0) {
            iter = strprintf("i%d", loopDepth - 1);
        } else {
            ctx.usesCounter = true;
            line("cnt = cnt + 1;");
            iter = "cnt";
        }
        if (p <= 0.5) {
            int period = static_cast<int>(std::clamp<long>(
                std::lround(1.0 / std::max(p, 0.02)),
                kMinPeriod, kMaxPeriod));
            open(strprintf("if ((%s %% %d) == 0)", iter.c_str(), period));
        } else {
            int period = static_cast<int>(std::clamp<long>(
                std::lround(1.0 / std::max(1.0 - p, 0.02)),
                kMinPeriod, kMaxPeriod));
            open(strprintf("if ((%s %% %d) != 0)", iter.c_str(), period));
        }
        for (const auto &child : node.body)
            emitNode(child);
        close();
    }

    const std::vector<EmitPhase> &phases;
    const profile::Sfgl *sfgl = nullptr; ///< current phase's SFGL
    Rng &rng;

    StreamPlan streams;
    PatternCodegen pattern;

    std::string body;
    int indent = 0;
    int loopDepth = 0;
    FunctionCtx ctx;
};

} // namespace

EmitResult
emitC(const std::vector<EmitPhase> &phases, Rng &rng, bool use_patterns)
{
    BSYN_ASSERT(!phases.empty(), "emitting a benchmark with no phases");
    return Emitter(phases, rng, use_patterns).run();
}

} // namespace bsyn::synth
