/**
 * @file
 * A MiniC program whose main body is one long basic block of statements
 * in the shape synthesized clones emit: four unsigned temporaries and a
 * 64-word stream array, mixed by stream loads, mul-add stream stores,
 * temporary updates and sums of stream reads. Clones carry blocks of
 * tens of thousands of such statements, so this is the input that shows
 * how the block-local -O passes scale with block length. Shared by
 * test_differential_opt and BM_OptimizeStraightLine.
 */

#ifndef BSYN_TESTS_STRAIGHT_LINE_HH
#define BSYN_TESTS_STRAIGHT_LINE_HH

#include <string>

#include "support/rng.hh"
#include "support/string_util.hh"

namespace bsyn
{

/** @p statements clone-shaped statements in one block, drawn from
 *  @p seed. */
inline std::string
straightLineSource(size_t statements, uint64_t seed)
{
    Rng rng(seed);
    auto slot = [&] {
        return strprintf("mStream0[%llu]",
                         (unsigned long long)rng.nextBounded(64));
    };
    auto temp = [&] {
        return strprintf("t%llu", (unsigned long long)rng.nextBounded(4));
    };
    auto imm = [&] {
        return strprintf("%llu", (unsigned long long)rng.nextBounded(256));
    };
    auto operand = [&] { return rng.nextBool(0.5) ? temp() : imm(); };

    std::string src = "unsigned int mStream0[64];\n"
                      "int main() {\n"
                      "  unsigned int t0 = 73, t1 = 124, t2 = 243, "
                      "t3 = 191;\n";
    // One draw per local, in order: the operands of + are evaluated in
    // an unspecified order, and the program must not depend on it.
    for (size_t s = 0; s < statements; ++s) {
        switch (rng.nextBounded(5)) {
          case 0: {
            std::string t = temp();
            src += "  " + t + " = " + slot() + ";\n";
            break;
          }
          case 1: {
            std::string dst = slot(), a = slot(), m = operand();
            src += "  " + dst + " = ((" + a + " * " + m + ") + " +
                   operand() + ");\n";
            break;
          }
          case 2: {
            std::string t = temp();
            const char *op = rng.nextBool(0.5) ? " + " : " * ";
            src += "  " + t + " = " + t + op + imm() + ";\n";
            break;
          }
          case 3: {
            std::string t = temp(), a = slot(), b = slot();
            src += "  " + t + " = ((" + a + " + " + b + ") + " + slot() +
                   ");\n";
            break;
          }
          default: {
            std::string dst = slot();
            src += "  " + dst + " = " + operand() + ";\n";
            break;
          }
        }
    }
    src += "  printf(\"%u %u %u %u\\n\", t0, t1, t2, t3);\n"
           "  return 0;\n}\n";
    return src;
}

} // namespace bsyn

#endif // BSYN_TESTS_STRAIGHT_LINE_HH
