/**
 * @file
 * Execution-semantics tests: each MiniC snippet is compiled and run at
 * every optimization level on every target; the printed output must be
 * identical everywhere. This is the framework's central correctness
 * property (optimization levels and ISAs must preserve semantics —
 * otherwise every cross-compiler experiment in the paper collapses).
 */

#include <gtest/gtest.h>

#include "isa/lowering.hh"
#include "lang/frontend.hh"
#include "oracle/interpreter.hh"
#include "pipeline/pipeline.hh"
#include "sim/decoded_program.hh"
#include "support/error.hh"

namespace bsyn
{
namespace
{

struct ExecCase
{
    const char *name;
    const char *source;
    const char *expected; ///< exact expected output
};

const ExecCase execCases[] = {
    {"signed_arithmetic",
     R"(int main() {
          int a = -7, b = 3;
          printf("%d %d %d %d\n", a + b, a - b, a / b, a % b);
          return 0;
        })",
     "-4 -10 -2 -1\n"},
    {"unsigned_arithmetic",
     R"(int main() {
          uint a = 0xFFFFFFFF; uint b = 2;
          printf("%u %u %u\n", a / b, a % b, a + 1);
          return 0;
        })",
     "2147483647 1 0\n"},
    {"signed_shift_is_arithmetic",
     R"(int main() {
          int a = -16;
          uint b = 0x80000000;
          printf("%d %u\n", a >> 2, b >> 4);
          return 0;
        })",
     "-4 134217728\n"},
    {"int_overflow_wraps",
     R"(int main() {
          int a = 2147483647;
          printf("%d\n", a + 1);
          return 0;
        })",
     "-2147483648\n"},
    {"division_by_zero_defined",
     // Framework-defined semantics: x/0 == 0, x%0 == 0 (DESIGN.md).
     R"(int main() {
          int z = 0;
          printf("%d %d\n", 5 / z, 5 % z);
          return 0;
        })",
     "0 0\n"},
    {"double_arithmetic",
     R"(int main() {
          double a = 1.5, b = 0.25;
          printf("%f %f %f\n", a + b, a * b, a / b);
          return 0;
        })",
     "1.750000 0.375000 6.000000\n"},
    {"conversions",
     R"(int main() {
          double d = 3.9;
          int i = (int)d;
          double e = (double)i / 2.0;
          uint u = (uint)2.5;
          printf("%d %f %u\n", i, e, u);
          return 0;
        })",
     "3 1.500000 2\n"},
    {"negative_float_truncation",
     R"(int main() {
          double d = -3.9;
          printf("%d\n", (int)d);
          return 0;
        })",
     "-3\n"},
    {"comparisons_mixed",
     R"(int main() {
          int a = -1;
          uint b = 1;
          printf("%d %d %d\n", a < 0, (uint)a > b, 1.5 < 2.5);
          return 0;
        })",
     "1 1 1\n"},
    {"short_circuit_evaluation",
     R"(int g;
        int bump() { g = g + 1; return 1; }
        int main() {
          g = 0;
          int a = 0 && bump();
          int b = 1 || bump();
          int c = 1 && bump();
          printf("%d %d %d %d\n", a, b, c, g);
          return 0;
        })",
     "0 1 1 1\n"},
    {"ternary",
     R"(int main() {
          int x = 7;
          printf("%d %d\n", x > 5 ? 10 : 20, x < 5 ? 10 : 20);
          return 0;
        })",
     "10 20\n"},
    {"loops_break_continue",
     R"(int main() {
          int sum = 0, i;
          for (i = 0; i < 100; i++) {
            if (i % 2) continue;
            if (i > 10) break;
            sum += i;
          }
          printf("%d\n", sum);
          return 0;
        })",
     "30\n"},
    {"while_and_dowhile",
     R"(int main() {
          int a = 0, b = 0, n = 0;
          while (n < 3) { a += n; n++; }
          do { b += n; n++; } while (n < 3);
          printf("%d %d\n", a, b);
          return 0;
        })",
     "3 3\n"},
    {"nested_loop_counts",
     R"(int main() {
          int count = 0, i, j, k;
          for (i = 0; i < 3; i++)
            for (j = 0; j < 4; j++)
              for (k = 0; k < 5; k++)
                count++;
          printf("%d\n", count);
          return 0;
        })",
     "60\n"},
    {"global_arrays",
     R"(uint tab[16] = {1, 2, 3};
        int main() {
          tab[3] = tab[0] + tab[1] + tab[2];
          int i; uint s = 0;
          for (i = 0; i < 16; i++) s += tab[i];
          printf("%u %u\n", tab[3], s);
          return 0;
        })",
     "6 12\n"},
    {"local_arrays",
     R"(int main() {
          int a[8];
          int i;
          for (i = 0; i < 8; i++) a[i] = i * i;
          printf("%d %d\n", a[3], a[7]);
          return 0;
        })",
     "9 49\n"},
    {"recursion",
     R"(int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); }
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main() {
          printf("%d %d\n", fact(10), fib(15));
          return 0;
        })",
     "3628800 610\n"},
    {"mutual_recursion",
     // No prototypes needed: sema registers all functions first.
     R"(int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
        int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
        int main() {
          printf("%d %d\n", isEven(10), isOdd(7));
          return 0;
        })",
     "1 1\n"},
    {"compound_assignment",
     R"(int main() {
          int x = 100;
          x += 5; x -= 2; x *= 3; x /= 4; x %= 50;
          uint y = 0xF0;
          y &= 0x3C; y |= 1; y ^= 2; y <<= 2; y >>= 1;
          printf("%d %u\n", x, y);
          return 0;
        })",
     "27 102\n"},
    {"incdec_value_semantics",
     R"(int main() {
          int i = 5;
          int a = i++;
          int b = ++i;
          int c = i--;
          printf("%d %d %d %d\n", a, b, c, i);
          return 0;
        })",
     "5 7 7 6\n"},
    {"shift_masking",
     R"(int main() {
          uint x = 1;
          int s = 33; /* masked to 1 like x86 */
          printf("%u\n", x << s);
          return 0;
        })",
     "2\n"},
    {"bitops",
     R"(int main() {
          uint a = 0xF0F0F0F0;
          printf("%u %u %u %u\n", a & 0xFF, a | 0xF, a ^ a, ~a);
          return 0;
        })",
     "240 4042322175 0 252645135\n"},
    {"char_literals_and_printf_c",
     R"(int main() {
          int c = 'A';
          printf("%c%c %d\n", c, c + 1, c);
          return 0;
        })",
     "AB 65\n"},
    {"params_many",
     R"(int sum6(int a, int b, int c, int d, int e, int f) {
          return a + b + c + d + e + f;
        }
        int main() {
          printf("%d\n", sum6(1, 2, 3, 4, 5, 6));
          return 0;
        })",
     "21\n"},
    {"double_params_and_return",
     R"(double mix(double a, double b, int k) {
          return a * (double)k + b;
        }
        int main() {
          printf("%f\n", mix(1.5, 0.25, 3));
          return 0;
        })",
     "4.750000\n"},
    {"exit_code_from_main",
     R"(int main() { printf("x\n"); return 42; })",
     "x\n"},
    // printf must honor flags, field width and precision the way C
    // printf does (they used to be parsed and then discarded).
    {"printf_width_and_flags",
     R"(int main() {
          printf("[%08x] [%-5d] [%5d] [%+d] [% d]\n",
                 48879, 42, 42, 7, 7);
          return 0;
        })",
     "[0000beef] [42   ] [   42] [+7] [ 7]\n"},
    {"printf_precision",
     R"(int main() {
          printf("%.3f %.0f %8.2f %e %g\n",
                 1.0 / 3.0, 2.5, 3.14159, 12345.678, 0.0001);
          return 0;
        })",
     "0.333 2     3.14 1.234568e+04 0.0001\n"},
    {"printf_char_width",
     R"(int main() {
          printf("[%3c] [%-3c]\n", 'A', 'B');
          return 0;
        })",
     "[  A] [B  ]\n"},
    {"printf_zero_pad_and_int_precision",
     R"(int main() {
          printf("%03d %.5d %5u %#x %o %X\n", 7, 42, 9, 255, 8, 48879);
          return 0;
        })",
     "007 00042     9 0xff 10 BEEF\n"},
    // An unrecognized conversion is emitted literally and must not
    // consume an argument — later conversions keep their values (the
    // old interpreter shifted every subsequent argument by one).
    {"printf_unknown_conversion_consumes_nothing",
     R"(int main() {
          printf("a%yb %d %d\n", 1, 2);
          printf("%k %d\n", 5);
          return 0;
        })",
     "a%yb 1 2\n%k 5\n"},
};

class ExecSemantics
    : public ::testing::TestWithParam<
          std::tuple<size_t, opt::OptLevel, const char *>>
{};

TEST_P(ExecSemantics, OutputMatchesEverywhere)
{
    const auto &[case_idx, level, target_name] = GetParam();
    const ExecCase &c = execCases[case_idx];
    auto stats = pipeline::runSource(c.source, c.name, level,
                                     isa::targetByName(target_name));
    EXPECT_EQ(stats.output, c.expected) << c.name;
}

std::string
execName(const ::testing::TestParamInfo<ExecSemantics::ParamType> &info)
{
    const auto &[case_idx, level, target_name] = info.param;
    return std::string(execCases[case_idx].name) + "_" +
           opt::optLevelName(level) + "_" + target_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelsAndTargets, ExecSemantics,
    ::testing::Combine(
        ::testing::Range<size_t>(0, std::size(execCases)),
        ::testing::Values(opt::OptLevel::O0, opt::OptLevel::O1,
                          opt::OptLevel::O2, opt::OptLevel::O3),
        ::testing::Values("x86", "x86_64", "ia64")),
    execName);

TEST(ExecMisc, ExitCodePropagates)
{
    auto stats = pipeline::runSource(
        "int main() { return 42; }", "exit", opt::OptLevel::O0,
        isa::targetX86());
    EXPECT_EQ(stats.exitCode, 42);
}

TEST(ExecMisc, InstructionLimitGuards)
{
    ir::Module m = lang::compile(
        "int main() { while (1) {} return 0; }", "inf");
    auto prog = isa::lower(m, isa::targetX86());
    sim::ExecLimits limits;
    limits.maxInstructions = 10000;
    EXPECT_THROW(sim::execute(prog, nullptr, limits), FatalError);
}

TEST(ExecMisc, InstructionLimitCountIsExact)
{
    // A limit-hit run must report exactly the number of instructions
    // that retired — the old guard incremented before bailing and so
    // overcounted by one. Both engines must agree.
    ir::Module m = lang::compile(
        "int main() { while (1) {} return 0; }", "inf");
    auto prog = isa::lower(m, isa::targetX86());
    sim::ExecLimits limits;
    limits.maxInstructions = 10000;
    using Run = sim::ExecStats (*)(const isa::MachineProgram &,
                                   sim::ExecObserver *,
                                   const sim::ExecLimits &);
    for (Run run :
         std::initializer_list<Run>{sim::execute, oracle::executeReference}) {
        try {
            run(prog, nullptr, limits);
            FAIL() << "instruction limit did not trigger";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "after retiring 10000 instructions"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ExecMisc, EnginesAgreeOnEveryExecCase)
{
    // Cheap inline differential pass: every semantics case above must
    // produce identical ExecStats on the reference and the predecoded
    // engine (the workload-scale version lives in
    // test_differential_engine).
    for (const ExecCase &c : execCases) {
        ir::Module m = lang::compile(c.source, c.name);
        auto prog = isa::lower(m, isa::targetX86());
        auto ref = oracle::executeReference(prog);
        auto fast = sim::execute(sim::DecodedProgram(prog));
        EXPECT_TRUE(ref == fast) << c.name;
        EXPECT_EQ(ref.output, c.expected) << c.name;
    }
}

TEST(ExecMisc, StackOverflowDetected)
{
    ir::Module m = lang::compile(
        "int f(int n) { int pad[64]; pad[0] = n; return f(n + 1) + pad[0]; }"
        "int main() { return f(0); }",
        "deep");
    auto prog = isa::lower(m, isa::targetX86());
    EXPECT_THROW(sim::execute(prog), FatalError);
}

TEST(ExecMisc, OutOfBoundsGlobalAccessDetected)
{
    ir::Module m = lang::compile(
        "uint t[4]; int main() { int i = 1000000; t[i] = 1; return 0; }",
        "oob");
    auto prog = isa::lower(m, isa::targetX86());
    EXPECT_THROW(sim::execute(prog), FatalError);
}

} // namespace
} // namespace bsyn
