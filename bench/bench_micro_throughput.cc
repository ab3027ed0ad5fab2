/**
 * @file
 * Framework microbenchmarks (google-benchmark): throughput of the
 * interpreter, the cache simulator, the branch predictors, the MiniC
 * compiler and the profiler — the costs that bound every experiment in
 * this repository.
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "gen/registry.hh"
#include "oracle/core_model.hh"
#include "oracle/interpreter.hh"
#include "oracle/profiler.hh"
#include "sim/decoded_program.hh"
#include "sim/timed_core.hh"
#include "similarity/report.hh"
#include "straight_line.hh"

using namespace bsyn;

namespace
{

const char *kernelSrc = R"(
uint t[1024];
int main() {
  int i;
  for (i = 0; i < 20000; i++)
    t[i & 1023] = t[(i * 7) & 1023] * 3 + (uint)i;
  printf("%u\n", t[0]);
  return 0;
})";

void
BM_InterpreterThroughput(benchmark::State &state)
{
    // The default execute() path: one decode + the predecoded run.
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    uint64_t insts = 0;
    for (auto _ : state) {
        auto stats = sim::execute(prog);
        insts += stats.instructions;
        benchmark::DoNotOptimize(stats.exitCode);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

void
BM_ReferenceInterpreterThroughput(benchmark::State &state)
{
    // The reference decode-per-step interpreter the differential tests
    // compare against — the baseline every predecoded number beats.
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    uint64_t insts = 0;
    for (auto _ : state) {
        auto stats = oracle::executeReference(prog);
        insts += stats.instructions;
        benchmark::DoNotOptimize(stats.exitCode);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceInterpreterThroughput);

void
BM_PredecodedThroughput(benchmark::State &state)
{
    // Steady state for callers that decode once and re-run (timing
    // sweeps, calibration rounds via the Session decode cache).
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto stats = sim::execute(decoded);
        insts += stats.instructions;
        benchmark::DoNotOptimize(stats.exitCode);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredecodedThroughput);

void
BM_DecodeProgram(benchmark::State &state)
{
    // One-time predecode cost per MachineProgram (amortized over every
    // subsequent run).
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    for (auto _ : state) {
        sim::DecodedProgram decoded(prog);
        benchmark::DoNotOptimize(decoded.size());
    }
    state.counters["minst/s"] = benchmark::Counter(
        double(prog.size()) * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DecodeProgram);

void
BM_GeneratedPointerChaseThroughput(benchmark::State &state)
{
    // Interpreter throughput on a generated non-MiBench shape: a
    // dependent-load pointer chase (every iteration serializes on the
    // previous load), L1-resident so the number tracks dispatch cost,
    // not simulated-cache behavior.
    auto w = gen::Registry::global().require("pointer_chase").make(
        {{"nodes", 1024}, {"steps", 100000}}, 1);
    ir::Module m = lang::compile(w.source, "pchase");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto stats = sim::execute(decoded);
        insts += stats.instructions;
        benchmark::DoNotOptimize(stats.exitCode);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeneratedPointerChaseThroughput);

void
BM_InstrumentedThroughput(benchmark::State &state)
{
    // The fused profiling mode with slicing off: dense per-PC counters
    // + inlined cache, no observer, the slice recorder disarmed (one
    // never-taken compare per retired instruction).
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    sim::CacheConfig cache; // the profiler's default 8KB/32B/4-way
    sim::InstrumentedCounters counters;
    uint64_t insts = 0;
    for (auto _ : state) {
        auto stats = sim::executeInstrumented(decoded, cache, counters);
        insts += stats.instructions;
        benchmark::DoNotOptimize(stats.exitCode);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InstrumentedThroughput);

void
BM_InstrumentedSlicedThroughput(benchmark::State &state)
{
    // The fused mode with the v3 slice recorder armed (default slice
    // interval and slice budget) — the mode every profile runs. Every
    // few thousand retired instructions the recorder reads the exec
    // counts once and keeps the deltas of the PCs that moved, so this
    // must stay within a few percent of the unsliced rate above.
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    sim::CacheConfig cache;
    sim::InstrumentedCounters counters;
    sim::SliceOptions slices; // default 4096-instruction base interval
    uint64_t insts = 0;
    for (auto _ : state) {
        sim::SlicedCounters stream;
        auto stats = sim::executeInstrumentedSliced(decoded, cache,
                                                    counters, stream,
                                                    slices);
        insts += stats.instructions;
        benchmark::DoNotOptimize(stats.exitCode);
        benchmark::DoNotOptimize(stream.slices.size());
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InstrumentedSlicedThroughput);

void
BM_InterpreterWithTimingModel(benchmark::State &state)
{
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    auto machine = sim::ptlsimConfig(8);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto t = sim::simulateTiming(prog, machine.core);
        insts += t.instructions;
        benchmark::DoNotOptimize(t.cycles);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterWithTimingModel);

void
BM_TimingModelOracle(benchmark::State &state)
{
    // The reference core model (tests/oracle) observing an existing
    // decode: the baseline the timed-engine numbers below are measured
    // against (and differentially tested against for exactness).
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    auto machine = sim::ptlsimConfig(8);
    uint64_t insts = 0;
    for (auto _ : state) {
        oracle::CoreModel model(machine.core);
        sim::execute(decoded, &model);
        auto t = model.finish();
        insts += t.instructions;
        benchmark::DoNotOptimize(t.cycles);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimingModelOracle);

void
BM_TimedSpecializedThroughput(benchmark::State &state)
{
    // The timing engine (inlined cache/predictor, per-PC metadata
    // prepared once) over a fusion-free decode: isolates the engine
    // speedup from the superblock-fusion dispatch win below.
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodeOptions opts;
    opts.superblockFusion = false;
    sim::DecodedProgram decoded(prog, opts);
    auto machine = sim::ptlsimConfig(8);
    sim::TimedProgram timed(decoded, machine.core);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto t = sim::simulateTiming(decoded, timed, machine.core);
        insts += t.instructions;
        benchmark::DoNotOptimize(t.cycles);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimedSpecializedThroughput);

void
BM_TimedSuperblockThroughput(benchmark::State &state)
{
    // The default timing path: timing engine + superblock-fused
    // decode, steady state with decode and prepare amortized (Fig 10
    // sweeps, fidelity CPI scoring). CI enforces a floor on this rate.
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prog = isa::lower(m, isa::targetX86());
    sim::DecodedProgram decoded(prog);
    auto machine = sim::ptlsimConfig(8);
    sim::TimedProgram timed(decoded, machine.core);
    uint64_t insts = 0;
    for (auto _ : state) {
        auto t = sim::simulateTiming(decoded, timed, machine.core);
        insts += t.instructions;
        benchmark::DoNotOptimize(t.cycles);
    }
    state.counters["instr/s"] = benchmark::Counter(
        double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimedSuperblockThroughput);

void
BM_CacheSimulator(benchmark::State &state)
{
    sim::CacheConfig cfg;
    cfg.sizeBytes = 8 * 1024;
    sim::Cache cache(cfg);
    uint64_t addr = 0;
    uint64_t accesses = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i) {
            benchmark::DoNotOptimize(cache.access(addr));
            addr += 12;
        }
        accesses += 1024;
    }
    state.counters["access/s"] = benchmark::Counter(
        double(accesses), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheSimulator);

void
BM_TournamentPredictor(benchmark::State &state)
{
    sim::BranchPredictor pred("tournament");
    Rng rng(5);
    uint64_t branches = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1024; ++i)
            pred.branch(static_cast<uint64_t>(i & 63) * 4,
                        rng.nextBool(0.7));
        branches += 1024;
    }
    state.counters["branch/s"] = benchmark::Counter(
        double(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TournamentPredictor);

void
BM_MiniCCompileO2(benchmark::State &state)
{
    const auto &w = workloads::findWorkload("sha/small");
    for (auto _ : state) {
        ir::Module m = lang::compile(w.source, "sha");
        opt::optimize(m, opt::OptLevel::O2);
        auto prog = isa::lower(m, isa::targetX86());
        benchmark::DoNotOptimize(prog.size());
    }
}
BENCHMARK(BM_MiniCCompileO2);

void
BM_OptimizeStraightLine(benchmark::State &state)
{
    // -O2 on one basic block of clone-shaped statements; the front end
    // runs once, outside the timing. Clones carry blocks of tens of
    // thousands of instructions, so CI gates on the time ratio of the
    // 8192-statement block to the 2048-statement one: a linear pipeline
    // reads about 4x.
    ir::Module front = lang::compile(
        straightLineSource(static_cast<size_t>(state.range(0)), 1),
        "straight_line");
    for (auto _ : state) {
        state.PauseTiming();
        ir::Module m = front;
        state.ResumeTiming();
        benchmark::DoNotOptimize(opt::optimize(m, opt::OptLevel::O2));
    }
}
BENCHMARK(BM_OptimizeStraightLine)
    ->Arg(2048)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void
BM_ProfileWorkload(benchmark::State &state)
{
    // End-to-end profiling on the default fused instrumented mode
    // (includes the per-call lower + decode + SFGL assembly).
    ir::Module m = lang::compile(kernelSrc, "k");
    for (auto _ : state) {
        auto prof = profile::profileModule(m);
        benchmark::DoNotOptimize(prof.dynamicInstructions);
    }
}
BENCHMARK(BM_ProfileWorkload);

void
BM_ProfileStraightLine(benchmark::State &state)
{
    // profileWorkload on one long block of clone-shaped statements,
    // sliced (second argument 1) and unsliced (0); compile and lowering
    // run once, outside the timing. A clone is a short run of a large
    // program, so a slice stream that cost slices x static PCs showed
    // here first. CI gates on the sliced/unsliced time ratio.
    ir::Module m = lang::compile(
        straightLineSource(static_cast<size_t>(state.range(0)), 1),
        "straight_line");
    isa::LoweringOptions lopts;
    lopts.applyFusion = false; // as profileModule lowers
    isa::MachineProgram prog = isa::lower(m, isa::targetX86(), lopts);
    profile::ProfileOptions opts;
    if (state.range(1) == 0)
        opts.sliceBaseLength = 0;
    for (auto _ : state) {
        auto prof = profile::profileWorkload(m, prog, opts);
        benchmark::DoNotOptimize(prof.dynamicInstructions);
    }
}
BENCHMARK(BM_ProfileStraightLine)
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->Unit(benchmark::kMillisecond);

void
BM_ProfileWorkloadReference(benchmark::State &state)
{
    // The reference observer profiler (tests/oracle) the fused mode is
    // differentially tested against.
    ir::Module m = lang::compile(kernelSrc, "k");
    for (auto _ : state) {
        auto prof = oracle::profileModule(m);
        benchmark::DoNotOptimize(prof.dynamicInstructions);
    }
}
BENCHMARK(BM_ProfileWorkloadReference);

void
BM_SynthesizeClone(benchmark::State &state)
{
    ir::Module m = lang::compile(kernelSrc, "k");
    auto prof = profile::profileModule(m);
    synth::SynthesisOptions opts;
    opts.targetInstructions = 5000;
    for (auto _ : state) {
        auto syn = synth::synthesize(prof, opts);
        benchmark::DoNotOptimize(syn.cSource.size());
    }
}
BENCHMARK(BM_SynthesizeClone);

void
BM_WinnowSimilarity(benchmark::State &state)
{
    const auto &a = workloads::findWorkload("sha/small");
    const auto &b = workloads::findWorkload("crc32/small");
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            similarity::compareSources(a.source, b.source).winnow);
    }
}
BENCHMARK(BM_WinnowSimilarity);

} // namespace

BENCHMARK_MAIN();
