/**
 * @file
 * Microbenchmarks (google-benchmark) for the traffic replay engine's
 * hot paths: histogram recording (touched once per arrival per stage
 * from every driver thread — must stay in the low nanoseconds for the
 * measurement not to perturb itself), quantile extraction, arrival
 * generation (the Lambda-inversion bisection, paid once per arrival at
 * startup), and per-arrival mix draws.
 */

#include <benchmark/benchmark.h>

#include "obs/histogram.hh"
#include "replay/mix.hh"
#include "replay/schedule.hh"

using namespace bsyn;

namespace
{

void
BM_HistogramRecord(benchmark::State &state)
{
    obs::LatencyHistogram h;
    uint64_t v = 0;
    for (auto _ : state) {
        h.record(v);
        v = v * 2862933555777941757ull + 3037000493ull; // cheap LCG
    }
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord)->Threads(1)->Threads(4)->Threads(8);

void
BM_HistogramQuantile(benchmark::State &state)
{
    obs::LatencyHistogram h;
    uint64_t v = 1;
    for (int i = 0; i < 100000; ++i) {
        h.record(v);
        v = v * 2862933555777941757ull + 3037000493ull;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.quantile(0.50));
        benchmark::DoNotOptimize(h.quantile(0.99));
        benchmark::DoNotOptimize(h.quantile(0.999));
    }
}
BENCHMARK(BM_HistogramQuantile);

void
BM_ScheduleArrivals(benchmark::State &state)
{
    // rate * 10s = `range(0)` arrivals per call.
    auto s = replay::Schedule::parse(
        "bursty,rate=" + std::to_string(state.range(0) / 2) +
        ",on_ms=100,off_ms=100,jitter=1");
    uint64_t seed = 1;
    for (auto _ : state) {
        auto offsets = s.arrivals(10.0, seed++);
        benchmark::DoNotOptimize(offsets.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScheduleArrivals)->Arg(1000)->Arg(10000)->Arg(100000);

void
BM_MixDraw(benchmark::State &state)
{
    auto mix = replay::Mix::parse(
        "pointer_chase:3;fp_kernel@0.5|stream_mix;branch_maze:2", 4);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mix.draw(42, i, double(i % 1000) / 1000.0));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MixDraw);

} // namespace

BENCHMARK_MAIN();
