/** @file Tests for the open-loop traffic replay engine: schedule
 *  arrival generation (even constant spacing, bursty on-window
 *  placement, ramp back-loading, seed-deterministic Poisson jitter),
 *  eager spec validation for schedules and mixes, the lock-free
 *  latency histogram's bucket error bound, and the engine's
 *  determinism contract — the results half is byte-identical across
 *  driver thread counts and across the direct and spool paths. */

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "obs/histogram.hh"
#include "replay/engine.hh"
#include "replay/mix.hh"
#include "replay/schedule.hh"
#include "support/error.hh"

namespace fs = std::filesystem;

namespace bsyn
{
namespace
{

/** Fresh scratch directory under the gtest temp root, wiped on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(std::string(::testing::TempDir()) + "bsyn_" + tag + "_" +
                std::to_string(::getpid()))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    std::string sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

size_t
countInWindow(const std::vector<uint64_t> &offsets, double fromS,
              double toS)
{
    // Bisection places an arrival within ~2^-64 of its exact time;
    // 1us of tolerance swallows that and the ns truncation.
    uint64_t lo = static_cast<uint64_t>(fromS * 1e9);
    uint64_t hi = static_cast<uint64_t>(toS * 1e9) + 1000;
    size_t n = 0;
    for (uint64_t off : offsets)
        if (off >= lo && off <= hi)
            ++n;
    return n;
}

TEST(ReplaySchedule, ConstantArrivalsAreEvenlySpaced)
{
    auto s = replay::Schedule::parse("constant,rate=100");
    EXPECT_NEAR(s.offeredRate(1.0), 100.0, 1e-9);
    auto offsets = s.arrivals(1.0, 7);
    ASSERT_EQ(offsets.size(), 100u);
    for (size_t i = 0; i < offsets.size(); ++i) {
        // Arrival i lands at (i+1)/rate seconds (the last one clamps
        // inside the horizon).
        double want = std::min(double(i + 1) / 100.0, 1.0 - 1e-9);
        EXPECT_NEAR(double(offsets[i]) / 1e9, want, 1e-6) << i;
        if (i) {
            EXPECT_GT(offsets[i], offsets[i - 1]);
        }
    }
}

TEST(ReplaySchedule, BurstyArrivalsLandInOnWindows)
{
    auto s =
        replay::Schedule::parse("bursty,rate=100,on_ms=100,off_ms=400");
    // 1s covers two 500ms periods: 2 * 100ms of on-time at 100/s.
    EXPECT_NEAR(s.offeredRate(1.0), 20.0, 1e-9);
    auto offsets = s.arrivals(1.0, 11);
    ASSERT_EQ(offsets.size(), 20u);
    EXPECT_EQ(countInWindow(offsets, 0.0, 0.1), 10u);
    EXPECT_EQ(countInWindow(offsets, 0.5, 0.6), 10u);
    // The silent window gets nothing (10 arrivals on either side of
    // it, none strictly inside).
    EXPECT_EQ(countInWindow(offsets, 0.101, 0.499), 0u);
}

TEST(ReplaySchedule, RampBackloadsArrivals)
{
    auto s = replay::Schedule::parse("ramp,rate=0,end_rate=100");
    // L(t) = 50 t^2 over 1s: 50 arrivals, 12 of them (L(0.5)=12.5)
    // in the first half.
    auto offsets = s.arrivals(1.0, 3);
    ASSERT_EQ(offsets.size(), 50u);
    EXPECT_EQ(countInWindow(offsets, 0.0, 0.4999), 12u);
    EXPECT_EQ(countInWindow(offsets, 0.5, 1.0), 38u);
}

TEST(ReplaySchedule, JitterIsSeedDeterministic)
{
    auto s = replay::Schedule::parse("constant,rate=200,jitter=1");
    auto a = s.arrivals(0.5, 42);
    auto b = s.arrivals(0.5, 42);
    auto c = s.arrivals(0.5, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    for (uint64_t off : a)
        EXPECT_LT(off, static_cast<uint64_t>(0.5 * 1e9));
    // Poisson with mean 100: astronomically unlikely to stray this far.
    EXPECT_GT(a.size(), 40u);
    EXPECT_LT(a.size(), 200u);
}

TEST(ReplaySchedule, RejectsMalformedSpecs)
{
    for (const char *bad : {
             "",                        // no kind
             "constant",                // missing rate
             "constant,rate=0",         // zero rate
             "constant,rate=-5",        // negative rate
             "constant,rate=abc",       // junk rate
             "sawtooth,rate=5",         // unknown kind
             "constant,rate=5,rate=6",  // duplicate key
             "constant,rate=5,bogus=1", // unknown key
             "constant,rate=5,jitter=2",
             "bursty,rate=5,on_ms=0",   // sub-ms burst window
             "ramp,rate=0,end_rate=0",  // silent ramp
             "ramp,rate=5",             // missing end_rate
         })
        EXPECT_THROW(replay::Schedule::parse(bad), FatalError) << bad;
}

TEST(ReplayMix, RejectsBadMixes)
{
    for (const char *bad : {
             "",                     // empty
             "  ",                   // blank
             "no_such_family",       // unknown family
             "fp_kernel:0",          // weights sum to zero
             "fp_kernel:0;stream_mix:0",
             "fp_kernel:x",          // junk weight
             "fp_kernel@0|stream_mix",   // mode end out of (0, 1]
             "fp_kernel@1.5|stream_mix",
             "fp_kernel@0.8|stream_mix@0.5", // ends must increase
             "fp_kernel|stream_mix@1",   // non-last mode missing end
             "fp_kernel@0.5",            // last mode must end at 1
             "fp_kernel;;stream_mix",    // empty entry
         })
        EXPECT_THROW(replay::Mix::parse(bad, 2), FatalError) << bad;
}

TEST(ReplayMix, ModesAndDrawsAreDeterministic)
{
    auto mix = replay::Mix::parse(
        "pointer_chase:3;fp_kernel@0.5|stream_mix", 2);
    // Two seeds per seedless family entry, interned in first-use
    // order: pointer_chase x2, fp_kernel x2, stream_mix x2.
    ASSERT_EQ(mix.population().size(), 6u);
    ASSERT_EQ(mix.modes().size(), 2u);
    EXPECT_EQ(mix.modeAt(0.0), 0u);
    EXPECT_EQ(mix.modeAt(0.499), 0u);
    EXPECT_EQ(mix.modeAt(0.5), 1u);
    EXPECT_EQ(mix.modeAt(1.0), 1u);

    for (uint64_t i = 0; i < 64; ++i) {
        size_t early = mix.draw(9, i, 0.1);
        EXPECT_LT(early, 4u) << "mode 0 draws only its own entries";
        EXPECT_EQ(early, mix.draw(9, i, 0.1)) << "draws are pure";
        EXPECT_GE(mix.draw(9, i, 0.9), 4u);
    }

    // A shared instance is interned once: both modes hit the same
    // population slot.
    auto shared = replay::Mix::parse("fp_kernel,seed=1@0.5|fp_kernel,seed=1", 4);
    EXPECT_EQ(shared.population().size(), 1u);
}

TEST(ReplayHistogram, BucketErrorStaysBounded)
{
    // Tiny values are exact.
    for (uint64_t v = 0; v < 16; ++v)
        EXPECT_EQ(obs::LatencyHistogram::bucketOf(v), size_t(v));

    // Any single recorded value is recovered within the 6.25% bound.
    for (uint64_t v : {100ull, 999ull, 123456ull, 999999999ull,
                       (1ull << 40) + 12345ull}) {
        obs::LatencyHistogram h;
        h.record(v);
        EXPECT_EQ(h.count(), 1u);
        EXPECT_EQ(h.max(), v);
        uint64_t q = h.quantile(0.5);
        EXPECT_NEAR(double(q), double(v), double(v) * 0.0625) << v;
        EXPECT_EQ(h.quantile(1.0), v) << "q=1 is the exact max";
    }
}

TEST(ReplayHistogram, ConcurrentRecordsAllLand)
{
    obs::LatencyHistogram h;
    constexpr int kThreads = 8;
    constexpr uint64_t kEach = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&h, t] {
            for (uint64_t i = 0; i < kEach; ++i)
                h.record(uint64_t(t) * 1000 + i % 997);
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(h.count(), uint64_t(kThreads) * kEach);
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_GE(h.max(), 7000u);
    EXPECT_GT(h.mean(), 0.0);
}

TEST(ReplayEngine, ResultsHalfIsByteIdenticalAcrossThreadCounts)
{
    ScratchDir dir("replay_det");
    replay::ReplayOptions ro;
    ro.scheduleSpec = "constant,rate=40,jitter=1";
    ro.mixSpec = "fp_kernel;stream_mix";
    ro.durationS = 0.3;
    ro.seed = 1234;
    ro.population = 2;
    ro.targetInstr = 20000;
    ro.cacheDir = dir.sub("cache"); // shared: repeat runs recompute 0

    std::string baseline;
    for (unsigned threads : {1u, 4u, 8u}) {
        ro.threads = threads;
        replay::ReplayReport rep = replay::runReplay(ro);
        EXPECT_EQ(rep.okCount, rep.arrivals.size());
        EXPECT_EQ(rep.failCount, 0u);
        std::string results = rep.resultsJson().dump(2);
        if (baseline.empty())
            baseline = results;
        else
            EXPECT_EQ(results, baseline) << threads << " threads";
    }

    // The spool path — same spec, same seed, served by in-process
    // workers — produces the same results bytes as the direct path.
    ro.threads = 2;
    ro.spoolDir = dir.sub("spool");
    ro.spoolWorkers = 2;
    replay::ReplayReport viaSpool = replay::runReplay(ro);
    EXPECT_EQ(viaSpool.resultsJson().dump(2), baseline);
    // Queue and total latencies exist even though the worker's
    // internal stages are invisible to the driver.
    ASSERT_EQ(viaSpool.stages.size(), 4u);
    EXPECT_EQ(viaSpool.stages[0].stage, "queue");
    EXPECT_GT(viaSpool.stages[0].count, 0u);
    EXPECT_EQ(viaSpool.stages[3].stage, "total");
    EXPECT_GT(viaSpool.stages[3].count, 0u);
}

TEST(ReplayEngine, ScheduleCountsMatchReport)
{
    ScratchDir dir("replay_counts");
    replay::ReplayOptions ro;
    ro.scheduleSpec = "bursty,rate=50,on_ms=100,off_ms=100";
    ro.mixSpec = "fp_kernel,seed=1@0.5|stream_mix,seed=1";
    ro.durationS = 0.4;
    ro.threads = 2;
    ro.targetInstr = 20000;
    ro.cacheDir = dir.sub("cache");
    replay::ReplayReport rep = replay::runReplay(ro);

    // Two 100ms bursts at 50/s: 5 arrivals each, split across the
    // mode switch at t = 0.2s.
    ASSERT_EQ(rep.arrivals.size(), 10u);
    ASSERT_EQ(rep.modeCounts.size(), 2u);
    EXPECT_EQ(rep.modeCounts[0], 5u);
    EXPECT_EQ(rep.modeCounts[1], 5u);
    ASSERT_EQ(rep.instanceNames.size(), 2u);
    EXPECT_EQ(rep.drawCounts[0], 5u);
    EXPECT_EQ(rep.drawCounts[1], 5u);
    EXPECT_EQ(rep.streamDigest.size(), 64u);
    EXPECT_GT(rep.offeredRate, 0.0);
    EXPECT_GT(rep.achievedRate, 0.0);

    Json j = rep.toJson();
    EXPECT_EQ(j.get("schema").asString(), "bsyn.traffic.v1");
    EXPECT_EQ(j.get("arrivals").asInt(), 10);
    EXPECT_TRUE(j.has("bench"));
    EXPECT_TRUE(j.get("bench").has("stages"));
    EXPECT_FALSE(rep.resultsJson().has("bench"));
}

TEST(ReplayEngine, RejectsInvalidConfiguration)
{
    replay::ReplayOptions ro;
    ro.mixSpec = "fp_kernel";
    ro.durationS = 0.0;
    EXPECT_THROW(replay::runReplay(ro), FatalError);
    ro.durationS = 0.1;
    ro.mixSpec = "";
    EXPECT_THROW(replay::runReplay(ro), FatalError);
    ro.mixSpec = "fp_kernel";
    ro.scheduleSpec = "constant,rate=1e12"; // over the arrival cap
    EXPECT_THROW(replay::runReplay(ro), FatalError);
}

} // namespace
} // namespace bsyn
