/** @file Tests for the workload-family generator subsystem: registry
 *  and knob-schema validation, generation determinism (byte-identical
 *  source and profile JSON for a fixed (family, knobs, seed) at any
 *  thread count, zero recomputation on a warm cache), exact
 *  expected-output correctness of every family's C++ mirror at -O0 and
 *  -O2, differential engine/profile identity over an instance of every
 *  family, phase_shift's per-phase instruction-mix deltas, the
 *  generated-instance path through workloads::findWorkload(), and the
 *  parallel calibration ladder's schedule independence. */

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "gen/registry.hh"
#include "isa/lowering.hh"
#include "oracle/interpreter.hh"
#include "oracle/profiler.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "profile/profiler.hh"
#include "support/error.hh"
#include "support/string_util.hh"
#include "support/thread_pool.hh"

namespace fs = std::filesystem;

namespace bsyn
{
namespace
{

/** Small, fast instances of every family (same shapes, reduced work)
 *  so the heavier matrix tests stay inside the suite budget. */
gen::KnobValues
fastKnobs(const std::string &family)
{
    if (family == "pointer_chase")
        return {{"nodes", 1024}, {"steps", 20000}};
    if (family == "branch_maze")
        return {{"iters", 5000}};
    if (family == "fp_kernel")
        return {{"size", 256}, {"sweeps", 10}};
    if (family == "stream_mix")
        return {{"wset_log2", 10}, {"iters", 10000}};
    if (family == "phase_shift")
        return {{"work", 2000}, {"rounds", 2}};
    return {};
}

std::vector<std::string>
familyNames()
{
    return gen::Registry::global().names();
}

TEST(GenRegistry, HasTheFiveFamilies)
{
    auto names = familyNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "pointer_chase");
    EXPECT_EQ(names[1], "branch_maze");
    EXPECT_EQ(names[2], "fp_kernel");
    EXPECT_EQ(names[3], "stream_mix");
    EXPECT_EQ(names[4], "phase_shift");
    for (const auto &n : names) {
        const gen::Family *f = gen::Registry::global().find(n);
        ASSERT_NE(f, nullptr) << n;
        EXPECT_FALSE(f->knobs().empty()) << n;
        EXPECT_FALSE(f->presets().empty()) << n;
    }
}

TEST(GenRegistry, RequireListsFamiliesOnMiss)
{
    try {
        gen::Registry::global().require("no_such_family");
        FAIL() << "require() did not throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("pointer_chase"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("phase_shift"),
                  std::string::npos);
    }
}

TEST(GenKnobs, DefaultsResolveAndValidate)
{
    const gen::Family &f =
        gen::Registry::global().require("pointer_chase");
    auto resolved = f.resolve({});
    EXPECT_EQ(resolved.at("nodes"), 4096);
    EXPECT_EQ(resolved.size(), f.knobs().size());

    // Overrides stick; unknown knobs and out-of-range values are
    // fatal, with the knob list in the message.
    auto shifted = f.resolve({{"nodes", 64}});
    EXPECT_EQ(shifted.at("nodes"), 64);
    EXPECT_THROW(f.resolve({{"bogus", 1}}), FatalError);
    EXPECT_THROW(f.resolve({{"nodes", 1}}), FatalError);
    EXPECT_THROW(f.resolve({{"nodes", 1 << 30}}), FatalError);
    try {
        f.resolve({{"bogus", 1}});
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("nodes"),
                  std::string::npos);
    }
}

TEST(GenKnobs, SpecParsing)
{
    auto spec = gen::parseSpec("stream_mix,stride=9,seed=12");
    EXPECT_EQ(spec.family, "stream_mix");
    EXPECT_EQ(spec.knobs.at("stride"), 9);
    EXPECT_TRUE(spec.hasSeed);
    EXPECT_EQ(spec.seed, 12u);

    // The instance-name form parses identically.
    auto named = gen::parseSpec("stream_mix/stride=9,seed=12");
    EXPECT_EQ(named.family, spec.family);
    EXPECT_EQ(named.knobs, spec.knobs);

    auto bare = gen::parseSpec("fp_kernel");
    EXPECT_EQ(bare.family, "fp_kernel");
    EXPECT_TRUE(bare.knobs.empty());
    EXPECT_FALSE(bare.hasSeed);

    // Seeds span the full uint64 range: the canonical names a sample
    // prints (derived seeds regularly exceed int64) must round-trip.
    auto big = gen::parseSpec(
        "stream_mix/stride=9,seed=17433269929995200206");
    EXPECT_TRUE(big.hasSeed);
    EXPECT_EQ(big.seed, 17433269929995200206ull);

    EXPECT_THROW(gen::parseSpec("fp_kernel,radius"), FatalError);
    EXPECT_THROW(gen::parseSpec("fp_kernel,radius=x"), FatalError);
    EXPECT_THROW(gen::parseSpec("fp_kernel,radius=1,radius=2"),
                 FatalError);
    EXPECT_THROW(gen::parseSpec(",radius=1"), FatalError);
}

TEST(GenDeterminism, SameInputsSameBytes)
{
    for (const auto &name : familyNames()) {
        const gen::Family &f = gen::Registry::global().require(name);
        auto a = f.make(fastKnobs(name), 99);
        auto b = f.make(fastKnobs(name), 99);
        EXPECT_EQ(a.source, b.source) << name;
        EXPECT_EQ(a.name(), b.name()) << name;
        EXPECT_EQ(a.expectedOutput, b.expectedOutput) << name;

        // A different seed changes the program (every family embeds
        // its seed-derived RNG state), and the name tracks it.
        auto c = f.make(fastKnobs(name), 100);
        EXPECT_NE(a.source, c.source) << name;
        EXPECT_NE(a.name(), c.name()) << name;
    }
}

TEST(GenDeterminism, CanonicalNameEmbedsEveryKnobAndSeed)
{
    const gen::Family &f =
        gen::Registry::global().require("pointer_chase");
    auto w = f.make({{"nodes", 64}}, 7);
    EXPECT_EQ(w.benchmark, "pointer_chase");
    EXPECT_EQ(w.input, "nodes=64,steps=250000,shuffle=1,seed=7");
}

TEST(GenDeterminism, RegistrySampleIsStable)
{
    auto a = gen::Registry::global().sample(2, 0xb5e9c0de);
    auto b = gen::Registry::global().sample(2, 0xb5e9c0de);
    ASSERT_EQ(a.size(), 2 * familyNames().size());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name(), b[i].name());
        EXPECT_EQ(a[i].source, b[i].source);
    }
    // A different base seed moves every instance.
    auto c = gen::Registry::global().sample(2, 1);
    EXPECT_NE(a[0].name(), c[0].name());

    // Every sampled instance's printed name resolves back to the
    // byte-identical workload (full-range uint64 seeds included).
    for (const auto &w : a) {
        const auto &back = workloads::findWorkload(w.name());
        EXPECT_EQ(back.source, w.source) << w.name();
        EXPECT_EQ(back.expectedOutput, w.expectedOutput) << w.name();
    }
}

class FamilyCorrectness
    : public ::testing::TestWithParam<std::string>
{};

TEST_P(FamilyCorrectness, ExactExpectedOutputAndLevelInvariance)
{
    const gen::Family &f =
        gen::Registry::global().require(GetParam());
    auto w = f.make(fastKnobs(GetParam()), 42);

    // The generator's C++ mirror must predict the program's printf
    // line EXACTLY (stronger than the suite's substring check).
    auto o0 = pipeline::runSource(w.source, w.name(), opt::OptLevel::O0,
                                  isa::targetX86());
    EXPECT_EQ(o0.output, w.expectedOutput + "\n") << w.name();
    EXPECT_GT(o0.instructions, 10000u) << w.name();

    auto o2 = pipeline::runSource(w.source, w.name(), opt::OptLevel::O2,
                                  isa::targetX86());
    EXPECT_EQ(o2.output, o0.output) << w.name();
    EXPECT_LT(o2.instructions, o0.instructions) << w.name();
}

TEST_P(FamilyCorrectness, EveryPresetRunsCorrectly)
{
    const gen::Family &f =
        gen::Registry::global().require(GetParam());
    uint64_t seed = 3;
    for (const auto &preset : f.presets()) {
        auto w = f.make(preset, seed++);
        auto stats = pipeline::runSource(
            w.source, w.name(), opt::OptLevel::O0, isa::targetX86());
        EXPECT_EQ(stats.output, w.expectedOutput + "\n") << w.name();
    }
}

TEST_P(FamilyCorrectness, DifferentialEngineAndProfileIdentity)
{
    // Reference decode-per-step interpreter vs the predecoded engine,
    // and the reference profiler vs the fused instrumented mode, must
    // agree bit for bit on generated programs too — at -O0 and -O2.
    const gen::Family &f =
        gen::Registry::global().require(GetParam());
    auto w = f.make(fastKnobs(GetParam()), 7);
    for (auto level : {opt::OptLevel::O0, opt::OptLevel::O2}) {
        ir::Module m = pipeline::compileSource(w.source, w.name(), level);
        auto prog = isa::lower(m, isa::targetX86());
        auto ref = oracle::executeReference(prog);
        auto fast = sim::execute(prog);
        EXPECT_TRUE(ref == fast)
            << w.name() << " at " << opt::optLevelName(level);

        auto obsProf = oracle::profileModule(m);
        auto fusedProf = profile::profileModule(m);
        EXPECT_EQ(obsProf.serialize(), fusedProf.serialize())
            << w.name() << " at " << opt::optLevelName(level);
    }
}

std::string
familyTestName(const ::testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

INSTANTIATE_TEST_SUITE_P(All, FamilyCorrectness,
                         ::testing::ValuesIn(familyNames()),
                         familyTestName);

TEST(GenPhaseShift, PerPhaseMixDeltasAreVisibleInTheProfile)
{
    const gen::Family &f =
        gen::Registry::global().require("phase_shift");
    gen::KnobValues base = {{"work", 4000}, {"rounds", 2},
                            {"phases", 3}};
    auto profileOf = [&](long long only) {
        gen::KnobValues k = base;
        k["only_phase"] = only;
        auto w = f.make(k, 11);
        ir::Module m = workloads::compileWorkload(w);
        return profile::profileModule(m);
    };

    auto alu = profileOf(0);
    auto fp = profileOf(1);
    auto mem = profileOf(2);
    auto all = profileOf(-1);

    // The FP phase is FP-dense, the others are not.
    EXPECT_GT(fp.mix.fpFraction(), 0.15);
    EXPECT_LT(alu.mix.fpFraction(), 0.02);
    EXPECT_LT(mem.mix.fpFraction(), 0.02);

    // The memory phase misses far more than the ALU phase (random
    // walks over 256 KB vs a resident 16 KB buffer) — at -O0 every
    // phase is load-heavy (locals live in memory), so the cache
    // behavior, not the load fraction, is what separates them.
    auto missRate = [](const profile::StatisticalProfile &p) {
        double accesses = 0, misses = 0;
        for (const auto &b : p.sfgl.blocks)
            for (const auto &d : b.code)
                if ((d.readsMem || d.writesMem) && b.execCount > 0) {
                    accesses += double(b.execCount);
                    misses += double(b.execCount) *
                              profile::missRateForClass(d.missClass);
                }
        return accesses > 0 ? misses / accesses : 0.0;
    };
    EXPECT_LT(missRate(alu), 0.02);
    EXPECT_GT(missRate(mem), 0.08);
    EXPECT_GT(missRate(mem), missRate(alu) * 10);

    // The multi-phase program blends the phases: its FP fraction sits
    // strictly between the FP-only and ALU-only extremes, so the
    // drift is visible in (and recoverable from) the profile.
    EXPECT_GT(all.mix.fpFraction(), alu.mix.fpFraction() + 0.02);
    EXPECT_LT(all.mix.fpFraction(), fp.mix.fpFraction() - 0.02);
}

TEST(GenLookup, FindWorkloadResolvesGeneratedInstances)
{
    const auto &w = workloads::findWorkload(
        "pointer_chase/nodes=64,steps=1000,seed=5");
    EXPECT_EQ(w.benchmark, "pointer_chase");
    EXPECT_FALSE(w.source.empty());
    EXPECT_TRUE(startsWith(w.expectedOutput, "pointer_chase="));

    // Interned: the same name returns the same stable reference.
    const auto &again = workloads::findWorkload(
        "pointer_chase/nodes=64,steps=1000,seed=5");
    EXPECT_EQ(&w, &again);

    // Known family, bad knobs: fatal (not a silent fallback).
    EXPECT_THROW(
        workloads::findWorkload("pointer_chase/bogus=1,seed=5"),
        FatalError);
}

TEST(GenLookup, MissListsSuiteInstancesAndFamilies)
{
    try {
        workloads::findWorkload("nope/large");
        FAIL() << "findWorkload did not throw";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("crc32/large"), std::string::npos) << msg;
        EXPECT_NE(msg.find("susan/small3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("pointer_chase"), std::string::npos) << msg;
        EXPECT_NE(msg.find("phase_shift"), std::string::npos) << msg;
    }
}

/** Fresh scratch directory (same idiom as test_session). */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(std::string(::testing::TempDir()) + "bsyn_gen_" + tag +
                "_" + std::to_string(::getpid()))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::vector<workloads::Workload>
fastSample()
{
    std::vector<workloads::Workload> out;
    uint64_t seed = 21;
    for (const auto &name : familyNames())
        out.push_back(gen::Registry::global().require(name).make(
            fastKnobs(name), seed++));
    return out;
}

TEST(GenPipeline, SuiteRunIsByteIdenticalAcrossThreadCounts)
{
    // The acceptance criterion: same family+knobs+seed implies
    // byte-identical generated source, profile JSON and clone source
    // no matter how the batch is parallelized.
    auto ws = fastSample();
    synth::SynthesisOptions fast = pipeline::defaultSynthesisOptions();
    fast.targetInstructions = 20000;

    ScratchDir outSeq("seq"), outPar("par");
    for (auto [threads, dir] :
         {std::pair<unsigned, const ScratchDir *>{1u, &outSeq},
          std::pair<unsigned, const ScratchDir *>{3u, &outPar}}) {
        pipeline::SessionOptions so;
        so.threads = threads;
        so.synthesis = fast;
        pipeline::Session session(std::move(so));
        pipeline::DirectorySink sink(dir->str());
        auto statuses = session.processSuite(ws, sink);
        for (const auto &st : statuses)
            EXPECT_TRUE(st.ok) << st.workload << ": " << st.error;
        EXPECT_EQ(sink.written(), ws.size());
    }

    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(outSeq.str())) {
        std::string name = entry.path().filename().string();
        EXPECT_EQ(readFile(outSeq.str() + "/" + name),
                  readFile(outPar.str() + "/" + name))
            << name;
        ++files;
    }
    EXPECT_EQ(files, 2 * ws.size());
}

TEST(GenPipeline, WarmCacheRecomputesNothingForGeneratedSuite)
{
    // Generation is cache-keyed by the canonical instance name plus
    // the source bytes, so a warm re-run of a generated suite must
    // serve every profile and clone from the cache.
    auto ws = fastSample();
    synth::SynthesisOptions fast = pipeline::defaultSynthesisOptions();
    fast.targetInstructions = 20000;
    ScratchDir cache("cache");

    pipeline::SessionOptions so;
    so.threads = 2;
    so.cacheDir = cache.str();
    so.synthesis = fast;
    pipeline::Session session(std::move(so));

    pipeline::CollectSink cold;
    session.processSuite(ws, cold);
    auto coldStats = session.cacheStats();
    EXPECT_EQ(coldStats.profileMisses, ws.size());
    EXPECT_EQ(coldStats.synthMisses, ws.size());

    pipeline::CollectSink warm;
    auto statuses = session.processSuite(ws, warm);
    auto warmStats = session.cacheStats();
    EXPECT_EQ(warmStats.profileMisses, ws.size()) << "re-profiled";
    EXPECT_EQ(warmStats.synthMisses, ws.size()) << "re-synthesized";
    EXPECT_EQ(warmStats.profileHits, ws.size());
    EXPECT_EQ(warmStats.synthHits, ws.size());
    for (const auto &st : statuses) {
        EXPECT_TRUE(st.profileCached) << st.workload;
        EXPECT_TRUE(st.synthCached) << st.workload;
    }

    auto a = cold.takeRuns(), b = warm.takeRuns();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].synthetic.cSource, b[i].synthetic.cSource);
        EXPECT_EQ(a[i].profile.serialize(), b[i].profile.serialize());
    }
}

TEST(GenPipeline, GeneratedCloneRunsEndToEnd)
{
    // process(): profile -> synthesize; the clone must compile, run to
    // completion and print the synthetic checksum line.
    pipeline::Session session;
    synth::SynthesisOptions fast = pipeline::defaultSynthesisOptions();
    fast.targetInstructions = 20000;
    for (const auto &w : fastSample()) {
        auto run = session.process(w, fast);
        ASSERT_FALSE(run.synthetic.cSource.empty()) << w.name();
        auto stats = pipeline::runSource(run.synthetic.cSource,
                                         w.name() + ".clone",
                                         opt::OptLevel::O0,
                                         isa::targetX86());
        EXPECT_NE(stats.output.find("bsyn_checksum="),
                  std::string::npos)
            << w.name();
        EXPECT_GT(stats.instructions, 1000u) << w.name();
    }
}

TEST(GenCalibration, ParallelLadderMatchesSerialBytes)
{
    // The candidate ladder is schedule-independent: synthesizing with
    // a concurrent runner yields the same bytes as the serial loop,
    // including when calibration actually retunes (tiny budget forces
    // the first measurement far out of band).
    const auto &w = workloads::findWorkload("crc32/small");
    ir::Module m = workloads::compileWorkload(w);
    auto prof = profile::profileModule(m);

    synth::SynthesisOptions opts;
    opts.targetInstructions = 3000;

    auto serial = synth::synthesize(prof, opts,
                                    &pipeline::measureInstructions);

    ThreadPool pool(3);
    auto parallel = synth::synthesize(
        prof, opts, &pipeline::measureInstructions,
        [&pool](size_t n, const std::function<void(size_t)> &fn) {
            pool.parallelFor(n, fn);
        });
    EXPECT_EQ(serial.cSource, parallel.cSource);
    EXPECT_EQ(serial.reductionFactor, parallel.reductionFactor);

    // And the ladder still lands the budget within the usual band.
    uint64_t count = pipeline::measureInstructions(parallel.cSource);
    EXPECT_GT(count, opts.targetInstructions / 4);
    EXPECT_LT(count, opts.targetInstructions * 4);
}

} // namespace
} // namespace bsyn
