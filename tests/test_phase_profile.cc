/** @file Tests for the v3 time-sliced/phase profile model: loader
 *  compatibility with checked-in v1 and v2 profile JSON (both load as
 *  single-phase v3 with identical aggregates), v3 serialization shape
 *  and round-trips, phase detection matching the phase_shift
 *  generator's configured phase count, and phase-aware synthesis
 *  (single-phase clones byte-identical to the aggregate-only path,
 *  multi-phase clones stitched from per-phase skeletons). */

#include <gtest/gtest.h>

#include "gen/registry.hh"
#include "lang/frontend.hh"
#include "profile/profiler.hh"
#include "profile/statistical_profile.hh"
#include "synth/synthesizer.hh"
#include "workloads/workload.hh"

namespace bsyn
{
namespace
{

std::string
fixturePath(const char *file)
{
    return std::string(BSYN_TEST_DATA_DIR) + "/" + file;
}

/** A loop-heavy single-phase kernel (steady behaviour throughout). */
const char *kSinglePhaseSource = R"(
int main() {
  int A[64];
  int i;
  int j;
  int acc;
  acc = 0;
  for (i = 0; i < 64; i = i + 1) A[i] = i * 3 + 1;
  for (i = 0; i < 300; i = i + 1) {
    for (j = 0; j < 64; j = j + 1) {
      if ((j % 3) == 0) acc = acc + A[j];
      else acc = acc ^ A[j];
    }
  }
  printf("acc=%d\n", acc);
  return 0;
}
)";

profile::StatisticalProfile
profileSource(const char *src, const char *name,
              profile::ProfileOptions popts = {})
{
    ir::Module m = lang::compile(src, name);
    return profile::profileModule(m, popts);
}

profile::StatisticalProfile
profilePhaseShift(int phases, uint64_t seed = 7)
{
    const gen::Family &f = gen::Registry::global().require("phase_shift");
    auto w = f.make({{"phases", phases}, {"rounds", 1}, {"work", 40000}},
                    static_cast<long long>(seed));
    ir::Module m = workloads::compileWorkload(w);
    return profile::profileModule(m);
}

void
expectSinglePhaseMirrorsAggregate(const profile::StatisticalProfile &p)
{
    ASSERT_EQ(p.phases.size(), 1u);
    EXPECT_FALSE(p.multiPhase());
    EXPECT_EQ(p.phaseCount(), 1u);
    const auto &ph = p.phases[0];
    EXPECT_EQ(ph.dynamicInstructions, p.dynamicInstructions);
    EXPECT_EQ(ph.firstSlice, 0u);
    EXPECT_EQ(ph.mix.toJson().dump(-1), p.mix.toJson().dump(-1));
    EXPECT_EQ(ph.sfgl.toJson().dump(-1), p.sfgl.toJson().dump(-1));
}

TEST(ProfileCompat, V1LoadsAsSinglePhaseV3)
{
    auto p = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v1.json"));
    EXPECT_GT(p.dynamicInstructions, 0u);
    EXPECT_FALSE(p.sfgl.blocks.empty());
    // Pre-v3 files carry no slice stream.
    EXPECT_EQ(p.sliceLength, 0u);
    expectSinglePhaseMirrorsAggregate(p);
    // v1 descriptors (5-element arrays) load with the branch fields
    // defaulted — the profile must still re-serialize as v3.
    Json j = p.toJson();
    EXPECT_EQ(j.get("version").asInt(), 3);
    EXPECT_FALSE(j.has("phases"));
}

TEST(ProfileCompat, V2LoadsAsSinglePhaseV3)
{
    auto p = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v2.json"));
    EXPECT_GT(p.dynamicInstructions, 0u);
    EXPECT_EQ(p.sliceLength, 0u);
    expectSinglePhaseMirrorsAggregate(p);
}

TEST(ProfileCompat, V1AndV2DescribeTheSameWorkload)
{
    // The two fixtures were stripped from the same v3 profile; the
    // aggregate statistics both loaders reconstruct must agree.
    auto v1 = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v1.json"));
    auto v2 = profile::StatisticalProfile::loadFrom(
        fixturePath("profile_v2.json"));
    EXPECT_EQ(v1.workloadName, v2.workloadName);
    EXPECT_EQ(v1.dynamicInstructions, v2.dynamicInstructions);
    EXPECT_EQ(v1.mix.toJson().dump(-1), v2.mix.toJson().dump(-1));
    EXPECT_EQ(v1.sfgl.blocks.size(), v2.sfgl.blocks.size());
}

TEST(PhaseProfile, SinglePhaseSerializesCompact)
{
    auto p = profileSource(kSinglePhaseSource, "steady");
    ASSERT_EQ(p.phases.size(), 1u);
    EXPECT_GT(p.sliceLength, 0u);
    EXPECT_GE(p.sliceCount, 2u);
    Json j = p.toJson();
    EXPECT_EQ(j.get("version").asInt(), 3);
    // A single phase mirrors the aggregate, so serializing it would
    // only duplicate the profile; the key is reserved for real lists.
    EXPECT_FALSE(j.has("phases"));

    auto back = profile::StatisticalProfile::deserialize(p.serialize());
    EXPECT_EQ(back.serialize(), p.serialize());
    expectSinglePhaseMirrorsAggregate(back);
    EXPECT_EQ(back.sliceLength, p.sliceLength);
    EXPECT_EQ(back.sliceCount, p.sliceCount);
}

TEST(PhaseProfile, MultiPhaseRoundTripsByteIdentically)
{
    auto p = profilePhaseShift(3);
    ASSERT_TRUE(p.multiPhase());
    Json j = p.toJson();
    ASSERT_TRUE(j.has("phases"));
    EXPECT_EQ(j.get("phases").size(), p.phases.size());

    auto back = profile::StatisticalProfile::deserialize(p.serialize());
    EXPECT_EQ(back.serialize(), p.serialize());
    ASSERT_EQ(back.phases.size(), p.phases.size());

    // The phase list tiles the run: slice ranges are contiguous and
    // the per-phase instruction counts sum to the aggregate.
    uint64_t sum = 0, nextSlice = 0;
    for (const auto &ph : p.phases) {
        EXPECT_EQ(ph.firstSlice, nextSlice);
        EXPECT_GE(ph.sliceCount, 1u);
        nextSlice = ph.firstSlice + ph.sliceCount;
        sum += ph.dynamicInstructions;
    }
    EXPECT_EQ(nextSlice, p.sliceCount);
    EXPECT_EQ(sum, p.dynamicInstructions);
}

TEST(PhaseDetection, MatchesTheGeneratorsConfiguredCount)
{
    // phase_shift's knob IS the ground truth: the instance executes
    // exactly `phases` behaviourally distinct regions back to back
    // (rounds=1), and detection must recover that count.
    for (int phases : {2, 3}) {
        auto p = profilePhaseShift(phases);
        EXPECT_EQ(p.phases.size(), static_cast<size_t>(phases))
            << "phases=" << phases;
    }
}

TEST(PhaseSynthesis, SinglePhaseMatchesAggregateOnlyByte)
{
    auto p = profileSource(kSinglePhaseSource, "steady");
    ASSERT_FALSE(p.multiPhase());
    synth::SynthesisOptions on, off;
    on.phaseAware = true;
    off.phaseAware = false;
    auto a = synth::synthesize(p, on);
    auto b = synth::synthesize(p, off);
    EXPECT_EQ(a.cSource, b.cSource);
    EXPECT_EQ(a.phases, 1u);
    EXPECT_EQ(b.phases, 1u);
}

TEST(PhaseSynthesis, MultiPhaseClonesAreStitchedPerPhase)
{
    auto p = profilePhaseShift(3);
    ASSERT_EQ(p.phases.size(), 3u);
    auto syn = synth::synthesize(p);
    EXPECT_EQ(syn.phases, 3u);
    for (const char *fn : {"p0f0", "p1f0", "p2f0"})
        EXPECT_NE(syn.cSource.find(fn), std::string::npos) << fn;
    // The stitched source is a valid bsyn program.
    EXPECT_NO_THROW(lang::compile(syn.cSource, "clone"));

    // Opting out falls back to the aggregate-only clone.
    synth::SynthesisOptions off;
    off.phaseAware = false;
    auto agg = synth::synthesize(p, off);
    EXPECT_EQ(agg.phases, 1u);
    EXPECT_EQ(agg.cSource.find("p1f0"), std::string::npos);

    // Eight phases are still stitched; a ninth falls back too.
    auto withPhases = [&p](size_t n) {
        profile::StatisticalProfile q = p;
        q.phases.clear();
        for (size_t i = 0; i < n; ++i)
            q.phases.push_back(p.phases[i % p.phases.size()]);
        return q;
    };
    EXPECT_EQ(synth::synthesize(withPhases(8)).phases, 8u);
    auto fell = synth::synthesize(withPhases(9));
    EXPECT_EQ(fell.phases, 1u);
    EXPECT_EQ(fell.cSource, agg.cSource);
}

} // namespace
} // namespace bsyn
