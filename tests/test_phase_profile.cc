/** @file Tests for the v3 time-sliced/phase profile model: loader
 *  compatibility with checked-in v1 and v2 profile JSON (both load as
 *  single-phase v3 with identical aggregates), v3 serialization shape
 *  and round-trips, phase detection matching the phase_shift
 *  generator's configured phase count, phase-aware synthesis
 *  (single-phase clones byte-identical to the aggregate-only path,
 *  multi-phase clones stitched from per-phase skeletons), and the
 *  invariants of the sparse slice stream the phases are built from. */

#include <gtest/gtest.h>

#include <algorithm>

#include "differential_suite.hh"
#include "gen/registry.hh"
#include "lang/frontend.hh"
#include "oracle/profile_json.hh"
#include "pipeline/session.hh"
#include "profile/profiler.hh"
#include "profile/statistical_profile.hh"
#include "straight_line.hh"
#include "support/string_util.hh"
#include "synth/synthesizer.hh"
#include "workloads/suite.hh"
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

/** A multi-phase program whose branch in alt alternates without a
 *  break from one loop to the next. */
const char *kAlternatingSource = R"(
uint a[4096];
int alt(int i, int s) {
  if (i & 1) return s + i;
  return s ^ i;
}
int main() {
  int i;
  int r;
  int s = 0;
  for (i = 0; i < 4096; i++) a[i] = i * 7;
  for (i = 0; i < 12000; i++) s = alt(i, s * 3 + 1);
  for (r = 0; r < 3; r++)
    for (i = 0; i < 4096; i++) s = alt(i, s + a[(i * 67) % 4096]);
  printf("%d\n", s);
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
    EXPECT_EQ(oracle::mixToJson(ph.mix).dump(-1),
              oracle::mixToJson(p.mix).dump(-1));
    EXPECT_EQ(oracle::sfglToJson(ph.sfgl).dump(-1),
              oracle::sfglToJson(p.sfgl).dump(-1));
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
    Json j = Json::parse(p.serialize());
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
    EXPECT_EQ(oracle::mixToJson(v1.mix).dump(-1),
              oracle::mixToJson(v2.mix).dump(-1));
    EXPECT_EQ(v1.sfgl.blocks.size(), v2.sfgl.blocks.size());
}

TEST(PhaseProfile, SinglePhaseSerializesCompact)
{
    auto p = profileSource(kSinglePhaseSource, "steady");
    ASSERT_EQ(p.phases.size(), 1u);
    EXPECT_GT(p.sliceLength, 0u);
    EXPECT_GE(p.sliceCount, 2u);
    Json j = Json::parse(p.serialize());
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
    Json j = Json::parse(p.serialize());
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

TEST(PhaseProfile, TransitionRatesAboveOneRoundTrip)
{
    // alt's branch alternates without a break: each loop ends on an
    // odd i and the next starts on an even one. A phase after the
    // first therefore also counts the flip from the outcome the phase
    // before it ended on, so its transitions equal its executions e
    // and its rate is e / (e - 1) > 1. Such profiles must load.
    auto p = profileSource(kAlternatingSource, "alternating");
    ASSERT_TRUE(p.multiPhase());
    double maxRate = 0;
    for (size_t k = 1; k < p.phases.size(); ++k)
        for (const auto &b : p.phases[k].sfgl.blocks) {
            maxRate = std::max(maxRate, b.transitionRate);
            for (const auto &d : b.code)
                maxRate = std::max(maxRate, d.transitionRate);
        }
    EXPECT_GT(maxRate, 1.0);
    EXPECT_LE(maxRate, 2.0);

    auto back = profile::StatisticalProfile::deserialize(p.serialize());
    EXPECT_EQ(back.serialize(), p.serialize());
}

TEST(ProfileJson, MatchesTheDomWriterAndReader)
{
    // The shipped writer and reader build no Json value; the DOM ones
    // in tests/oracle are their reference. The corpus: every suite
    // profile, a three-phase profile, one whose later phases carry
    // transition rates above 1, and both pre-v3 fixtures.
    const auto &suite = workloads::mibenchSuite();
    std::vector<profile::StatisticalProfile> corpus(suite.size());
    pipeline::SessionOptions so;
    so.threads = 4;
    pipeline::Session session(so);
    session.parallelFor(suite.size(), [&](size_t i) {
        corpus[i] = session.profile(suite[i]);
    });
    corpus.push_back(profilePhaseShift(3));
    corpus.push_back(profileSource(kAlternatingSource, "alternating"));
    std::vector<std::string> texts;
    for (const auto &p : corpus) {
        texts.push_back(p.serialize());
        EXPECT_EQ(texts.back(), oracle::profileToJson(p).dump(-1))
            << p.workloadName;
    }
    for (const char *file : {"profile_v1.json", "profile_v2.json"})
        texts.push_back(readFile(fixturePath(file)));
    for (const auto &text : texts) {
        auto p = profile::StatisticalProfile::deserialize(text);
        SCOPED_TRACE(p.workloadName);
        auto ref = oracle::profileFromJson(Json::parse(text));
        EXPECT_EQ(p.serialize(), oracle::profileToJson(ref).dump(-1));
        EXPECT_EQ(p.phases.size(), ref.phases.size());
    }
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

/** The slice options each stream check runs under: the profiler's
 *  default, and a tiny base with a budget of 4, so that coalescing runs
 *  many times. */
std::vector<sim::SliceOptions>
sliceOptionCases()
{
    sim::SliceOptions tiny;
    tiny.baseSliceLength = 16;
    tiny.maxSlices = 4;
    return {sim::SliceOptions(), tiny};
}

/** What one sliced run's stream holds. */
struct StreamShape
{
    size_t slices = 0;
    size_t entries = 0;
    uint64_t retired = 0;
};

/**
 * Run @p prog sliced under @p so and check the stream: each slice's
 * entries are strictly increasing in PC with a nonzero exec, the
 * boundaries increase and the last is the run's retired count, and the
 * deltas summed over all slices equal the aggregate counters, field by
 * field.
 */
void
checkSliceStream(const isa::MachineProgram &prog, const sim::SliceOptions &so,
                 StreamShape &shape)
{
    sim::DecodedProgram decoded(prog);
    sim::InstrumentedCounters agg;
    sim::SlicedCounters stream;
    sim::ExecStats stats = sim::executeInstrumentedSliced(
        decoded, profile::ProfileOptions().profilingCache, agg, stream, so);

    size_t n = prog.size();
    sim::InstrumentedCounters sum;
    sum.execCount.assign(n, 0);
    sum.memMisses.assign(n, 0);
    sum.branch.assign(n, sim::InstrumentedCounters::Branch());
    uint64_t boundary = 0;
    shape = StreamShape();
    for (size_t s = 0; s < stream.slices.size(); ++s) {
        const sim::CounterSlice &slice = stream.slices[s];
        EXPECT_GT(slice.end, boundary) << "slice " << s;
        boundary = slice.end;
        for (size_t k = 0; k < slice.pcs.size(); ++k) {
            const sim::PcDelta &d = slice.pcs[k];
            ASSERT_LT(d.pc, n) << "slice " << s;
            if (k) {
                ASSERT_LT(slice.pcs[k - 1].pc, d.pc) << "slice " << s;
            }
            EXPECT_NE(d.exec, 0u) << "slice " << s << " pc " << d.pc;
            sum.execCount[d.pc] += d.exec;
            sum.memMisses[d.pc] += d.memMisses;
            sum.branch[d.pc].taken += d.brTaken;
            sum.branch[d.pc].transitions += d.brTransitions;
        }
        shape.entries += slice.pcs.size();
    }
    shape.slices = stream.slices.size();
    shape.retired = stats.instructions;
    EXPECT_EQ(boundary, stats.instructions);
    for (size_t pc = 0; pc < n; ++pc) {
        const auto &b = sum.branch[pc];
        const auto &a = agg.branch[pc];
        ASSERT_TRUE(sum.execCount[pc] == agg.execCount[pc] &&
                    sum.memMisses[pc] == agg.memMisses[pc] &&
                    b.taken == a.taken && b.transitions == a.transitions)
            << "the slice deltas at pc " << pc
            << " do not sum to the aggregate counters";
    }
    EXPECT_LE(shape.entries, shape.retired);
}

class SliceStream : public ::testing::TestWithParam<SuiteLevel>
{};

TEST_P(SliceStream, DeltasAreSortedSparseAndSumToTheAggregate)
{
    const auto &[idx, level] = GetParam();
    isa::MachineProgram prog = lowerAt(representativeSuite()[idx], level);
    for (const sim::SliceOptions &so : sliceOptionCases()) {
        SCOPED_TRACE("base " + std::to_string(so.baseSliceLength));
        StreamShape shape;
        checkSliceStream(prog, so, shape);
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, SliceStream, suiteLevelGrid(),
                         suiteLevelName);

TEST(SliceStreamStraightLine, EveryPcLandsInOneSlice)
{
    // One long block: each PC retires once, so a slice holds only the
    // PCs it ran, and coalescing never duplicates an entry.
    ir::Module m = lang::compile(straightLineSource(16384, 1),
                                 "straight_line");
    isa::LoweringOptions lopts;
    lopts.applyFusion = false;
    isa::MachineProgram prog = isa::lower(m, isa::targetX86(), lopts);
    for (const sim::SliceOptions &so : sliceOptionCases()) {
        SCOPED_TRACE("base " + std::to_string(so.baseSliceLength));
        StreamShape shape;
        checkSliceStream(prog, so, shape);
        EXPECT_GT(shape.slices, 1u);
        EXPECT_LE(shape.entries, prog.size() + shape.slices);
    }
}

} // namespace
} // namespace bsyn
