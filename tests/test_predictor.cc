/** @file Branch predictor tests (static, bimodal, gshare, tournament),
 *  and the differential check of the shipped flat predictor against the
 *  reference predictor classes. */

#include <gtest/gtest.h>

#include "oracle/branch_predictor.hh"
#include "sim/branch_predictor.hh"
#include "support/error.hh"
#include "support/rng.hh"

namespace bsyn::sim
{
namespace
{

TEST(Bimodal, LearnsBiasedBranch)
{
    BranchPredictor p("bimodal");
    for (int i = 0; i < 1000; ++i)
        p.branch(0x40, true);
    EXPECT_GT(p.stats().accuracy(), 0.99);
}

TEST(Bimodal, PoorOnAlternating)
{
    BranchPredictor p("bimodal");
    for (int i = 0; i < 1000; ++i)
        p.branch(0x40, i % 2 == 0);
    EXPECT_LT(p.stats().accuracy(), 0.7);
}

TEST(Gshare, LearnsPeriodicPattern)
{
    BranchPredictor p("gshare");
    for (int i = 0; i < 4000; ++i)
        p.branch(0x40, i % 4 == 0); // TFFF TFFF ...
    EXPECT_GT(p.stats().accuracy(), 0.9);
}

TEST(Tournament, AtLeastAsGoodAsComponentsOnMixedWorkload)
{
    // Two branches: one heavily biased (bimodal-friendly), one periodic
    // (history-friendly). The tournament should do well on both.
    BranchPredictor t("tournament");
    BranchPredictor b("bimodal");
    BranchPredictor g("gshare");
    Rng rng(3);
    for (int i = 0; i < 8000; ++i) {
        bool biased = rng.nextBool(0.95);
        bool periodic = i % 3 == 0;
        for (auto *p : {&t, &b, &g}) {
            p->branch(0x100, biased);
            p->branch(0x200, periodic);
        }
    }
    EXPECT_GT(t.stats().accuracy(), 0.85);
    EXPECT_GE(t.stats().accuracy() + 0.02, b.stats().accuracy());
    EXPECT_GE(t.stats().accuracy() + 0.02, g.stats().accuracy());
}

TEST(Predictors, DistinctPcsDoNotAliasBadly)
{
    BranchPredictor p("bimodal");
    for (int i = 0; i < 1000; ++i) {
        p.branch(0x40, true);
        p.branch(0x44, false);
    }
    EXPECT_GT(p.stats().accuracy(), 0.95);
}

TEST(Predictors, BuiltByName)
{
    for (const char *name : {"static", "bimodal", "gshare", "tournament"})
        EXPECT_NO_THROW(BranchPredictor{name}) << name;
    EXPECT_THROW(BranchPredictor{"neural"}, FatalError);
}

TEST(StaticPredictor, AccuracyEqualsTakenRate)
{
    BranchPredictor p("static");
    for (int i = 0; i < 100; ++i)
        p.branch(0, i < 70);
    EXPECT_NEAR(p.stats().accuracy(), 0.7, 1e-9);
}

/**
 * Differential: every predictor kind must return the reference class's
 * prediction on every branch of a seeded stream. PCs range past the
 * 4096-entry tables, so the index masking and its aliasing are covered;
 * outcomes mix biased, periodic and random branches so every counter
 * and the tournament chooser move in both directions.
 */
class PredictorDifferential : public ::testing::TestWithParam<const char *>
{};

TEST_P(PredictorDifferential, MatchesReferenceBranchForBranch)
{
    BranchPredictor shipped(GetParam());
    std::unique_ptr<oracle::BranchPredictor> ref =
        oracle::makePredictor(GetParam());
    Rng rng(17);
    for (int i = 0; i < 50000; ++i) {
        uint64_t pc = rng.nextBounded(64) * 4 + (rng.nextBounded(4) << 14);
        bool taken;
        switch (pc % 3) {
          case 0: taken = rng.nextBool(0.9); break;
          case 1: taken = i % 5 == 0; break;
          default: taken = rng.nextBool(0.5); break;
        }
        bool expected = ref->predict(pc);
        ref->branch(pc, taken);
        ASSERT_EQ(shipped.branch(pc, taken), expected) << "branch " << i;
    }
    EXPECT_EQ(shipped.stats().branches, ref->stats().branches);
    EXPECT_EQ(shipped.stats().correct, ref->stats().correct);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PredictorDifferential,
                         ::testing::Values("static", "bimodal", "gshare",
                                           "tournament"));

} // namespace
} // namespace bsyn::sim
