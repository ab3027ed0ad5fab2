/**
 * @file
 * Conditional-branch predictors. The paper's evaluation (Fig 9) uses a
 * hybrid predictor with a bimodal component and a history-based
 * component, as simulated by PTLSim; we provide bimodal, gshare and the
 * tournament hybrid, plus a static always-taken baseline — all as one
 * flat state machine selected by name, so the timed core trains it with
 * a single predict-and-train table walk per branch.
 */

#ifndef BSYN_SIM_BRANCH_PREDICTOR_HH
#define BSYN_SIM_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace bsyn::sim
{

/** Prediction accuracy counters. */
struct PredictorStats
{
    uint64_t branches = 0;
    uint64_t correct = 0;

    double accuracy() const
    {
        return branches ? double(correct) / double(branches) : 1.0;
    }
};

/**
 * Every predictor kind as one flat state machine: 2-bit saturating
 * counters (weakly taken at reset) in 4096-entry tables indexed by the
 * low PC bits, a 12-bit global history for gshare, and a per-PC
 * chooser for the tournament hybrid, which trains only when its
 * components disagree.
 */
class BranchPredictor
{
  public:
    /** Table index mask: every table has 2^12 entries. */
    static constexpr uint64_t kIndexMask = (1ull << 12) - 1;

    /** Build by name: "static", "bimodal", "gshare", "tournament". */
    explicit BranchPredictor(const std::string &name);

    /** Predict, update stats and train on the branch at @p pc. */
    bool branch(uint64_t pc, bool taken)
    {
        return predictAndTrain(pc & kIndexMask, taken);
    }

    /** branch() with the PC already masked to @p idx (the timed core
     *  pre-masks it per PC at prepare time). @return the prediction. */
    bool
    predictAndTrain(uint64_t idx, bool taken)
    {
        bool predicted = true;
        switch (kind_) {
          case Kind::Static:
            predicted = true;
            break;
          case Kind::Bimodal: {
            uint8_t &c = bimodal_[idx];
            predicted = c >= 2;
            c = bump(c, taken);
            break;
          }
          case Kind::Gshare: {
            uint8_t &c = gshare_[(idx ^ history_) & kIndexMask];
            predicted = c >= 2;
            c = bump(c, taken);
            history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
            break;
          }
          case Kind::Tournament: {
            uint8_t &bc = bimodal_[idx];
            uint8_t &gc = gshare_[(idx ^ history_) & kIndexMask];
            bool bi = bc >= 2;
            bool gs = gc >= 2;
            uint8_t &ch = chooser_[idx];
            predicted = (ch >= 2) ? gs : bi;
            if (bi != gs)
                ch = bump(ch, gs == taken);
            bc = bump(bc, taken);
            gc = bump(gc, taken);
            history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
            break;
          }
        }
        ++stats_.branches;
        stats_.correct += predicted == taken;
        return predicted;
    }

    const PredictorStats &stats() const { return stats_; }

  private:
    enum class Kind : uint8_t { Static, Bimodal, Gshare, Tournament };

    /** 2-bit saturating counter (0,1 = not taken; 2,3 = taken). */
    static uint8_t
    bump(uint8_t counter, bool taken)
    {
        if (taken)
            return counter < 3 ? counter + 1 : 3;
        return counter > 0 ? counter - 1 : 0;
    }

    Kind kind_ = Kind::Static;
    std::vector<uint8_t> bimodal_;
    std::vector<uint8_t> gshare_;
    std::vector<uint8_t> chooser_;
    uint64_t history_ = 0;
    uint64_t historyMask_ = kIndexMask;
    PredictorStats stats_;
};

} // namespace bsyn::sim

#endif // BSYN_SIM_BRANCH_PREDICTOR_HH
