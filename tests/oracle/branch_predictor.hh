/**
 * @file
 * The reference branch predictors: a virtual hierarchy with one class
 * per kind, where the tournament re-predicts its components inside
 * update(). sim::BranchPredictor must match every kind branch for
 * branch.
 */

#ifndef BSYN_ORACLE_BRANCH_PREDICTOR_HH
#define BSYN_ORACLE_BRANCH_PREDICTOR_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/branch_predictor.hh"

namespace bsyn::oracle
{

using sim::PredictorStats;

/** Abstract conditional branch predictor. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict, then update with the actual outcome. */
    void
    branch(uint64_t pc, bool taken)
    {
        bool pred = predict(pc);
        ++stats_.branches;
        if (pred == taken)
            ++stats_.correct;
        update(pc, taken);
    }

    /** Predict without updating. */
    virtual bool predict(uint64_t pc) const = 0;

    /** Train on the resolved outcome. */
    virtual void update(uint64_t pc, bool taken) = 0;

    const PredictorStats &stats() const { return stats_; }

  private:
    PredictorStats stats_;
};

/** Static always-taken (baseline). */
class StaticTakenPredictor : public BranchPredictor
{
  public:
    bool predict(uint64_t) const override { return true; }
    void update(uint64_t, bool) override {}
};

/** Bimodal: per-PC 2-bit saturating counters. */
class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(uint32_t table_bits = 12);

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;

  private:
    std::vector<uint8_t> table;
    uint64_t mask;
};

/** gshare: global history XOR PC indexing 2-bit counters. */
class GsharePredictor : public BranchPredictor
{
  public:
    explicit GsharePredictor(uint32_t table_bits = 12,
                             uint32_t history_bits = 12);

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;

  private:
    uint64_t index(uint64_t pc) const;

    std::vector<uint8_t> table;
    uint64_t mask;
    uint64_t history = 0;
    uint64_t historyMask;
};

/**
 * Tournament hybrid of a bimodal and a gshare component with a per-PC
 * chooser — the "hybrid branch predictor with a bimodal component along
 * with a history-based component" of the paper's experimental setup.
 */
class TournamentPredictor : public BranchPredictor
{
  public:
    explicit TournamentPredictor(uint32_t table_bits = 12,
                                 uint32_t history_bits = 12);

    bool predict(uint64_t pc) const override;
    void update(uint64_t pc, bool taken) override;

  private:
    BimodalPredictor bimodal;
    GsharePredictor gshare;
    std::vector<uint8_t> chooser;
    uint64_t mask;
};

/** Factory by name: "static", "bimodal", "gshare", "tournament". */
std::unique_ptr<BranchPredictor> makePredictor(const std::string &name);

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_BRANCH_PREDICTOR_HH
