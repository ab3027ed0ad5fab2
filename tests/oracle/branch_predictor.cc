#include "oracle/branch_predictor.hh"

#include "support/error.hh"

namespace bsyn::oracle
{

namespace
{

/** 2-bit saturating counter helpers (0,1 = not taken; 2,3 = taken). */
uint8_t
bump(uint8_t counter, bool taken)
{
    if (taken)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

} // namespace

BimodalPredictor::BimodalPredictor(uint32_t table_bits)
    : table(1ull << table_bits, 2), mask((1ull << table_bits) - 1)
{}

bool
BimodalPredictor::predict(uint64_t pc) const
{
    return table[pc & mask] >= 2;
}

void
BimodalPredictor::update(uint64_t pc, bool taken)
{
    uint8_t &c = table[pc & mask];
    c = bump(c, taken);
}

GsharePredictor::GsharePredictor(uint32_t table_bits, uint32_t history_bits)
    : table(1ull << table_bits, 2), mask((1ull << table_bits) - 1),
      historyMask((1ull << history_bits) - 1)
{}

uint64_t
GsharePredictor::index(uint64_t pc) const
{
    return (pc ^ history) & mask;
}

bool
GsharePredictor::predict(uint64_t pc) const
{
    return table[index(pc)] >= 2;
}

void
GsharePredictor::update(uint64_t pc, bool taken)
{
    uint8_t &c = table[index(pc)];
    c = bump(c, taken);
    history = ((history << 1) | (taken ? 1 : 0)) & historyMask;
}

TournamentPredictor::TournamentPredictor(uint32_t table_bits,
                                         uint32_t history_bits)
    : bimodal(table_bits), gshare(table_bits, history_bits),
      chooser(1ull << table_bits, 2), mask((1ull << table_bits) - 1)
{}

bool
TournamentPredictor::predict(uint64_t pc) const
{
    bool use_gshare = chooser[pc & mask] >= 2;
    return use_gshare ? gshare.predict(pc) : bimodal.predict(pc);
}

void
TournamentPredictor::update(uint64_t pc, bool taken)
{
    bool bi = bimodal.predict(pc);
    bool gs = gshare.predict(pc);
    if (bi != gs) {
        uint8_t &c = chooser[pc & mask];
        c = bump(c, gs == taken);
    }
    bimodal.update(pc, taken);
    gshare.update(pc, taken);
}

std::unique_ptr<BranchPredictor>
makePredictor(const std::string &name)
{
    if (name == "static")
        return std::make_unique<StaticTakenPredictor>();
    if (name == "bimodal")
        return std::make_unique<BimodalPredictor>();
    if (name == "gshare")
        return std::make_unique<GsharePredictor>();
    if (name == "tournament")
        return std::make_unique<TournamentPredictor>();
    fatal("unknown branch predictor '%s'", name.c_str());
}

} // namespace bsyn::oracle
