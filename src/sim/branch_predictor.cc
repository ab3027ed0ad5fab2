#include "sim/branch_predictor.hh"

#include "support/error.hh"

namespace bsyn::sim
{

BranchPredictor::BranchPredictor(const std::string &name)
{
    if (name == "static") {
        kind_ = Kind::Static;
        return;
    }
    size_t tableSize = kIndexMask + 1;
    if (name == "bimodal") {
        kind_ = Kind::Bimodal;
        bimodal_.assign(tableSize, 2);
    } else if (name == "gshare") {
        kind_ = Kind::Gshare;
        gshare_.assign(tableSize, 2);
    } else if (name == "tournament") {
        kind_ = Kind::Tournament;
        bimodal_.assign(tableSize, 2);
        gshare_.assign(tableSize, 2);
        chooser_.assign(tableSize, 2);
    } else {
        fatal("unknown branch predictor '%s'", name.c_str());
    }
}

} // namespace bsyn::sim
