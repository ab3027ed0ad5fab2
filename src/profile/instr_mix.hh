/**
 * @file
 * Dynamic instruction-mix accounting. The paper's Figure 6 reports the
 * four-way split (loads / stores / branches / others); we also keep the
 * full per-class histogram for finer validation.
 */

#ifndef BSYN_PROFILE_INSTR_MIX_HH
#define BSYN_PROFILE_INSTR_MIX_HH

#include <array>
#include <cstdint>

#include "isa/machine_program.hh"
#include "support/json.hh"

namespace bsyn::profile
{

/** Dynamic histogram over isa::MClass. */
class InstrMix
{
  public:
    static constexpr size_t numClasses =
        static_cast<size_t>(isa::MClass::Other) + 1;

    void
    add(isa::MClass cls, uint64_t n = 1)
    {
        counts[static_cast<size_t>(cls)] += n;
    }

    uint64_t count(isa::MClass cls) const
    {
        return counts[static_cast<size_t>(cls)];
    }

    uint64_t total() const;

    double fraction(isa::MClass cls) const;

    /** The paper's Figure 6 categories. */
    double loadFraction() const;
    double storeFraction() const;
    double branchFraction() const; ///< conditional + unconditional
    double otherFraction() const;

    /** Fraction of floating-point operations (drives fft's CPI). */
    double fpFraction() const;

    void merge(const InstrMix &other);

    /** Append the mix as a JSON array of numClasses counts. */
    void writeJson(std::string &out) const;
    /** Read the mix at @p cur ("mix", "phases[1].mix"): exactly
     *  numClasses counts. */
    static InstrMix readJson(JsonCursor &cur);

  private:
    std::array<uint64_t, numClasses> counts{};
};

} // namespace bsyn::profile

#endif // BSYN_PROFILE_INSTR_MIX_HH
