#include "profile/instr_mix.hh"

#include "profile/sfgl.hh"
#include "support/string_util.hh"

namespace bsyn::profile
{

using isa::MClass;

uint64_t
InstrMix::total() const
{
    uint64_t t = 0;
    for (uint64_t c : counts)
        t += c;
    return t;
}

double
InstrMix::fraction(MClass cls) const
{
    uint64_t t = total();
    return t ? double(count(cls)) / double(t) : 0.0;
}

double
InstrMix::loadFraction() const
{
    return fraction(MClass::Load);
}

double
InstrMix::storeFraction() const
{
    return fraction(MClass::Store);
}

double
InstrMix::branchFraction() const
{
    return fraction(MClass::Branch) + fraction(MClass::Jump);
}

double
InstrMix::otherFraction() const
{
    return 1.0 - loadFraction() - storeFraction() - branchFraction();
}

double
InstrMix::fpFraction() const
{
    return fraction(MClass::FpAlu) + fraction(MClass::FpMul) +
           fraction(MClass::FpDiv);
}

void
InstrMix::merge(const InstrMix &other)
{
    for (size_t i = 0; i < numClasses; ++i)
        counts[i] += other.counts[i];
}

void
InstrMix::writeJson(std::string &out) const
{
    formatArray(out, counts, [](std::string &o, uint64_t c) {
        formatNumber(o, double(c));
    });
}

InstrMix
InstrMix::readJson(JsonCursor &cur)
{
    InstrMix mix;
    size_t n = 0;
    cur.enterArray();
    while (cur.nextElement()) {
        uint64_t c = checkedCount(cur.number(), [&cur] { return cur.path(); });
        if (n < numClasses)
            mix.counts[n] = c;
        ++n;
    }
    if (n != numClasses)
        cur.fail(strprintf("expected %zu counts, not %zu", numClasses, n));
    return mix;
}

} // namespace bsyn::profile
