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

Json
InstrMix::toJson() const
{
    Json arr = Json::array();
    for (uint64_t c : counts)
        arr.push(Json(c));
    return arr;
}

InstrMix
InstrMix::fromJson(const Json &j, const std::string &path)
{
    InstrMix mix;
    for (size_t i = 0; i < numClasses && i < j.size(); ++i)
        mix.counts[i] = checkedCount(j.at(i).asNumber(), [&path, i] {
            return strprintf("%s[%zu]", path.c_str(), i);
        });
    return mix;
}

} // namespace bsyn::profile
