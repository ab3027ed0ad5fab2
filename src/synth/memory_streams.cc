#include "synth/memory_streams.hh"

#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::synth
{

StreamPlan::StreamPlan(uint64_t stream_elems) : streamElems(stream_elems)
{
    BSYN_ASSERT((stream_elems & (stream_elems - 1)) == 0,
                "stream size must be a power of two");
}

void
StreamPlan::use(int miss_class, bool is_fp)
{
    BSYN_ASSERT(miss_class >= 0 && miss_class < profile::numMissClasses,
                "bad miss class %d", miss_class);
    if (is_fp)
        fpUsed[static_cast<size_t>(miss_class)] = true;
    else
        intUsed[static_cast<size_t>(miss_class)] = true;
}

std::string
StreamPlan::arrayName(int miss_class, bool is_fp) const
{
    return strprintf("%sStream%d", is_fp ? "d" : "m", miss_class);
}

std::string
StreamPlan::indexVar(int miss_class, bool is_fp) const
{
    return strprintf("%sx%d", is_fp ? "f" : "", miss_class);
}

uint64_t
StreamPlan::strideElems(int miss_class, bool is_fp) const
{
    if (miss_class == 0)
        return 0;
    if (!is_fp)
        return static_cast<uint64_t>(miss_class); // 4*class bytes / 4
    // Doubles are 8 bytes: halve the element stride, rounding up so a
    // non-zero class keeps a non-zero stride.
    return static_cast<uint64_t>((miss_class + 1) / 2);
}

std::vector<std::string>
StreamPlan::globalDecls() const
{
    std::vector<std::string> out;
    for (int c = 0; c < profile::numMissClasses; ++c) {
        uint64_t n = c == 0 ? 64 : streamElems;
        if (intUsed[static_cast<size_t>(c)])
            out.push_back(strprintf("unsigned int %s[%llu];",
                                    arrayName(c, false).c_str(),
                                    static_cast<unsigned long long>(n)));
        if (fpUsed[static_cast<size_t>(c)])
            out.push_back(strprintf("double %s[%llu];",
                                    arrayName(c, true).c_str(),
                                    static_cast<unsigned long long>(n)));
    }
    return out;
}

std::vector<std::pair<int, bool>>
StreamPlan::used() const
{
    std::vector<std::pair<int, bool>> out;
    for (int c = 0; c < profile::numMissClasses; ++c) {
        if (intUsed[static_cast<size_t>(c)])
            out.emplace_back(c, false);
        if (fpUsed[static_cast<size_t>(c)])
            out.emplace_back(c, true);
    }
    return out;
}

std::string
StreamPlan::checksumExpr() const
{
    std::vector<std::string> terms;
    for (const auto &[c, fp] : used()) {
        if (fp)
            terms.push_back(
                strprintf("(unsigned int)%s[7]", arrayName(c, fp).c_str()));
        else
            terms.push_back(strprintf("%s[7]", arrayName(c, fp).c_str()));
    }
    if (terms.empty())
        return "0";
    return join(terms, " + ");
}

} // namespace bsyn::synth
