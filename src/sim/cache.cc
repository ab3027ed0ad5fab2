#include "sim/cache.hh"

#include "support/bits.hh"
#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn::sim
{

std::string
CacheConfig::describe() const
{
    return strprintf("%lluKB/%uB/%u-way",
                     static_cast<unsigned long long>(sizeBytes / 1024),
                     lineBytes, associativity);
}

Cache::Cache(const CacheConfig &config)
{
    BSYN_ASSERT(isPow2(config.lineBytes),
                "line size must be a power of two");
    BSYN_ASSERT(config.sizeBytes %
                        (config.lineBytes * config.associativity) ==
                    0,
                "cache size must be a multiple of line*assoc");
    uint64_t sets = config.numSets();
    BSYN_ASSERT(isPow2(sets), "set count must be a power of two");
    lines_.assign(sets * config.associativity, Line());
    setShift_ = log2u(config.lineBytes);
    tagShift_ = log2u(sets);
    setMask_ = sets - 1;
    assoc_ = config.associativity;
    for (Memo &m : memos_)
        m.line = lines_.data(); // addr = ~0 keeps every slot unreachable
}

CacheSweep::CacheSweep(const std::vector<CacheConfig> &configs)
{
    caches.reserve(configs.size());
    for (const auto &c : configs)
        caches.emplace_back(c);
}

void
CacheSweep::access(uint64_t addr, uint32_t size)
{
    for (auto &c : caches)
        c.access(addr, size);
}

std::vector<CacheConfig>
CacheSweep::paperSweep()
{
    std::vector<CacheConfig> out;
    for (uint64_t kb : {1, 2, 4, 8, 16, 32}) {
        CacheConfig c;
        c.sizeBytes = kb * 1024;
        c.lineBytes = 32;
        c.associativity = 4;
        out.push_back(c);
    }
    return out;
}

} // namespace bsyn::sim
