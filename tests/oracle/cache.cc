#include "oracle/cache.hh"

#include "support/bits.hh"
#include "support/error.hh"

namespace bsyn::oracle
{

Cache::Cache(const sim::CacheConfig &config) : cfg(config)
{
    BSYN_ASSERT(isPow2(cfg.lineBytes), "line size must be a power of two");
    BSYN_ASSERT(cfg.sizeBytes % (cfg.lineBytes * cfg.associativity) == 0,
                "cache size must be a multiple of line*assoc");
    uint64_t sets = cfg.numSets();
    BSYN_ASSERT(isPow2(sets), "set count must be a power of two");
    lines.assign(sets * cfg.associativity, Line());
    setShift = log2u(cfg.lineBytes);
    tagShift = log2u(sets);
    setMask = sets - 1;
}

bool
Cache::access(uint64_t addr)
{
    ++stats_.accesses;
    ++clock;
    uint64_t line_addr = addr >> setShift;
    uint64_t set = line_addr & setMask;
    uint64_t tag = line_addr >> tagShift;
    Line *base = &lines[set * cfg.associativity];

    Line *victim = base;
    for (uint32_t w = 0; w < cfg.associativity; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lruStamp = clock;
            return true;
        }
        if (!l.valid) {
            victim = &l;
        } else if (victim->valid && l.lruStamp < victim->lruStamp) {
            victim = &l;
        }
    }
    ++stats_.misses;
    victim->valid = true;
    victim->tag = tag;
    victim->lruStamp = clock;
    return false;
}

bool
Cache::access(uint64_t addr, uint32_t size)
{
    bool hit = access(addr);
    if (size > 1) {
        uint64_t first = addr >> setShift;
        uint64_t last = (addr + size - 1) >> setShift;
        for (uint64_t line = first + 1; line <= last; ++line) {
            bool h = access(line << setShift);
            hit = hit && h;
        }
    }
    return hit;
}

} // namespace bsyn::oracle
