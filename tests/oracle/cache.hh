/**
 * @file
 * The reference cache: a plain set walk with true-LRU replacement and
 * no line memo. sim::Cache must match it access for access.
 */

#ifndef BSYN_ORACLE_CACHE_HH
#define BSYN_ORACLE_CACHE_HH

#include <vector>

#include "sim/cache.hh"

namespace bsyn::oracle
{

/** One set-associative LRU cache. */
class Cache
{
  public:
    explicit Cache(const sim::CacheConfig &cfg);

    /** Access the line holding @p addr; @return true on hit. Writes
     *  allocate like reads. */
    bool access(uint64_t addr);

    /** Access @p size bytes at @p addr: every overlapped line is
     *  touched. @return true only if every line hit. */
    bool access(uint64_t addr, uint32_t size);

    const sim::CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lruStamp = 0;
    };

    sim::CacheConfig cfg;
    sim::CacheStats stats_;
    std::vector<Line> lines; ///< sets * ways, row-major by set
    uint64_t clock = 0;
    uint32_t setShift = 0;
    uint32_t tagShift = 0;
    uint64_t setMask = 0;
};

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_CACHE_HH
