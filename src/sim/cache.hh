/**
 * @file
 * Set-associative data-cache simulator with true-LRU replacement, plus a
 * multi-configuration harness that evaluates a sweep of cache sizes in a
 * single pass over the access stream (the paper cites Hill & Smith [13]
 * for this single-pass idea and uses it both during profiling and in the
 * Figure 7/8 evaluation). The same Cache serves profiling, the timed
 * core and the sweep.
 */

#ifndef BSYN_SIM_CACHE_HH
#define BSYN_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/inline.hh"

namespace bsyn::sim
{

/** Geometry of one cache. */
struct CacheConfig
{
    uint64_t sizeBytes = 8 * 1024;
    uint32_t lineBytes = 32;
    uint32_t associativity = 4;

    uint64_t numSets() const
    {
        return sizeBytes / (lineBytes * associativity);
    }

    std::string describe() const;
};

/** Hit/miss counters. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;

    uint64_t hits() const { return accesses - misses; }
    double hitRate() const
    {
        return accesses ? double(hits()) / double(accesses) : 1.0;
    }
    double missRate() const { return 1.0 - hitRate(); }
};

/**
 * One set-associative true-LRU cache with a small direct-mapped line
 * memo in front of the set walk: repeated accesses to recently touched
 * lines — runs of stack slots, streaming arrays, interleaved load/store
 * streams — short-circuit to a single tag compare.
 *
 * Move-only: the memo holds pointers into the cache's own line vector.
 * A move keeps the buffer; a copy would leave every memo pointing into
 * the source.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    Cache(Cache &&) noexcept = default;
    Cache &operator=(Cache &&) noexcept = default;
    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /**
     * Access @p size bytes starting at @p addr: every cache line the
     * access overlaps is touched (a load/store straddling a line
     * boundary costs one access per line). Writes allocate like reads
     * (write-allocate; write-back is irrelevant without a backing
     * hierarchy model). @return true only if every line hit.
     */
    BSYN_FORCE_INLINE bool
    access(uint64_t addr, uint32_t size = 1)
    {
        bool hit = accessLine(addr);
        if (size > 1) {
            uint64_t first = addr >> setShift_;
            uint64_t last = (addr + size - 1) >> setShift_;
            for (uint64_t line = first + 1; line <= last; ++line) {
                bool h = accessLine(line << setShift_);
                hit = hit && h;
            }
        }
        return hit;
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lruStamp = 0;
    };

    /** The memo hit path is forced inline at every call site: left to
     *  the inliner, how many of the dispatch loop's hundreds of sites
     *  get it depends on whatever else shares the translation unit's
     *  growth budget. The set walk behind it stays out of line. */
    BSYN_FORCE_INLINE bool
    accessLine(uint64_t addr)
    {
        ++stats_.accesses;
        ++clock_;
        uint64_t line_addr = addr >> setShift_;
        uint64_t tag = line_addr >> tagShift_;
        Memo &m = memos_[line_addr & (kMemoSlots - 1)];
        if (m.addr == line_addr && m.line->valid &&
            m.line->tag == tag) {
            m.line->lruStamp = clock_;
            return true;
        }
        return lookupLine(line_addr, tag);
    }

    bool
    lookupLine(uint64_t line_addr, uint64_t tag)
    {
        uint64_t set = line_addr & setMask_;
        Line *base = &lines_[set * assoc_];
        Line *victim = base;
        for (uint32_t w = 0; w < assoc_; ++w) {
            Line &l = base[w];
            if (l.valid && l.tag == tag) {
                l.lruStamp = clock_;
                memos_[line_addr & (kMemoSlots - 1)] = {line_addr, &l};
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
        victim->lruStamp = clock_;
        memos_[line_addr & (kMemoSlots - 1)] = {line_addr, victim};
        return false;
    }

    CacheStats stats_;
    std::vector<Line> lines_; ///< sets * ways, row-major by set
    uint64_t clock_ = 0;
    uint32_t setShift_ = 0;
    uint32_t tagShift_ = 0;
    uint64_t setMask_ = 0;
    uint32_t assoc_ = 1;

    /**
     * Direct-mapped memo in front of the set walk, indexed by the low
     * line-address bits. One entry thrashes when a load stream, a
     * store stream and the frame line interleave; a handful of slots
     * keeps each stream's line hot. Entries re-check validity and tag,
     * so an aliasing eviction between touches falls back to the full
     * walk and the LRU state is exactly that of the plain set walk.
     */
    static constexpr size_t kMemoSlots = 8;
    struct Memo
    {
        uint64_t addr = ~0ull; ///< memoized line address
        Line *line = nullptr;
    };
    Memo memos_[kMemoSlots];
};

/**
 * A bank of caches with different configurations fed by one access
 * stream — the single-pass sweep used in profiling and in Figs 7/8.
 */
class CacheSweep
{
  public:
    explicit CacheSweep(const std::vector<CacheConfig> &configs);

    /** Width-aware feed: straddling accesses touch every overlapped
     *  line in every member cache. */
    void access(uint64_t addr, uint32_t size = 1);

    size_t size() const { return caches.size(); }
    const Cache &at(size_t i) const { return caches[i]; }
    Cache &at(size_t i) { return caches[i]; }

    /** The paper's Fig 7/8 sweep: 1..32 KB, 32 B lines, 4-way. */
    static std::vector<CacheConfig> paperSweep();

  private:
    std::vector<Cache> caches;
};

} // namespace bsyn::sim

#endif // BSYN_SIM_CACHE_HH
