/** @file Cache simulator tests, including the Table I stride/miss-rate
 *  property the synthetic memory streams rely on, and the differential
 *  check of the shipped cache against the reference set walk. */

#include <gtest/gtest.h>

#include <type_traits>

#include "oracle/cache.hh"
#include "profile/memory_profile.hh"
#include "sim/cache.hh"
#include "support/rng.hh"

namespace bsyn::sim
{
namespace
{

CacheConfig
cfg(uint64_t size, uint32_t line = 32, uint32_t ways = 4)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.lineBytes = line;
    c.associativity = ways;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(cfg(1024));
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x101F)); // same 32B line
    EXPECT_FALSE(c.access(0x1020)); // next line
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // Direct-mapped-like behaviour in one set: 2-way, force eviction.
    CacheConfig c2 = cfg(64, 32, 2); // one set, two ways
    Cache c(c2);
    EXPECT_EQ(c2.numSets(), 1u);
    c.access(0x0000);   // miss, way 0
    c.access(0x1000);   // miss, way 1
    c.access(0x0000);   // hit, refreshes LRU
    c.access(0x2000);   // miss, evicts 0x1000 (LRU)
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x1000)); // was evicted
}

TEST(Cache, StraddlingAccessTouchesBothLines)
{
    Cache c(cfg(1024));
    // 4 bytes starting 2 bytes before a line boundary: lines 0x1000
    // and 0x1020 must both be brought in.
    EXPECT_FALSE(c.access(0x101E, 4));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
    // Both lines resident: the same straddling access now hits.
    EXPECT_TRUE(c.access(0x101E, 4));
    EXPECT_EQ(c.stats().accesses, 4u);
    EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, StraddleHitsOnlyIfEveryLineHits)
{
    Cache c(cfg(1024));
    c.access(0x1000); // first line resident, second cold
    EXPECT_FALSE(c.access(0x101C, 8));
    EXPECT_TRUE(c.access(0x1020)); // second line allocated by the miss
}

TEST(Cache, ContainedAccessIsOneLine)
{
    Cache c(cfg(1024));
    EXPECT_FALSE(c.access(0x1008, 8)); // fully inside one 32B line
    EXPECT_EQ(c.stats().accesses, 1u);
    EXPECT_TRUE(c.access(0x1008, 8));
    EXPECT_EQ(c.stats().accesses, 2u);
}

TEST(Cache, WideAccessOnNarrowLinesTouchesEveryLine)
{
    // 8-byte access on a 4-byte-line cache: two lines even when the
    // address is aligned.
    Cache c(cfg(64, 4, 1));
    EXPECT_FALSE(c.access(0x1000, 8));
    EXPECT_EQ(c.stats().accesses, 2u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1004));
}

TEST(Cache, StraddleThrashesSingleSetCache)
{
    // One set, one way: the two lines of a straddling access evict
    // each other, so it misses every time — the width-ignoring access
    // would hit from the second access on.
    Cache c(cfg(32, 32, 1));
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(c.access(0x101C, 8));
    EXPECT_EQ(c.stats().accesses, 16u);
    EXPECT_EQ(c.stats().misses, 16u);
}

TEST(CacheSweep, WidthAwareFeed)
{
    CacheSweep sweep({cfg(1024), cfg(64, 32, 2)});
    sweep.access(0x101E, 4);
    for (size_t i = 0; i < sweep.size(); ++i) {
        EXPECT_EQ(sweep.at(i).stats().accesses, 2u);
        EXPECT_TRUE(sweep.at(i).access(0x1020));
    }
}

TEST(Cache, WorkingSetFitsThenThrashes)
{
    // 8 KB working set: hits in a 16 KB cache, misses in 1 KB.
    Cache small(cfg(1024));
    Cache big(cfg(16 * 1024));
    for (int rep = 0; rep < 4; ++rep) {
        for (uint64_t a = 0; a < 8 * 1024; a += 4) {
            small.access(a);
            big.access(a);
        }
    }
    // Spatial locality bounds the miss rate at 1/8 for a 4-byte walk
    // of 32-byte lines, so "thrashing" means ~87.5% hits.
    EXPECT_GT(big.stats().hitRate(), 0.95);
    EXPECT_LT(small.stats().hitRate(), 0.90);
}

TEST(CacheSweep, MonotoneHitRates)
{
    const std::vector<CacheConfig> sizes = CacheSweep::paperSweep();
    CacheSweep sweep(sizes);
    // A 12 KB working set exercises the knee of the sweep.
    for (int rep = 0; rep < 6; ++rep)
        for (uint64_t a = 0; a < 12 * 1024; a += 4)
            sweep.access(a);
    for (size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_GE(sweep.at(i).stats().hitRate() + 1e-9,
                  sweep.at(i - 1).stats().hitRate())
            << "cache size " << sizes[i].sizeBytes;
    }
    // 16 KB and 32 KB hold the working set; 1 KB cannot.
    EXPECT_GT(sweep.at(4).stats().hitRate(), 0.95);
    EXPECT_LT(sweep.at(0).stats().hitRate(), 0.92);
}

/**
 * Table I property: striding through a large array with stride 4*c
 * bytes produces a miss rate of about 12.5% * c on a 32-byte-line
 * cache (class 8 = every access misses).
 */
class TableIStride : public ::testing::TestWithParam<int>
{};

TEST_P(TableIStride, StrideReproducesClassMissRate)
{
    int miss_class = GetParam();
    uint32_t stride = profile::strideForClass(miss_class);
    Cache c(cfg(8 * 1024, 32, 4));
    // Walk far beyond the cache so every line is cold on arrival.
    uint64_t addr = 0;
    const uint64_t region = 1ull << 22; // 4 MB
    for (int i = 0; i < 200000; ++i) {
        c.access(addr % region);
        addr += stride == 0 ? 0 : stride;
    }
    double expected = profile::missRateForClass(miss_class);
    EXPECT_NEAR(c.stats().missRate(), expected, 0.02)
        << "class " << miss_class << " stride " << stride;
}

INSTANTIATE_TEST_SUITE_P(AllClasses, TableIStride,
                         ::testing::Range(0, profile::numMissClasses));

TEST(MissClasses, TableIBandsRoundTrip)
{
    using profile::missRateClass;
    EXPECT_EQ(missRateClass(0.0), 0);
    EXPECT_EQ(missRateClass(0.05), 0);
    EXPECT_EQ(missRateClass(0.0626), 1);
    EXPECT_EQ(missRateClass(0.125), 1);
    EXPECT_EQ(missRateClass(0.25), 2);
    EXPECT_EQ(missRateClass(0.50), 4);
    EXPECT_EQ(missRateClass(0.9374), 7);
    EXPECT_EQ(missRateClass(0.94), 8);
    EXPECT_EQ(missRateClass(1.0), 8);
    // Class centers map back into their own class.
    for (int c = 0; c < profile::numMissClasses; ++c)
        EXPECT_EQ(missRateClass(profile::missRateForClass(c)), c);
}

TEST(MissClasses, StrideTable)
{
    for (int c = 0; c < profile::numMissClasses; ++c)
        EXPECT_EQ(profile::strideForClass(c), uint32_t(4 * c));
}

// ------------------------------------------------------------------
// Differential: the shipped cache (set walk behind a line memo) must
// return the reference set walk's hit/miss result on every access.
// ------------------------------------------------------------------

static_assert(!std::is_copy_constructible_v<Cache>,
              "the line memo points into the cache's own lines");

/**
 * A seeded address stream mixing what the memo sees in real runs and
 * what defeats it: a few hot lines reused back to back, a sequential
 * stream, and random addresses over a region larger than any cache
 * under test, with 1-, 4- and 8-byte widths at any byte offset, so
 * some accesses straddle a line boundary.
 */
struct Access
{
    uint64_t addr;
    uint32_t size;
};

std::vector<Access>
accessStream(uint64_t seed, size_t n = 20000)
{
    Rng rng(seed);
    std::vector<Access> out;
    uint64_t stream = 0x10000;
    const uint32_t widths[] = {1, 4, 8};
    for (size_t i = 0; i < n; ++i) {
        uint64_t addr;
        switch (rng.nextBounded(3)) {
          case 0: // hot lines
            addr = 0x4000 + rng.nextBounded(8) * 32 + rng.nextBounded(32);
            break;
          case 1: // sequential
            addr = stream;
            stream += 1 + rng.nextBounded(12);
            break;
          default: // random over 256 KB
            addr = rng.nextBounded(256 * 1024);
            break;
        }
        out.push_back({addr, widths[rng.nextBounded(3)]});
    }
    return out;
}

void
expectCacheMatchesReference(const CacheConfig &c, uint64_t seed)
{
    Cache shipped(c);
    oracle::Cache ref(c);
    size_t i = 0;
    for (const Access &a : accessStream(seed)) {
        ASSERT_EQ(shipped.access(a.addr, a.size), ref.access(a.addr, a.size))
            << c.describe() << " seed " << seed << " access " << i;
        ++i;
    }
    EXPECT_EQ(shipped.stats().accesses, ref.stats().accesses);
    EXPECT_EQ(shipped.stats().misses, ref.stats().misses);
    EXPECT_GT(ref.stats().misses, 0u);
    EXPECT_GT(ref.stats().hits(), 0u);
}

TEST(CacheDifferential, DirectMapped)
{
    for (uint64_t seed : {1, 2, 3})
        expectCacheMatchesReference(cfg(1024, 32, 1), seed);
}

TEST(CacheDifferential, FourWay)
{
    for (uint64_t seed : {4, 5, 6})
        expectCacheMatchesReference(cfg(8 * 1024, 32, 4), seed);
}

TEST(CacheDifferential, FullyAssociativeSingleSet)
{
    for (uint64_t seed : {7, 8, 9})
        expectCacheMatchesReference(cfg(512, 32, 16), seed);
}

TEST(CacheDifferential, PaperSweep)
{
    const std::vector<CacheConfig> sizes = CacheSweep::paperSweep();
    CacheSweep sweep(sizes);
    std::vector<oracle::Cache> refs;
    for (const CacheConfig &c : sizes)
        refs.emplace_back(c);
    for (const Access &a : accessStream(10, 50000)) {
        sweep.access(a.addr, a.size);
        for (auto &r : refs)
            r.access(a.addr, a.size);
    }
    for (size_t i = 0; i < sizes.size(); ++i) {
        EXPECT_EQ(sweep.at(i).stats().accesses, refs[i].stats().accesses)
            << sizes[i].describe();
        EXPECT_EQ(sweep.at(i).stats().misses, refs[i].stats().misses)
            << sizes[i].describe();
    }
}

TEST(CacheDifferential, MoveKeepsTheMemoValid)
{
    // Warm a cache so every memo slot points into its lines, move it,
    // and keep going: the moved-to cache must still track the
    // reference exactly.
    CacheConfig c = cfg(1024, 32, 2);
    std::vector<Access> stream = accessStream(11);
    Cache warm(c);
    oracle::Cache ref(c);
    size_t half = stream.size() / 2;
    for (size_t i = 0; i < half; ++i) {
        warm.access(stream[i].addr, stream[i].size);
        ref.access(stream[i].addr, stream[i].size);
    }
    Cache moved(std::move(warm));
    for (size_t i = half; i < stream.size(); ++i)
        ASSERT_EQ(moved.access(stream[i].addr, stream[i].size),
                  ref.access(stream[i].addr, stream[i].size))
            << "access " << i;
    EXPECT_EQ(moved.stats().misses, ref.stats().misses);
}

} // namespace
} // namespace bsyn::sim
