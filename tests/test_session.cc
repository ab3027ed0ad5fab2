/** @file Tests for the stage-oriented pipeline::Session API: the
 *  content-addressed artifact cache (hit/miss semantics, warm-run
 *  byte-identity, zero recomputation), streaming RunSinks, per-workload
 *  failure isolation, and seed-derivation stability. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sys/wait.h>
#include <unistd.h>

#include "pipeline/artifact_cache.hh"
#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "support/error.hh"
#include "support/string_util.hh"

namespace fs = std::filesystem;

namespace bsyn
{
namespace
{

synth::SynthesisOptions
fastOptions()
{
    auto opts = pipeline::defaultSynthesisOptions();
    opts.targetInstructions = 30000;
    return opts;
}

/** Fresh scratch directory under the gtest temp root, wiped on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(std::string(::testing::TempDir()) + "bsyn_" + tag + "_" +
                std::to_string(::getpid()))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::vector<workloads::Workload>
smallBatch()
{
    return {workloads::findWorkload("crc32/small"),
            workloads::findWorkload("bitcount/small"),
            workloads::findWorkload("stringsearch/small")};
}

TEST(ArtifactCache, KeysSeparatePartsAndStages)
{
    // Length-prefixed parts: ("ab","c") and ("a","bc") must not
    // collide, nor the same parts under different stage tags.
    auto k1 = pipeline::ArtifactCache::key("s", {"ab", "c"});
    auto k2 = pipeline::ArtifactCache::key("s", {"a", "bc"});
    auto k3 = pipeline::ArtifactCache::key("t", {"ab", "c"});
    EXPECT_EQ(k1.size(), 64u);
    EXPECT_NE(k1, k2);
    EXPECT_NE(k1, k3);
    EXPECT_EQ(k1, pipeline::ArtifactCache::key("s", {"ab", "c"}));
}

TEST(ArtifactCache, RoundTripsAndDisabledCacheMisses)
{
    ScratchDir dir("cache_rt");
    pipeline::ArtifactCache cache(dir.str());
    ASSERT_TRUE(cache.enabled());

    std::string key = pipeline::ArtifactCache::key("test", {"payload"});
    std::string text;
    EXPECT_FALSE(cache.load(key, text));
    cache.store(key, "hello \xf0\x9f\x98\x80 artifact");
    ASSERT_TRUE(cache.load(key, text));
    EXPECT_EQ(text, "hello \xf0\x9f\x98\x80 artifact");

    pipeline::ArtifactCache disabled;
    EXPECT_FALSE(disabled.enabled());
    disabled.store(key, "dropped");
    EXPECT_FALSE(disabled.load(key, text));
}

TEST(Session, CacheHitMissSemantics)
{
    ScratchDir dir("hitmiss");
    const auto &w = workloads::findWorkload("crc32/small");

    pipeline::SessionOptions so;
    so.cacheDir = dir.str();
    so.threads = 1;
    so.synthesis = fastOptions();
    pipeline::Session session(std::move(so));

    // Cold: both stages computed.
    pipeline::RunStatus st;
    auto cold = session.process(w, fastOptions(), &st);
    EXPECT_FALSE(st.profileCached);
    EXPECT_FALSE(st.synthCached);
    auto stats = session.cacheStats();
    EXPECT_EQ(stats.profileMisses, 1u);
    EXPECT_EQ(stats.synthMisses, 1u);
    EXPECT_EQ(stats.hits(), 0u);

    // Same inputs, same session: both stages served from cache.
    auto warm = session.process(w, fastOptions(), &st);
    EXPECT_TRUE(st.profileCached);
    EXPECT_TRUE(st.synthCached);
    stats = session.cacheStats();
    EXPECT_EQ(stats.profileHits, 1u);
    EXPECT_EQ(stats.synthHits, 1u);
    EXPECT_EQ(warm.synthetic.cSource, cold.synthetic.cSource);
    EXPECT_EQ(warm.profile.serialize(), cold.profile.serialize());
    EXPECT_EQ(warm.synthetic.reductionFactor,
              cold.synthetic.reductionFactor);
    EXPECT_EQ(warm.synthetic.patternStats.coveredInstrs,
              cold.synthetic.patternStats.coveredInstrs);

    // Different synthesis options: profile hits, synthesis misses.
    auto opts2 = fastOptions();
    opts2.seed ^= 0x1234;
    session.process(w, opts2, &st);
    EXPECT_TRUE(st.profileCached);
    EXPECT_FALSE(st.synthCached);

    // A fresh session sharing the directory starts warm (disk is the
    // source of truth, not per-session memory).
    pipeline::SessionOptions so2;
    so2.cacheDir = dir.str();
    so2.threads = 1;
    pipeline::Session fresh(std::move(so2));
    fresh.process(w, fastOptions(), &st);
    EXPECT_TRUE(st.profileCached);
    EXPECT_TRUE(st.synthCached);
}

TEST(Session, ProfileKeyCoversTheProfilingCache)
{
    // Two sessions share a cache directory and differ only in the
    // cache simulated while profiling, which decides the miss class of
    // every memory access: the second must not be served the first
    // one's profile, but the one an uncached session computes.
    ScratchDir dir("profcache");
    const auto &w = workloads::findWorkload("crc32/small");
    auto sessionWith = [](const std::string &cacheDir,
                          const sim::CacheConfig &cache) {
        pipeline::SessionOptions so;
        so.cacheDir = cacheDir;
        so.threads = 1;
        so.profiling.profilingCache = cache;
        return std::make_unique<pipeline::Session>(std::move(so));
    };
    const sim::CacheConfig roomy = profile::ProfileOptions().profilingCache;
    const sim::CacheConfig tiny{64, 32, 1};

    bool cached = true;
    auto first = sessionWith(dir.str(), roomy)->profile(w, &cached);
    EXPECT_FALSE(cached);

    auto second = sessionWith(dir.str(), tiny);
    auto prof = second->profile(w, &cached);
    EXPECT_FALSE(cached);
    EXPECT_EQ(prof.serialize(),
              sessionWith("", tiny)->profile(w).serialize());
    EXPECT_NE(prof.serialize(), first.serialize());

    // Each setting now has an entry of its own.
    second->profile(w, &cached);
    EXPECT_TRUE(cached);
    EXPECT_EQ(sessionWith(dir.str(), roomy)->profile(w, &cached).serialize(),
              first.serialize());
    EXPECT_TRUE(cached);
}

TEST(Session, CorruptCacheEntriesCountAsMissesAndAreRecomputed)
{
    // A truncated entry must not fail its workload on every later run:
    // the lookup counts as a miss, and the recomputation overwrites it.
    ScratchDir dir("corrupt");
    const auto &w = workloads::findWorkload("crc32/small");
    pipeline::SessionOptions so;
    so.cacheDir = dir.str();
    so.threads = 1;

    pipeline::WorkloadRun cold;
    {
        pipeline::Session session(so);
        cold = session.process(w, fastOptions());
    }
    std::map<std::string, std::string> entries;
    for (const auto &e : fs::recursive_directory_iterator(dir.str())) {
        if (!e.is_regular_file())
            continue;
        entries[e.path().string()] = readFile(e.path().string());
        fs::resize_file(e.path(), fs::file_size(e.path()) / 2);
    }
    ASSERT_EQ(entries.size(), 2u); // one profile, one clone

    pipeline::RunStatus st;
    {
        pipeline::Session session(so);
        auto run = session.process(w, fastOptions(), &st);
        EXPECT_FALSE(st.profileCached);
        EXPECT_FALSE(st.synthCached);
        EXPECT_EQ(session.metrics().counter("pipeline.cache.corrupt").value(),
                  2u);
        EXPECT_EQ(session.cacheStats().misses(), 2u);
        EXPECT_EQ(run.profile.serialize(), cold.profile.serialize());
        EXPECT_EQ(run.synthetic.cSource, cold.synthetic.cSource);
    }
    for (const auto &[path, text] : entries)
        EXPECT_EQ(readFile(path), text) << path;

    pipeline::Session session(so);
    auto warm = session.process(w, fastOptions(), &st);
    EXPECT_TRUE(st.profileCached);
    EXPECT_TRUE(st.synthCached);
    EXPECT_EQ(session.metrics().counter("pipeline.cache.corrupt").value(), 0u);
    EXPECT_EQ(warm.profile.serialize(), cold.profile.serialize());
    EXPECT_EQ(warm.synthetic.cSource, cold.synthetic.cSource);
}

TEST(Session, DecodeCacheMemoizesCalibrationMeasurements)
{
    pipeline::Session session; // in-memory decode cache, no disk cache
    const std::string src =
        "int main() {\n"
        "  int i; int s; s = 0;\n"
        "  for (i = 0; i < 100; i = i + 1) s = s + i;\n"
        "  printf(\"%d\\n\", s);\n"
        "  return 0;\n"
        "}\n";

    uint64_t first = session.measureInstructions(src);
    EXPECT_GT(first, 0u);
    auto cold = session.cacheStats();
    EXPECT_EQ(cold.decodeMisses, 1u);
    EXPECT_EQ(cold.decodeHits, 0u);

    // Re-measuring the identical source must hit the memo (this is the
    // property that keeps calibration rounds from recompiling), return
    // the same count, and not touch the artifact-cache counters.
    uint64_t second = session.measureInstructions(src);
    EXPECT_EQ(second, first);
    auto warm = session.cacheStats();
    EXPECT_EQ(warm.decodeMisses, 1u);
    EXPECT_EQ(warm.decodeHits, 1u);
    EXPECT_EQ(warm.hits(), 0u);
    EXPECT_EQ(warm.misses(), 0u);

    // A different source is a distinct entry, and the memoized path
    // agrees with the uncached free-function measurement.
    uint64_t other =
        session.measureInstructions("int main() { return 0; }");
    auto after = session.cacheStats();
    EXPECT_EQ(after.decodeMisses, 2u);
    EXPECT_EQ(first, pipeline::measureInstructions(src));
    EXPECT_EQ(other, pipeline::measureInstructions(
                         "int main() { return 0; }"));
}

TEST(Session, WarmSuiteRecomputesNothingAndIsByteIdentical)
{
    // The acceptance criterion: a warm-cache suite re-run performs zero
    // profile/synthesis recomputation (cache-hit counters) and writes
    // byte-identical output files, at a different thread count.
    ScratchDir cacheDir("warm_cache");
    ScratchDir outCold("warm_out_cold");
    ScratchDir outWarm("warm_out_warm");
    auto ws = smallBatch();

    pipeline::SessionOptions coldOpts;
    coldOpts.cacheDir = cacheDir.str();
    coldOpts.threads = 1;
    coldOpts.synthesis = fastOptions();
    pipeline::Session cold(std::move(coldOpts));
    pipeline::DirectorySink coldSink(outCold.str());
    auto coldStatuses = cold.processSuite(ws, coldSink);
    ASSERT_EQ(coldStatuses.size(), ws.size());
    auto coldStats = cold.cacheStats();
    EXPECT_EQ(coldStats.profileMisses, ws.size());
    EXPECT_EQ(coldStats.synthMisses, ws.size());
    EXPECT_EQ(coldSink.written(), ws.size());

    pipeline::SessionOptions warmOpts;
    warmOpts.cacheDir = cacheDir.str();
    warmOpts.threads = 4; // different parallelism, same bytes
    warmOpts.synthesis = fastOptions();
    pipeline::Session warm(std::move(warmOpts));
    pipeline::DirectorySink warmSink(outWarm.str());
    auto warmStatuses = warm.processSuite(ws, warmSink);

    auto warmStats = warm.cacheStats();
    EXPECT_EQ(warmStats.profileMisses, 0u) << "re-profiled a cached run";
    EXPECT_EQ(warmStats.synthMisses, 0u) << "re-synthesized a cached run";
    EXPECT_EQ(warmStats.profileHits, ws.size());
    EXPECT_EQ(warmStats.synthHits, ws.size());
    for (const auto &st : warmStatuses) {
        EXPECT_TRUE(st.ok) << st.workload;
        EXPECT_TRUE(st.profileCached) << st.workload;
        EXPECT_TRUE(st.synthCached) << st.workload;
    }

    // Every output file byte-identical across cold and warm.
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(outCold.str())) {
        std::string name = entry.path().filename().string();
        EXPECT_EQ(readFile(outCold.str() + "/" + name),
                  readFile(outWarm.str() + "/" + name))
            << name;
        ++files;
    }
    EXPECT_EQ(files, 2 * ws.size()); // one .c + one .profile.json each
}

TEST(Session, StreamToDiskMatchesCollect)
{
    // A DirectorySink must write exactly the bytes a CollectSink holds
    // in memory — streaming changes residency, never content.
    ScratchDir out("stream_vs_collect");
    auto ws = smallBatch();

    pipeline::SessionOptions so;
    so.threads = 2;
    so.synthesis = fastOptions();
    pipeline::Session session(std::move(so));

    pipeline::CollectSink collect;
    pipeline::DirectorySink disk(out.str());
    std::vector<pipeline::RunSink *> children{&collect, &disk};
    pipeline::TeeSink tee(children);
    auto statuses = session.processSuite(ws, tee);
    for (const auto &st : statuses)
        EXPECT_TRUE(st.ok) << st.workload;

    auto runs = collect.takeRuns();
    ASSERT_EQ(runs.size(), ws.size());
    EXPECT_EQ(disk.written(), ws.size());
    for (const auto &r : runs) {
        std::string base = out.str() + "/" + r.workload.benchmark + "_" +
                           r.workload.input;
        EXPECT_EQ(readFile(base + ".c"), r.synthetic.cSource);
        EXPECT_EQ(readFile(base + ".profile.json"),
                  r.profile.serialize());
    }
    // Collect restored batch order.
    for (size_t i = 0; i < ws.size(); ++i)
        EXPECT_EQ(runs[i].workload.name(), ws[i].name());
}

TEST(Session, PerWorkloadFailureIsolation)
{
    // One broken workload must not abort the batch: it surfaces as a
    // structured !ok status while every other workload completes.
    workloads::Workload bad;
    bad.benchmark = "broken";
    bad.input = "syntax";
    bad.source = "int main( { this is not MiniC ";
    std::vector<workloads::Workload> ws{
        workloads::findWorkload("crc32/small"),
        bad,
        workloads::findWorkload("bitcount/small"),
    };

    pipeline::SessionOptions so;
    so.threads = 2;
    so.synthesis = fastOptions();
    pipeline::Session session(std::move(so));

    pipeline::CollectSink collect;
    auto statuses = session.processSuite(ws, collect);
    ASSERT_EQ(statuses.size(), 3u);
    EXPECT_TRUE(statuses[0].ok);
    EXPECT_FALSE(statuses[1].ok);
    EXPECT_TRUE(statuses[2].ok);
    EXPECT_EQ(statuses[1].workload, "broken/syntax");
    EXPECT_FALSE(statuses[1].error.empty());

    // The sink saw all three statuses but only two successful runs.
    EXPECT_EQ(collect.statuses().size(), 3u);
    auto runs = collect.takeRuns();
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].workload.name(), "crc32/small");
    EXPECT_EQ(runs[1].workload.name(), "bitcount/small");
    EXPECT_FALSE(runs[0].synthetic.cSource.empty());

    // The strict convenience API keeps abort-on-failure semantics.
    EXPECT_THROW(session.processSuite(ws), FatalError);
}

TEST(Session, SeedDerivationStableUnderCachingAndBatching)
{
    // The per-workload seed depends only on base seed + name, so a
    // workload synthesized alone, in a batch, or out of the cache
    // yields the same bytes.
    const auto &w = workloads::findWorkload("crc32/small");
    ScratchDir dir("seed_stab");

    pipeline::SessionOptions so;
    so.cacheDir = dir.str();
    so.threads = 2;
    so.synthesis = fastOptions();
    pipeline::Session session(std::move(so));

    pipeline::CollectSink collect;
    session.processSuite({w}, collect);
    auto batch = collect.takeRuns();
    ASSERT_EQ(batch.size(), 1u);

    auto direct = fastOptions();
    direct.seed = pipeline::deriveWorkloadSeed(direct.seed, w.name());
    pipeline::SessionOptions noCache;
    noCache.threads = 1;
    pipeline::Session uncached(std::move(noCache));
    auto alone = uncached.process(w, direct);
    EXPECT_EQ(alone.synthetic.cSource, batch[0].synthetic.cSource);

    // And reloading the batch result from the warm cache matches too.
    pipeline::CollectSink collect2;
    session.processSuite({w}, collect2);
    auto warm = collect2.takeRuns();
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(warm[0].synthetic.cSource, batch[0].synthetic.cSource);
    EXPECT_EQ(warm[0].profile.serialize(), batch[0].profile.serialize());
}

TEST(Session, CallbackSinkObservesEveryRun)
{
    auto ws = smallBatch();
    pipeline::SessionOptions so;
    so.threads = 2;
    so.synthesis = fastOptions();
    pipeline::Session session(std::move(so));

    std::vector<std::string> seen;
    pipeline::CallbackSink sink(
        [&](const pipeline::RunStatus &st, const pipeline::WorkloadRun &r) {
            EXPECT_TRUE(st.ok);
            EXPECT_EQ(r.workload.name(), st.workload);
            seen.push_back(st.workload);
        });
    session.processSuite(ws, sink);
    ASSERT_EQ(seen.size(), ws.size());
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    for (const auto &w : ws)
        EXPECT_NE(std::find(seen.begin(), seen.end(), w.name()),
                  seen.end());
}

/** A payload whose integrity is self-evident: a one-byte tag repeated,
 *  so any torn read (half old inode, half new) is detectable. */
std::string
taggedPayload(char tag, size_t len)
{
    return std::string(len, tag);
}

bool
isUntorn(const std::string &text)
{
    if (text.empty())
        return false;
    for (char c : text)
        if (c != text[0])
            return false;
    return true;
}

TEST(ArtifactCache, ConcurrentProcessesNeverTearEntries)
{
    // Two real processes hammer the same keys through the same cache
    // directory: one stores ever-changing payloads, the other loads.
    // The atomic temp-file + rename store means every load must see a
    // complete payload from *some* writer — never a mix, never a
    // partial file. This is the property multi-process sharding and
    // serve workers stand on.
    ScratchDir dir("cache_mp");
    const size_t kKeys = 4;
    const size_t kRounds = 400;
    const size_t kLen = 64 * 1024; // spans many write() granularities

    std::vector<std::string> keys;
    for (size_t k = 0; k < kKeys; ++k)
        keys.push_back(pipeline::ArtifactCache::key(
            "mp-stress", {std::to_string(k)}));

    pid_t child = ::fork();
    ASSERT_NE(child, -1);
    if (child == 0) {
        // Writer process: rewrite every key kRounds times with a
        // round-tagged payload.
        pipeline::ArtifactCache cache(dir.str());
        for (size_t r = 0; r < kRounds; ++r)
            for (size_t k = 0; k < kKeys; ++k)
                cache.store(keys[k],
                            taggedPayload('a' + (r + k) % 26, kLen));
        ::_exit(0);
    }

    // Reader (parent) process: concurrent loads plus its own stores —
    // both sides of the last-writer-wins race.
    pipeline::ArtifactCache cache(dir.str());
    size_t loads = 0, hits = 0;
    for (size_t r = 0; r < kRounds; ++r) {
        for (size_t k = 0; k < kKeys; ++k) {
            std::string text;
            ++loads;
            if (cache.load(keys[k], text)) {
                ++hits;
                EXPECT_EQ(text.size(), kLen);
                EXPECT_TRUE(isUntorn(text))
                    << "torn read on key " << k << " round " << r;
            }
            if (r % 16 == 0)
                cache.store(keys[k], taggedPayload('Z', kLen));
        }
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    // By the end every key must be loadable and complete, and the
    // cache directory must hold no leftover temp files (every store
    // either renamed into place or was itself renamed over).
    for (size_t k = 0; k < kKeys; ++k) {
        std::string text;
        ASSERT_TRUE(cache.load(keys[k], text));
        EXPECT_TRUE(isUntorn(text));
    }
    size_t tmpFiles = 0;
    for (const auto &e : fs::recursive_directory_iterator(dir.str()))
        if (e.is_regular_file() &&
            e.path().filename().string().find(".tmp.") !=
                std::string::npos)
            ++tmpFiles;
    EXPECT_EQ(tmpFiles, 0u);
    EXPECT_GT(hits, 0u) << "stress never overlapped (" << loads
                        << " loads)";
}

TEST(Session, CacheCountersAreScopedPerProcess)
{
    // Two sessions sharing one cache directory: the second session's
    // warm hits must show up in *its* counters, and the first
    // session's counters must not move — per-process accounting over
    // a shared on-disk cache (what the warm-shard CI check greps).
    auto ws = smallBatch();
    ScratchDir cacheDir("cache_scope");

    pipeline::SessionOptions so;
    so.threads = 2;
    so.cacheDir = cacheDir.str();
    so.synthesis = fastOptions();
    pipeline::Session first(so);
    first.processSuite(ws);
    auto coldStats = first.cacheStats();
    EXPECT_EQ(coldStats.profileMisses, ws.size());
    EXPECT_EQ(coldStats.synthMisses, ws.size());
    EXPECT_EQ(coldStats.profileHits, 0u);

    pipeline::SessionOptions so2;
    so2.threads = 2;
    so2.cacheDir = cacheDir.str();
    so2.synthesis = fastOptions();
    pipeline::Session second(so2);
    second.processSuite(ws);
    auto warmStats = second.cacheStats();
    EXPECT_EQ(warmStats.profileHits, ws.size());
    EXPECT_EQ(warmStats.synthHits, ws.size());
    EXPECT_EQ(warmStats.profileMisses, 0u);
    EXPECT_EQ(warmStats.synthMisses, 0u);

    // The first session's view is unchanged by the second's traffic.
    auto after = first.cacheStats();
    EXPECT_EQ(after.profileHits, coldStats.profileHits);
    EXPECT_EQ(after.profileMisses, coldStats.profileMisses);
    EXPECT_EQ(after.synthMisses, coldStats.synthMisses);
}

} // namespace
} // namespace bsyn
