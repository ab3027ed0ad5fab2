/** @file Tests for the deterministic suite sharding layer: shard-spec
 *  parsing, the stable name-hash partition, the suite_status.json
 *  artifact, and the core acceptance property — the union of N shard
 *  output directories, reassembled by serve::mergeSuiteDirs, is
 *  byte-identical to an unsharded run at any thread count, cold or
 *  warm; and likewise for sharded fidelity reports merged by
 *  serve::mergeFidelityReports. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <unistd.h>

#include "pipeline/run_sink.hh"
#include "pipeline/session.hh"
#include "serve/merge.hh"
#include "serve/shard.hh"
#include "support/error.hh"
#include "support/string_util.hh"
#include "workloads/suite.hh"

namespace fs = std::filesystem;

namespace bsyn
{
namespace
{

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
    std::string sub(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::vector<workloads::Workload>
smallBatch()
{
    return {workloads::findWorkload("crc32/small"),
            workloads::findWorkload("bitcount/small"),
            workloads::findWorkload("stringsearch/small"),
            workloads::findWorkload("sha/small"),
            workloads::findWorkload("dijkstra/small"),
            workloads::findWorkload("qsort/large")};
}

/** Run one (possibly sharded) suite exactly like `bsyn suite -o`:
 *  stream through a DirectorySink and write the status artifact. */
void
runShard(const std::vector<workloads::Workload> &all,
         serve::ShardSpec spec, const std::string &outDir,
         const std::string &cacheDir, unsigned threads)
{
    serve::ShardedBatch sharded = serve::filterShard(all, spec);
    pipeline::SessionOptions so;
    so.threads = threads;
    so.cacheDir = cacheDir;
    so.synthesis.targetInstructions = 30000;
    pipeline::Session session(std::move(so));
    pipeline::DirectorySink sink(outDir);
    auto statuses = session.processSuite(sharded.workloads, sink);
    serve::makeSuiteStatus(sharded, statuses)
        .saveTo(outDir + "/" + serve::kSuiteStatusFile);
}

/** Byte-compare two directories (same file set, same contents). */
void
expectIdenticalDirs(const std::string &a, const std::string &b)
{
    std::set<std::string> filesA, filesB;
    for (const auto &e : fs::directory_iterator(a))
        filesA.insert(e.path().filename().string());
    for (const auto &e : fs::directory_iterator(b))
        filesB.insert(e.path().filename().string());
    EXPECT_EQ(filesA, filesB);
    for (const auto &name : filesA) {
        SCOPED_TRACE(name);
        EXPECT_EQ(readFile(a + "/" + name), readFile(b + "/" + name));
    }
}

TEST(ShardSpec, ParsesValidSpecs)
{
    auto s = serve::parseShardSpec("2/3");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 3u);
    EXPECT_FALSE(s.isAll());
    EXPECT_EQ(s.str(), "2/3");

    // i == N is the last shard, not an error (1-based indices).
    auto last = serve::parseShardSpec("3/3");
    EXPECT_EQ(last.index, 3u);

    auto all = serve::parseShardSpec("1/1");
    EXPECT_TRUE(all.isAll());
}

TEST(ShardSpec, RejectsMalformedSpecs)
{
    // Satellite: 0-based indices, out-of-range, non-numeric, N=0 and
    // missing '/' are all argument errors.
    EXPECT_THROW(serve::parseShardSpec("0/3"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("4/3"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("x/y"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("1/0"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("3"), FatalError);
    EXPECT_THROW(serve::parseShardSpec(""), FatalError);
    EXPECT_THROW(serve::parseShardSpec("1/"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("/3"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("-1/3"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("1/3/5"), FatalError);
    EXPECT_THROW(serve::parseShardSpec("1 /3"), FatalError);
}

TEST(ShardOf, IsAStableCompletePartition)
{
    auto suite = workloads::mibenchSuite();
    for (unsigned count : {1u, 2u, 3u, 7u}) {
        for (const auto &w : suite) {
            unsigned s = serve::shardOf(w.name(), count);
            EXPECT_LT(s, count);
            // Stable: depends on nothing but name and count.
            EXPECT_EQ(s, serve::shardOf(w.name(), count));
        }
    }
    // Known anchors so the hash can never silently change (these pin
    // the on-disk shard assignment across releases).
    EXPECT_EQ(serve::shardOf("crc32/small", 1), 0u);
    unsigned two = serve::shardOf("crc32/small", 2);
    EXPECT_EQ(two, serve::shardOf("crc32/small", 2));
}

TEST(FilterShard, ShardsAreADisjointCoverInBatchOrder)
{
    auto all = smallBatch();
    for (unsigned count : {1u, 2u, 4u}) {
        std::set<size_t> seen;
        std::string hash;
        for (unsigned i = 1; i <= count; ++i) {
            auto b = serve::filterShard(all, {i, count});
            EXPECT_EQ(b.total, all.size());
            EXPECT_EQ(b.workloads.size(), b.indices.size());
            if (hash.empty())
                hash = b.suiteHash;
            EXPECT_EQ(b.suiteHash, hash);
            // Indices strictly increasing = full-batch order kept.
            for (size_t k = 0; k < b.indices.size(); ++k) {
                EXPECT_TRUE(seen.insert(b.indices[k]).second);
                EXPECT_EQ(b.workloads[k].name(),
                          all[b.indices[k]].name());
                if (k) {
                    EXPECT_LT(b.indices[k - 1], b.indices[k]);
                }
            }
        }
        EXPECT_EQ(seen.size(), all.size());
    }
    // The suite hash must notice a different resolved batch.
    auto fewer = std::vector<workloads::Workload>(all.begin(),
                                                  all.end() - 1);
    EXPECT_NE(serve::suiteHashOf(all), serve::suiteHashOf(fewer));
}

TEST(FilterShard, SuiteHashIsPinned)
{
    // Each name framed by its length as 8 big-endian bytes: a change to
    // the framing would stop shards of older binaries from merging.
    std::vector<workloads::Workload> names = {
        workloads::findWorkload("crc32/small"),
        workloads::findWorkload("bitcount/small"),
        workloads::findWorkload("stringsearch/small")};
    EXPECT_EQ(serve::suiteHashOf(names),
              "c8add314b898bd151baa92283686d35c1d69a71c7f4b58f9d07fc0d8ca3e"
              "5792");
}

TEST(SuiteStatus, RoundTripsThroughJson)
{
    serve::ShardedBatch b = serve::filterShard(smallBatch(), {2, 2});
    std::vector<pipeline::RunStatus> statuses(b.workloads.size());
    for (size_t i = 0; i < statuses.size(); ++i) {
        statuses[i].index = i; // local indices, as processSuite yields
        statuses[i].workload = b.workloads[i].name();
        statuses[i].ok = i != 1;
        if (!statuses[i].ok)
            statuses[i].error = "synthetic failure";
    }
    auto status = serve::makeSuiteStatus(b, statuses);
    EXPECT_EQ(status.total, b.total);
    EXPECT_EQ(status.suiteHash, b.suiteHash);
    // Remapped to global indices.
    for (size_t i = 0; i < status.workloads.size(); ++i)
        EXPECT_EQ(status.workloads[i].index, b.indices[i]);

    auto parsed = serve::SuiteStatus::fromJson(
        Json::parse(status.serialize()));
    EXPECT_EQ(parsed.serialize(), status.serialize());
    EXPECT_EQ(parsed.workloads.size(), status.workloads.size());
    EXPECT_FALSE(parsed.workloads.empty());
}

TEST(ShardMerge, UnionOfShardsIsByteIdenticalToUnsharded)
{
    auto all = smallBatch();
    ScratchDir dir("shard_merge");

    // The reference: one unsharded cold run.
    runShard(all, {1, 1}, dir.sub("full"), dir.sub("cache_full"), 2);

    for (unsigned count : {1u, 2u, 4u}) {
        SCOPED_TRACE("count=" + std::to_string(count));
        std::string tag = std::to_string(count);
        std::vector<std::string> shardDirs;
        for (unsigned i = 1; i <= count; ++i) {
            std::string out = dir.sub("s" + tag + "_" + std::to_string(i));
            // Distinct thread counts and a shared cold cache: output
            // bytes must depend on neither.
            runShard(all, {i, count}, out, dir.sub("cache_" + tag),
                     1 + i % 3);
            shardDirs.push_back(out);
        }
        std::string merged = dir.sub("merged" + tag);
        auto res = serve::mergeSuiteDirs(merged, shardDirs);
        EXPECT_EQ(res.shards, count);
        EXPECT_EQ(res.workloads, all.size());
        EXPECT_EQ(res.failed, 0u);
        EXPECT_EQ(res.files, 2 * all.size());
        expectIdenticalDirs(dir.sub("full"), merged);
    }

    // Warm re-run of every shard against its now-hot cache must still
    // merge to the same bytes (the status artifact may not leak cache
    // provenance).
    std::vector<std::string> warmDirs;
    for (unsigned i = 1; i <= 2; ++i) {
        std::string out = dir.sub("warm_" + std::to_string(i));
        runShard(all, {i, 2}, out, dir.sub("cache_2"), 4);
        warmDirs.push_back(out);
    }
    auto res = serve::mergeSuiteDirs(dir.sub("merged_warm"), warmDirs);
    EXPECT_EQ(res.workloads, all.size());
    expectIdenticalDirs(dir.sub("full"), dir.sub("merged_warm"));
}

TEST(ShardMerge, EmptyShardsStillMerge)
{
    // 4-way split of a 3-workload batch: at least one shard is empty
    // and must still produce a valid, mergeable status artifact.
    std::vector<workloads::Workload> tiny = {
        workloads::findWorkload("crc32/small"),
        workloads::findWorkload("bitcount/small"),
        workloads::findWorkload("stringsearch/small")};
    ScratchDir dir("shard_empty");
    runShard(tiny, {1, 1}, dir.sub("full"), "", 1);

    std::vector<std::string> shardDirs;
    size_t emptyShards = 0;
    for (unsigned i = 1; i <= 4; ++i) {
        auto b = serve::filterShard(tiny, {i, 4});
        emptyShards += b.workloads.empty();
        std::string out = dir.sub("s" + std::to_string(i));
        runShard(tiny, {i, 4}, out, "", 1);
        shardDirs.push_back(out);
    }
    EXPECT_GE(emptyShards, 1u);
    auto res = serve::mergeSuiteDirs(dir.sub("merged"), shardDirs);
    EXPECT_EQ(res.workloads, tiny.size());
    expectIdenticalDirs(dir.sub("full"), dir.sub("merged"));
}

TEST(ShardMerge, RejectsIncompleteOrMismatchedShards)
{
    auto all = smallBatch();
    ScratchDir dir("shard_bad");
    runShard(all, {1, 2}, dir.sub("s1"), "", 1);
    runShard(all, {2, 2}, dir.sub("s2"), "", 1);

    // Missing shard 2 of 2.
    EXPECT_THROW(serve::mergeSuiteDirs(dir.sub("m1"), {dir.sub("s1")}),
                 FatalError);
    // The same shard twice.
    EXPECT_THROW(serve::mergeSuiteDirs(dir.sub("m2"),
                                       {dir.sub("s1"), dir.sub("s1")}),
                 FatalError);
    // Shards of different resolved suites (different suiteHash).
    std::vector<workloads::Workload> other(all.begin(), all.end() - 1);
    runShard(other, {2, 2}, dir.sub("s2_other"), "", 1);
    EXPECT_THROW(
        serve::mergeSuiteDirs(dir.sub("m3"),
                              {dir.sub("s1"), dir.sub("s2_other")}),
        FatalError);
    // A directory without a status artifact at all.
    fs::create_directories(dir.sub("plain"));
    EXPECT_THROW(serve::mergeSuiteDirs(dir.sub("m4"),
                                       {dir.sub("s1"), dir.sub("plain")}),
                 FatalError);
    // A status that claims shard 0 of 2 (indices are 1-based).
    serve::SuiteStatus zero = serve::SuiteStatus::loadFrom(
        dir.sub("s2") + "/" + serve::kSuiteStatusFile);
    zero.shard.index = 0;
    fs::create_directories(dir.sub("s0"));
    zero.saveTo(dir.sub("s0") + "/" + serve::kSuiteStatusFile);
    try {
        serve::mergeSuiteDirs(dir.sub("m5"), {dir.sub("s1"), dir.sub("s0")});
        ADD_FAILURE() << "shards 1/2 and 0/2 merged";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "fatal: suite merge: invalid shard 0/2");
    }
}

/** What `bsyn fidelity --results-only --shard spec` writes for @p all
 *  (timing off), parsed back from its text as `bsyn merge` reads it. */
Json
fidelityShard(const std::vector<workloads::Workload> &all,
              serve::ShardSpec spec, const std::string &cacheDir)
{
    serve::ShardedBatch sharded = serve::filterShard(all, spec);
    pipeline::SessionOptions so;
    so.threads = 2;
    so.cacheDir = cacheDir;
    pipeline::Session session(std::move(so));
    gen::FidelityOptions fo;
    fo.synthesis.targetInstructions = 30000;
    fo.timing = false;
    auto report = gen::scoreFidelity(session, sharded.workloads, fo);
    return Json::parse(
        serve::fidelityShardReport(report, sharded, true).dump(2));
}

TEST(ShardMerge, FidelityShardsMergeToUnshardedBytes)
{
    auto all = smallBatch();
    ScratchDir dir("shard_fidelity");
    // The unsharded report runs cold; the shards share its cache.
    std::string full = fidelityShard(all, {1, 1}, dir.sub("cache")).dump(2);
    EXPECT_NE(full.find("\"scored\": 6"), std::string::npos) << full;

    for (unsigned count : {2u, 3u}) {
        SCOPED_TRACE("count=" + std::to_string(count));
        std::vector<Json> shards;
        for (unsigned i = count; i >= 1; --i) // any input order merges
            shards.push_back(
                fidelityShard(all, {i, count}, dir.sub("cache")));
        EXPECT_EQ(serve::mergeFidelityReports(shards).dump(2), full);
    }
}

TEST(ShardMerge, FidelityMergeRejectsIncompleteOrMismatchedShards)
{
    auto all = smallBatch();
    ScratchDir dir("shard_fidelity_bad");
    Json s1 = fidelityShard(all, {1, 2}, dir.sub("cache"));
    Json s2 = fidelityShard(all, {2, 2}, dir.sub("cache"));
    EXPECT_NO_THROW(serve::mergeFidelityReports({s1, s2}));

    // Missing shard 2 of 2.
    EXPECT_THROW(serve::mergeFidelityReports({s1}), FatalError);
    // The same shard twice.
    EXPECT_THROW(serve::mergeFidelityReports({s1, s1}), FatalError);
    // Shards of different resolved suites (different suiteHash).
    std::vector<workloads::Workload> other(all.begin(), all.end() - 1);
    Json s2other = fidelityShard(other, {2, 2}, dir.sub("cache"));
    EXPECT_THROW(serve::mergeFidelityReports({s1, s2other}), FatalError);
    // A report without a shard section (an unsharded run).
    Json plain = fidelityShard(all, {1, 1}, dir.sub("cache"));
    EXPECT_FALSE(plain.has("shard"));
    EXPECT_THROW(serve::mergeFidelityReports({s1, plain}), FatalError);
}

/** The two halves of a 2-way sharded fidelity report over smallBatch(),
 *  scored once for the cases below. */
const std::vector<Json> &
fidelityHalves()
{
    static ScratchDir dir("shard_fidelity_halves");
    static const std::vector<Json> halves = {
        fidelityShard(smallBatch(), {1, 2}, dir.sub("cache")),
        fidelityShard(smallBatch(), {2, 2}, dir.sub("cache"))};
    return halves;
}

/** The FatalError merging @p reports raises ("" when they merge). */
std::string
fidelityMergeError(const std::vector<Json> &reports)
{
    try {
        serve::mergeFidelityReports(reports);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** @p report with member @p key of its shard section set to @p value. */
Json
withShardField(Json report, const char *key, Json value)
{
    Json sh = report.get("shard");
    sh.set(key, std::move(value));
    report.set("shard", std::move(sh));
    return report;
}

TEST(ShardMerge, FidelityMergeRejectsAnInstanceOutsideTheBatch)
{
    // The last instance of shard 2 renumbered to 99 used to merge, with
    // its own index missing.
    std::vector<Json> reports = fidelityHalves();
    ASSERT_EQ(fidelityMergeError(reports), "");
    const Json &list = reports[1].get("instances");
    ASSERT_GT(list.size(), 0u);
    Json renumbered = Json::array();
    for (size_t i = 0; i < list.size(); ++i) {
        Json inst = list.at(i);
        if (i + 1 == list.size())
            inst.set("index", Json(99));
        renumbered.push(std::move(inst));
    }
    reports[1].set("instances", std::move(renumbered));
    EXPECT_EQ(fidelityMergeError(reports),
              "fatal: fidelity merge: index 99 out of range (the batch "
              "has 6)");
}

TEST(ShardMerge, FidelityMergeRejectsAnInvalidShardSpec)
{
    // Shards 1/2 and 0/2 used to merge as a complete cover.
    std::vector<Json> reports = fidelityHalves();
    reports[1] = withShardField(reports[1], "index", Json(0));
    EXPECT_EQ(fidelityMergeError(reports),
              "fatal: fidelity merge: invalid shard 0/2");
}

TEST(ShardMerge, FidelityMergeRejectsAShardFieldOfTheWrongKind)
{
    // It used to panic in the DOM's kind check ("json: not a number").
    std::vector<Json> reports = fidelityHalves();
    reports[1] = withShardField(reports[1], "total", Json("lots"));
    EXPECT_EQ(fidelityMergeError(reports),
              "fatal: fidelity merge: input 2: shard.total: not a number");
    reports = fidelityHalves();
    reports[0] = withShardField(reports[0], "count", Json(1.5));
    EXPECT_EQ(fidelityMergeError(reports),
              "fatal: fidelity merge: input 1: shard.count: 1.5 is not a "
              "count");
}

/** @p report with instance 0 replaced by @p edit(instance 0). */
template <typename Edit>
Json
withFirstInstance(Json report, Edit edit)
{
    const Json &list = report.get("instances");
    Json edited = Json::array();
    for (size_t i = 0; i < list.size(); ++i)
        edited.push(i == 0 ? edit(list.at(i)) : list.at(i));
    report.set("instances", std::move(edited));
    return report;
}

TEST(ShardMerge, FidelityMergeChecksEveryInstanceField)
{
    // Each used to panic in the DOM's kind check, fail without naming
    // its input ("json: missing key 'metrics'"), or merge ("high").
    auto withField = [](const char *key, Json value) {
        return [key, value](Json inst) {
            inst.set(key, value);
            return inst;
        };
    };
    auto withMetric = [](const char *field, Json value) {
        return [field, value](Json inst) {
            Json metrics = inst.get("metrics");
            Json entry = metrics.get("mix.load");
            entry.set(field, value);
            metrics.set("mix.load", std::move(entry));
            inst.set("metrics", std::move(metrics));
            return inst;
        };
    };
    auto withoutMetrics = [](const Json &inst) {
        Json out = Json::object();
        for (const auto &key : inst.keys())
            if (key != "metrics")
                out.set(key, inst.get(key));
        return out;
    };
    auto withPhaseScore = [](Json inst) {
        Json phases = inst.get("phases");
        Json list = Json::array();
        Json first = phases.get("perPhase").at(0);
        first.set("clone", Json(-1));
        list.push(std::move(first));
        phases.set("perPhase", std::move(list));
        inst.set("phases", std::move(phases));
        return inst;
    };
    const std::string at = "fatal: fidelity merge: input 1: instances[0].";
    auto expectError = [&](auto edit, const std::string &error) {
        std::vector<Json> reports = fidelityHalves();
        ASSERT_TRUE(reports[0].get("instances").at(0).get("ok").asBool());
        reports[0] = withFirstInstance(reports[0], edit);
        EXPECT_EQ(fidelityMergeError(reports), at + error);
    };
    expectError(withField("ok", Json(1)), "ok: not a boolean");
    expectError(withField("phases", Json("none")), "phases: not an object");
    expectError(withField("meanRelError", Json("high")),
                "meanRelError: not a number");
    expectError(withField("workload", Json(3)), "workload: not a string");
    expectError(withMetric("relError", Json("x")),
                "metrics.mix.load.relError: not a number");
    expectError(withoutMetrics, "metrics: missing");
    expectError(withPhaseScore,
                "phases.perPhase[0].clone: -1 is not a count");
}

} // namespace
} // namespace bsyn
