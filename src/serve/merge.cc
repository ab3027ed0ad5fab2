#include "serve/merge.hh"

#include <algorithm>
#include <filesystem>
#include <set>

#include "obs/trace.hh"
#include "support/error.hh"
#include "support/string_util.hh"

namespace fs = std::filesystem;

namespace bsyn::serve
{

namespace
{

/**
 * Validate that @p seen (shard spec per input, in input order) forms a
 * complete disjoint 1..N cover and that every input agreed on
 * @p what's suite identity. @return N.
 */
unsigned
checkShardCover(const std::vector<ShardSpec> &seen, const char *what)
{
    if (seen.empty())
        fatal("%s merge: no inputs", what);
    unsigned count = seen[0].count;
    std::set<unsigned> indices;
    for (const auto &spec : seen) {
        if (spec.count != count)
            fatal("%s merge: mixed shard counts (%u-way vs %u-way)",
                  what, spec.count, count);
        if (!indices.insert(spec.index).second)
            fatal("%s merge: shard %s appears twice", what,
                  spec.str().c_str());
    }
    if (indices.size() != count)
        for (unsigned i = 1; i <= count; ++i)
            if (!indices.count(i))
                fatal("%s merge: missing shard %u/%u", what, i, count);
    return count;
}

} // namespace

MergeResult
mergeSuiteDirs(const std::string &outDir,
               const std::vector<std::string> &shardDirs)
{
    obs::Span span("merge", "kind", "suite");
    span.arg("shards", std::to_string(shardDirs.size()));
    // Load and cross-validate every shard's status artifact first —
    // nothing is written until the cover is proven complete.
    std::vector<SuiteStatus> statuses;
    std::vector<ShardSpec> specs;
    for (const auto &dir : shardDirs) {
        statuses.push_back(
            SuiteStatus::loadFrom(dir + "/" + kSuiteStatusFile));
        specs.push_back(statuses.back().shard);
    }
    checkShardCover(specs, "suite");
    for (const auto &st : statuses) {
        if (st.suiteHash != statuses[0].suiteHash)
            fatal("suite merge: shard %s was produced from a different "
                  "suite (suiteHash mismatch)",
                  st.shard.str().c_str());
        if (st.total != statuses[0].total)
            fatal("suite merge: shard %s covers a %zu-workload suite, "
                  "expected %zu",
                  st.shard.str().c_str(), st.total, statuses[0].total);
    }

    SuiteStatus merged;
    merged.shard = ShardSpec{}; // 1/1 — indistinguishable from unsharded
    merged.total = statuses[0].total;
    merged.suiteHash = statuses[0].suiteHash;
    std::set<size_t> globalIndices;
    for (const auto &st : statuses) {
        for (const auto &w : st.workloads) {
            if (w.index >= merged.total)
                fatal("suite merge: workload index %zu out of range "
                      "(suite has %zu)",
                      w.index, merged.total);
            if (!globalIndices.insert(w.index).second)
                fatal("suite merge: workload '%s' (index %zu) appears "
                      "in two shards",
                      w.workload.c_str(), w.index);
            merged.workloads.push_back(w);
        }
    }
    if (merged.workloads.size() != merged.total)
        fatal("suite merge: shards cover %zu of %zu workloads",
              merged.workloads.size(), merged.total);
    std::sort(merged.workloads.begin(), merged.workloads.end(),
              [](const pipeline::RunStatus &a,
                 const pipeline::RunStatus &b) { return a.index < b.index; });

    std::error_code ec;
    fs::create_directories(outDir, ec);
    if (ec)
        fatal("cannot create merge output directory '%s': %s",
              outDir.c_str(), ec.message().c_str());

    MergeResult result;
    result.shards = shardDirs.size();
    result.workloads = merged.workloads.size();
    for (const auto &st : merged.workloads)
        if (!st.ok)
            ++result.failed;

    // Byte-copy every artifact file; collisions mean the inputs were
    // not the disjoint shards the statuses claimed.
    std::set<std::string> copied;
    for (const auto &dir : shardDirs) {
        for (const auto &entry : fs::directory_iterator(dir)) {
            std::string name = entry.path().filename().string();
            if (name == kSuiteStatusFile)
                continue;
            if (!entry.is_regular_file())
                fatal("suite merge: unexpected non-file entry '%s' in "
                      "shard directory '%s'",
                      name.c_str(), dir.c_str());
            if (!copied.insert(name).second)
                fatal("suite merge: file '%s' produced by two shards",
                      name.c_str());
            writeFile(outDir + "/" + name,
                      readFile(entry.path().string()));
            ++result.files;
        }
    }
    merged.saveTo(outDir + "/" + kSuiteStatusFile);
    return result;
}

Json
fidelityShardReport(gen::FidelityReport &report, const ShardedBatch &sharded,
                    bool resultsOnly)
{
    // Global batch indices let the merge restore full-batch instance
    // (and summary accumulation) order.
    for (size_t k = 0; k < report.instances.size(); ++k)
        report.instances[k].index = sharded.indices[k];
    Json j = resultsOnly ? report.resultsJson() : report.toJson();
    if (!sharded.spec.isAll()) {
        Json sh = Json::object();
        sh.set("index", Json(static_cast<uint64_t>(sharded.spec.index)));
        sh.set("count", Json(static_cast<uint64_t>(sharded.spec.count)));
        sh.set("total", Json(static_cast<uint64_t>(sharded.total)));
        sh.set("suiteHash", Json(sharded.suiteHash));
        j.set("shard", sh);
    }
    return j;
}

Json
mergeFidelityReports(const std::vector<Json> &shardReports)
{
    obs::Span span("merge", "kind", "fidelity");
    span.arg("shards", std::to_string(shardReports.size()));
    // Shard provenance: every report must carry the section
    // fidelityShardReport() writes, agree on suite identity, and cover
    // 1..N exactly once.
    std::vector<ShardSpec> specs;
    for (const auto &rep : shardReports) {
        if (!rep.has("shard"))
            fatal("fidelity merge: input has no shard section (was it "
                  "produced with --shard?)");
        const Json &sh = rep.get("shard");
        ShardSpec spec;
        spec.index = static_cast<unsigned>(sh.get("index").asInt());
        spec.count = static_cast<unsigned>(sh.get("count").asInt());
        specs.push_back(spec);
    }
    checkShardCover(specs, "fidelity");
    const Json &first = shardReports[0];
    const std::string suiteHash =
        first.get("shard").get("suiteHash").asString();
    const uint64_t total = static_cast<uint64_t>(
        first.get("shard").get("total").asInt());
    for (const auto &rep : shardReports) {
        if (rep.get("schema").asString() != gen::kFidelitySchema)
            fatal("fidelity merge: schema '%s', expected '%s'",
                  rep.get("schema").asString().c_str(),
                  gen::kFidelitySchema);
        const Json &sh = rep.get("shard");
        if (sh.get("suiteHash").asString() != suiteHash)
            fatal("fidelity merge: shard produced from a different "
                  "suite (suiteHash mismatch)");
        if (static_cast<uint64_t>(sh.get("total").asInt()) != total)
            fatal("fidelity merge: shards disagree on the suite size");
    }

    // Collect instances and restore full-batch order by global index.
    std::vector<const Json *> instances;
    for (const auto &rep : shardReports) {
        const Json &list = rep.get("instances");
        for (size_t i = 0; i < list.size(); ++i)
            instances.push_back(&list.at(i));
    }
    std::sort(instances.begin(), instances.end(),
              [](const Json *a, const Json *b) {
                  return a->get("index").asInt() < b->get("index").asInt();
              });
    std::set<int64_t> seen;
    for (const Json *inst : instances)
        if (!seen.insert(inst->get("index").asInt()).second)
            fatal("fidelity merge: instance index %lld appears in two "
                  "shards",
                  static_cast<long long>(inst->get("index").asInt()));
    if (instances.size() != total)
        fatal("fidelity merge: shards cover %zu of %llu instances",
              instances.size(), static_cast<unsigned long long>(total));

    // The summary accumulates over the instances in restored batch
    // order, so the floating-point sums — and therefore the serialized
    // bytes — match an unsharded run exactly.
    Json list = Json::array();
    for (const Json *inst : instances)
        list.push(*inst);
    return gen::fidelityResults(std::move(list));
}

} // namespace bsyn::serve
