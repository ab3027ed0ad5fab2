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
 * Validate that @p parts, what each merge input claims to cover, form
 * one complete, disjoint cover of one batch: valid specs (1 <= i <= N)
 * of one count N, each shard 1..N exactly once, one suiteHash and one
 * total, and every workload index in [0, total) exactly once. @p what
 * names the merge ("suite").
 */
void
checkShardCover(const std::vector<SuiteStatus> &parts, const char *what)
{
    if (parts.empty())
        fatal("%s merge: no inputs", what);
    const SuiteStatus &first = parts[0];
    std::set<unsigned> shards;
    std::set<size_t> indices;
    for (const SuiteStatus &p : parts) {
        std::string spec = p.shard.str();
        if (p.shard.count == 0 || p.shard.index == 0 ||
            p.shard.index > p.shard.count)
            fatal("%s merge: invalid shard %s", what, spec.c_str());
        if (p.shard.count != first.shard.count)
            fatal("%s merge: mixed shard counts (%u-way vs %u-way)", what,
                  p.shard.count, first.shard.count);
        if (!shards.insert(p.shard.index).second)
            fatal("%s merge: shard %s appears twice", what, spec.c_str());
        if (p.suiteHash != first.suiteHash || p.total != first.total)
            fatal("%s merge: shard %s was produced from a different "
                  "suite (suiteHash or size mismatch)",
                  what, spec.c_str());
        for (const pipeline::RunStatus &w : p.workloads) {
            if (w.index >= first.total)
                fatal("%s merge: index %zu out of range (the batch has %zu)",
                      what, w.index, first.total);
            if (!indices.insert(w.index).second)
                fatal("%s merge: index %zu appears in two shards", what,
                      w.index);
        }
    }
    for (unsigned i = 1; i <= first.shard.count; ++i)
        if (!shards.count(i))
            fatal("%s merge: missing shard %u/%u", what, i,
                  first.shard.count);
    if (indices.size() != first.total)
        fatal("%s merge: shards cover %zu of %zu entries", what,
              indices.size(), first.total);
}

/** Member @p key of @p obj, at @p path in fidelity merge input
 *  @p input, which must be of @p kind. */
const Json &
member(const Json &obj, size_t input, const std::string &path,
       const char *key, Json::Kind kind)
{
    static const char *const kinds[] = {"null",     "a boolean", "a number",
                                        "a string", "an array",  "an object"};
    if (!obj.has(key) || obj.get(key).kind() != kind)
        fatal("fidelity merge: input %zu: %s%s%s: %s%s", input + 1,
              path.c_str(), path.empty() ? "" : ".", key,
              obj.has(key) ? "not " : "missing",
              obj.has(key) ? kinds[static_cast<int>(kind)] : "");
    return obj.get(key);
}

/** Member @p key as member() reads it, which must be a count. */
size_t
countMember(const Json &obj, size_t input, const std::string &path,
            const char *key)
{
    double v = member(obj, input, path, key, Json::Kind::Number).asNumber();
    return checkedCount(v, [&] {
        return strprintf("fidelity merge: input %zu: %s.%s", input + 1,
                         path.c_str(), key);
    });
}

/**
 * Kind-check every field of the instance at @p path of merge input
 * @p input, as FidelityReport::resultsJson writes it (schema
 * bsyn.fidelity.v4): gen::fidelityResults reads them unchecked.
 */
void
checkInstance(const Json &inst, size_t input, const std::string &path)
{
    using K = Json::Kind;
    auto numbers = [&](const Json &obj, const std::string &at,
                       std::initializer_list<const char *> keys) {
        for (const char *key : keys)
            member(obj, input, at, key, K::Number);
    };
    member(inst, input, path, "workload", K::String);
    member(inst, input, path, "family", K::String);
    if (!member(inst, input, path, "ok", K::Bool).asBool()) {
        member(inst, input, path, "error", K::String);
        return;
    }
    const Json &metrics = member(inst, input, path, "metrics", K::Object);
    for (const std::string &name : metrics.keys())
        numbers(member(metrics, input, path + ".metrics", name.c_str(),
                       K::Object),
                path + ".metrics." + name, {"original", "clone", "relError"});
    numbers(inst, path, {"meanRelError", "maxRelError"});
    std::string at = path + ".phases";
    const Json &phases = member(inst, input, path, "phases", K::Object);
    countMember(phases, input, at, "original");
    countMember(phases, input, at, "clone");
    numbers(phases, at, {"worstMixError", "meanMixError", "worstCpiError"});
    const Json &list = member(phases, input, at, "perPhase", K::Array);
    for (size_t k = 0; k < list.size(); ++k) {
        std::string ph = strprintf("%s.perPhase[%zu]", at.c_str(), k);
        countMember(list.at(k), input, ph, "original");
        countMember(list.at(k), input, ph, "clone");
        numbers(list.at(k), ph,
                {"mixError", "missRateError", "takenRateError",
                 "originalCpi", "cloneCpi", "cpiError"});
    }
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
    for (const auto &dir : shardDirs)
        statuses.push_back(
            SuiteStatus::loadFrom(dir + "/" + kSuiteStatusFile));
    checkShardCover(statuses, "suite");

    SuiteStatus merged;
    merged.shard = ShardSpec{}; // 1/1 — indistinguishable from unsharded
    merged.total = statuses[0].total;
    merged.suiteHash = statuses[0].suiteHash;
    for (const auto &st : statuses)
        merged.workloads.insert(merged.workloads.end(),
                                st.workloads.begin(), st.workloads.end());
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
    // fidelityShardReport() writes, and the reports must cover one
    // batch, each instance once.
    std::vector<SuiteStatus> parts;
    std::vector<std::pair<size_t, const Json *>> instances;
    for (size_t r = 0; r < shardReports.size(); ++r) {
        const Json &rep = shardReports[r];
        const std::string &schema =
            member(rep, r, "", "schema", Json::Kind::String).asString();
        if (schema != gen::kFidelitySchema)
            fatal("fidelity merge: schema '%s', expected '%s'",
                  schema.c_str(), gen::kFidelitySchema);
        if (!rep.has("shard"))
            fatal("fidelity merge: input has no shard section (was it "
                  "produced with --shard?)");
        const Json &sh = rep.get("shard");
        SuiteStatus part;
        part.shard.index =
            ShardSpec::field(countMember(sh, r, "shard", "index"));
        part.shard.count =
            ShardSpec::field(countMember(sh, r, "shard", "count"));
        part.total = countMember(sh, r, "shard", "total");
        part.suiteHash =
            member(sh, r, "shard", "suiteHash", Json::Kind::String)
                .asString();
        const Json &list =
            member(rep, r, "", "instances", Json::Kind::Array);
        for (size_t i = 0; i < list.size(); ++i) {
            std::string at = strprintf("instances[%zu]", i);
            size_t index = countMember(list.at(i), r, at, "index");
            checkInstance(list.at(i), r, at);
            part.workloads.emplace_back().index = index;
            instances.emplace_back(index, &list.at(i));
        }
        parts.push_back(std::move(part));
    }
    checkShardCover(parts, "fidelity");

    // Restore full-batch order by global index (each appears once).
    std::sort(instances.begin(), instances.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    // The summary accumulates over the instances in restored batch
    // order, so the floating-point sums — and therefore the serialized
    // bytes — match an unsharded run exactly.
    Json list = Json::array();
    for (const auto &inst : instances)
        list.push(*inst.second);
    return gen::fidelityResults(std::move(list));
}

} // namespace bsyn::serve
