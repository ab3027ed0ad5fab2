#include "serve/shard.hh"

#include <algorithm>

#include "support/error.hh"
#include "support/hash.hh"
#include "support/string_util.hh"

namespace bsyn::serve
{

const char *const kSuiteStatusFile = "suite_status.json";

std::string
ShardSpec::str() const
{
    return strprintf("%u/%u", index, count);
}

namespace
{

/** Parse one side of "i/N"; fatal() with the full spec on junk. */
unsigned
parseShardField(const std::string &field, const std::string &spec)
{
    if (field.empty())
        fatal("invalid --shard spec '%s': expected i/N", spec.c_str());
    uint64_t v = 0;
    for (char c : field) {
        if (c < '0' || c > '9')
            fatal("invalid --shard spec '%s': '%s' is not a number",
                  spec.c_str(), field.c_str());
        v = v * 10 + static_cast<uint64_t>(c - '0');
        if (v > 1u << 20)
            fatal("invalid --shard spec '%s': '%s' is out of range",
                  spec.c_str(), field.c_str());
    }
    return static_cast<unsigned>(v);
}

} // namespace

ShardSpec
parseShardSpec(const std::string &text)
{
    size_t slash = text.find('/');
    if (slash == std::string::npos)
        fatal("invalid --shard spec '%s': expected i/N (e.g. 2/3)",
              text.c_str());
    ShardSpec spec;
    spec.index = parseShardField(text.substr(0, slash), text);
    spec.count = parseShardField(text.substr(slash + 1), text);
    if (spec.count == 0)
        fatal("invalid --shard spec '%s': shard count must be >= 1",
              text.c_str());
    if (spec.index == 0)
        fatal("invalid --shard spec '%s': shard indices are 1-based "
              "(1/%u .. %u/%u)",
              text.c_str(), spec.count, spec.count, spec.count);
    if (spec.index > spec.count)
        fatal("invalid --shard spec '%s': index %u exceeds shard count "
              "%u",
              text.c_str(), spec.index, spec.count);
    return spec;
}

unsigned
shardOf(const std::string &name, unsigned count)
{
    BSYN_ASSERT(count > 0, "shardOf: zero shard count");
    if (count == 1)
        return 0;
    // First 8 bytes of the hex digest, read big-endian: stable across
    // platforms and endianness, exactly like the cache keys.
    std::string hex = sha256Hex(name);
    uint64_t v = 0;
    for (size_t i = 0; i < 16; ++i) {
        char c = hex[i];
        v = (v << 4) |
            static_cast<uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    }
    return static_cast<unsigned>(v % count);
}

std::string
suiteHashOf(const std::vector<workloads::Workload> &all)
{
    Sha256 ctx;
    for (const auto &w : all)
        ctx.updateFramed(w.name());
    return ctx.hexDigest();
}

ShardedBatch
filterShard(const std::vector<workloads::Workload> &all, ShardSpec spec)
{
    ShardedBatch out;
    out.spec = spec;
    out.total = all.size();
    out.suiteHash = suiteHashOf(all);
    for (size_t i = 0; i < all.size(); ++i) {
        if (shardOf(all[i].name(), spec.count) == spec.index - 1) {
            out.workloads.push_back(all[i]);
            out.indices.push_back(i);
        }
    }
    return out;
}

// ---------------------------------------------------------- SuiteStatus

Json
SuiteStatus::toJson() const
{
    Json root = Json::object();
    root.set("schema", Json("bsyn.suite.v1"));
    Json sh = Json::object();
    sh.set("index", Json(static_cast<uint64_t>(shard.index)));
    sh.set("count", Json(static_cast<uint64_t>(shard.count)));
    root.set("shard", std::move(sh));
    root.set("total", Json(static_cast<uint64_t>(total)));
    root.set("suiteHash", Json(suiteHash));
    Json list = Json::array();
    for (const auto &st : workloads)
        list.push(pipeline::runStatusToJson(st));
    root.set("workloads", std::move(list));
    return root;
}

SuiteStatus
SuiteStatus::fromJson(const Json &j)
{
    if (j.get("schema").asString() != "bsyn.suite.v1")
        fatal("suite status: unknown schema '%s'",
              j.get("schema").asString().c_str());
    SuiteStatus s;
    const Json &sh = j.get("shard");
    s.shard.index = ShardSpec::field(sh.getCount("index"));
    s.shard.count = ShardSpec::field(sh.getCount("count"));
    s.total = j.getCount("total");
    s.suiteHash = j.get("suiteHash").asString();
    const Json &list = j.get("workloads");
    for (size_t i = 0; i < list.size(); ++i)
        s.workloads.push_back(pipeline::runStatusFromJson(list.at(i)));
    return s;
}

std::string
SuiteStatus::serialize() const
{
    return toJson().dump(2) + "\n";
}

SuiteStatus
SuiteStatus::loadFrom(const std::string &path)
{
    return fromJson(Json::parse(readFile(path)));
}

void
SuiteStatus::saveTo(const std::string &path) const
{
    writeFile(path, serialize());
}

SuiteStatus
makeSuiteStatus(const ShardedBatch &batch,
                const std::vector<pipeline::RunStatus> &statuses)
{
    BSYN_ASSERT(statuses.size() == batch.workloads.size(),
                "suite status: %zu statuses for %zu shard workloads",
                statuses.size(), batch.workloads.size());
    SuiteStatus s;
    s.shard = batch.spec;
    s.total = batch.total;
    s.suiteHash = batch.suiteHash;
    s.workloads = statuses;
    for (size_t i = 0; i < s.workloads.size(); ++i)
        s.workloads[i].index = batch.indices[i];
    std::sort(s.workloads.begin(), s.workloads.end(),
              [](const pipeline::RunStatus &a,
                 const pipeline::RunStatus &b) { return a.index < b.index; });
    return s;
}

} // namespace bsyn::serve
