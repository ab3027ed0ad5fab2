#include "pipeline/artifact_cache.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/error.hh"
#include "support/hash.hh"
#include "support/string_util.hh"

namespace fs = std::filesystem;

namespace bsyn::pipeline
{

ArtifactCache::ArtifactCache(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        return;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create cache directory '%s': %s", dir_.c_str(),
              ec.message().c_str());
}

std::string
ArtifactCache::key(const std::string &stage,
                   const std::vector<std::string> &parts)
{
    Sha256 ctx;
    ctx.updateFramed(stage);
    for (const auto &p : parts)
        ctx.updateFramed(p);
    return ctx.hexDigest();
}

std::string
ArtifactCache::path(const std::string &key) const
{
    // Two-level fan-out keeps directory listings small for big suites.
    return dir_ + "/" + key.substr(0, 2) + "/" + key + ".json";
}

bool
ArtifactCache::load(const std::string &key, std::string &text) const
{
    if (!enabled())
        return false;
    std::ifstream in(path(key), std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (!in.good() && !in.eof())
        return false;
    text = ss.str();
    return true;
}

void
ArtifactCache::store(const std::string &key, const std::string &text) const
{
    if (!enabled())
        return;
    std::string final_path = path(key);
    std::error_code ec;
    fs::create_directories(fs::path(final_path).parent_path(), ec);
    if (ec)
        fatal("cannot create cache subdirectory for '%s': %s",
              final_path.c_str(), ec.message().c_str());
    publishFile(final_path, text);
}

} // namespace bsyn::pipeline
