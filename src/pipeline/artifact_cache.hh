/**
 * @file
 * Content-addressed on-disk cache for pipeline artifacts. A key is the
 * SHA-256 of everything that determines an artifact — stage tag,
 * workload source, serialized options — so a cache entry can never be
 * stale: any input change produces a different key, and an unchanged
 * workload re-run out of the cache is byte-identical to recomputation.
 * This is what lets `bsyn profile` and `bsyn suite` share one cache
 * directory and lets a warm suite re-run skip every profile and
 * synthesis (ROADMAP "shared profile cache").
 */

#ifndef BSYN_PIPELINE_ARTIFACT_CACHE_HH
#define BSYN_PIPELINE_ARTIFACT_CACHE_HH

#include <string>
#include <vector>

namespace bsyn::pipeline
{

/**
 * Disk-backed artifact store keyed by content hash. Thread-safe: loads
 * and stores may run concurrently from pool workers; stores go through
 * publishFile (write-to-temp + atomic rename), so concurrent processes
 * sharing one cache directory never observe torn entries. A
 * default-constructed cache is disabled (every load misses, stores are
 * dropped).
 */
class ArtifactCache
{
  public:
    /** Disabled cache: load() always misses, store() is a no-op. */
    ArtifactCache() = default;

    /** Cache rooted at @p dir (created on first use; fatal() if the
     *  directory cannot be created). Empty @p dir means disabled. */
    explicit ArtifactCache(std::string dir);

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /**
     * Build a cache key: SHA-256 over the stage tag and every input
     * part, each framed by Sha256::updateFramed so distinct part lists
     * never collide.
     */
    static std::string key(const std::string &stage,
                           const std::vector<std::string> &parts);

    /** Look up @p key; on hit fills @p text and returns true. */
    bool load(const std::string &key, std::string &text) const;

    /** Insert @p text under @p key (atomically; last writer wins). */
    void store(const std::string &key, const std::string &text) const;

  private:
    std::string path(const std::string &key) const;

    std::string dir_;
};

} // namespace bsyn::pipeline

#endif // BSYN_PIPELINE_ARTIFACT_CACHE_HH
