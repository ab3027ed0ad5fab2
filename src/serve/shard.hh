/**
 * @file
 * Deterministic suite sharding: split a resolved workload batch across
 * N independent processes (or machines) so each shard computes a
 * disjoint subset against a shared artifact cache, then merge the
 * per-shard outputs back into one artifact that is byte-identical to
 * an unsharded run.
 *
 * Shard assignment hashes the canonical workload name (SHA-256, first
 * eight bytes big-endian, mod N), so it depends on nothing but the
 * name and the shard count — not on suite order, thread count, or
 * which machine evaluates it. Every shard resolves the *full* batch
 * and filters it; a hash over the resolved name list travels with each
 * shard's status artifact so a merge can reject shards produced from
 * diverging suites.
 */

#ifndef BSYN_SERVE_SHARD_HH
#define BSYN_SERVE_SHARD_HH

#include <climits>
#include <string>
#include <vector>

#include "pipeline/run_sink.hh"
#include "workloads/suite.hh"

namespace bsyn::serve
{

/** One shard of an N-way split. Indices are 1-based ("shard 2 of 3");
 *  1/1 is the unsharded identity every merge result also carries. */
struct ShardSpec
{
    unsigned index = 1;
    unsigned count = 1;

    bool isAll() const { return count == 1; }

    /** A shard index or count read from a document: a count beyond
     *  unsigned reads as 0, which every spec check rejects. */
    static unsigned field(uint64_t v)
    {
        return v > UINT_MAX ? 0u : static_cast<unsigned>(v);
    }

    /** "2/3" */
    std::string str() const;
};

/**
 * Parse and validate an "i/N" shard spec. fatal() on anything
 * malformed: missing '/', non-numeric fields, N = 0, i = 0 (indices
 * are 1-based), or i > N.
 */
ShardSpec parseShardSpec(const std::string &text);

/** Stable 0-based shard assignment of a canonical workload name for an
 *  N-way split (first 8 bytes of SHA-256 of the name, mod @p count). */
unsigned shardOf(const std::string &name, unsigned count);

/** A batch filtered down to one shard, keeping enough provenance to
 *  reassemble and validate the whole suite later. */
struct ShardedBatch
{
    ShardSpec spec;

    /** This shard's workloads, in full-batch order. */
    std::vector<workloads::Workload> workloads;

    /** Global index (position in the full resolved batch) of each kept
     *  workload — parallel to @ref workloads. */
    std::vector<size_t> indices;

    /** Size of the full resolved batch. */
    size_t total = 0;

    /** SHA-256 over the full batch's canonical names (length-prefixed):
     *  two shards merge only if they resolved identical suites. */
    std::string suiteHash;
};

/** Hash of a resolved batch's canonical names (see ShardedBatch). */
std::string suiteHashOf(const std::vector<workloads::Workload> &all);

/** Filter the full batch @p all down to shard @p spec. A 1/1 spec
 *  keeps everything (with indices and hash still filled in). */
ShardedBatch filterShard(const std::vector<workloads::Workload> &all,
                         ShardSpec spec);

/**
 * The per-run suite status artifact (`suite_status.json`): which
 * workloads this shard covered and how each ended, plus the shard
 * provenance a merge validates. Deterministic — cache hit/miss
 * provenance is excluded, so cold and warm runs of the same batch
 * write identical bytes, and a merged N-shard status is byte-identical
 * to an unsharded (1/1) run's.
 */
struct SuiteStatus
{
    ShardSpec shard;
    size_t total = 0;
    std::string suiteHash;

    /** Per-workload outcomes with *global* batch indices, sorted. */
    std::vector<pipeline::RunStatus> workloads;

    Json toJson() const;
    static SuiteStatus fromJson(const Json &j);

    /** Serialized file content (dump(2) + trailing newline). */
    std::string serialize() const;

    /** Parse a suite_status.json file; the merge checks its cover. */
    static SuiteStatus loadFrom(const std::string &path);

    void saveTo(const std::string &path) const;
};

/** File name of the status artifact inside a suite output directory. */
extern const char *const kSuiteStatusFile;

/**
 * Build the status artifact for one processed shard: @p statuses are
 * Session::processSuite results over @p batch.workloads (indices local
 * to the shard); they are remapped to global indices and sorted.
 */
SuiteStatus makeSuiteStatus(const ShardedBatch &batch,
                            const std::vector<pipeline::RunStatus> &statuses);

} // namespace bsyn::serve

#endif // BSYN_SERVE_SHARD_HH
