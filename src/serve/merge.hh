/**
 * @file
 * The merge half of shard-and-serve: reunify per-shard artifacts into
 * the single artifact an unsharded run would have produced, validating
 * along the way that the shards actually form one complete, disjoint
 * cover of one suite (same resolved batch, same shard count, every
 * shard index 1..N present exactly once, every global workload index
 * accounted for).
 *
 * Two artifact kinds merge:
 *  - suite output directories (`bsyn suite --shard i/N -o dir_i`):
 *    clone/profile files are byte-copied and the per-shard
 *    suite_status.json files fold into one 1/1 status — the result is
 *    byte-identical to `bsyn suite -o dir` without --shard;
 *  - fidelity reports (`bsyn fidelity --shard i/N -o f_i.json`, written
 *    by fidelityShardReport()): instances are re-sorted by global
 *    index and the summary is recomputed in batch order
 *    (gen::fidelityResults), so the merged results JSON is
 *    byte-identical to an unsharded `--results-only` report
 *    (floating-point accumulation order and all).
 */

#ifndef BSYN_SERVE_MERGE_HH
#define BSYN_SERVE_MERGE_HH

#include <string>
#include <vector>

#include "gen/fidelity.hh"
#include "serve/shard.hh"
#include "support/json.hh"

namespace bsyn::serve
{

/** Outcome of a directory merge. */
struct MergeResult
{
    size_t shards = 0;    ///< input shard directories
    size_t workloads = 0; ///< status entries in the merged artifact
    size_t failed = 0;    ///< of which !ok
    size_t files = 0;     ///< artifact files copied
};

/**
 * Merge N shard output directories into @p outDir (created if needed).
 * Every file except suite_status.json is byte-copied; the status files
 * are validated (complete disjoint 1..N cover of one suiteHash) and
 * merged into a 1/1 suite_status.json. fatal() on incomplete,
 * overlapping, or mismatched shards.
 */
MergeResult mergeSuiteDirs(const std::string &outDir,
                           const std::vector<std::string> &shardDirs);

/**
 * The report `bsyn fidelity` writes for the batch @p sharded: the
 * results JSON of @p report (plus its bench half unless
 * @p resultsOnly), whose instances are first re-indexed to their
 * positions in the full batch, and — for a proper shard — the "shard"
 * section (spec, batch size, suiteHash) mergeFidelityReports() reads.
 */
Json fidelityShardReport(gen::FidelityReport &report,
                         const ShardedBatch &sharded, bool resultsOnly);

/**
 * Merge N sharded fidelity reports (parsed JSON, any order) into the
 * results-only report of the equivalent unsharded run. Each input must
 * carry the "shard" section fidelityShardReport() writes and the
 * current schema. fatal() on mismatched or incomplete shards.
 */
Json mergeFidelityReports(const std::vector<Json> &shardReports);

} // namespace bsyn::serve

#endif // BSYN_SERVE_MERGE_HH
