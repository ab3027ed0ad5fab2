/**
 * @file
 * Winnowing document fingerprinting — the algorithm behind Moss
 * (Schleimer, Wilkerson, Aiken, SIGMOD 2003). K-grams of the normalized
 * token stream are hashed; a sliding window keeps the minimal hash per
 * window; the retained fingerprints are compared with set overlap.
 */

#ifndef BSYN_SIMILARITY_WINNOWING_HH
#define BSYN_SIMILARITY_WINNOWING_HH

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace bsyn::similarity
{

/** Fingerprint set of one document: the rightmost minimal hash of
 *  each window of 8 consecutive 12-token k-grams (Moss defaults are
 *  in this neighbourhood). */
std::set<uint64_t> winnowFingerprints(const std::vector<uint16_t> &tokens);

/**
 * Moss-style similarity of two C sources in [0, 1]: fingerprint-set
 * containment (size of the intersection over the smaller set).
 */
double winnowSimilarity(const std::string &source_a,
                        const std::string &source_b);

} // namespace bsyn::similarity

#endif // BSYN_SIMILARITY_WINNOWING_HH
