#include "similarity/winnowing.hh"

#include <algorithm>

#include "similarity/ctokenizer.hh"

namespace bsyn::similarity
{

namespace
{

constexpr size_t kKgram = 12; ///< k-gram length (tokens)
constexpr size_t kWindow = 8; ///< winnowing window (k-grams)

/** Rolling-friendly hash of the k-gram at @p start. */
uint64_t
hashKgram(const std::vector<uint16_t> &toks, size_t start)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (size_t i = 0; i < kKgram; ++i) {
        h ^= toks[start + i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

std::set<uint64_t>
winnowFingerprints(const std::vector<uint16_t> &tokens)
{
    std::set<uint64_t> prints;
    if (tokens.size() < kKgram)
        return prints;

    size_t num_grams = tokens.size() - kKgram + 1;
    std::vector<uint64_t> hashes(num_grams);
    for (size_t i = 0; i < num_grams; ++i)
        hashes[i] = hashKgram(tokens, i);

    if (num_grams <= kWindow) {
        prints.insert(*std::min_element(hashes.begin(), hashes.end()));
        return prints;
    }
    // Classic winnowing: record the rightmost minimal hash per window.
    size_t min_idx = 0;
    for (size_t right = 0; right + 1 < kWindow; ++right)
        if (hashes[right] <= hashes[min_idx])
            min_idx = right;
    for (size_t right = kWindow - 1; right < num_grams; ++right) {
        size_t left = right + 1 - kWindow;
        if (min_idx < left) {
            min_idx = left;
            for (size_t i = left + 1; i <= right; ++i)
                if (hashes[i] <= hashes[min_idx])
                    min_idx = i;
        } else if (hashes[right] <= hashes[min_idx]) {
            min_idx = right;
        }
        prints.insert(hashes[min_idx]);
    }
    return prints;
}

double
winnowSimilarity(const std::string &source_a, const std::string &source_b)
{
    auto fa = winnowFingerprints(tokenizeC(source_a));
    auto fb = winnowFingerprints(tokenizeC(source_b));
    if (fa.empty() || fb.empty())
        return source_a == source_b ? 1.0 : 0.0;
    size_t common = 0;
    for (uint64_t h : fa)
        if (fb.count(h))
            ++common;
    return double(common) / double(std::min(fa.size(), fb.size()));
}

} // namespace bsyn::similarity
