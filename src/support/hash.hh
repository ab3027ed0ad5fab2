/**
 * @file
 * Content hashing for the artifact cache: a self-contained SHA-256 so
 * cache keys are stable across platforms, processes and runs, and the
 * collision probability is negligible even for very large suites. No
 * third-party dependency — the implementation is the FIPS 180-4
 * compression function over a streaming context.
 */

#ifndef BSYN_SUPPORT_HASH_HH
#define BSYN_SUPPORT_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace bsyn
{

/** Streaming SHA-256 context (FIPS 180-4). */
class Sha256
{
  public:
    Sha256();

    /** Absorb @p len bytes. */
    void update(const void *data, size_t len);
    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Absorb @p s prefixed by its length as 8 big-endian bytes, so
     *  ("ab", "c") and ("a", "bc") differ and every host agrees: the
     *  framing of the artifact-cache keys and of the suite hash. */
    void updateFramed(const std::string &s)
    {
        uint8_t len[8];
        for (int i = 0; i < 8; ++i)
            len[i] = uint8_t(uint64_t(s.size()) >> (56 - 8 * i));
        update(len, sizeof len);
        update(s);
    }

    /** Finish and return the digest as 64 lowercase hex characters.
     *  The context must not be updated afterwards. */
    std::string hexDigest();

  private:
    void compress(const uint8_t block[64]);

    uint32_t state_[8];
    uint64_t totalBytes_ = 0;
    uint8_t buf_[64];
    size_t bufLen_ = 0;
};

/** One-shot convenience: SHA-256 of @p text as lowercase hex. */
std::string sha256Hex(const std::string &text);

} // namespace bsyn

#endif // BSYN_SUPPORT_HASH_HH
