/**
 * @file
 * The reference profile JSON: the statistical profile built as a Json
 * value, field by field, and read back from one. The shipped
 * StatisticalProfile::serialize() and deserialize() build no Json
 * value; the differential tests check that they write the bytes this
 * DOM writes (dump(-1)) and read what it reads.
 *
 * The readers take only well-formed profiles: the shipped reader owns
 * every check on hostile input.
 */

#ifndef BSYN_ORACLE_PROFILE_JSON_HH
#define BSYN_ORACLE_PROFILE_JSON_HH

#include "profile/statistical_profile.hh"

namespace bsyn::oracle
{

Json mixToJson(const profile::InstrMix &mix);
Json sfglToJson(const profile::Sfgl &g);
Json profileToJson(const profile::StatisticalProfile &p);

/** The profile @p j holds; v1/v2 documents load as single-phase v3. */
profile::StatisticalProfile profileFromJson(const Json &j);

} // namespace bsyn::oracle

#endif // BSYN_ORACLE_PROFILE_JSON_HH
