/**
 * @file
 * Small string helpers shared across the framework.
 */

#ifndef BSYN_SUPPORT_STRING_UTIL_HH
#define BSYN_SUPPORT_STRING_UTIL_HH

#include <string>
#include <vector>

namespace bsyn
{

/** Split @p s on @p sep (single character), keeping empty fields. */
std::vector<std::string> split(const std::string &s, char sep);

/** Trim ASCII whitespace from both ends. */
std::string trim(const std::string &s);

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** True if @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Join items with a separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/** Read an entire file into a string; fatal() if unreadable. */
std::string readFile(const std::string &path);

/** Write a string to a file; fatal() on failure. */
void writeFile(const std::string &path, const std::string &content);

/**
 * Write @p content to @p path atomically: into a temp file beside it
 * named "<path>.tmp.<pid>.<n>", unique per writer, then renamed over
 * @p path, so a concurrent reader sees the old file or the whole new
 * one and two writers never tear each other's bytes. fatal() on
 * failure; a failed rename removes the temp file.
 */
void publishFile(const std::string &path, const std::string &content);

} // namespace bsyn

#endif // BSYN_SUPPORT_STRING_UTIL_HH
