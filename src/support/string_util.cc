#include "support/string_util.hh"

#include <atomic>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "support/error.hh"

namespace bsyn
{

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args);
        out.resize(static_cast<size_t>(needed));
    }
    va_end(args);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
join(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += sep;
        out += items[i];
    }
    return out;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read file '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot write file '%s'", path.c_str());
    out << content;
    if (!out)
        fatal("failed writing file '%s'", path.c_str());
}

void
publishFile(const std::string &path, const std::string &content)
{
    static std::atomic<uint64_t> counter{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(counter.fetch_add(1));
    writeFile(tmp, content);
    std::error_code ec, ignored;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ignored);
        fatal("cannot publish file '%s': %s", path.c_str(),
              ec.message().c_str());
    }
}

} // namespace bsyn
