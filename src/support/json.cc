#include "support/json.hh"

#include <charconv>
#include <cmath>

#include "support/error.hh"
#include "support/string_util.hh"

namespace bsyn
{

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    BSYN_ASSERT(kind_ == Kind::Bool, "json: not a bool");
    return boolean;
}

double
Json::asNumber() const
{
    BSYN_ASSERT(kind_ == Kind::Number, "json: not a number");
    return number;
}

int64_t
Json::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
Json::asString() const
{
    BSYN_ASSERT(kind_ == Kind::String, "json: not a string");
    return str;
}

void
Json::push(Json v)
{
    BSYN_ASSERT(kind_ == Kind::Array, "json: push on non-array");
    items.push_back(std::move(v));
}

size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return items.size();
    if (kind_ == Kind::Object)
        return fields.size();
    return 0;
}

const Json &
Json::at(size_t i) const
{
    BSYN_ASSERT(kind_ == Kind::Array && i < items.size(),
                "json: bad array index");
    return items[i];
}

void
Json::set(const std::string &key, Json v)
{
    BSYN_ASSERT(kind_ == Kind::Object, "json: set on non-object");
    for (auto &kv : fields) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    fields.emplace_back(key, std::move(v));
}

bool
Json::has(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return false;
    for (const auto &kv : fields)
        if (kv.first == key)
            return true;
    return false;
}

const Json &
Json::get(const std::string &key) const
{
    BSYN_ASSERT(kind_ == Kind::Object, "json: get on non-object");
    for (const auto &kv : fields)
        if (kv.first == key)
            return kv.second;
    fatal("json: missing key '%s'", key.c_str());
}

std::vector<std::string>
Json::keys() const
{
    std::vector<std::string> out;
    if (kind_ != Kind::Object)
        return out;
    out.reserve(fields.size());
    for (const auto &kv : fields)
        out.push_back(kv.first);
    return out;
}

void
escapeString(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    size_t run = 0; // start of the pending run of bytes copied as is
    for (size_t i = 0; i < s.size(); ++i) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

void
formatNumber(std::string &out, double d)
{
    char buf[32];
    char *end;
    if (d == std::floor(d) && std::fabs(d) < 9.0e15)
        end = std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d))
                  .ptr;
    else
        end = std::to_chars(buf, buf + sizeof buf, d,
                            std::chars_format::general, 17)
                  .ptr;
    out.append(buf, end);
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto pad = [&](int d) {
        if (indent >= 0) {
            out += '\n';
            out.append(static_cast<size_t>(indent) * d, ' ');
        }
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolean ? "true" : "false";
        break;
      case Kind::Number:
        formatNumber(out, number);
        break;
      case Kind::String:
        escapeString(out, str);
        break;
      case Kind::Array:
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            pad(depth + 1);
            items[i].dumpTo(out, indent, depth + 1);
        }
        if (!items.empty())
            pad(depth);
        out += ']';
        break;
      case Kind::Object:
        out += '{';
        for (size_t i = 0; i < fields.size(); ++i) {
            if (i)
                out += ',';
            pad(depth + 1);
            escapeString(out, fields[i].first);
            out += indent >= 0 ? ": " : ":";
            fields[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!fields.empty())
            pad(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Build the value at @p cur; the cursor bounds the recursion. */
Json
readValue(JsonCursor &cur)
{
    switch (cur.peek()) {
      case Json::Kind::Null:
        cur.null();
        return Json();
      case Json::Kind::Bool:
        return Json(cur.boolean());
      case Json::Kind::Number:
        return Json(cur.number());
      case Json::Kind::String:
        return Json(cur.string());
      case Json::Kind::Array: {
        Json arr = Json::array();
        cur.enterArray();
        while (cur.nextElement())
            arr.push(readValue(cur));
        return arr;
      }
      case Json::Kind::Object: {
        Json obj = Json::object();
        cur.enterObject();
        std::string_view key;
        while (cur.nextKey(key)) {
            std::string name(key); // the view dies in nested keys
            obj.set(name, readValue(cur));
        }
        return obj;
      }
    }
    return Json();
}

bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Append @p code (a Unicode scalar value) as UTF-8. */
void
appendUtf8(std::string &out, unsigned code)
{
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    }
}

} // namespace

Json
Json::parse(const std::string &text)
{
    JsonCursor cur(text);
    Json v = readValue(cur);
    cur.finish();
    return v;
}

JsonCursor::JsonCursor(std::string_view text)
    : begin_(text.data()), p_(text.data()), end_(text.data() + text.size())
{
}

std::string
JsonCursor::path() const
{
    std::string out;
    for (size_t d = 0; d < depth_; ++d) {
        const Frame &f = frames_[d];
        if (f.index == npos)
            continue;
        if (!f.object) {
            out += '[' + std::to_string(f.index) + ']';
        } else if (!f.key.empty()) {
            if (!out.empty())
                out += '.';
            out += f.key;
        }
    }
    return out;
}

void
JsonCursor::fail(const std::string &what) const
{
    std::string where = path();
    fatal("%s: %s", where.empty() ? "json" : where.c_str(), what.c_str());
}

void
JsonCursor::syntaxError(const char *what, const char *at) const
{
    fail(strprintf("%s at offset %zu", what,
                   static_cast<size_t>(at - begin_)));
}

void
JsonCursor::failMissing(std::string_view name) const
{
    std::string where = path();
    fatal("%s%s%.*s: missing", where.c_str(), where.empty() ? "" : ".",
          static_cast<int>(name.size()), name.data());
}

char
JsonCursor::peekChar()
{
    while (p_ < end_ && isSpace(*p_))
        ++p_;
    if (p_ == end_)
        fail("unexpected end of input");
    return *p_;
}

Json::Kind
JsonCursor::peek()
{
    char c = peekChar();
    switch (c) {
      case '{': return Json::Kind::Object;
      case '[': return Json::Kind::Array;
      case '"': return Json::Kind::String;
      case 't':
      case 'f': return Json::Kind::Bool;
      case 'n': return Json::Kind::Null;
      default:
        // A leading '+' or '.' is no JSON number, but reads as a
        // malformed one rather than as no value at all.
        if (isDigit(c) || c == '-' || c == '+' || c == '.')
            return Json::Kind::Number;
        syntaxError("expected a value", p_);
    }
}

double
JsonCursor::number()
{
    if (peek() != Json::Kind::Number)
        fail("not a number");
    // Check the JSON grammar, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
    // then convert.
    const char *start = p_;
    const char *q = p_ + (*p_ == '-');
    auto digits = [&q, this] {
        const char *from = q;
        while (q < end_ && isDigit(*q))
            ++q;
        return q != from;
    };
    const char *intStart = q;
    bool ok = q < end_ && *q == '0' ? (++q, true) : digits();
    const char *intEnd = q;
    if (ok && q < end_ && *q == '.') {
        ++q;
        ok = digits();
    }
    if (ok && q < end_ && (*q == 'e' || *q == 'E')) {
        ++q;
        if (q < end_ && (*q == '+' || *q == '-'))
            ++q;
        ok = digits();
    }
    // The number ends here: what follows must not continue it ("01",
    // "1.5.2", "1e2e3", "1-").
    if (ok && q < end_ &&
        (isDigit(*q) || *q == '.' || *q == 'e' || *q == 'E' || *q == '+' ||
         *q == '-'))
        ok = false;
    if (!ok)
        syntaxError("malformed number", start);
    p_ = q;
    if (intEnd == q && q - intStart <= 15) {
        // An integer of at most 15 digits is exact as it accumulates.
        uint64_t v = 0;
        for (const char *c = intStart; c < q; ++c)
            v = v * 10 + static_cast<unsigned>(*c - '0');
        return *start == '-' ? -static_cast<double>(v)
                             : static_cast<double>(v);
    }
    double d = 0;
    auto [end, ec] = std::from_chars(start, q, d);
    if (ec != std::errc() || end != q)
        syntaxError("malformed number", start); // beyond a double's range
    return d;
}

unsigned
JsonCursor::readHex4()
{
    if (end_ - p_ < 4)
        syntaxError("bad \\u escape", p_);
    unsigned code = 0;
    for (int k = 0; k < 4; ++k, ++p_) {
        char h = *p_;
        unsigned v = isDigit(h)                ? unsigned(h - '0')
                     : (h >= 'a' && h <= 'f') ? unsigned(h - 'a' + 10)
                     : (h >= 'A' && h <= 'F') ? unsigned(h - 'A' + 10)
                                              : 16u;
        if (v == 16)
            syntaxError("non-hex digit in \\u escape", p_);
        code = code * 16 + v;
    }
    return code;
}

void
JsonCursor::readString(std::string &out)
{
    const char *start = p_++; // the opening quote
    for (;;) {
        const char *run = p_;
        while (p_ < end_ && *p_ != '"' && *p_ != '\\')
            ++p_;
        out.append(run, p_);
        if (p_ == end_)
            syntaxError("unterminated string", start);
        if (*p_++ == '"')
            return;
        if (p_ == end_)
            syntaxError("bad escape", p_ - 1);
        switch (char e = *p_++) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'u': {
            unsigned code = readHex4();
            if (code >= 0xdc00 && code <= 0xdfff)
                syntaxError("unpaired low surrogate", p_ - 6);
            if (code >= 0xd800 && code <= 0xdbff) {
                // High surrogate: a \uXXXX low surrogate must follow to
                // form one supplementary code point.
                if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
                    syntaxError("high surrogate not followed by \\u low "
                                "surrogate",
                                p_ - 6);
                p_ += 2;
                unsigned low = readHex4();
                if (low < 0xdc00 || low > 0xdfff)
                    syntaxError("expected a low surrogate", p_ - 6);
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            }
            appendUtf8(out, code);
            break;
          }
          default:
            syntaxError(strprintf("unknown escape '\\%c'", e).c_str(),
                        p_ - 2);
        }
    }
}

std::string
JsonCursor::string()
{
    if (peek() != Json::Kind::String)
        fail("not a string");
    std::string out;
    readString(out);
    return out;
}

bool
JsonCursor::boolean()
{
    if (peek() != Json::Kind::Bool)
        fail("not a boolean");
    for (std::string_view word : {"true", "false"})
        if (static_cast<size_t>(end_ - p_) >= word.size() &&
            word == std::string_view(p_, word.size())) {
            p_ += word.size();
            return word[0] == 't';
        }
    syntaxError("expected 'true' or 'false'", p_);
}

void
JsonCursor::null()
{
    if (peek() != Json::Kind::Null)
        fail("not null");
    if (end_ - p_ < 4 || std::string_view(p_, 4) != "null")
        syntaxError("expected 'null'", p_);
    p_ += 4;
}

void
JsonCursor::skip()
{
    std::string_view key;
    switch (peek()) {
      case Json::Kind::Null: null(); break;
      case Json::Kind::Bool: boolean(); break;
      case Json::Kind::Number: number(); break;
      case Json::Kind::String: string(); break;
      case Json::Kind::Array:
        enterArray();
        while (nextElement())
            skip();
        break;
      case Json::Kind::Object:
        enterObject();
        while (nextKey(key))
            skip();
        break;
    }
}

void
JsonCursor::enter(bool object)
{
    if (depth_ == maxDepth)
        syntaxError(strprintf("nesting deeper than %zu", maxDepth).c_str(),
                    p_);
    ++p_;
    frames_[depth_++] = Frame{object, npos, {}};
}

void
JsonCursor::enterObject()
{
    if (peek() != Json::Kind::Object)
        fail("not an object");
    enter(true);
}

void
JsonCursor::enterArray()
{
    if (peek() != Json::Kind::Array)
        fail("not an array");
    enter(false);
}

/** Step past the separator before the innermost container's next
 *  entry; false, leaving the container, at @p close. */
bool
JsonCursor::advance(char close)
{
    Frame &f = frames_[depth_ - 1];
    char c = peekChar();
    if (c == close) {
        ++p_;
        --depth_;
        return false;
    }
    if (f.index != npos) {
        if (c != ',')
            syntaxError(close == '}' ? "expected ',' or '}'"
                                     : "expected ',' or ']'",
                        p_);
        ++p_;
    }
    ++f.index;
    return true;
}

bool
JsonCursor::nextElement()
{
    return advance(']');
}

bool
JsonCursor::nextKey(std::string_view &key)
{
    if (!advance('}'))
        return false;
    Frame &f = frames_[depth_ - 1];
    f.key = {};
    if (peekChar() != '"')
        syntaxError("expected a key", p_);
    const char *start = p_ + 1;
    const char *q = start;
    while (q < end_ && *q != '"' && *q != '\\')
        ++q;
    if (q < end_ && *q == '"') {
        key = std::string_view(start, static_cast<size_t>(q - start));
        p_ = q + 1;
    } else {
        keyBuf_.clear();
        readString(keyBuf_);
        key = keyBuf_;
    }
    f.key = std::string_view(start, static_cast<size_t>(p_ - 1 - start));
    if (peekChar() != ':')
        syntaxError("expected ':'", p_);
    ++p_;
    return true;
}

void
JsonCursor::finish()
{
    while (p_ < end_ && isSpace(*p_))
        ++p_;
    if (p_ != end_)
        syntaxError("trailing garbage", p_);
}

} // namespace bsyn
