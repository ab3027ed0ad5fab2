/**
 * @file
 * A minimal JSON value model, one streaming tokenizer and one writer
 * for numbers and strings. Statistical profiles are read and written
 * straight from and to their structs with the tokenizer and the
 * writer; the value model serves the small documents (jobs, statuses,
 * reports). The profile is what crosses organizational walls in the
 * paper's Figure 1, so profiling and synthesis can run as separate
 * steps.
 */

#ifndef BSYN_SUPPORT_JSON_HH
#define BSYN_SUPPORT_JSON_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bsyn
{

/** A dynamically-typed JSON value (null/bool/number/string/array/object). */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() : kind_(Kind::Null) {}
    Json(bool b) : kind_(Kind::Bool), boolean(b) {}
    Json(double d) : kind_(Kind::Number), number(d) {}
    Json(int64_t i) : kind_(Kind::Number), number(double(i)) {}
    Json(uint64_t u) : kind_(Kind::Number), number(double(u)) {}
    Json(int i) : kind_(Kind::Number), number(double(i)) {}
    Json(const char *s) : kind_(Kind::String), str(s) {}
    Json(std::string s) : kind_(Kind::String), str(std::move(s)) {}

    /** Build an empty array value. */
    static Json array();
    /** Build an empty object value. */
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @return the boolean payload; panics on kind mismatch. */
    bool asBool() const;
    /** @return the numeric payload; panics on kind mismatch. */
    double asNumber() const;
    /** @return the numeric payload truncated to int64. */
    int64_t asInt() const;
    /** @return member @p key, a number as for asNumber(), as a count;
     *  fatal() otherwise: "<key>: -1 is not a count". */
    uint64_t getCount(const std::string &key) const;
    /** @return the string payload; panics on kind mismatch. */
    const std::string &asString() const;

    /** Array access. */
    void push(Json v);
    size_t size() const;
    const Json &at(size_t i) const;

    /** Object access. */
    void set(const std::string &key, Json v);
    bool has(const std::string &key) const;
    const Json &get(const std::string &key) const;

    /** Object keys in insertion order (empty for non-objects) — lets
     *  consumers walk fields in the exact order a writer emitted them,
     *  which reproducible re-serialization (e.g. shard merging) needs. */
    std::vector<std::string> keys() const;

    /** Serialize; @p indent < 0 means compact. */
    std::string dump(int indent = 2) const;

    /** Parse a JSON document; fatal() on malformed input. */
    static Json parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;
    // Keep insertion order for reproducible round-trips.
    std::vector<std::pair<std::string, Json>> fields;
};

/** Whether @p v is a count: an integer in [0, 2^53), where a double,
 *  and so a JSON number, holds every integer exactly. Every count a
 *  bsyn document carries must be one. */
inline bool
isCount(double v)
{
    return v >= 0 && v < 0x1p53 && v == std::floor(v);
}

/** Throw a FatalError "<field>: <v> is not <what>", with @p v as the
 *  shortest text that reads back as it: "total: -1 is not a count". */
[[noreturn]] void rejectValue(double v, const std::string &field,
                              const char *what);

/** @p v as a count; anything else is fatal, naming the field
 *  @p path() — built only on failure, so a valid read pays for no
 *  strings. */
template <typename Path>
uint64_t
checkedCount(double v, const Path &path)
{
    if (isCount(v))
        return static_cast<uint64_t>(v);
    rejectValue(v, path(), "a count");
}

/**
 * Append @p d as every bsyn document writes a number: as an integer
 * when it is integral and below 9e15 in magnitude, otherwise in
 * general format at precision 17, which std::to_chars prints exactly
 * as printf's "%.17g" does.
 */
void formatNumber(std::string &out, double d);

/** Append @p s as a quoted JSON string. */
void escapeString(std::string &out, std::string_view s);

/** Append @p items as a JSON array, each element written by
 *  @p write(out, item). */
template <typename Items, typename Write>
void
formatArray(std::string &out, const Items &items, Write &&write)
{
    out += '[';
    bool first = true;
    for (const auto &item : items) {
        if (!first)
            out += ',';
        first = false;
        write(out, item);
    }
    out += ']';
}

/**
 * A streaming cursor over JSON text: it reads a document in one pass,
 * objects member by member and arrays element by element, building
 * nothing it is not asked for. It tracks where it is as a JSON path
 * ("sfgl.blocks[3].code[2]") without building strings, so every
 * failure is a FatalError that names the path ("json" at the top
 * level): a value of the wrong kind ("not a number"), malformed text
 * ("malformed number at offset K") or nesting deeper than maxDepth.
 *
 * The text must outlive the cursor.
 */
class JsonCursor
{
  public:
    /** Deepest nesting of arrays and objects a document may have;
     *  bsyn's own documents nest at most 8 levels. */
    static constexpr size_t maxDepth = 64;

    explicit JsonCursor(std::string_view text);

    /** The kind of the next value, without reading it. */
    Json::Kind peek();

    /** Read the next value, which must be of the named kind. */
    double number();
    std::string string();
    bool boolean();
    void null();
    /** Read past the next value, whatever it is. */
    void skip();

    /** Enter the object that comes next; then call nextKey until it
     *  returns false, reading each member's value in between. */
    void enterObject();
    /** Step to the next member of the innermost object and set @p key
     *  to its name (valid until the next call); false, leaving the
     *  object, when it has no more. */
    bool nextKey(std::string_view &key);

    /** Enter the array that comes next; then call nextElement until it
     *  returns false, reading each element in between. */
    void enterArray();
    /** Step to the next element of the innermost array; false, leaving
     *  the array, when it has no more. */
    bool nextElement();

    /**
     * Read the object that comes next, whose members are named
     * @p names: call @p read(i) with the cursor at the value of member
     * names[i], and skip members of other names. Fails on a member
     * given twice, and on one missing unless bit i of @p optional is
     * set.
     */
    template <size_t N, typename Read>
    void readObject(const std::string_view (&names)[N], uint32_t optional,
                    Read &&read);

    /** Fail unless only whitespace follows the document. */
    void finish();

    /** Where the cursor is: "" at the top level, else the path of the
     *  member or element being read ("phases[1].sfgl.blocks[0].exec");
     *  after a container is left, the path of that container. */
    std::string path() const;

    /** Throw a FatalError "<path>: <what>", with "json" for an empty
     *  path. */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    static constexpr size_t npos = static_cast<size_t>(-1);

    struct Frame
    {
        bool object;
        size_t index;         ///< the current entry; npos before the first
        std::string_view key; ///< the current member's name, as written
    };

    char peekChar();
    void enter(bool object);
    bool advance(char close);
    void readString(std::string &out);
    unsigned readHex4();
    [[noreturn]] void syntaxError(const char *what, const char *at) const;
    [[noreturn]] void failMissing(std::string_view name) const;

    const char *begin_;
    const char *p_;
    const char *end_;
    Frame frames_[maxDepth];
    size_t depth_ = 0;
    std::string keyBuf_; ///< a key decoded from escapes
};

template <size_t N, typename Read>
void
JsonCursor::readObject(const std::string_view (&names)[N], uint32_t optional,
                       Read &&read)
{
    static_assert(N <= 32, "one bit per member");
    uint32_t seen = 0;
    enterObject();
    std::string_view key;
    while (nextKey(key)) {
        size_t i = 0;
        while (i < N && key != names[i])
            ++i;
        if (i == N) {
            skip();
            continue;
        }
        if (seen & (1u << i))
            fail("duplicate key");
        seen |= 1u << i;
        read(i);
    }
    for (size_t i = 0; i < N; ++i)
        if (!((seen | optional) & (1u << i)))
            failMissing(names[i]);
}

} // namespace bsyn

#endif // BSYN_SUPPORT_JSON_HH
