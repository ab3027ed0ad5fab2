/** @file Unit tests for the support layer (rng, stats, json, strings). */

#include <gtest/gtest.h>

#include "support/error.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/statistics.hh"
#include "support/string_util.hh"
#include "support/table.hh"

namespace bsyn
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 10000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, WeightedRespectsWeights)
{
    Rng r(11);
    std::vector<double> w{1.0, 0.0, 9.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 10000; ++i)
        ++counts[r.nextWeighted(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(Rng, BoolProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.nextBool(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
    EXPECT_FALSE(r.nextBool(0.0));
    EXPECT_TRUE(r.nextBool(1.0));
}

TEST(Statistics, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(Statistics, Pearson)
{
    std::vector<double> x{1, 2, 3, 4};
    std::vector<double> y{2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> z{8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Statistics, RelativeError)
{
    EXPECT_DOUBLE_EQ(relativeError(110, 100), 0.1);
    EXPECT_DOUBLE_EQ(relativeError(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(relativeError(5, 0), 1.0);
}

TEST(Statistics, RunningStat)
{
    RunningStat s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Json, RoundTrip)
{
    Json obj = Json::object();
    obj.set("name", Json("bsyn"));
    obj.set("count", Json(int64_t(42)));
    obj.set("ratio", Json(0.5));
    obj.set("flag", Json(true));
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    arr.push(Json());
    obj.set("items", std::move(arr));

    Json parsed = Json::parse(obj.dump(2));
    EXPECT_EQ(parsed.get("name").asString(), "bsyn");
    EXPECT_EQ(parsed.get("count").asInt(), 42);
    EXPECT_DOUBLE_EQ(parsed.get("ratio").asNumber(), 0.5);
    EXPECT_TRUE(parsed.get("flag").asBool());
    EXPECT_EQ(parsed.get("items").size(), 3u);
    EXPECT_TRUE(parsed.get("items").at(2).isNull());
}

TEST(Json, EscapesStrings)
{
    Json j(std::string("a\"b\\c\nd"));
    Json parsed = Json::parse(j.dump(-1));
    EXPECT_EQ(parsed.asString(), "a\"b\\c\nd");
}

TEST(Json, RoundTripsControlCharacters)
{
    // Every byte below 0x20 must survive dump -> parse, whether it uses
    // a short escape (\n, \t, \r) or the generic \u00XX form.
    std::string all;
    for (int c = 1; c < 0x20; ++c)
        all += static_cast<char>(c);
    all += '\0'; // embedded NUL too
    Json parsed = Json::parse(Json(all).dump(-1));
    EXPECT_EQ(parsed.asString(), all);

    // Spot-check the serialized form itself.
    EXPECT_EQ(Json(std::string("\x01")).dump(-1), "\"\\u0001\"");
    EXPECT_EQ(Json(std::string("\x1f")).dump(-1), "\"\\u001f\"");
    EXPECT_EQ(Json(std::string("\n")).dump(-1), "\"\\n\"");
}

TEST(Json, ParsesUnicodeEscapes)
{
    EXPECT_EQ(Json::parse("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(Json::parse("\"\\u000a\"").asString(), "\n");
    EXPECT_EQ(Json::parse("\"a\\u0042c\"").asString(), "aBc");
    // Beyond ASCII, escapes decode to UTF-8 byte sequences.
    EXPECT_EQ(Json::parse("\"\\u00Ff\"").asString(), "\xc3\xbf"); // ÿ
    EXPECT_EQ(Json::parse("\"\\u0100\"").asString(), "\xc4\x80"); // Ā
    EXPECT_EQ(Json::parse("\"\\u20ac\"").asString(), "\xe2\x82\xac"); // €
    EXPECT_EQ(Json::parse("\"\\uFFFD\"").asString(), "\xef\xbf\xbd");
}

TEST(Json, ParsesSurrogatePairs)
{
    // U+1F600 as the \ud83d\ude00 pair -> 4-byte UTF-8.
    EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    // First and last supplementary-plane code points.
    EXPECT_EQ(Json::parse("\"\\uD800\\uDC00\"").asString(),
              "\xf0\x90\x80\x80"); // U+10000
    EXPECT_EQ(Json::parse("\"\\udbff\\udfff\"").asString(),
              "\xf4\x8f\xbf\xbf"); // U+10FFFF
    // Surrounding text survives.
    EXPECT_EQ(Json::parse("\"a\\ud83d\\ude00b\"").asString(),
              "a\xf0\x9f\x98\x80"
              "b");
}

TEST(Json, NonAsciiStringsRoundTrip)
{
    // Raw UTF-8 workload names survive dump -> parse untouched, and a
    // name arriving escaped compares equal to the same name raw.
    std::string name = "espresso-\xc3\xa9\xe2\x82\xac-\xf0\x9f\x98\x80";
    EXPECT_EQ(Json::parse(Json(name).dump(-1)).asString(), name);
    EXPECT_EQ(
        Json::parse("\"espresso-\\u00e9\\u20ac-\\ud83d\\ude00\"")
            .asString(),
        name);
}

TEST(Json, MalformedEscapesAreFatal)
{
    // Unknown escape letter.
    EXPECT_THROW(Json::parse("\"\\x41\""), FatalError);
    // Truncated \u escapes (end of string / end of input).
    EXPECT_THROW(Json::parse("\"\\u12\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\u"), FatalError);
    // Non-hex digits must not crash with an uncaught std::stoul error.
    EXPECT_THROW(Json::parse("\"\\uzzzz\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\u00g0\""), FatalError);
    // Broken surrogate pairs: lone high, lone low, high followed by
    // something that is not a low surrogate, truncated second escape.
    EXPECT_THROW(Json::parse("\"\\ud83d\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\ude00\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\ud83dx\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\ud83d\\u0041\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\ud83d\\ud83d\""), FatalError);
    EXPECT_THROW(Json::parse("\"\\ud83d\\u12\""), FatalError);
    // Backslash at end of input.
    EXPECT_THROW(Json::parse("\"\\"), FatalError);
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]2"), FatalError);
    EXPECT_THROW(Json::parse(""), FatalError);
}

TEST(Json, MalformedNumbersAreFatal)
{
    // What JSON does not allow, and numbers beyond a double's range:
    // std::stod used to accept some and throw its own exceptions on
    // others.
    for (const char *text : {"+1", "-", "1e999", "-1e999", "1e-999", "01",
                             "1.", ".5", "1e", "1.5.2", "--1", "1e+"}) {
        SCOPED_TRACE(text);
        try {
            Json::parse(text);
            ADD_FAILURE() << "parsed";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(),
                         "fatal: json: malformed number at offset 0");
        }
    }
    // Inside a document the message names the member.
    try {
        Json::parse("{\"total\": 1e999}");
        ADD_FAILURE() << "parsed";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: total: malformed number at offset 10");
    }
}

TEST(Json, NumbersRoundTripExactly)
{
    // The writer prints integers below 9e15 as integers and everything
    // else at 17 significant digits; the reader takes short integers on
    // a fast path and the rest through from_chars. Either way a number
    // reads back as the double that was written.
    for (double d : {0.0, -3.0, 0.1, 1.0 / 3, -2.5e-7, 4.9406564584124654e-324,
                     1.7976931348623157e308, 999999999999999.0,
                     8999999999999999.0, 9007199254740993.0, 1e300}) {
        std::string text;
        formatNumber(text, d);
        EXPECT_EQ(Json::parse(text).asNumber(), d) << text;
    }
    std::string text;
    formatNumber(text, 4095);
    formatNumber(text, 0.25);
    formatNumber(text, 1e17);
    EXPECT_EQ(text, "40950.251e+17");
}

TEST(Json, NestingIsBounded)
{
    // The recursive parser had no bound: 60,000 nested arrays overflowed
    // its stack.
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(Json::parse(nested(JsonCursor::maxDepth)).size(), 1u);
    try {
        Json::parse(nested(100000));
        ADD_FAILURE() << "parsed";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find(": nesting deeper than 64 at offset 64"),
                  std::string::npos)
            << msg;
    }
}

TEST(Sha256, MatchesKnownVectors)
{
    // FIPS 180-4 / RFC 6234 test vectors.
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934c"
              "a495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9c"
              "b410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmn"
                        "lmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167"
              "f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    // Chunked absorption across block boundaries equals one update.
    std::string text;
    for (int i = 0; i < 500; ++i)
        text += static_cast<char>('a' + (i % 26));
    Sha256 ctx;
    for (size_t off = 0; off < text.size(); off += 7)
        ctx.update(text.substr(off, 7));
    EXPECT_EQ(ctx.hexDigest(), sha256Hex(text));
    EXPECT_NE(sha256Hex(text), sha256Hex(text + "x"));
}

TEST(Json, MissingKeyIsFatal)
{
    Json obj = Json::object();
    EXPECT_THROW(obj.get("nope"), FatalError);
    EXPECT_FALSE(obj.has("nope"));
}

TEST(StringUtil, SplitTrimJoin)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(trim("  x y \n"), "x y");
    EXPECT_EQ(join({"a", "b"}, "-"), "a-b");
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
}

TEST(StringUtil, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(ErrorHandling, FatalAndPanicThrow)
{
    EXPECT_THROW(fatal("bad user input %d", 1), FatalError);
    EXPECT_THROW(panic("bug %d", 2), PanicError);
}

TEST(TextTable, FormatsAligned)
{
    TextTable t("demo");
    t.setHeader({"a", "bbbb"});
    t.addRow({"xx", "1"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("bbbb"), std::string::npos);
    EXPECT_EQ(TextTable::pct(0.125), "12.5%");
    EXPECT_EQ(TextTable::num(1.5, 1), "1.5");
}

} // namespace
} // namespace bsyn
