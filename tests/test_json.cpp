// util::JsonWriter ⇄ util::parse_json round-trip sanity: the product JSON
// reader (src/util/json_parse.hpp, added for serve request scripts)
// re-reads everything the writer emits, so escaping, separators, nesting,
// number formatting, and the non-finite→null degradation are all checked
// end to end — against the parser the serving layer actually ships.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace surro::util {
namespace {

JsonValue parse(const std::string& text) { return parse_json(text); }

// ------------------------------------------------------------------- tests --

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumber, RoundTripsExactly) {
  for (const double v : {0.0, -1.5, 3.141592653589793, 1e-300, 6.02e23,
                         0.1 + 0.2}) {
    const double back = std::stod(json_number(v));
    EXPECT_EQ(back, v) << json_number(v);
  }
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
  EXPECT_EQ(json_number(-INFINITY), "null");
}

TEST(JsonWriter, NonFiniteKvDegradesToNullAndRoundTrips) {
  // Latency percentiles are legitimately ±inf on an empty window; the
  // artifact must still be valid JSON with null in those slots.
  JsonWriter w;
  w.begin_object();
  w.kv("p50", INFINITY);
  w.kv("p95", -INFINITY);
  w.kv("nan", std::nan(""));
  w.kv("finite", 12.5);
  w.end_object();
  const auto doc = parse(w.str());
  EXPECT_TRUE(doc.at("p50").is_null());
  EXPECT_TRUE(doc.at("p95").is_null());
  EXPECT_TRUE(doc.at("nan").is_null());
  EXPECT_EQ(doc.at("finite").as_number(), 12.5);
}

TEST(JsonParse, ScalarsAndStructure) {
  EXPECT_EQ(parse("42").as_number(), 42.0);
  EXPECT_EQ(parse("-1.25e2").as_number(), -125.0);
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("\"a\\u0041b\"").as_string(), "aAb");
  const auto doc = parse("  {\"k\": [1, {\"n\": null}]}  ");
  ASSERT_EQ(doc.at("k").array.size(), 2u);
  EXPECT_EQ(doc.at("k").array[0].as_number(), 1.0);
  EXPECT_TRUE(doc.at("k").array[1].at("n").is_null());
  EXPECT_TRUE(doc.has("k"));
  EXPECT_FALSE(doc.has("missing"));
  EXPECT_EQ(doc.number_or("absent", 7.0), 7.0);
  EXPECT_EQ(doc.string_or("absent", "dflt"), "dflt");
}

TEST(JsonParse, UnicodeEscapesIncludingSurrogatePairs) {
  EXPECT_EQ(parse("\"\\u00e9\"").as_string(), "\xC3\xA9");        // é
  EXPECT_EQ(parse("\"\\u20ac\"").as_string(), "\xE2\x82\xAC");    // €
  EXPECT_EQ(parse("\"\\ud83d\\ude00\"").as_string(),
            "\xF0\x9F\x98\x80");                                  // 😀
  for (const char* bad : {"\"\\ud83d\"", "\"\\ud83d\\u0041\"",
                          "\"\\udc00\"", "\"\\ud83dx\""}) {
    EXPECT_THROW(static_cast<void>(parse(bad)), std::runtime_error) << bad;
  }
}

TEST(JsonParse, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "nul", "tru", "1 2",
        "{\"a\":1,}", "\"unterminated", "{1: 2}", "--3", "1e"}) {
    EXPECT_THROW(static_cast<void>(parse(bad)), std::runtime_error) << bad;
  }
}

TEST(JsonParse, DeepNestingFailsParseInsteadOfOverflowingTheStack) {
  // A hostile --script input can nest arbitrarily deep; the recursive-
  // descent parser must reject it as a parse error, never crash. 10k
  // levels would blow the stack without the depth cap.
  for (const std::size_t depth : {std::size_t{10'000}, std::size_t{129}}) {
    std::string deep;
    deep.reserve(2 * depth);
    deep.append(depth, '[');
    deep.append(depth, ']');
    EXPECT_THROW(static_cast<void>(parse(deep)), std::runtime_error)
        << "depth " << depth;
    // Mixed object/array nesting hits the same cap.
    std::string mixed;
    for (std::size_t i = 0; i < depth; ++i) mixed += "{\"k\":[";
    mixed += "1";
    for (std::size_t i = 0; i < depth; ++i) mixed += "]}";
    EXPECT_THROW(static_cast<void>(parse(mixed)), std::runtime_error)
        << "depth " << depth;
  }
  // At the cap itself the document still parses (the limit is generous,
  // not load-bearing for real scripts).
  std::string ok;
  ok.append(128, '[');
  ok.append(128, ']');
  const auto doc = parse(ok);
  EXPECT_EQ(doc.kind, JsonValue::Kind::kArray);
}

TEST(JsonParse, EveryControlCharacterRoundTripsThroughWriterEscapes) {
  // The writer escapes the full C0 range as \u00XX (or the short \n-style
  // forms); the parser must rebuild the exact byte for all 32 of them —
  // this is what lets categorical labels with embedded control bytes
  // survive the HTTP wire format losslessly.
  for (int c = 0; c < 0x20; ++c) {
    const std::string original(1, static_cast<char>(c));
    JsonWriter w;
    w.begin_object();
    w.kv("s", original);
    w.end_object();
    const auto doc = parse(w.str());
    EXPECT_EQ(doc.at("s").as_string(), original) << "control char " << c;
  }
  // And a raw (unescaped) control character is rejected as malformed.
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\t' || c == '\n' || c == '\r') continue;  // ws outside strings
    const std::string raw = std::string("\"a") +
                            static_cast<char>(c) + "b\"";
    EXPECT_THROW(static_cast<void>(parse(raw)), JsonParseError)
        << "raw control char " << c;
  }
  EXPECT_THROW(static_cast<void>(parse("\"a\nb\"")), JsonParseError);
}

TEST(JsonParse, ByteCapRefusesOversizedDocuments) {
  JsonLimits limits;
  limits.max_bytes = 16;
  EXPECT_EQ(parse_json("[1,2,3]", limits).array.size(), 3u);
  const std::string big = "[" + std::string(64, ' ') + "1]";
  try {
    static_cast<void>(parse_json(big, limits));
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 0u);  // refused before parsing, not mid-way
    EXPECT_NE(std::string(e.what()).find("16-byte limit"),
              std::string::npos);
  }
  // max_bytes = 0 stays unlimited (trusted local input).
  EXPECT_EQ(parse_json(big, JsonLimits{}).array.size(), 1u);
}

TEST(JsonParse, ParseErrorCarriesTheFailureOffset) {
  try {
    static_cast<void>(parse("{\"ok\": 1, \"bad\": tru}"));
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 17u);  // where the bad literal starts
  }
}

TEST(JsonParse, ValidUtf8PassesThroughByteForByte) {
  for (const std::string& s :
       {std::string("caf\xC3\xA9"),                      // 2-byte é
        std::string("\xE2\x82\xAC" "1.50"),              // 3-byte €
        std::string("\xF0\x9F\x98\x80"),                 // 4-byte emoji
        std::string("\xEF\xBF\xBD"),                     // U+FFFD
        std::string("\xF4\x8F\xBF\xBF")}) {              // U+10FFFF
    const auto doc = parse("\"" + s + "\"");
    EXPECT_EQ(doc.as_string(), s);
  }
}

TEST(JsonParse, InvalidUtf8IsRejectedWithATypedError) {
  const std::vector<std::string> bad = {
      "\x80",              // stray continuation byte
      "\xC0\xAF",          // overlong 2-byte encoding of '/'
      "\xC1\xBF",          // overlong 2-byte
      "\xE0\x9F\xBF",      // overlong 3-byte (below U+0800)
      "\xED\xA0\x80",      // UTF-16 high surrogate as raw bytes
      "\xED\xBF\xBF",      // UTF-16 low surrogate as raw bytes
      "\xF0\x8F\xBF\xBF",  // overlong 4-byte (below U+10000)
      "\xF4\x90\x80\x80",  // past U+10FFFF
      "\xF5\x80\x80\x80",  // 0xF5 is never a valid lead byte
      "\xFF",              // ditto 0xFF
      "\xC3",              // truncated 2-byte sequence
      "\xE2\x82",          // truncated 3-byte sequence
      "\xC3\x28",          // continuation byte replaced by ASCII
  };
  for (const auto& s : bad) {
    const std::string doc = "\"a" + s + "b\"";
    EXPECT_THROW(static_cast<void>(parse(doc)), JsonParseError)
        << "bytes:" << [&] {
             std::string hex;
             for (const unsigned char c : s) {
               char buf[8];
               std::snprintf(buf, sizeof buf, " %02X", c);
               hex += buf;
             }
             return hex;
           }();
  }
}

TEST(JsonParse, KindMismatchThrows) {
  const auto doc = parse("{\"s\": \"x\", \"n\": 3}");
  EXPECT_THROW(static_cast<void>(doc.at("s").as_number()),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(doc.at("n").as_string()),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(doc.at("n").as_bool()), std::runtime_error);
  EXPECT_THROW(static_cast<void>(doc.at("nope")), std::runtime_error);
  EXPECT_THROW(static_cast<void>(parse("[1]").at("k")), std::runtime_error);
}

TEST(JsonReader, PullWalkReadsScalarsContainersAndSubtrees) {
  JsonReader r(R"( {"rows": [[1.5, "a\"b", null], [-2e3, "café", true]],
                   "meta": {"k": [1, 2]}} )");
  r.begin_object();
  std::string key;
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "rows");
  r.begin_array();
  std::vector<double> numbers;
  std::vector<std::string> labels;
  std::string label = "stale";  // string() clears the caller's buffer
  while (r.next_element()) {
    r.begin_array();
    ASSERT_TRUE(r.next_element());
    EXPECT_EQ(r.peek(), JsonValue::Kind::kNumber);
    numbers.push_back(r.number());
    ASSERT_TRUE(r.next_element());
    r.string(label);
    labels.push_back(label);
    ASSERT_TRUE(r.next_element());
    if (r.peek() == JsonValue::Kind::kNull) {
      r.null();
    } else {
      EXPECT_TRUE(r.boolean());
    }
    EXPECT_FALSE(r.next_element());
  }
  EXPECT_EQ(numbers, (std::vector<double>{1.5, -2000.0}));
  EXPECT_EQ(labels, (std::vector<std::string>{"a\"b", "caf\xC3\xA9"}));
  ASSERT_TRUE(r.next_key(key));
  EXPECT_EQ(key, "meta");
  const JsonValue meta = r.read_value();
  EXPECT_EQ(meta.at("k").array[1].as_number(), 2.0);
  EXPECT_FALSE(r.next_key(key));
  r.finish();
}

TEST(JsonReader, PullModeKeepsTheDomStrictness) {
  {  // A missing separator names the expected bytes and where.
    JsonReader r("[1 2]");
    r.begin_array();
    ASSERT_TRUE(r.next_element());
    EXPECT_EQ(r.number(), 1.0);
    try {
      static_cast<void>(r.next_element());
      FAIL() << "expected JsonParseError";
    } catch (const JsonParseError& e) {
      EXPECT_EQ(e.offset(), 3u);
    }
  }
  {  // The depth cap holds for hand-walked containers too.
    JsonLimits limits;
    limits.max_depth = 2;
    JsonReader r("[[[1]]]", limits);
    r.begin_array();
    ASSERT_TRUE(r.next_element());
    r.begin_array();
    ASSERT_TRUE(r.next_element());
    EXPECT_THROW(r.begin_array(), JsonParseError);
  }
  {  // The byte cap is judged in the constructor, before any read.
    JsonLimits limits;
    limits.max_bytes = 4;
    EXPECT_THROW(JsonReader("[1, 2]", limits), JsonParseError);
  }
  {  // Kind-specific reads refuse other kinds; finish() refuses trailers.
    JsonReader r("\"text\"");
    EXPECT_THROW(static_cast<void>(r.number()), JsonParseError);
    JsonReader n("12 13");
    EXPECT_EQ(n.number(), 12.0);
    EXPECT_THROW(n.finish(), JsonParseError);
    JsonReader bad_utf8("\"a\xC3\x28\"");
    std::string out;
    EXPECT_THROW(bad_utf8.string(out), JsonParseError);
  }
}

TEST(JsonWriter, TakeMovesTheDocumentOut) {
  JsonWriter w;
  w.reserve(64);
  w.begin_array().value(1).value(-2.5).value("a\"b").end_array();
  EXPECT_EQ(w.take(), "[1,-2.5,\"a\\\"b\"]");
}

TEST(JsonWriter, NestedDocumentRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "scenario \"quoted\"\n");
  w.kv("count", 42);
  w.kv("ratio", 0.375);
  w.kv("ok", true);
  w.key("missing").null();
  w.key("list").begin_array();
  w.value(1).value(2.5).value("three");
  w.begin_object().kv("nested", -7).end_object();
  w.end_array();
  w.key("empty_obj").begin_object().end_object();
  w.key("empty_arr").begin_array().end_array();
  w.end_object();

  const auto doc = parse(w.str());
  EXPECT_EQ(doc.at("name").string, "scenario \"quoted\"\n");
  EXPECT_EQ(doc.at("count").number, 42.0);
  EXPECT_EQ(doc.at("ratio").number, 0.375);
  EXPECT_TRUE(doc.at("ok").boolean);
  EXPECT_EQ(doc.at("missing").kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.at("list").array.size(), 4u);
  EXPECT_EQ(doc.at("list").array[1].number, 2.5);
  EXPECT_EQ(doc.at("list").array[3].at("nested").number, -7.0);
  EXPECT_TRUE(doc.at("empty_obj").object.empty());
  EXPECT_TRUE(doc.at("empty_arr").array.empty());
}

TEST(JsonWriter, RawSplicesDocuments) {
  JsonWriter inner;
  inner.begin_object().kv("a", 1).end_object();
  JsonWriter outer;
  outer.begin_object();
  outer.kv("first", 0);
  outer.key("inner").raw(inner.str());
  outer.kv("last", 2);
  outer.end_object();
  const auto doc = parse(outer.str());
  EXPECT_EQ(doc.at("inner").at("a").number, 1.0);
  EXPECT_EQ(doc.at("last").number, 2.0);
}

TEST(ScoresJson, RoundTripsThroughParser) {
  std::vector<metrics::ModelScore> scores = {
      {"TVAE", 0.25, 0.1, 0.05, 1.5, -0.25},
      {"SMOTE", 0.004, 0.001, 0.03, 0.32, 0.08},
  };
  const auto doc = parse(metrics::scores_to_json(scores));
  ASSERT_EQ(doc.array.size(), 2u);
  EXPECT_EQ(doc.array[0].at("model").string, "TVAE");
  EXPECT_EQ(doc.array[0].at("wd").number, 0.25);
  EXPECT_EQ(doc.array[1].at("dcr").number, 0.32);
  EXPECT_EQ(doc.array[1].at("diff_mlef").number, 0.08);
}

}  // namespace
}  // namespace surro::util
