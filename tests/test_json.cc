// Tests for the JSON writer and reader and the browsing-session exporter.
#include <gtest/gtest.h>

#include "util/json.h"
#include "web/corpus.h"
#include "web/experiment.h"

namespace mfhttp {
namespace {

TEST(JsonWriter, FlatObject) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("mf-http");
  w.key("count").value(42);
  w.key("ratio").value(0.5);
  w.key("ok").value(true);
  w.key("missing").null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"mf-http","count":42,"ratio":0.5,"ok":true,"missing":null})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("xs").begin_array().value(1).value(2).value(3).end_array();
  w.key("inner").begin_object().key("k").value("v").end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"xs":[1,2,3],"inner":{"k":"v"}})");
}

TEST(JsonWriter, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("a").begin_array().end_array();
  w.key("o").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":[],"o":{}})");
}

TEST(JsonWriter, StringEscaping) {
  JsonWriter w;
  w.begin_array();
  w.value("a\"b\\c\nd\te");
  w.value(std::string_view("ctl\x01", 4));
  w.end_array();
  EXPECT_EQ(w.str(), "[\"a\\\"b\\\\c\\nd\\te\",\"ctl\\u0001\"]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, TopLevelArrayOfObjects) {
  JsonWriter w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("i").value(i);
    w.end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(BrowsingSessionJson, ExportsWellFormedDocument) {
  Rng rng(3);
  WebPage page = generate_page(alexa25_specs()[13], DeviceProfile::nexus6(), rng);
  BrowsingSessionConfig cfg;
  cfg.fill_sample_ms = 500;
  cfg.session_ms = 5000;
  BrowsingSessionResult result = run_browsing_session(page, cfg);
  std::string json = result.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"initial_viewport_load_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"fill_timeline\":["), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  int braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(JsonReader, ScalarsAndTypes) {
  auto doc = parse_json(R"({"s": "hi", "n": -2.5, "i": 42, "t": true,
                            "f": false, "z": null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("s"), nullptr);
  EXPECT_EQ(doc->find("s")->string_value, "hi");
  EXPECT_DOUBLE_EQ(doc->find("n")->number_value, -2.5);
  EXPECT_DOUBLE_EQ(doc->find("i")->number_value, 42);
  EXPECT_TRUE(doc->find("t")->bool_value);
  EXPECT_FALSE(doc->find("f")->bool_value);
  EXPECT_TRUE(doc->find("z")->is_null());
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonReader, NestedContainersPreserveOrder) {
  auto doc = parse_json(R"({"a": [1, [2, 3], {"b": 4}], "c": {"d": [5]}})");
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->find("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  ASSERT_EQ(a->array_value.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_value[0].number_value, 1);
  EXPECT_DOUBLE_EQ(a->array_value[1].array_value[1].number_value, 3);
  EXPECT_DOUBLE_EQ(a->array_value[2].find("b")->number_value, 4);
  // Member order is preserved, not sorted.
  EXPECT_EQ(doc->object_value[0].first, "a");
  EXPECT_EQ(doc->object_value[1].first, "c");
}

TEST(JsonReader, StringEscapesAndUnicode) {
  auto doc = parse_json(R"(["\"\\\/\b\f\n\r\t", "Aé中"])");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->array_value[0].string_value, "\"\\/\b\f\n\r\t");
  EXPECT_EQ(doc->array_value[1].string_value, "A\xc3\xa9\xe4\xb8\xad");
}

TEST(JsonReader, NumberFormats) {
  auto doc = parse_json("[0, -0, 3.25, 1e3, 1.5E-2, -4e+2]");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->array_value[0].number_value, 0);
  EXPECT_DOUBLE_EQ(doc->array_value[2].number_value, 3.25);
  EXPECT_DOUBLE_EQ(doc->array_value[3].number_value, 1000);
  EXPECT_DOUBLE_EQ(doc->array_value[4].number_value, 0.015);
  EXPECT_DOUBLE_EQ(doc->array_value[5].number_value, -400);
}

TEST(JsonReader, TypedAccessorsFallBack) {
  auto doc = parse_json(R"({"n": 7, "s": "x"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->find("n")->number_or(-1), 7);
  EXPECT_DOUBLE_EQ(doc->find("s")->number_or(-1), -1);  // wrong type
  EXPECT_EQ(doc->find("s")->string_or("d"), "x");
  EXPECT_EQ(doc->find("n")->string_or("d"), "d");
  EXPECT_TRUE(doc->find("n")->bool_or(true));
  // find() on a non-object is nullptr, never a crash.
  EXPECT_EQ(doc->find("n")->find("nested"), nullptr);
}

TEST(JsonReader, WriterOutputRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("q\"uote\n");
  w.key("xs").begin_array().value(1).value(2.5).value(false).null().end_array();
  w.key("inner").begin_object().key("k").value(std::size_t{7}).end_object();
  w.end_object();
  auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("name")->string_value, "q\"uote\n");
  ASSERT_EQ(doc->find("xs")->array_value.size(), 4u);
  EXPECT_DOUBLE_EQ(doc->find("xs")->array_value[1].number_value, 2.5);
  EXPECT_FALSE(doc->find("xs")->array_value[2].bool_value);
  EXPECT_TRUE(doc->find("xs")->array_value[3].is_null());
  EXPECT_DOUBLE_EQ(doc->find("inner")->find("k")->number_value, 7);
}

TEST(JsonReader, WhitespaceAndEmptyContainers) {
  auto doc = parse_json(" \t\r\n { \"a\" : [ ] , \"b\" : { } } \n");
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->find("a")->is_array());
  EXPECT_TRUE(doc->find("a")->array_value.empty());
  EXPECT_TRUE(doc->find("b")->is_object());
  EXPECT_TRUE(doc->find("b")->object_value.empty());
}

// ---------- Parse-error positions (line/column diagnostics) ----------

TEST(JsonParseErrors, UnterminatedStringPointsAtItsLine) {
  JsonParseError error;
  auto doc = parse_json("{\n  \"name\": \"oops\n}", &error);
  EXPECT_FALSE(doc.has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_FALSE(error.message.empty());
  // to_string is the loader-facing form: "line L, column C: why".
  EXPECT_NE(error.to_string().find("line 2"), std::string::npos);
}

TEST(JsonParseErrors, TrailingGarbageReportsPositionPastTheDocument) {
  JsonParseError error;
  auto doc = parse_json("{\"a\": 1}\njunk", &error);
  EXPECT_FALSE(doc.has_value());
  EXPECT_EQ(error.line, 2u);
  EXPECT_EQ(error.column, 1u);
}

TEST(JsonParseErrors, BadEscapeNamesColumnOfTheEscape) {
  JsonParseError error;
  auto doc = parse_json(R"({"s": "a\qb"})", &error);
  EXPECT_FALSE(doc.has_value());
  EXPECT_EQ(error.line, 1u);
  EXPECT_GT(error.column, 7u);  // inside the string, past the opening quote
}

TEST(JsonParseErrors, ColumnsResetAcrossNewlines) {
  JsonParseError error;
  auto doc = parse_json("{\n  \"a\": 1,\n  \"b\": ?\n}", &error);
  EXPECT_FALSE(doc.has_value());
  EXPECT_EQ(error.line, 3u);
  EXPECT_EQ(error.column, 8u);  // the '?' under "b"
  EXPECT_EQ(error.offset, 19u);
}

TEST(JsonParseErrors, SuccessLeavesErrorUntouched) {
  JsonParseError error;
  error.message = "sentinel";
  auto doc = parse_json("[1, 2]", &error);
  EXPECT_TRUE(doc.has_value());
  EXPECT_EQ(error.message, "sentinel");
}

}  // namespace
}  // namespace mfhttp
