// Tests for the HTTP/1.1 substrate: headers, URLs, messages, the incremental
// parser (including byte-at-a-time feeds, chunked coding, pipelining and
// malformed input), and the object store.
#include <gtest/gtest.h>

#include "http/header_map.h"
#include "http/message.h"
#include "http/object_store.h"
#include "http/parser.h"
#include "http/url.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

// ---------- HeaderMap ----------

TEST(HeaderMap, CaseInsensitiveGet) {
  HeaderMap h;
  h.add("Content-Type", "text/html");
  EXPECT_EQ(h.get_view("content-type"), "text/html");
  EXPECT_EQ(h.get_view("CONTENT-TYPE"), "text/html");
  EXPECT_FALSE(h.get_view("content-length").has_value());
}

TEST(HeaderMap, DuplicatesPreserved) {
  HeaderMap h;
  h.add("Set-Cookie", "a=1");
  h.add("Set-Cookie", "b=2");
  auto all = h.get_all("set-cookie");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "a=1");
  EXPECT_EQ(all[1], "b=2");
  EXPECT_EQ(h.get_view("Set-Cookie"), "a=1");  // first wins
}

TEST(HeaderMap, SetReplacesAll) {
  HeaderMap h;
  h.add("X", "1");
  h.add("X", "2");
  h.set("x", "3");
  EXPECT_EQ(h.get_all("X").size(), 1u);
  EXPECT_EQ(h.get_view("X"), "3");
}

TEST(HeaderMap, RemoveCountsRemoved) {
  HeaderMap h;
  h.add("A", "1");
  h.add("a", "2");
  h.add("B", "3");
  EXPECT_EQ(h.remove("A"), 2u);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.remove("A"), 0u);
}

TEST(HeaderMap, ContentLengthParsing) {
  HeaderMap h;
  h.set("Content-Length", "12345");
  EXPECT_EQ(h.content_length(), 12345);
  h.set("Content-Length", " 99 ");
  EXPECT_EQ(h.content_length(), 99);
  h.set("Content-Length", "12a");
  EXPECT_FALSE(h.content_length().has_value());
  h.set("Content-Length", "-5");
  EXPECT_FALSE(h.content_length().has_value());
  h.set("Content-Length", "");
  EXPECT_FALSE(h.content_length().has_value());
}

// ---------- Url ----------

TEST(Url, ParseBasic) {
  auto u = parse_url("http://example.com/path/to/x?q=1");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->scheme, "http");
  EXPECT_EQ(u->host, "example.com");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/path/to/x");
  EXPECT_EQ(u->query, "q=1");
  EXPECT_EQ(u->path_and_query(), "/path/to/x?q=1");
}

TEST(Url, ParsePort) {
  auto u = parse_url("http://example.com:8080/x");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->to_string(), "http://example.com:8080/x");
}

TEST(Url, HttpsDefaultPort) {
  auto u = parse_url("https://secure.example");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->port, 443);
  EXPECT_EQ(u->path, "/");
}

TEST(Url, HostLowercased) {
  auto u = parse_url("http://EXAMPLE.Com/X");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "example.com");
  EXPECT_EQ(u->path, "/X");  // path case preserved
}

TEST(Url, RoundTripToString) {
  for (const char* s : {"http://a.example/x/y?z=1", "http://a.example/",
                        "http://a.example:81/p"}) {
    auto u = parse_url(s);
    ASSERT_TRUE(u.has_value()) << s;
    EXPECT_EQ(u->to_string(), s);
  }
}

TEST(Url, Malformed) {
  EXPECT_FALSE(parse_url("").has_value());
  EXPECT_FALSE(parse_url("example.com/x").has_value());
  EXPECT_FALSE(parse_url("ftp://example.com/").has_value());
  EXPECT_FALSE(parse_url("http://").has_value());
  EXPECT_FALSE(parse_url("http://host:99999/").has_value());
  EXPECT_FALSE(parse_url("http://host:abc/").has_value());
  EXPECT_FALSE(parse_url("http://host:/").has_value());
}

// ---------- Messages ----------

TEST(HttpRequest, GetFactorySetsHostAndTarget) {
  auto req = HttpRequest::get("http://site.example/img/1.jpg?v=2");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/img/1.jpg?v=2");
  EXPECT_EQ(req.headers.get_view("Host"), "site.example");
  auto url = req.url();
  ASSERT_TRUE(url.has_value());
  EXPECT_EQ(url->to_string(), "http://site.example/img/1.jpg?v=2");
}

TEST(HttpRequest, NonDefaultPortInHost) {
  auto req = HttpRequest::get("http://site.example:8081/x");
  EXPECT_EQ(req.headers.get_view("Host"), "site.example:8081");
  ASSERT_TRUE(req.url().has_value());
  EXPECT_EQ(req.url()->port, 8081);
}

TEST(HttpRequest, AssignGetRebuildsWhatGetBuilds) {
  // A reused request, dirty from an earlier use, rebuilt from each split.
  HttpRequest reused = HttpRequest::get("http://old.example/a/very/long/path?q=1");
  reused.method = "POST";
  reused.body = "payload";
  reused.set_session("s-1");
  reused.headers.set("X-Extra", "1");
  for (const char* text :
       {"http://site.example/img/1.jpg?v=2", "http://Site.Example/x", "http://h:8081/p",
        "https://secure.example/p", "HTTP://h/p?", "http://h", "http://h?q",
        "http://wikipedia.example/img/01.jpg"}) {
    const std::optional<UrlRef> ref = split_url(text);
    ASSERT_TRUE(ref.has_value()) << text;
    ASSERT_EQ(parse_url(text).has_value(), true) << text;
    reused.assign_get(*ref);
    const HttpRequest fresh = HttpRequest::get(text);
    EXPECT_EQ(reused.method, fresh.method) << text;
    EXPECT_EQ(reused.target, fresh.target) << text;
    EXPECT_EQ(reused.version, fresh.version) << text;
    EXPECT_EQ(reused.body, fresh.body) << text;
    EXPECT_TRUE(reused.headers == fresh.headers) << text;
  }
  EXPECT_FALSE(split_url("ftp://h/").has_value());
  EXPECT_FALSE(split_url("http://h:x/").has_value());
}

// ---------- canonical URL ----------

// The reference canonical_url() must reproduce: parse, then print.
void expect_canonical_matches_reference(const HttpRequest& req) {
  const CanonicalUrl got = req.canonical_url();
  const auto url = req.url();
  EXPECT_EQ(got.text, url ? url->to_string() : req.target)
      << "target=" << req.target
      << " host=" << req.headers.get_view("Host").value_or("<none>");
  ASSERT_LE(got.path_begin + got.path_size, got.text.size());
  EXPECT_EQ(got.path(), url ? url->path : req.target) << "target=" << req.target;
}

TEST(CanonicalUrl, OriginFormWithPlainHost) {
  HttpRequest req = HttpRequest::get("http://origin.example/obj/7?x=1");
  const CanonicalUrl c = req.canonical_url();
  EXPECT_EQ(c.text, "http://origin.example/obj/7?x=1");
  EXPECT_EQ(c.path(), "/obj/7");
}

TEST(CanonicalUrl, EmptyQueryLosesItsQuestionMark) {
  HttpRequest req;
  req.target = "/a?";
  req.headers.set("Host", "h.example");
  EXPECT_EQ(req.canonical_url().text, "http://h.example/a");
  expect_canonical_matches_reference(req);
}

TEST(CanonicalUrl, FallsBackToTargetWithoutUsableHost) {
  HttpRequest req;
  req.target = "/only/target?q";
  EXPECT_EQ(req.canonical_url().text, "/only/target?q");
  EXPECT_EQ(req.canonical_url().path(), "/only/target?q");
  req.headers.set("Host", "");
  EXPECT_EQ(req.canonical_url().text, "/only/target?q");
  req.headers.set("Host", "h:99999");  // port out of range: no URL
  EXPECT_EQ(req.canonical_url().text, "/only/target?q");
}

TEST(CanonicalUrl, MatchesParseAndToStringOverSeededCorpus) {
  static const char* const kHosts[] = {
      "origin.example", "a", "Origin.Example", "ORIGIN.EXAMPLE", "MiXeD-9.example",
      "h.example:80", "h.example:8080", "h.example:443", "H.example:08080",
      "h.example:", "h.example:x", "h.example:99999", ":80", "h:1:2", "a/b",
      "a?b", "h_x.example", "h example", "[::1]:8080", "xn--bcher-kva.example",
      "h.example.", "-", "0.0.0.0"};
  static const char* const kTargets[] = {
      "/", "/obj/1", "/obj/1?x=1", "/a?", "/?", "/a??", "/a?b?c", "/a#frag",
      "/a//b", "/a:b", "*", "", "foo", "?x", "//x", "http://h.example/p",
      "HTTP://h.example/p", "http://H.Example:80/p?q", "https://h.example/p",
      "https://h.example:443/p?", "https://h.example:8443", "http://h.example",
      "http://h.example?x", "http://", "http:///p", "http://h:/p",
      "http://h:65536/p", "ftp://h.example/p", "http://h.example:8080/a?b"};
  Rng rng(15);
  for (int iter = 0; iter < 4000; ++iter) {
    HttpRequest req;
    const int shape = static_cast<int>(rng.uniform_int(0, 3));
    if (shape == 3) {
      // Random bytes for both fields.
      for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 24)); i < n; ++i)
        req.target += static_cast<char>(rng.uniform_int(1, 255));
      std::string host;
      for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 12)); i < n; ++i)
        host += static_cast<char>(rng.uniform_int(32, 126));
      req.headers.set("Host", host);
    } else {
      req.target = kTargets[rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(kTargets)) - 1)];
      if (shape == 1 && !req.target.empty() && req.target[0] == '/')
        req.target += "/" + std::to_string(rng.uniform_int(0, 1'000'000));
      if (shape != 2)  // shape 2: no Host header
        req.headers.set("Host", kHosts[rng.uniform_int(
                                    0, static_cast<std::int64_t>(std::size(kHosts)) - 1)]);
    }
    expect_canonical_matches_reference(req);
    if (HasFailure()) return;  // one counterexample is enough
  }
}

TEST(HttpRequest, SerializeAddsContentLength) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/submit";
  req.headers.set("Host", "h");
  req.body = "hello";
  std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /submit HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nhello"), std::string::npos);
}

TEST(HttpResponse, MakeSetsReasonAndLength) {
  auto resp = HttpResponse::make(404, "", "gone");
  EXPECT_EQ(resp.reason, "Not Found");
  EXPECT_EQ(resp.headers.get_view("Content-Length"), "4");
  std::string wire = resp.serialize();
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
}

TEST(DefaultReason, CoversCommonCodes) {
  EXPECT_EQ(default_reason(200), "OK");
  EXPECT_EQ(default_reason(403), "Forbidden");
  EXPECT_EQ(default_reason(502), "Bad Gateway");
  EXPECT_EQ(default_reason(299), "Unknown");
}

// ---------- Parser: requests ----------

TEST(HttpParser, SimpleGetRequest) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed("GET /x HTTP/1.1\r\nHost: h\r\n\r\n"));
  ASSERT_TRUE(p.has_message());
  HttpRequest req = p.take_request();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/x");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.headers.get_view("Host"), "h");
  EXPECT_TRUE(req.body.empty());
}

TEST(HttpParser, RequestWithBody) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed("POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"));
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.take_request().body, "hello");
}

TEST(HttpParser, ByteAtATime) {
  HttpParser p(HttpParser::Mode::kRequest);
  std::string wire = "POST /s HTTP/1.1\r\nContent-Length: 5\r\nX-A: b\r\n\r\nhello";
  for (char c : wire) ASSERT_TRUE(p.feed(std::string_view(&c, 1)));
  ASSERT_TRUE(p.has_message());
  HttpRequest req = p.take_request();
  EXPECT_EQ(req.body, "hello");
  EXPECT_EQ(req.headers.get_view("X-A"), "b");
}

TEST(HttpParser, PipelinedRequests) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed("GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n"));
  EXPECT_EQ(p.message_count(), 2u);
  EXPECT_EQ(p.take_request().target, "/1");
  EXPECT_EQ(p.take_request().target, "/2");
}

TEST(HttpParser, ToleratesBareLf) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed("GET /x HTTP/1.1\nHost: h\n\n"));
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.take_request().headers.get_view("Host"), "h");
}

TEST(HttpParser, SkipsBlankLinesBetweenMessages) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed("\r\n\r\nGET /x HTTP/1.1\r\n\r\n"));
  EXPECT_TRUE(p.has_message());
}

TEST(HttpParser, MalformedRequestLine) {
  HttpParser p(HttpParser::Mode::kRequest);
  EXPECT_FALSE(p.feed("NONSENSE\r\n\r\n"));
  EXPECT_TRUE(p.has_error());
  // Further input ignored.
  EXPECT_FALSE(p.feed("GET /x HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(p.has_message());
}

TEST(HttpParser, MalformedHeader) {
  HttpParser p(HttpParser::Mode::kRequest);
  EXPECT_FALSE(p.feed("GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n"));
  EXPECT_TRUE(p.has_error());
}

TEST(HttpParser, HeaderWhitespaceTrimmed) {
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed("GET /x HTTP/1.1\r\nX-K:   padded value  \r\n\r\n"));
  EXPECT_EQ(p.take_request().headers.get_view("X-K"), "padded value");
}

// ---------- Parser: responses ----------

TEST(HttpParser, SimpleResponse) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc"));
  ASSERT_TRUE(p.has_message());
  HttpResponse resp = p.take_response();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.reason, "OK");
  EXPECT_EQ(resp.body, "abc");
}

TEST(HttpParser, MultiWordReason) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"));
  EXPECT_EQ(p.take_response().reason, "Not Found");
}

TEST(HttpParser, BodilessStatuses) {
  for (const char* line :
       {"HTTP/1.1 204 No Content\r\n\r\n", "HTTP/1.1 304 Not Modified\r\n\r\n",
        "HTTP/1.1 100 Continue\r\n\r\n"}) {
    HttpParser p(HttpParser::Mode::kResponse);
    ASSERT_TRUE(p.feed(line)) << line;
    ASSERT_TRUE(p.has_message()) << line;
    EXPECT_TRUE(p.take_response().body.empty());
  }
}

TEST(HttpParser, HeadResponseHasNoBody) {
  HttpParser p(HttpParser::Mode::kResponse);
  p.expect_head_response();
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n"));
  ASSERT_TRUE(p.has_message());
  EXPECT_TRUE(p.take_response().body.empty());
}

TEST(HttpParser, ReadUntilCloseBody) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\n\r\npartial body"));
  EXPECT_FALSE(p.has_message());  // body open until EOF
  ASSERT_TRUE(p.feed(" more"));
  p.finish();
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.take_response().body, "partial body more");
}

TEST(HttpParser, ChunkedBody) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(
      p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"));
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.take_response().body, "hello world");
}

TEST(HttpParser, ChunkedWithExtensionsAndHexSizes) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(
      p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             "A;ext=1\r\n0123456789\r\n0\r\n\r\n"));
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.take_response().body.size(), 10u);
}

TEST(HttpParser, ChunkedWithTrailers) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(
      p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             "3\r\nabc\r\n0\r\nX-Trailer: yes\r\n\r\n"));
  ASSERT_TRUE(p.has_message());
  HttpResponse resp = p.take_response();
  EXPECT_EQ(resp.body, "abc");
  EXPECT_EQ(resp.headers.get_view("X-Trailer"), "yes");
}

TEST(HttpParser, ChunkedByteAtATime) {
  HttpParser p(HttpParser::Mode::kResponse);
  std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nwxyz\r\n0\r\n\r\n";
  for (char c : wire) ASSERT_TRUE(p.feed(std::string_view(&c, 1)));
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.take_response().body, "wxyz");
}

TEST(HttpParser, BadChunkSize) {
  HttpParser p(HttpParser::Mode::kResponse);
  EXPECT_FALSE(
      p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"));
  EXPECT_TRUE(p.has_error());
}

TEST(HttpParser, MissingCrlfAfterChunk) {
  HttpParser p(HttpParser::Mode::kResponse);
  EXPECT_FALSE(
      p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
             "3\r\nabcX\r\n"));
  EXPECT_TRUE(p.has_error());
}

TEST(HttpParser, TruncatedBodyOnFinishIsError) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc"));
  p.finish();
  EXPECT_TRUE(p.has_error());
}

TEST(HttpParser, CleanFinishAtMessageBoundary) {
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.feed("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"));
  p.finish();
  EXPECT_FALSE(p.has_error());
}

TEST(HttpParser, BadStatusCode) {
  HttpParser p(HttpParser::Mode::kResponse);
  EXPECT_FALSE(p.feed("HTTP/1.1 20x OK\r\n\r\n"));
  EXPECT_TRUE(p.has_error());
}

TEST(HttpParser, SerializeParseRoundTrip) {
  HttpRequest req = HttpRequest::get("http://h.example/a/b?c=d");
  req.headers.add("Accept", "image/*");
  HttpParser p(HttpParser::Mode::kRequest);
  ASSERT_TRUE(p.feed(req.serialize()));
  ASSERT_TRUE(p.has_message());
  HttpRequest back = p.take_request();
  EXPECT_EQ(back.method, req.method);
  EXPECT_EQ(back.target, req.target);
  EXPECT_EQ(back.headers.get_view("Host"), req.headers.get_view("Host"));
  EXPECT_EQ(back.headers.get_view("Accept"), "image/*");
}

TEST(HttpParser, ResponseSerializeParseRoundTrip) {
  HttpResponse resp = HttpResponse::make(200, "OK", "payload", "text/plain");
  HttpParser p(HttpParser::Mode::kResponse);
  ASSERT_TRUE(p.feed(resp.serialize()));
  ASSERT_TRUE(p.has_message());
  HttpResponse back = p.take_response();
  EXPECT_EQ(back.status, 200);
  EXPECT_EQ(back.body, "payload");
  EXPECT_EQ(back.headers.get_view("Content-Type"), "text/plain");
}

// ---------- ObjectStore ----------

TEST(ObjectStore, PutAndFind) {
  ObjectStore store;
  store.put("/img/1.jpg", 1234, "image/jpeg");
  const StoredObject* obj = store.find("/img/1.jpg");
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->wire_size(), 1234);
  EXPECT_EQ(obj->content_type, "image/jpeg");
  EXPECT_EQ(store.find("/missing"), nullptr);
}

TEST(ObjectStore, BodyWinsOverSize) {
  ObjectStore store;
  store.put_body("/x", "hello world");
  EXPECT_EQ(store.find("/x")->wire_size(), 11);
}

TEST(ObjectStore, ReplaceExisting) {
  ObjectStore store;
  store.put("/x", 10);
  store.put("/x", 20);
  EXPECT_EQ(store.find("/x")->wire_size(), 20);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStore, TotalBytes) {
  ObjectStore store;
  store.put("/a", 10);
  store.put("/b", 30);
  store.put_body("/c", "xyz");
  EXPECT_EQ(store.total_bytes(), 43);
}

}  // namespace
}  // namespace mfhttp
