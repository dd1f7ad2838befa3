// Randomized robustness suites: the HTTP parser against generated valid
// traffic (round-trip at arbitrary split points) and against garbage; the
// same corpora pushed through a real aio socket pair into the loopback HTTP
// server; the URL canonicaliser and the JSON parser against malformed input.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>

#include "http/message.h"
#include "http/parser.h"
#include "http/url.h"
#include "net/aio/event_loop.h"
#include "net/aio/http_server.h"
#include "net/aio/syscall.h"
#include "net/aio/tcp.h"
#include "util/json.h"
#include "util/rng.h"

namespace mfhttp {
namespace {

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_token(Rng& rng, std::size_t max_len) {
  static const char kChars[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(max_len)));
  std::string out;
  for (std::size_t i = 0; i < len; ++i)
    out += kChars[rng.uniform_int(0, sizeof(kChars) - 2)];
  return out;
}

// Well-known names that do not frame the message, so any of them may ride
// any request.
constexpr HeaderId kFreeHeaders[] = {
    HeaderId::kAccept,         HeaderId::kAcceptEncoding, HeaderId::kCacheControl,
    HeaderId::kIfNoneMatch,    HeaderId::kRange,          HeaderId::kReferer,
    HeaderId::kUserAgent,      HeaderId::kXMfhttpPriority,
    HeaderId::kXMfhttpSession,
};

// `name` with each letter's case drawn at random.
std::string random_case(Rng& rng, std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (!rng.chance(0.5)) continue;
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    else if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

HttpRequest random_request(Rng& rng) {
  HttpRequest req;
  req.method = rng.chance(0.8) ? "GET" : "POST";
  req.target = "/" + random_token(rng, 30);
  req.headers.set("Host", random_token(rng, 12) + ".example");
  int extra = static_cast<int>(rng.uniform_int(0, 5));
  for (int i = 0; i < extra; ++i)
    req.headers.add("X-" + random_token(rng, 8), random_token(rng, 24));
  int known = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < known; ++i) {
    const HeaderId id = kFreeHeaders[rng.uniform_int(
        0, static_cast<std::int64_t>(std::size(kFreeHeaders)) - 1)];
    req.headers.add(random_case(rng, header_name(id)), random_token(rng, 24));
  }
  if (req.method == "POST") {
    std::size_t body_len = static_cast<std::size_t>(rng.uniform_int(0, 2000));
    req.body.assign(body_len, 'b');
  }
  return req;
}

// The canonicaliser against its definition, on whatever the parser yields.
void expect_canonical_matches_reference(const HttpRequest& req) {
  const CanonicalUrl got = req.canonical_url();
  const auto url = req.url();
  EXPECT_EQ(got.text, url ? url->to_string() : req.target);
  EXPECT_EQ(got.path(), url ? url->path : req.target);
}

HttpResponse random_response(Rng& rng) {
  static const int kCodes[] = {200, 201, 301, 400, 403, 404, 500};
  HttpResponse resp = HttpResponse::make(
      kCodes[rng.uniform_int(0, 6)], "",
      std::string(static_cast<std::size_t>(rng.uniform_int(0, 3000)), 'x'));
  int extra = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < extra; ++i)
    resp.headers.add("X-" + random_token(rng, 8), random_token(rng, 24));
  return resp;
}

TEST_P(ParserFuzz, RequestsRoundTripAtRandomSplits) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    int count = static_cast<int>(rng.uniform_int(1, 5));
    std::vector<HttpRequest> sent;
    std::string wire;
    for (int i = 0; i < count; ++i) {
      sent.push_back(random_request(rng));
      wire += sent.back().serialize();
    }
    HttpParser parser(HttpParser::Mode::kRequest);
    std::size_t pos = 0;
    while (pos < wire.size()) {
      std::size_t chunk = static_cast<std::size_t>(rng.uniform_int(1, 97));
      chunk = std::min(chunk, wire.size() - pos);
      ASSERT_TRUE(parser.feed(std::string_view(wire).substr(pos, chunk)))
          << parser.error();
      pos += chunk;
    }
    ASSERT_EQ(parser.message_count(), sent.size());
    for (const HttpRequest& expected : sent) {
      HttpRequest got = parser.take_request();
      EXPECT_EQ(got.method, expected.method);
      EXPECT_EQ(got.target, expected.target);
      EXPECT_EQ(got.body, expected.body);
      EXPECT_EQ(got.headers.get_view("Host"), expected.headers.get_view("Host"));
      // Mixed-case well-known names: found by id and by any spelling, with
      // the sender's spelling kept (serialize() may append a Content-Length).
      ASSERT_GE(got.headers.size(), expected.headers.size());
      for (std::size_t h = 0; h < expected.headers.size(); ++h) {
        EXPECT_EQ(got.headers.entry(h).name(), expected.headers.entry(h).name());
        EXPECT_EQ(got.headers.entry(h).id(), expected.headers.entry(h).id());
      }
      for (HeaderId id : kFreeHeaders) {
        EXPECT_EQ(got.headers.get_view(id), expected.headers.get_view(id));
        EXPECT_EQ(got.headers.get_view(id),
                  got.headers.get_view(random_case(rng, header_name(id))));
      }
      expect_canonical_matches_reference(got);
    }
  }
}

TEST_P(ParserFuzz, ResponsesRoundTripAtRandomSplits) {
  Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 50; ++iter) {
    HttpResponse sent = random_response(rng);
    std::string wire = sent.serialize();
    HttpParser parser(HttpParser::Mode::kResponse);
    std::size_t pos = 0;
    while (pos < wire.size()) {
      std::size_t chunk = static_cast<std::size_t>(rng.uniform_int(1, 61));
      chunk = std::min(chunk, wire.size() - pos);
      ASSERT_TRUE(parser.feed(std::string_view(wire).substr(pos, chunk)));
      pos += chunk;
    }
    ASSERT_TRUE(parser.has_message());
    HttpResponse got = parser.take_response();
    EXPECT_EQ(got.status, sent.status);
    EXPECT_EQ(got.body, sent.body);
  }
}

TEST_P(ParserFuzz, GarbageNeverCrashesAndNeverFabricatesMessages) {
  Rng rng(GetParam() + 2000);
  for (int iter = 0; iter < 100; ++iter) {
    std::string garbage;
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 600));
    for (std::size_t i = 0; i < len; ++i)
      garbage += static_cast<char>(rng.uniform_int(0, 255));
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(garbage);  // must not crash; error state is fine
    parser.finish();
    // If a message was produced, the start line must genuinely have been
    // parseable — spot-check its invariants.
    while (parser.has_message()) {
      HttpRequest req = parser.take_request();
      EXPECT_FALSE(req.method.empty());
      EXPECT_FALSE(req.target.empty());
      expect_canonical_matches_reference(req);
    }
  }
}

TEST_P(ParserFuzz, MutatedValidTrafficNeverCrashes) {
  Rng rng(GetParam() + 3000);
  for (int iter = 0; iter < 100; ++iter) {
    std::string wire = random_request(rng).serialize();
    // Flip a few random bytes.
    int flips = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < flips; ++i) {
      std::size_t at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      wire[at] = static_cast<char>(rng.uniform_int(0, 255));
    }
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(wire);
    parser.finish();  // no crash is the assertion
    while (parser.has_message())
      expect_canonical_matches_reference(parser.take_request());
  }
}

TEST_P(ParserFuzz, CanonicalUrlMatchesReferenceOnMutatedStartLines) {
  // Mutations aimed at the two fields the canonicaliser reads: the target
  // and the Host value, so the parser hands over odd URLs, not just errors.
  Rng rng(GetParam() + 4000);
  static const char kUrlChars[] = "/?:.@#%-_aAzZ09 hHtTpPsS";
  for (int iter = 0; iter < 200; ++iter) {
    HttpRequest req = random_request(rng);
    if (rng.chance(0.3))
      req.target = (rng.chance(0.5) ? "http://" : "https://") +
                   random_token(rng, 10) + req.target;
    std::string host(req.headers.get_view("Host").value_or(""));
    for (std::string* field : {&req.target, &host}) {
      const int edits = static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < edits && !field->empty(); ++i) {
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(field->size()) - 1));
        (*field)[at] = kUrlChars[rng.uniform_int(0, sizeof(kUrlChars) - 2)];
      }
    }
    req.headers.set("Host", host);
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(req.serialize());
    parser.finish();
    while (parser.has_message())
      expect_canonical_matches_reference(parser.take_request());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1u, 2u, 3u));

// ---------- malformed-URL corpus ----------

TEST(UrlFuzz, MalformedCorpusNeverCrashesAndReturnsNullopt) {
  // Hand-picked pathological inputs: every one must come back nullopt (or a
  // well-formed Url for the borderline cases) without crashing under ASan.
  const char* corpus[] = {
      "",
      ":",
      "://",
      "http://",
      "http:///path-no-host",
      "://missing.scheme/x",
      "http//missing.colon/x",
      "http://host:notaport/x",
      "http://host:999999999999999999/x",
      "http://host:-80/x",
      "ht!tp://bad.scheme/x",
      "http://exa mple.com/space",
      "http://host/%zz",
      "http://[::1",
      "http://host?query-no-path",
      "http://host:80:80/x",
      "\x01\x02\x03garbage",
      "http://\xff\xfe/x",
  };
  for (const char* input : corpus) {
    auto url = parse_url(input);
    if (url) {
      // Borderline inputs that do parse must at least have a host.
      EXPECT_FALSE(url->host.empty()) << "input: " << input;
    }
  }
  // Known-bad shapes that must definitely be rejected.
  EXPECT_FALSE(parse_url("").has_value());
  EXPECT_FALSE(parse_url("http://").has_value());
  EXPECT_FALSE(parse_url("http://host:notaport/x").has_value());
}

class UrlFuzzSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UrlFuzzSeeded, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 120));
    std::string input;
    for (std::size_t i = 0; i < len; ++i)
      input += static_cast<char>(rng.uniform_int(1, 255));
    auto url = parse_url(input);  // must not crash or hang
    if (url) {
      EXPECT_FALSE(url->scheme.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrlFuzzSeeded, ::testing::Values(7u, 8u, 9u));

// ---------- truncated-HTTP corpus ----------

TEST_P(ParserFuzz, TruncatedMessagesFailCleanlyAndFabricateNothing) {
  Rng rng(GetParam() ^ 0xdead);
  for (int round = 0; round < 60; ++round) {
    HttpRequest req = random_request(rng);
    std::string wire = req.serialize();
    // Cut strictly inside the message.
    std::size_t cut = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(wire.size() - 1)));
    HttpParser parser(HttpParser::Mode::kRequest);
    parser.feed(std::string_view(wire).substr(0, cut));
    // A prefix alone may legitimately complete a message only if the cut
    // landed after a full body; otherwise nothing may surface yet.
    std::size_t before_finish = parser.message_count();
    parser.finish();
    if (before_finish == 0) {
      // The truncated remainder must become an error, never a message.
      EXPECT_TRUE(parser.has_error()) << "cut at " << cut << " of " << wire.size();
      EXPECT_EQ(parser.message_count(), 0u);
    }
    // Post-error input is ignored, not resurrected.
    if (parser.has_error()) {
      EXPECT_FALSE(parser.feed(wire));
      EXPECT_EQ(parser.message_count(), before_finish);
    }
  }
}

TEST(ParserFuzz2, TruncatedChunkedResponseErrorsOnFinish) {
  // Chunked body cut inside a chunk: finish() must flag the truncation.
  std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "10\r\n"
      "0123";  // chunk promises 16 bytes, stream dies after 4
  HttpParser parser(HttpParser::Mode::kResponse);
  EXPECT_TRUE(parser.feed(wire));
  EXPECT_FALSE(parser.has_message());
  parser.finish();
  EXPECT_TRUE(parser.has_error());
  EXPECT_EQ(parser.message_count(), 0u);
}

// ---------- header-cap corpus (ISSUE 8) ----------

TEST_P(ParserFuzz, OversizedHeadersTrip431NeverCrash) {
  Rng rng(GetParam() ^ 0xcafe);
  HttpParser::Limits limits;
  limits.max_header_bytes = 512;
  limits.max_header_count = 12;
  for (int round = 0; round < 60; ++round) {
    HttpRequest req = random_request(rng);
    // Randomly pile on header bytes or header count around the caps.
    if (rng.chance(0.5)) {
      req.headers.add("X-Bulk", std::string(static_cast<std::size_t>(
                                                rng.uniform_int(1, 2000)),
                                            'h'));
    } else {
      int count = static_cast<int>(rng.uniform_int(1, 30));
      for (int i = 0; i < count; ++i)
        req.headers.add("X-N" + std::to_string(i), "v");
    }
    HttpParser parser(HttpParser::Mode::kRequest, limits);
    parser.feed(req.serialize());
    parser.finish();
    if (parser.has_error()) {
      // The only errors valid traffic can produce here are cap breaches,
      // and they must be labelled as such (431, not 400).
      EXPECT_TRUE(parser.limit_violation()) << parser.error();
      EXPECT_EQ(parser.message_count(), 0u);
    } else {
      ASSERT_TRUE(parser.has_message());
      EXPECT_FALSE(parser.limit_violation());
    }
  }
}

TEST(ParserFuzz2, GarbageErrorsAreNotLimitViolations) {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed("\x7f\x03 not http\r\n\r\n");
  parser.finish();
  ASSERT_TRUE(parser.has_error());
  EXPECT_FALSE(parser.limit_violation());  // malformed is 400, not 431
}

// ---------- corpora through a real socket pair (ISSUE 8) ----------

// The same three corpus families — truncated, garbage, oversized-header —
// but delivered through the kernel into the aio HTTP server, interleaved
// with valid requests, so framing survives real chunking and the server's
// 400/431/deadline taxonomy engages end to end.
class SocketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SocketFuzz, CorporaThroughARealSocketPair) {
  Rng rng(GetParam() ^ 0xf00d);
  aio::EventLoop loop;
  aio::HttpServerParams params;
  params.limits.max_header_bytes = 1024;
  params.limits.max_header_count = 16;
  params.request_deadline_ms = 50;
  params.conn.idle_timeout_ms = 100;
  aio::HttpServer server(
      loop, 0, [](const HttpRequest&) {
        return HttpResponse::make(200, "OK", "ok", "text/plain");
      },
      params);

  std::size_t valid = 0, oversized = 0;
  for (int round = 0; round < 16; ++round) {
    int fd = aio::connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    auto conn = std::make_unique<aio::TcpConn>(loop, fd, aio::TcpConnParams{},
                                               static_cast<std::uint64_t>(round),
                                               nullptr, /*await_connect=*/true);
    std::string received;
    bool closed = false;
    conn->set_on_data([&] {
      std::string_view chunk = conn->in().peek();
      received.append(chunk);
      conn->in().consume(chunk.size());
      conn->resume_read();
    });
    conn->set_on_closed([&](aio::TcpConn::CloseReason) { closed = true; });

    const int kind = round % 4;
    std::string wire;
    if (kind == 0) {  // valid
      wire = "GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
      ++valid;
    } else if (kind == 1) {  // truncated mid-message, then FIN
      wire = random_request(rng).serialize();
      wire.resize(static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(wire.size()) - 1)));
    } else if (kind == 2) {  // garbage
      std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 200));
      for (std::size_t i = 0; i < len; ++i)
        wire += static_cast<char>(rng.uniform_int(1, 255));
      wire += "\r\n\r\n";
    } else {  // oversized headers
      wire = "GET /x HTTP/1.1\r\nHost: h\r\nX-Big: " +
             std::string(4096, 'a') + "\r\n\r\n";
      ++oversized;
    }
    ASSERT_TRUE(conn->send(wire));
    if (kind == 1) conn->close_when_drained();  // FIN the truncated stream

    HttpParser check(HttpParser::Mode::kResponse);
    const bool got = loop.run_until(
        [&] {
          if (closed) return true;
          if (kind != 0) return false;
          HttpParser probe(HttpParser::Mode::kResponse);
          probe.feed(received);
          return probe.has_message();
        },
        loop.now_ms() + 2000);
    ASSERT_TRUE(got) << "round " << round << " wedged";
    check.feed(received);
    if (kind == 0) {
      ASSERT_TRUE(check.has_message());
      EXPECT_EQ(check.take_response().status, 200);
    } else if (kind == 3) {
      ASSERT_TRUE(check.has_message());
      EXPECT_EQ(check.take_response().status, 431);
    } else if (check.has_message()) {
      // Truncated/garbage may earn a 400 or just a close — never a 200.
      EXPECT_NE(check.take_response().status, 200) << "round " << round;
    }
  }
  EXPECT_EQ(server.stats().requests, valid);
  EXPECT_EQ(server.stats().header_violations, oversized);
  // Every connection is gone or going; nothing leaked, nothing wedged.
  loop.run_until([&] { return server.connection_count() == 0; },
                 loop.now_ms() + 2000);
  EXPECT_EQ(server.connection_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SocketFuzz, ::testing::Values(11u, 12u, 13u));

// ---------- malformed-JSON corpus ----------

TEST(JsonFuzz, MalformedCorpusReturnsNulloptWithoutCrashing) {
  const char* corpus[] = {
      "",
      "{",
      "}",
      "[",
      "]",
      "{]",
      "[}",
      "{\"a\"}",
      "{\"a\":}",
      "{\"a\":1,}",
      "[1,2,]",
      "{\"a\" 1}",
      "\"unterminated",
      "\"bad escape \\x\"",
      "\"bad unicode \\u12g4\"",
      "1.2.3",
      "+1",
      "-",
      "1e",
      "tru",
      "truee",
      "nul",
      "{\"a\":1}garbage",
      "[1] [2]",
      "\xef\xbb\xbf{}",  // BOM is not whitespace
  };
  for (const char* input : corpus)
    EXPECT_FALSE(parse_json(input).has_value()) << "input: " << input;
}

TEST(JsonFuzz, NestingDepthIsCapped) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(parse_json(deep).has_value());  // over the 64-level cap
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(parse_json(ok).has_value());
}

class JsonFuzzSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzzSeeded, RandomBytesNeverCrashTheParser) {
  Rng rng(GetParam() ^ 0xbeef);
  for (int round = 0; round < 200; ++round) {
    std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 200));
    std::string input;
    for (std::size_t i = 0; i < len; ++i)
      input += static_cast<char>(rng.uniform_int(1, 255));
    parse_json(input);  // must not crash, hang, or trip sanitizers
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzSeeded, ::testing::Values(4u, 5u, 6u));

}  // namespace
}  // namespace mfhttp
