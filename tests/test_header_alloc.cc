// Heap-allocation accounting for the HeaderMap hot path.
//
// The zero-alloc contract (DESIGN.md §17): once a request's headers are
// parsed, every per-request lookup the proxy/cache/wire layers perform —
// get_view(), contains(), content_length() — must touch the heap zero
// times. These tests enforce that with a counting global operator new.
//
// The counter is a plain relaxed atomic: the tests run single-threaded and
// only need exact counts between mark()/delta() pairs on one thread.
//
// The HeaderGolden cases fold the parse, lookup and cache-key paths over one
// fixed request into the fingerprints the retired micro-benchmark matrix
// recorded (DESIGN.md §17.4).

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "http/header_map.h"
#include "http/header_names.h"
#include "http/parser.h"
#include "util/fnv.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mfhttp {
namespace {

class AllocGuard {
 public:
  AllocGuard() : start_(alloc_count()) {}
  std::size_t delta() const { return alloc_count() - start_; }

 private:
  std::size_t start_;
};

HeaderMap typical_request_headers() {
  HeaderMap h;
  h.add("Host", "news.example.com");
  h.add("User-Agent", "mfhttp-sim/1.0");
  h.add("Accept", "text/html,image/*");
  h.add("Accept-Encoding", "gzip");
  h.add("Connection", "keep-alive");
  h.add("Content-Length", "1234");
  return h;
}

TEST(HeaderAlloc, GetViewNeverAllocates) {
  HeaderMap h = typical_request_headers();
  AllocGuard guard;
  for (int i = 0; i < 100; ++i) {
    auto host = h.get_view("Host");
    ASSERT_TRUE(host.has_value());
    EXPECT_EQ(*host, "news.example.com");
    // Case-insensitive miss-case spelling still routes through the interner
    // without touching the heap.
    auto ae = h.get_view("accept-encoding");
    ASSERT_TRUE(ae.has_value());
    EXPECT_EQ(*ae, "gzip");
    EXPECT_FALSE(h.get_view("If-None-Match").has_value());
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(HeaderAlloc, ContainsNeverAllocates) {
  HeaderMap h = typical_request_headers();
  AllocGuard guard;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(h.contains("Connection"));
    EXPECT_TRUE(h.contains("CONTENT-LENGTH"));
    EXPECT_FALSE(h.contains("Range"));
    EXPECT_FALSE(h.contains("x-not-a-real-header"));
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(HeaderAlloc, ContentLengthNeverAllocates) {
  HeaderMap h = typical_request_headers();
  AllocGuard guard;
  for (int i = 0; i < 100; ++i) {
    auto len = h.content_length();
    ASSERT_TRUE(len.has_value());
    EXPECT_EQ(*len, 1234);
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(HeaderAlloc, LookupsOnNonVocabularyNamesStayAllocFree) {
  HeaderMap h;
  h.add("x-custom-thing", "v");
  AllocGuard guard;
  for (int i = 0; i < 100; ++i) {
    auto v = h.get_view("x-custom-thing");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "v");
    EXPECT_TRUE(h.contains("X-Custom-Thing"));
  }
  EXPECT_EQ(guard.delta(), 0u);
}

// Well-known names with short values fit entirely in the inline entry array
// plus std::string's SSO: adding them must not allocate either. (Values long
// enough to spill SSO will allocate — that is the value copy, not the map.)
TEST(HeaderAlloc, WellKnownShortHeadersAddWithoutAllocating) {
  // Warm the interner's probe table first (built on first use).
  (void)intern_header_name("Host");
  HeaderMap h;
  AllocGuard guard;
  h.add("Host", "h");
  h.add("Accept", "*/*");
  h.add("Connection", "close");
  h.add("Range", "bytes=0-1");
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h.get_view("Range").value_or(""), "bytes=0-1");
}

TEST(HeaderAlloc, IterationNeverAllocates) {
  HeaderMap h = typical_request_headers();
  AllocGuard guard;
  std::size_t bytes = 0;
  for (const auto& e : h) bytes += e.name().size() + e.value().size() + 4;
  EXPECT_EQ(guard.delta(), 0u);
  EXPECT_GT(bytes, 0u);
}

TEST(HeaderAlloc, OverflowBeyondInlineCapacityStillLooksUpAllocFree) {
  HeaderMap h = typical_request_headers();
  // Push past the inline capacity of 8 into the overflow vector.
  h.add("ETag", "\"abc\"");
  h.add("Vary", "Accept");
  h.add("Date", "now");
  h.add("x-extra-1", "1");
  h.add("x-extra-2", "2");
  ASSERT_GT(h.size(), HeaderMap::kInlineCapacity);
  AllocGuard guard;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(h.get_view("x-extra-2").value_or(""), "2");
    EXPECT_EQ(h.get_view("Vary").value_or(""), "Accept");
    EXPECT_TRUE(h.contains("etag"));
  }
  EXPECT_EQ(guard.delta(), 0u);
}

TEST(HeaderNames, InternerCanonicalizesCase) {
  auto a = intern_header_name("content-length");
  auto b = intern_header_name("Content-Length");
  auto c = intern_header_name("CONTENT-LENGTH");
  ASSERT_FALSE(a.empty());
  // All spellings map to the one canonical static string.
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(b.data(), c.data());
  EXPECT_EQ(a, "Content-Length");
}

TEST(HeaderNames, UnknownNamesAreNotInterned) {
  EXPECT_TRUE(intern_header_name("x-definitely-not-known").empty());
  EXPECT_TRUE(intern_header_name("").empty());
  EXPECT_FALSE(is_well_known_header("x-definitely-not-known"));
  EXPECT_TRUE(is_well_known_header("etag"));
}

// `name` with its letters' case alternating, starting upper (`upper_first`)
// or lower: a spelling no code path writes.
std::string mixed_case(std::string_view name, bool upper_first) {
  std::string out(name);
  bool upper = upper_first;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z' && upper) c = static_cast<char>(c - 'a' + 'A');
    if (c >= 'A' && c <= 'Z' && !upper) c = static_cast<char>(c - 'A' + 'a');
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) upper = !upper;
  }
  return out;
}

// Lookup by compile-time id and lookup by (differently cased) text agree on
// every vocabulary name of a map parsed from foreign wire bytes.
TEST(HeaderNames, IdLookupMatchesMixedCaseTextOnParsedWire) {
  std::string wire = "GET /x HTTP/1.1\r\n";
  for (std::size_t i = 0; i < kWellKnownHeaderCount; ++i) {
    const auto id = static_cast<HeaderId>(i);
    std::string value = "v" + std::to_string(i);
    if (id == HeaderId::kContentLength) value = "0";  // framing must stay valid
    if (id == HeaderId::kTransferEncoding) value = "identity";
    wire += mixed_case(header_name(id), true) + ": " + value + "\r\n";
  }
  wire += "X-Novel-Name: novel\r\n\r\n";
  HttpParser parser(HttpParser::Mode::kRequest);
  ASSERT_TRUE(parser.feed(wire)) << parser.error();
  ASSERT_EQ(parser.message_count(), 1u);
  const HttpRequest req = parser.take_request();
  ASSERT_EQ(req.headers.size(), kWellKnownHeaderCount + 1);

  for (std::size_t i = 0; i < kWellKnownHeaderCount; ++i) {
    const auto id = static_cast<HeaderId>(i);
    const std::string_view name = header_name(id);
    const auto by_id = req.headers.get_view(id);
    ASSERT_TRUE(by_id.has_value()) << name;
    EXPECT_EQ(by_id, req.headers.get_view(mixed_case(name, false))) << name;
    EXPECT_EQ(by_id, req.headers.get_view(name)) << name;
    EXPECT_TRUE(req.headers.contains(id)) << name;
    // The entry keeps the wire's spelling and carries the interned id.
    const HeaderMap::Entry& e = req.headers.entry(i);
    EXPECT_EQ(e.name(), mixed_case(name, true));
    EXPECT_EQ(e.id(), id);
  }
  EXPECT_EQ(req.headers.get_view("x-novel-name").value_or(""), "novel");
  EXPECT_EQ(req.headers.entry(kWellKnownHeaderCount).id(), HeaderId::kUnknown);

  // The same bytes come back out, and parse to the same map.
  HttpParser again(HttpParser::Mode::kRequest);
  ASSERT_TRUE(again.feed(req.serialize())) << again.error();
  ASSERT_EQ(again.message_count(), 1u);
  EXPECT_EQ(again.take_request().headers, req.headers);
}

TEST(HeaderNames, IdFormsAddSetAndRemoveByIdOnly) {
  HeaderMap h;
  h.add("ETAG", "\"a\"");         // foreign spelling, interned on add
  h.add(HeaderId::kETag, "\"b\"");  // canonical spelling, no interning
  h.add("x-etag", "other");
  EXPECT_EQ(h.get_all("etag").size(), 2u);
  EXPECT_EQ(h.get_view(HeaderId::kETag).value_or(""), "\"a\"");
  h.set(HeaderId::kETag, "\"c\"");
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.get_view("Etag").value_or(""), "\"c\"");
  EXPECT_EQ(h.entry(1).name(), "ETag");
  EXPECT_EQ(h.remove(HeaderId::kETag), 1u);
  EXPECT_EQ(h.remove(HeaderId::kETag), 0u);
  EXPECT_EQ(h.get_view("X-ETag").value_or(""), "other");
}

TEST(HeaderNames, InternerLookupIsAllocFree) {
  (void)intern_header_name("Host");  // build the probe table
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    (void)intern_header_name("Cache-Control");
    (void)intern_header_name("x-mfhttp-session");
    (void)intern_header_name("no-such-header-name");
  }
  EXPECT_EQ(guard.delta(), 0u);
}


// ---------- Header golden folds ----------

// The recorded folds start from this basis, not util/fnv.h's standard one.
Fnv golden_fnv() {
  Fnv f;
  f.h = 1469598103934665603ull;
  return f;
}

const char kGoldenRequest[] =
    "GET /article/42?ref=home HTTP/1.1\r\n"
    "Host: news.example\r\n"
    "User-Agent: mfhttp-bench/1.0\r\n"
    "Accept: text/html,application/xhtml+xml\r\n"
    "Accept-Encoding: gzip, br\r\n"
    "Accept-Language: en-US,en;q=0.9\r\n"
    "Connection: keep-alive\r\n"
    "Cache-Control: max-age=0\r\n"
    "If-None-Match: \"a1b2c3d4\"\r\n"
    "Range: bytes=0-65535\r\n"
    "X-Mfhttp-Session: s-17\r\n"
    "\r\n";

HttpRequest parse_golden_request() {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed(kGoldenRequest);
  return parser.take_request();
}

TEST(HeaderGolden, ParseFoldMatchesRecordedFingerprint) {
  const HttpRequest req = parse_golden_request();
  Fnv f = golden_fnv();
  f.u64(req.headers.size());
  for (const auto& entry : req.headers) {
    f.bytes(entry.name().data(), entry.name().size());
    f.bytes(entry.value().data(), entry.value().size());
  }
  EXPECT_EQ(f.h, 0x0cc2c53a9f1d0e95ull);
}

TEST(HeaderGolden, LookupFoldMatchesRecordedFingerprintWithoutAllocating) {
  const HttpRequest req = parse_golden_request();
  static const char* const kNames[] = {"Host", "Connection", "If-None-Match",
                                       "Range", "Accept-Encoding",
                                       "X-Mfhttp-Session", "content-length"};
  constexpr std::uint64_t kOps = 1000;
  std::uint64_t sink = 0;
  AllocGuard guard;
  for (std::uint64_t op = 0; op < kOps; ++op) {
    for (const char* name : kNames)
      if (auto v = req.headers.get_view(name)) sink += v->size();
    sink += req.headers.contains("Transfer-Encoding") ? 1 : 0;
    sink += static_cast<std::uint64_t>(req.headers.content_length().value_or(0));
  }
  EXPECT_EQ(guard.delta(), 0u);
  ASSERT_EQ(sink % kOps, 0u);
  Fnv f = golden_fnv();
  // The recorded fold hashed the sum over five timing passes divided by the
  // ops of one pass: five times one lookup round's sum.
  f.u64(5 * (sink / kOps));
  for (const char* name : kNames)
    if (auto v = req.headers.get_view(name)) f.bytes(v->data(), v->size());
  EXPECT_EQ(f.h, 0xdb7b0213a012bf62ull);
}

// The cache's key path: URL reconstruction plus the If-None-Match match.
TEST(HeaderGolden, CacheKeyFoldMatchesRecordedFingerprint) {
  const HttpRequest req = parse_golden_request();
  const auto url = req.url();
  const std::string key = url ? url->to_string() : req.target;
  const auto inm = req.headers.get_view("If-None-Match");
  const bool matches = inm && *inm == "\"a1b2c3d4\"";
  Fnv f = golden_fnv();
  f.bytes(key.data(), key.size());
  f.u64(matches ? 1 : 0);
  EXPECT_EQ(f.h, 0x9e0576033a2a10bdull);
}

}  // namespace
}  // namespace mfhttp
