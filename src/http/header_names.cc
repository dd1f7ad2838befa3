#include "http/header_names.h"

#include <array>

#include "util/strings.h"

namespace mfhttp {

namespace {

// The vocabulary: every name the middleware emits or inspects, plus the
// common browser/origin request-response set, indexed by HeaderId.
// Canonical casing is what the wire serializer writes.
constexpr std::string_view kWellKnown[] = {
    "Accept",
    "Accept-Encoding",
    "Accept-Ranges",
    "Age",
    "Cache-Control",
    "Connection",
    "Content-Encoding",
    "Content-Length",
    "Content-Range",
    "Content-Type",
    "Date",
    "ETag",
    "Expires",
    "Host",
    "If-Modified-Since",
    "If-None-Match",
    "Last-Modified",
    "Location",
    "Range",
    "Referer",
    "Server",
    "Transfer-Encoding",
    "User-Agent",
    "Vary",
    "x-mfhttp-priority",
    "x-mfhttp-session",
    "x-mfhttp-shed",
};
constexpr std::size_t kCount = sizeof(kWellKnown) / sizeof(kWellKnown[0]);
static_assert(kCount == kWellKnownHeaderCount, "HeaderId must list the table");
static_assert(kWellKnown[static_cast<std::size_t>(HeaderId::kContentLength)] ==
              "Content-Length");
static_assert(kWellKnown[static_cast<std::size_t>(HeaderId::kXMfhttpShed)] ==
              "x-mfhttp-shed");

// Open-addressed probe table over case-folded hashes, sized to a power of
// two >= 4x the vocabulary so probe chains stay short. Built once under the
// magic-static lock, immutable afterwards.
constexpr std::size_t kTableSize = 128;
static_assert(kTableSize >= 4 * kCount);

struct ProbeTable {
  // Index into kWellKnown, or -1 for an empty slot.
  std::array<int, kTableSize> slot;

  ProbeTable() {
    slot.fill(-1);
    for (std::size_t i = 0; i < kCount; ++i) {
      std::size_t at = ifold_hash(kWellKnown[i]) & (kTableSize - 1);
      while (slot[at] >= 0) at = (at + 1) & (kTableSize - 1);
      slot[at] = static_cast<int>(i);
    }
  }
};

const ProbeTable& probe_table() {
  static const ProbeTable table;
  return table;
}

}  // namespace

HeaderId header_id(std::string_view name) {
  if (name.empty()) return HeaderId::kUnknown;
  const ProbeTable& table = probe_table();
  std::size_t at = ifold_hash(name) & (kTableSize - 1);
  while (true) {
    int idx = table.slot[at];
    if (idx < 0) return HeaderId::kUnknown;
    if (iequals(kWellKnown[static_cast<std::size_t>(idx)], name))
      return static_cast<HeaderId>(idx);
    at = (at + 1) & (kTableSize - 1);
  }
}

std::string_view header_name(HeaderId id) {
  const auto i = static_cast<std::size_t>(id);
  return i < kCount ? kWellKnown[i] : std::string_view{};
}

}  // namespace mfhttp
