// The well-known HTTP header vocabulary, with a compile-time id per name.
//
// Every header name the middleware itself emits or inspects — and the
// overwhelming majority a mobile page's requests carry — comes from a small
// fixed vocabulary. Code that names a header passes its HeaderId, so
// HeaderMap compares one byte per entry instead of hashing and
// case-folding text (the strcmp-per-entry ProxyServer-cache pattern this
// layer exists to beat). Case-folded interning — header_id(text) — runs
// only where foreign bytes arrive: the wire parser and HeaderMap::add of a
// spelled-out name.
//
// Lifetime and thread-safety contract (DESIGN.md §17): the table is a
// compile-time constant in static storage. It is never mutated after load —
// unknown names are NOT added at runtime (a request flood of novel names
// must not grow process memory) — so lookups are lock-free, name views
// remain valid for the life of the process, and may be shared freely
// across threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mfhttp {

// One id per vocabulary name, in the order of header_names.cc's table.
enum class HeaderId : std::uint8_t {
  kAccept,
  kAcceptEncoding,
  kAcceptRanges,
  kAge,
  kCacheControl,
  kConnection,
  kContentEncoding,
  kContentLength,
  kContentRange,
  kContentType,
  kDate,
  kETag,
  kExpires,
  kHost,
  kIfModifiedSince,
  kIfNoneMatch,
  kLastModified,
  kLocation,
  kRange,
  kReferer,
  kServer,
  kTransferEncoding,
  kUserAgent,
  kVary,
  kXMfhttpPriority,
  kXMfhttpSession,
  kXMfhttpShed,
  kUnknown,  // not in the vocabulary; also the vocabulary size
};

inline constexpr std::size_t kWellKnownHeaderCount =
    static_cast<std::size_t>(HeaderId::kUnknown);

// Id of `name` under any casing, or kUnknown. Never allocates.
HeaderId header_id(std::string_view name);

// Canonical spelling of a vocabulary id (what the wire serializer writes);
// empty for kUnknown. Points into static storage.
std::string_view header_name(HeaderId id);

// Canonical spelling of a well-known header name, or an empty view if the
// name is not in the vocabulary. Case-insensitive; never allocates. Two
// lookups of the same name under any casing return the same pointer.
inline std::string_view intern_header_name(std::string_view name) {
  return header_name(header_id(name));
}

// True iff `name` is in the well-known vocabulary.
inline bool is_well_known_header(std::string_view name) {
  return header_id(name) != HeaderId::kUnknown;
}

// Vocabulary size (test/diagnostic use).
inline std::size_t interned_header_count() { return kWellKnownHeaderCount; }

}  // namespace mfhttp
