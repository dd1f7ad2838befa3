// Content repository backing a simulated HTTP origin server.
//
// Experiments care about object *sizes* (what the link transfers and the
// knapsack weighs), so bodies are stored as sizes; codec-level demos and
// tests may attach real payload bytes.
//
// Paths are interned in the store's own UrlTable (one table per key space,
// DESIGN.md §21.1) and objects live in a vector indexed by path id, so a
// lookup hashes the path once (DESIGN.md §23.3). A put() of a new path may
// move the objects: find()'s pointer is good until the next one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "http/url_table.h"
#include "util/types.h"

namespace mfhttp {

struct StoredObject {
  Bytes size = 0;                 // response body size on the wire
  std::string content_type = "application/octet-stream";
  std::optional<std::string> body;  // real payload (optional; size wins if both)
  std::string etag;               // validator; changes on every put()/bump()

  Bytes wire_size() const { return body ? static_cast<Bytes>(body->size()) : size; }
};

class ObjectStore {
 public:
  // Register an object by path ("/img/3.jpg"). Replaces existing (and
  // assigns a fresh ETag — replacement is new content).
  void put(std::string_view path, Bytes size,
           std::string content_type = "application/octet-stream");

  // Register an object with a real payload.
  void put_body(std::string_view path, std::string body,
                std::string content_type = "text/plain");

  // The object's content changed in place: assign it a fresh ETag so
  // conditional fetches stop matching. Returns false if the path is unknown.
  bool bump(std::string_view path);

  // Room for `objects` distinct paths without growing.
  void reserve(std::size_t objects);

  const StoredObject* find(std::string_view path) const;
  bool contains(std::string_view path) const { return find(path) != nullptr; }
  std::size_t size() const { return objects_.size(); }
  Bytes total_bytes() const;

 private:
  std::string next_etag();
  // Stores `object` under `path`, replacing what was there.
  void store(std::string_view path, StoredObject object);

  UrlTable paths_;
  std::vector<StoredObject> objects_;  // by path id
  std::uint64_t version_ = 0;
};

}  // namespace mfhttp
