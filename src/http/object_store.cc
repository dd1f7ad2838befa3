#include "http/object_store.h"

#include "util/check.h"

namespace mfhttp {

std::string ObjectStore::next_etag() {
  return "\"v" + std::to_string(++version_) + "\"";
}

void ObjectStore::store(std::string_view path, StoredObject object) {
  MFHTTP_CHECK(!path.empty() && path[0] == '/');
  const UrlId id = paths_.intern(path);
  if (id == objects_.size())
    objects_.push_back(std::move(object));
  else
    objects_[id] = std::move(object);
}

void ObjectStore::put(std::string_view path, Bytes size, std::string content_type) {
  MFHTTP_CHECK(size >= 0);
  store(path, StoredObject{size, std::move(content_type), std::nullopt, next_etag()});
}

void ObjectStore::put_body(std::string_view path, std::string body,
                           std::string content_type) {
  auto size = static_cast<Bytes>(body.size());
  store(path, StoredObject{size, std::move(content_type), std::move(body), next_etag()});
}

void ObjectStore::reserve(std::size_t objects) {
  paths_.reserve(objects);
  objects_.reserve(objects);
}

bool ObjectStore::bump(std::string_view path) {
  const UrlId id = paths_.find(path);
  if (id == kNoUrl) return false;
  objects_[id].etag = next_etag();
  return true;
}

const StoredObject* ObjectStore::find(std::string_view path) const {
  const UrlId id = paths_.find(path);
  return id == kNoUrl ? nullptr : &objects_[id];
}

Bytes ObjectStore::total_bytes() const {
  Bytes total = 0;
  for (const StoredObject& obj : objects_) total += obj.wire_size();
  return total;
}

}  // namespace mfhttp
