#include "web/page.h"

namespace mfhttp {

Bytes WebPage::total_image_bytes() const {
  Bytes total = 0;
  for (const MediaObject& img : images) total += img.top_version().size;
  return total;
}

Bytes WebPage::total_structure_bytes() const {
  Bytes total = 0;
  for (const PageResource& r : structure) total += r.size;
  return total;
}

}  // namespace mfhttp
