// Web page model for the mobile-browsing case study (§5.1).
//
// A page is a column of content sized for a mobile layout: structural
// resources (HTML, CSS, scripts — whose download order MF-HTTP never
// touches, §5.1.1) plus positioned images, the media objects MF-HTTP
// schedules.
#pragma once

#include <string>
#include <vector>

#include "core/media_object.h"
#include "geom/rect.h"
#include "util/types.h"

namespace mfhttp {

enum class ResourceKind { kHtml, kStylesheet, kScript };

struct PageResource {
  ResourceKind kind = ResourceKind::kHtml;
  std::string url;
  Bytes size = 0;
};

struct WebPage {
  std::string site;        // e.g. "sohu"
  std::string origin;      // e.g. "http://sohu.example"
  double width = 0;        // content coordinates == device px (mobile layout)
  double height = 0;
  std::vector<PageResource> structure;   // html first, then css/js in order
  std::vector<MediaObject> images;       // document order (top to bottom)

  Rect bounds() const { return {0, 0, width, height}; }

  // Fig. 6 metric: viewport height / page height.
  double viewport_ratio(double viewport_h) const {
    return height > 0 ? viewport_h / height : 0;
  }

  Bytes total_image_bytes() const;
  Bytes total_structure_bytes() const;
};

}  // namespace mfhttp
