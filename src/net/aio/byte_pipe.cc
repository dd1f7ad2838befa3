#include "net/aio/byte_pipe.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace mfhttp::aio {

BytePipe::BytePipe(std::size_t initial_capacity, std::size_t max_capacity)
    : buf_(std::max<std::size_t>(initial_capacity, 64)),
      max_capacity_(max_capacity) {}

void BytePipe::ensure_room(std::size_t window) {
  const std::size_t live = (end_ - begin_) + window_;
  if (buf_.size() - end_ >= window) return;  // tail room already suffices
  if (buf_.size() - live >= window) {
    // Compact: slide committed bytes + the outstanding reservation to the
    // front. memmove — the ranges may overlap.
    std::memmove(buf_.data(), buf_.data() + begin_, live);
  } else {
    // Grow to the next power of two that fits; the copy carries the
    // reservation's bytes so a partially filled window survives (the
    // grow-during-reservation contract in the header).
    std::size_t need = (end_ - begin_) + std::max(window, window_);
    std::size_t cap = buf_.size();
    while (cap < need) cap *= 2;
    std::vector<char> grown(cap);
    std::memcpy(grown.data(), buf_.data() + begin_, live);
    buf_ = std::move(grown);
  }
  end_ -= begin_;
  begin_ = 0;
}

BytePipe::WriteWindow BytePipe::push_begin(std::size_t min_size) {
  std::size_t want = std::max(std::max<std::size_t>(min_size, 1), window_);
  if (max_capacity_ > 0) {
    const std::size_t budget = max_capacity_ > size() ? max_capacity_ - size() : 0;
    want = std::min(want, budget);
    if (want == 0) return {nullptr, 0};
  }
  ensure_room(want);
  window_ = std::max(window_, want);
  // Offer all tail room (capped by the bound): short kernel reads cost one
  // syscall either way, big ones fill whatever is there.
  std::size_t offer = buf_.size() - end_;
  if (max_capacity_ > 0) offer = std::min(offer, max_capacity_ - size());
  window_ = std::max(window_, offer);
  return {buf_.data() + end_, window_};
}

void BytePipe::push_finish(std::size_t n) {
  MFHTTP_CHECK_MSG(n <= window_, "push_finish beyond the reserved window");
  end_ += n;
  window_ = 0;
}

bool BytePipe::append(std::string_view data) {
  // Appending would have to leapfrog an open reservation without moving it —
  // impossible without invalidating the window pointer. Writers that mix the
  // two idioms on one pipe must push_finish first.
  MFHTTP_CHECK_MSG(window_ == 0, "append() with an open push_begin window");
  if (data.empty()) return true;
  if (max_capacity_ > 0 && size() + data.size() > max_capacity_) return false;
  ensure_room(data.size());
  std::memcpy(buf_.data() + end_, data.data(), data.size());
  end_ += data.size();
  return true;
}

void BytePipe::consume(std::size_t n) {
  MFHTTP_CHECK_MSG(n <= size(), "consume beyond buffered bytes");
  begin_ += n;
  if (begin_ == end_ && window_ == 0) begin_ = end_ = 0;
}

}  // namespace mfhttp::aio
