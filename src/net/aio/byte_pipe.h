// Growable contiguous byte queue between a non-blocking socket and the
// incremental HTTP parser (DESIGN.md §15).
//
// The pipe hands the kernel a zero-copy write window and hands the parser a
// zero-copy read view:
//
//   BytePipe::WriteWindow w = pipe.push_begin(4096);   // writable span
//   ssize_t n = read(fd, w.data, w.size);
//   if (n > 0) pipe.push_finish(static_cast<std::size_t>(n));
//   ...
//   parser.feed(pipe.peek());
//   pipe.consume(pipe.size());
//
// The write window ("reservation") survives *any* intervening push_begin:
// re-reserving a larger window may grow or compact the backing store, but
// the bytes already written into the outstanding window are copied along
// with committed data and the new window starts at the same logical offset.
// A caller that partially filled a window and then asked for more room never
// loses bytes (ISSUE 8 satellite: grow-during-reservation).
//
// Capacity may be bounded (max_capacity > 0): push_begin then returns a
// window no larger than the remaining budget — possibly empty — which is the
// backpressure signal the event loop uses to stop reading from a socket
// whose consumer has fallen behind.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace mfhttp::aio {

class BytePipe {
 public:
  struct WriteWindow {
    char* data = nullptr;
    std::size_t size = 0;  // 0: at the bounded-capacity limit
  };

  // max_capacity 0 means unbounded.
  explicit BytePipe(std::size_t initial_capacity = 4096,
                    std::size_t max_capacity = 0);

  // Reserve a writable window of at least min_size bytes (clamped by
  // max_capacity). Calling again before push_finish keeps the window's
  // current contents and returns the same logical window, enlarged.
  WriteWindow push_begin(std::size_t min_size);

  // Commit the first n bytes of the outstanding window. n may be 0
  // (reservation abandoned). Requires n <= the last window's size.
  void push_finish(std::size_t n);

  // Append by copy (convenience for writers that already own the bytes).
  // Returns false — and appends nothing — when a bounded pipe lacks room.
  bool append(std::string_view data);

  // Readable bytes, contiguous. Valid until the next mutating call.
  std::string_view peek() const {
    return {buf_.data() + begin_, end_ - begin_};
  }

  // Drop the first n readable bytes. Requires n <= size().
  void consume(std::size_t n);

  std::size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  std::size_t capacity() const { return buf_.size(); }
  std::size_t max_capacity() const { return max_capacity_; }
  // Outstanding (reserved, uncommitted) window size.
  std::size_t reserved() const { return window_; }
  // True when a bounded pipe cannot accept at least one more byte.
  bool full() const {
    return max_capacity_ > 0 && size() + window_ >= max_capacity_;
  }

 private:
  // Make room for `window` writable bytes after end_, preferring in-place
  // compaction over reallocation. Preserves [begin_, end_ + window_) — the
  // committed bytes plus the outstanding reservation.
  void ensure_room(std::size_t window);

  std::vector<char> buf_;
  std::size_t max_capacity_;
  std::size_t begin_ = 0;   // first readable byte
  std::size_t end_ = 0;     // one past last committed byte
  std::size_t window_ = 0;  // outstanding reservation [end_, end_ + window_)
};

}  // namespace mfhttp::aio
