// EINTR/EAGAIN/ECONNRESET/SIGPIPE-safe syscall wrappers for the event loop
// (DESIGN.md §15). Every raw read/write/accept/connect in src/net/aio goes
// through these so the failure taxonomy is decided in exactly one place:
//
//   kOk          -- n bytes moved (n > 0)
//   kWouldBlock  -- EAGAIN/EWOULDBLOCK: retry on the next readiness event
//   kEof         -- orderly FIN from the peer (reads only)
//   kReset       -- ECONNRESET/EPIPE/ECONNABORTED: the peer died abruptly
//   kError       -- anything else; `err` holds errno
//
// Writes use send(MSG_NOSIGNAL), never write(2), so a dead peer produces a
// catchable EPIPE instead of a process-killing SIGPIPE.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfhttp::aio {

enum class IoStatus { kOk, kWouldBlock, kEof, kReset, kError };

struct IoResult {
  IoStatus status = IoStatus::kError;
  std::size_t n = 0;  // bytes moved when kOk
  int err = 0;        // errno when kReset/kError
};

IoResult read_some(int fd, char* buf, std::size_t len);
IoResult write_some(int fd, const char* buf, std::size_t len);

// EINTR-safe close. Never retried (Linux closes the fd even on EINTR).
void close_fd(int fd);

// Arm SO_LINGER(0) so the subsequent close_fd emits RST instead of FIN —
// the fault injector's mid-stream connection kill.
void arm_abortive_close(int fd);

// Bind + listen a non-blocking TCP socket on 127.0.0.1. port 0 picks an
// ephemeral port; *bound_port receives the actual one. Returns the listening
// fd, or -1 with errno set.
int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    int backlog = 64);

// Start a non-blocking connect to 127.0.0.1:port. Returns the fd with the
// connect in flight (completion signalled by EPOLLOUT; check
// connect_result), or -1 with errno set.
int connect_loopback(std::uint16_t port);

// SO_ERROR after a non-blocking connect became writable: 0 on success,
// else the connect's errno.
int connect_result(int fd);

}  // namespace mfhttp::aio
