#include "net/aio/syscall.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace mfhttp::aio {

namespace {

bool is_reset_errno(int err) {
  return err == ECONNRESET || err == EPIPE || err == ECONNABORTED;
}

}  // namespace

IoResult read_some(int fd, char* buf, std::size_t len) {
  for (;;) {
    ssize_t n = ::recv(fd, buf, len, 0);
    if (n > 0) return {IoStatus::kOk, static_cast<std::size_t>(n), 0};
    if (n == 0) return {IoStatus::kEof, 0, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::kWouldBlock, 0, 0};
    if (is_reset_errno(errno)) return {IoStatus::kReset, 0, errno};
    return {IoStatus::kError, 0, errno};
  }
}

IoResult write_some(int fd, const char* buf, std::size_t len) {
  for (;;) {
    ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return {IoStatus::kOk, static_cast<std::size_t>(n), 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return {IoStatus::kWouldBlock, 0, 0};
    if (is_reset_errno(errno)) return {IoStatus::kReset, 0, errno};
    return {IoStatus::kError, 0, errno};
  }
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

void arm_abortive_close(int fd) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

int listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                    int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    int saved = errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      int saved = errno;
      close_fd(fd);
      errno = saved;
      return -1;
    }
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;  // loopback may complete synchronously
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) return fd;
    int saved = errno;
    close_fd(fd);
    errno = saved;
    return -1;
  }
}

int connect_result(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) return errno;
  return err;
}

}  // namespace mfhttp::aio
