// Thin POSIX TCP wrappers for the serve daemon: an RAII fd, loopback
// listen/connect helpers, and EINTR-safe send/recv. Everything binds to
// 127.0.0.1 only — the daemon is a scheduling service for trusted harnesses
// (CI, soak, local clients), not an internet-facing server, and keeping the
// bind loopback-only makes that a property of the code rather than of a
// firewall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hdlts::net {

/// Owning file descriptor (closes on destruction; move-only).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Listens on 127.0.0.1:`port` (0 = kernel-assigned ephemeral port;
/// `bound_port` receives the actual port either way). SO_REUSEADDR is set so
/// CI restarts don't trip over TIME_WAIT. Throws hdlts::Error on failure.
Fd listen_tcp(std::uint16_t port, std::uint16_t* bound_port,
              int backlog = 64);

/// Blocking connect to 127.0.0.1:`port`. Throws hdlts::Error on failure.
Fd connect_tcp(std::uint16_t port);

void set_nonblocking(int fd);

/// Accepts one pending connection on `listener` and makes it ready for the
/// event loop: non-blocking, with Nagle off (TCP_NODELAY). Without it, the
/// responses after the first of a pipelined burst wait for the client's
/// delayed ACK. Returns an invalid Fd when no connection is pending
/// (EAGAIN on a non-blocking listener) or accept failed transiently.
Fd accept_tcp(int listener);

/// Sends the whole buffer (blocking fd), retrying on EINTR and suppressing
/// SIGPIPE; false when the peer closed or an error occurred.
bool send_all(int fd, std::string_view bytes);

/// One recv into `buffer` (EINTR-retried). Returns bytes read, 0 on orderly
/// shutdown, -1 on error/EAGAIN (errno preserved).
long recv_some(int fd, char* buffer, std::size_t capacity);

/// errno rendered as "message (errno N)".
std::string errno_message(std::string_view what);

}  // namespace hdlts::net
