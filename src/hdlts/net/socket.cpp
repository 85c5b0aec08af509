#include "hdlts/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "hdlts/util/error.hpp"

namespace hdlts::net {

namespace {

// Best-effort: the protocol is request/response lines, Nagle only hurts.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    int rc;
    do {
      rc = ::close(fd_);
    } while (rc != 0 && errno == EINTR);
    fd_ = -1;
  }
}

std::string errno_message(std::string_view what) {
  const int err = errno;
  std::string out(what);
  out += ": ";
  out += std::strerror(err);
  out += " (errno " + std::to_string(err) + ")";
  return out;
}

Fd listen_tcp(std::uint16_t port, std::uint16_t* bound_port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw Error(errno_message("socket"));
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    throw Error(errno_message("setsockopt(SO_REUSEADDR)"));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw Error(errno_message("bind 127.0.0.1:" + std::to_string(port)));
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw Error(errno_message("listen"));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      throw Error(errno_message("getsockname"));
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Fd connect_tcp(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw Error(errno_message("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    throw Error(errno_message("connect 127.0.0.1:" + std::to_string(port)));
  }
  set_nodelay(fd.get());
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw Error(errno_message("fcntl(O_NONBLOCK)"));
  }
}

Fd accept_tcp(int listener) {
  Fd fd(::accept(listener, nullptr, nullptr));
  if (!fd.valid()) return fd;
  set_nonblocking(fd.get());
  set_nodelay(fd.get());
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const auto n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                          MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

long recv_some(int fd, char* buffer, std::size_t capacity) {
  long n;
  do {
    n = ::recv(fd, buffer, capacity, 0);
  } while (n < 0 && errno == EINTR);
  return n;
}

}  // namespace hdlts::net
