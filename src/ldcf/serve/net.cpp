#include "ldcf/serve/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "ldcf/common/error.hpp"

namespace ldcf::serve {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw InvalidArgument(what + ": " + std::strerror(errno));
}

sockaddr_un unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  LDCF_REQUIRE(path.size() < sizeof(addr.sun_path),
               "unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in tcp_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  LDCF_REQUIRE(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "bad IPv4 address: " + host);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_on(const Endpoint& endpoint, int backlog,
                 std::uint16_t* bound_port) {
  if (!endpoint.unix_path.empty()) {
    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid()) fail_errno("socket(AF_UNIX)");
    ::unlink(endpoint.unix_path.c_str());  // stale path from a dead server.
    const sockaddr_un addr = unix_address(endpoint.unix_path);
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      fail_errno("bind(" + endpoint.unix_path + ")");
    }
    if (::listen(sock.fd(), backlog) != 0) fail_errno("listen");
    return sock;
  }

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = tcp_address(endpoint.host, endpoint.port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail_errno("bind(" + endpoint.host + ":" +
               std::to_string(endpoint.port) + ")");
  }
  if (::listen(sock.fd(), backlog) != 0) fail_errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual),
                      &len) != 0) {
      fail_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Socket accept_client(const Socket& listener) {
  return Socket(::accept(listener.fd(), nullptr, nullptr));
}

Socket connect_to(const Endpoint& endpoint) {
  if (!endpoint.unix_path.empty()) {
    Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid()) fail_errno("socket(AF_UNIX)");
    const sockaddr_un addr = unix_address(endpoint.unix_path);
    if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail_errno("connect(" + endpoint.unix_path + ")");
    }
    return sock;
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) fail_errno("socket(AF_INET)");
  const sockaddr_in addr = tcp_address(endpoint.host, endpoint.port);
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    fail_errno("connect(" + endpoint.host + ":" +
               std::to_string(endpoint.port) + ")");
  }
  return sock;
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool LineReader::next_line(std::string& line) {
  while (true) {
    const std::size_t newline = buffer_.find('\n', scan_from_);
    if (newline != std::string::npos) {
      line.assign(buffer_, head_, newline - head_);
      head_ = scan_from_ = newline + 1;
      return true;
    }
    // Compact once per recv, not once per line: pipelined frames cost
    // linear time, however many arrive in one chunk.
    buffer_.erase(0, head_);
    head_ = 0;
    scan_from_ = buffer_.size();
    if (buffer_.size() > kMaxLineBytes) {
      throw InvalidArgument("frame exceeds " + std::to_string(kMaxLineBytes) +
                            " bytes without a newline");
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace ldcf::serve
