// Thin POSIX socket layer for the sweep service: RAII fds, TCP or Unix
// domain listeners, and buffered newline-delimited reads. Nothing here
// knows about jobs or JSON — the server and client share it, and tests use
// it to speak raw frames at the daemon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ldcf::serve {

/// Move-only RAII file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Where to listen or connect. A non-empty unix_path selects a Unix domain
/// socket and host/port are ignored; otherwise TCP on host:port (port 0
/// binds an ephemeral port — listen_on reports the choice).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string unix_path;
};

/// Bind + listen. Throws InvalidArgument on failure. For TCP, *bound_port
/// (when non-null) receives the actual port — the way tests and the CI
/// smoke job find an ephemerally-bound server. For Unix sockets a stale
/// path is unlinked first.
[[nodiscard]] Socket listen_on(const Endpoint& endpoint, int backlog,
                               std::uint16_t* bound_port = nullptr);

/// Accept one client; an invalid Socket once the listener is shut down.
[[nodiscard]] Socket accept_client(const Socket& listener);

/// Connect to a server. Throws InvalidArgument on failure.
[[nodiscard]] Socket connect_to(const Endpoint& endpoint);

/// Write all of `data`, suppressing SIGPIPE; false once the peer is gone.
[[nodiscard]] bool send_all(int fd, std::string_view data);

/// Most bytes a LineReader buffers without seeing a newline. Every frame
/// either side writes is one line; the largest, a result frame embedding a
/// collect_stats sweep report, measures about 10 KiB (OF, 256 reps), so a
/// longer "line" is a broken or hostile peer, not a frame.
inline constexpr std::size_t kMaxLineBytes = std::size_t{4} << 20;

/// Buffered newline-delimited reads off a blocking socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next '\n'-terminated line (terminator stripped). False on EOF or
  /// error; a trailing unterminated fragment is discarded, which is right
  /// for a protocol where every frame ends in '\n'. Throws InvalidArgument
  /// once more than kMaxLineBytes arrive without a newline.
  [[nodiscard]] bool next_line(std::string& line);

 private:
  int fd_;
  std::string buffer_;
  std::size_t head_ = 0;       ///< start of the first unconsumed line.
  std::size_t scan_from_ = 0;  ///< bytes before this hold no newline.
};

}  // namespace ldcf::serve
