#include "serve/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/expect.hpp"
#include "common/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define OSIM_HAVE_SERVE_POSIX 1
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace osim::serve {

#if OSIM_HAVE_SERVE_POSIX

namespace {

bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Retries `try_connect` (returning a connected fd or -1) until it
/// succeeds or `retry_ms` elapses.
template <typename F>
int connect_with_retry(F try_connect, int retry_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  for (;;) {
    const int fd = try_connect();
    if (fd >= 0) return fd;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

}  // namespace

ClientConnection ClientConnection::connect_unix(const std::string& path,
                                                int retry_ms) {
  sockaddr_un addr = {};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw Error("socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = connect_with_retry(
      [&addr]() {
        const int s = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (s < 0) return -1;
        if (::connect(s, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          return s;
        }
        ::close(s);
        return -1;
      },
      retry_ms);
  if (fd < 0) {
    throw Error(strprintf("cannot connect to %s: %s", path.c_str(),
                          std::strerror(errno)));
  }
  ClientConnection connection(fd);
  connection.handshake();
  return connection;
}

ClientConnection ClientConnection::connect_tcp(int port, int retry_ms) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = connect_with_retry(
      [&addr]() {
        const int s = ::socket(AF_INET, SOCK_STREAM, 0);
        if (s < 0) return -1;
        if (::connect(s, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
          return s;
        }
        ::close(s);
        return -1;
      },
      retry_ms);
  if (fd < 0) {
    throw Error(strprintf("cannot connect to 127.0.0.1:%d: %s", port,
                          std::strerror(errno)));
  }
  ClientConnection connection(fd);
  connection.handshake();
  return connection;
}

ClientConnection::ClientConnection(int fd) : fd_(fd) {}

ClientConnection::ClientConnection(ClientConnection&& other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

ClientConnection& ClientConnection::operator=(
    ClientConnection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    reader_ = std::move(other.reader_);
    other.fd_ = -1;
  }
  return *this;
}

ClientConnection::~ClientConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void ClientConnection::handshake() {
  if (!write_all(fd_, handshake_bytes())) {
    throw Error("handshake write failed");
  }
  std::string peer;
  char buffer[kHandshakeBytes];
  while (peer.size() < kHandshakeBytes) {
    const ssize_t n =
        ::read(fd_, buffer, kHandshakeBytes - peer.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(strprintf("handshake read failed: %s",
                            std::strerror(errno)));
    }
    if (n == 0) throw Error("server closed the connection mid-handshake");
    peer.append(buffer, static_cast<std::size_t>(n));
  }
  if (!check_handshake(peer)) {
    throw Error("server speaks a different protocol version");
  }
}

ServerMessage ClientConnection::call(const ClientMessage& message) {
  const std::string payload = encode_client_message(message);
  std::string frame;
  if (!append_frame(frame, payload)) {
    throw Error(strprintf("request of %zu bytes exceeds the %u-byte RPC "
                          "frame cap",
                          payload.size(), kMaxFrameBytes));
  }
  if (!write_all(fd_, frame)) {
    throw Error(strprintf("request write failed: %s", std::strerror(errno)));
  }
  return read_reply();
}

ServerMessage ClientConnection::read_reply() {
  char buffer[64 * 1024];
  for (;;) {
    if (std::optional<std::string> payload = reader_.next()) {
      const std::optional<ServerMessage> reply =
          decode_server_message(*payload);
      if (!reply.has_value()) throw Error("malformed reply from server");
      return *reply;
    }
    if (reader_.error()) throw Error("oversized reply frame from server");
    const ssize_t n = ::read(fd_, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error(strprintf("reply read failed: %s", std::strerror(errno)));
    }
    if (n == 0) throw Error("server closed the connection");
    reader_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

#else  // !OSIM_HAVE_SERVE_POSIX

ClientConnection ClientConnection::connect_unix(const std::string&, int) {
  throw Error("the analysis service requires a POSIX platform");
}
ClientConnection ClientConnection::connect_tcp(int, int) {
  throw Error("the analysis service requires a POSIX platform");
}
ClientConnection::ClientConnection(int fd) : fd_(fd) {}
ClientConnection::ClientConnection(ClientConnection&&) noexcept {}
ClientConnection& ClientConnection::operator=(ClientConnection&&) noexcept {
  return *this;
}
ClientConnection::~ClientConnection() = default;
void ClientConnection::handshake() {}
ServerMessage ClientConnection::call(const ClientMessage&) {
  throw Error("the analysis service requires a POSIX platform");
}
ServerMessage ClientConnection::read_reply() {
  throw Error("the analysis service requires a POSIX platform");
}

#endif

}  // namespace osim::serve
