// Loopback clients for the serving front end, and the echo server that
// gives the benchmark its loopback floor.
//
//   * WireClient  -- one keep-alive rtr-wire/1 session: a request frame out,
//                    the answer frame back.
//   * HttpClient  -- one keep-alive HTTP/1.1 session: GET /route.
//   * EchoServer  -- answers every rtr-wire/1 request frame with one canned
//                    response frame and does nothing else.  A round trip to
//                    it is the cost of the socket path alone (syscalls,
//                    loopback TCP, wake-ups), the floor under RouteServer.
#ifndef PERFBENCH_NETCLIENT_H
#define PERFBENCH_NETCLIENT_H

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "server/wire.h"

namespace perfbench {

/// Owns one socket descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      if (fd_ >= 0) ::close(fd_);
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

inline Fd connect_loopback(int port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

inline void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
}

/// Appends what the socket has; false on EOF.
inline bool recv_some(int fd, std::string& buffer) {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) return false;
    throw std::runtime_error("recv failed");
  }
}

class WireClient {
 public:
  explicit WireClient(int port) : fd_(connect_loopback(port)) {
    send_all(fd_.get(),
             std::string(rtr::kWirePreamble, rtr::kWirePreambleBytes));
  }

  /// One round trip; throws on a transport or framing error.
  rtr::WireResponse request(rtr::NodeName src, rtr::NodeName dst) {
    send_all(fd_.get(), rtr::encode_wire_request(rtr::WireRequest{src, dst}));
    rtr::WireResponse response;
    while (true) {
      const rtr::WireParseStatus status =
          rtr::parse_wire_response(buffer_, response);
      if (status == rtr::WireParseStatus::kOk) return response;
      if (status == rtr::WireParseStatus::kMalformed) {
        throw std::runtime_error("malformed rtr-wire/1 response");
      }
      if (!recv_some(fd_.get(), buffer_)) {
        throw std::runtime_error("server closed the rtr-wire/1 session");
      }
    }
  }

 private:
  Fd fd_;
  std::string buffer_;
};

class HttpClient {
 public:
  explicit HttpClient(int port) : fd_(connect_loopback(port)) {}

  /// GET /route; returns the HTTP status, throws on a transport error.
  int route(rtr::NodeName src, rtr::NodeName dst) {
    send_all(fd_.get(), "GET /route?src=" + std::to_string(src) +
                            "&dst=" + std::to_string(dst) +
                            " HTTP/1.1\r\nHost: bench\r\n\r\n");
    std::size_t head_end = std::string::npos;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!recv_some(fd_.get(), buffer_)) {
        throw std::runtime_error("server closed the HTTP session");
      }
    }
    const std::size_t sp = buffer_.find(' ');
    const std::size_t cl = buffer_.find("Content-Length:");
    if (sp == std::string::npos || cl == std::string::npos || cl > head_end) {
      throw std::runtime_error("malformed HTTP response head");
    }
    const int status = std::stoi(buffer_.substr(sp + 1, 3));
    const std::size_t total =
        head_end + 4 + std::stoul(buffer_.substr(cl + 15, head_end - cl - 15));
    while (buffer_.size() < total) {
      if (!recv_some(fd_.get(), buffer_)) {
        throw std::runtime_error("server closed the HTTP session mid-body");
      }
    }
    buffer_.erase(0, total);
    return status;
  }

 private:
  Fd fd_;
  std::string buffer_;
};

/// Loopback rtr-wire/1 echo: one connection at a time, canned answers.
class EchoServer {
 public:
  EchoServer() : listen_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (listen_.get() < 0) throw std::runtime_error("echo: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_.get(), 4) != 0 ||
        ::getsockname(listen_.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      throw std::runtime_error("echo: bind/listen failed");
    }
    port_ = ntohs(addr.sin_port);
    rtr::RouteResult route;
    route.delivered_out = route.delivered_back = true;
    canned_ = rtr::encode_wire_response(rtr::ServingResult::success(route, 0));
    thread_ = std::thread([this] { serve(); });
  }
  ~EchoServer() {
    stop_.store(true);
    thread_.join();
  }
  EchoServer(const EchoServer&) = delete;
  EchoServer& operator=(const EchoServer&) = delete;

  [[nodiscard]] int port() const { return port_; }
  /// Whether the serving thread has hit an error.
  [[nodiscard]] bool failed() const { return failed_.load(); }

 private:
  /// Waits until `fd` is readable or the server is stopping.
  bool wait_readable(int fd) const {
    pollfd p{fd, POLLIN, 0};
    while (!stop_.load()) {
      const int r = ::poll(&p, 1, 20);
      if (r > 0) return true;
      if (r < 0 && errno != EINTR) return false;
    }
    return false;
  }

  void serve() {
    try {
      while (wait_readable(listen_.get())) {
        const Fd conn(::accept(listen_.get(), nullptr, nullptr));
        if (conn.get() < 0) continue;
        const int one = 1;
        (void)::setsockopt(conn.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                           sizeof(one));
        std::string buffer;
        bool preamble_seen = false;
        while (wait_readable(conn.get()) && recv_some(conn.get(), buffer)) {
          if (!preamble_seen && buffer.size() >= rtr::kWirePreambleBytes) {
            buffer.erase(0, rtr::kWirePreambleBytes);
            preamble_seen = true;
          }
          if (!preamble_seen) continue;
          rtr::WireRequest request;
          rtr::WireParseStatus status = rtr::WireParseStatus::kNeedMore;
          while ((status = rtr::parse_wire_request(buffer, request)) ==
                 rtr::WireParseStatus::kOk) {
            send_all(conn.get(), canned_);
          }
          if (status == rtr::WireParseStatus::kMalformed) {
            throw std::runtime_error("echo: malformed request frame");
          }
        }
      }
    } catch (...) {
      failed_.store(true);
    }
  }

  Fd listen_;
  int port_ = 0;
  std::string canned_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_NETCLIENT_H
