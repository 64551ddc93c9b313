#include "server/route_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <stdexcept>

#include "server/wire.h"

namespace rtr {

namespace {

/// Full-consumption integer parse for query parameters; rejects "", "12x",
/// and values outside NodeName's 32-bit range.
[[nodiscard]] bool parse_name(const std::string& s, NodeName& out) {
  std::int64_t v = 0;
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end) return false;
  if (v < INT32_MIN || v > INT32_MAX) return false;
  out = static_cast<NodeName>(v);
  return true;
}

void set_recv_timeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = static_cast<suseconds_t>((millis % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Blocking send of the whole buffer; false on a broken connection.
[[nodiscard]] bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int http_status_for(const ServingResult& result) {
  switch (result.error) {
    case ServingError::kNone:
    case ServingError::kUnreachable:
      return 200;
    case ServingError::kInvalidName:
    case ServingError::kInvalidQuery:
      return 400;
    case ServingError::kSchemeFailure:
      return 500;
    case ServingError::kEpochUnavailable:
      return 503;
  }
  return 500;
}

Json route_response_json(NodeName src, NodeName dst,
                         const ServingResult& result) {
  Json body{JsonObject{}};
  body.set("ok", result.ok());
  body.set("error", serving_error_name(result.error));
  body.set("epoch", static_cast<std::int64_t>(result.epoch));
  body.set("src", static_cast<std::int64_t>(src));
  body.set("dst", static_cast<std::int64_t>(dst));
  if (result.ok()) {
    body.set("roundtrip_length",
             static_cast<std::int64_t>(result.route.roundtrip_length()));
    body.set("out_hops", static_cast<std::int64_t>(result.route.out_hops));
    body.set("back_hops", static_cast<std::int64_t>(result.route.back_hops));
    body.set("max_header_bits",
             static_cast<std::int64_t>(result.route.max_header_bits));
  } else {
    body.set("message", result.message);
  }
  return body;
}

RouteServer::RouteServer(const ServingSource& source,
                         RouteServerOptions options)
    : source_(source), options_(std::move(options)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("RouteServer: socket() failed");
  }
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    throw std::runtime_error("RouteServer: bad bind address " +
                             options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("RouteServer: cannot bind " +
                             options_.bind_address + ":" +
                             std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }

  const int acceptors = std::max(options_.acceptor_threads, 1);
  acceptors_.reserve(static_cast<std::size_t>(acceptors));
  for (int i = 0; i < acceptors; ++i) {
    acceptors_.emplace_back([this] { accept_loop(); });
  }
}

RouteServer::~RouteServer() { stop(); }

void RouteServer::stop() {
  if (stop_.exchange(true)) return;
  // Stop the intake first.  The acceptors still poll listen_fd_ until they
  // observe stop_, so only shut the socket down here (wakes any poller) and
  // defer close() until after the joins -- closing early would both race the
  // plain-int read of listen_fd_ and risk the kernel reusing the fd under a
  // concurrent accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& t : acceptors_) t.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connection threads notice stop_ at their next recv timeout, finish any
  // in-flight request, and exit.
  std::vector<Conn> conns;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    conns.swap(connections_);
  }
  for (auto& c : conns) c.thread.join();
}

void RouteServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (stop_.load(std::memory_order_acquire)) return;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    set_recv_timeout(fd, options_.poll_interval_ms);
    // Each answer goes out with its own send(); without this, Nagle holds
    // every answer after the first of a pipelined burst until the client's
    // delayed ACK (~40 ms on Linux).
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_count_.fetch_add(1, std::memory_order_relaxed);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread handler([this, fd, done] {
      handle_connection(fd);
      done->store(true, std::memory_order_release);
    });
    std::lock_guard<std::mutex> lock(connections_mutex_);
    // Reap finished sessions so a long-lived server does not accumulate one
    // joinable thread per connection it ever served.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    connections_.push_back(Conn{std::move(handler), std::move(done)});
  }
}

ServingResult RouteServer::serve_query(NodeName src, NodeName dst) {
  const ServingResult result =
      serve_by_name(source_.current_epoch(), src, dst);
  // serve() never answers these two codes, so any other answer walked the
  // scheme: a batch of one in the rtr-stats/1 batch counters.
  if (result.error != ServingError::kInvalidName &&
      result.error != ServingError::kEpochUnavailable) {
    routed_.fetch_add(1, std::memory_order_relaxed);
  }
  count_result(result);
  return result;
}

void RouteServer::count_result(const ServingResult& result) {
  if (result.ok()) {
    queries_ok_.fetch_add(1, std::memory_order_relaxed);
  } else {
    const auto code = static_cast<std::size_t>(result.error);
    error_counts_[code < 6 ? code : 0].fetch_add(1, std::memory_order_relaxed);
  }
}

std::string RouteServer::handle_http(const HttpRequest& request) {
  http_requests_.fetch_add(1, std::memory_order_relaxed);
  if (request.method != "GET") {
    Json body{JsonObject{}};
    body.set("error", "method_not_allowed");
    return make_http_response(405, body.dump(), request.keep_alive);
  }

  if (request.path == "/healthz") {
    const auto epoch = source_.current_epoch();
    Json body{JsonObject{}};
    body.set("status", epoch != nullptr ? "ok" : "unavailable");
    body.set("scheme", source_.scheme_name());
    if (epoch != nullptr) {
      body.set("nodes",
               static_cast<std::int64_t>(epoch->engine->names().node_count()));
      body.set("epoch", static_cast<std::int64_t>(epoch->seq));
    }
    return make_http_response(epoch != nullptr ? 200 : 503, body.dump(),
                              request.keep_alive);
  }

  if (request.path == "/stats") {
    return make_http_response(200, stats_json().dump(), request.keep_alive);
  }

  if (request.path == "/route") {
    const std::string* src_raw = find_query_param(request, "src");
    const std::string* dst_raw = find_query_param(request, "dst");
    NodeName src = 0;
    NodeName dst = 0;
    if (src_raw == nullptr || dst_raw == nullptr ||
        !parse_name(*src_raw, src) || !parse_name(*dst_raw, dst)) {
      const auto bad = ServingResult::failure(
          ServingError::kInvalidQuery,
          "src and dst must be integer node names");
      count_result(bad);
      return make_http_response(http_status_for(bad),
                                route_response_json(0, 0, bad).dump(),
                                request.keep_alive);
    }
    // An explicit scheme selector must match what this process serves --
    // epochs of a different scheme live in a different rtr_routed.
    const std::string* scheme = find_query_param(request, "scheme");
    if (scheme != nullptr && *scheme != source_.scheme_name()) {
      const auto miss = ServingResult::failure(
          ServingError::kEpochUnavailable,
          "scheme " + *scheme + " not served (serving " +
              source_.scheme_name() + ")");
      count_result(miss);
      return make_http_response(http_status_for(miss),
                                route_response_json(src, dst, miss).dump(),
                                request.keep_alive);
    }
    const ServingResult result = serve_query(src, dst);
    return make_http_response(http_status_for(result),
                              route_response_json(src, dst, result).dump(),
                              request.keep_alive);
  }

  Json body{JsonObject{}};
  body.set("error", "not_found");
  return make_http_response(404, body.dump(), request.keep_alive);
}

void RouteServer::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool protocol_known = false;
  bool binary = false;

  const auto fail_protocol = [&] {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // Drain every complete request already buffered before reading more
    // (keep-alive pipelining), then block -- with a timeout so stop() is
    // honored -- for the next bytes.
    bool close_connection = false;
    bool need_more = false;
    while (!close_connection && !need_more) {
      if (!protocol_known) {
        if (buffer.empty()) {
          need_more = true;
          break;
        }
        if (buffer[0] == kWirePreamble[0]) {
          if (buffer.size() < kWirePreambleBytes) {
            need_more = true;
            break;
          }
          if (buffer.compare(0, kWirePreambleBytes, kWirePreamble,
                             kWirePreambleBytes) != 0) {
            fail_protocol();
            close_connection = true;
            break;
          }
          buffer.erase(0, kWirePreambleBytes);
          binary = true;
        }
        protocol_known = true;
      }

      if (binary) {
        WireRequest request;
        const WireParseStatus status = parse_wire_request(buffer, request);
        if (status == WireParseStatus::kNeedMore) {
          need_more = true;
        } else if (status == WireParseStatus::kMalformed) {
          fail_protocol();
          close_connection = true;
        } else {
          wire_requests_.fetch_add(1, std::memory_order_relaxed);
          const ServingResult result = serve_query(request.src, request.dst);
          if (!send_all(fd, encode_wire_response(result))) {
            close_connection = true;
          }
        }
        continue;
      }

      HttpRequest request;
      const HttpParseStatus status =
          parse_http_request(buffer, request, options_.http_limits);
      switch (status) {
        case HttpParseStatus::kNeedMore:
          need_more = true;
          break;
        case HttpParseStatus::kOk: {
          const std::string response = handle_http(request);
          if (!send_all(fd, response) || !request.keep_alive) {
            close_connection = true;
          }
          break;
        }
        case HttpParseStatus::kBadRequest:
        case HttpParseStatus::kUriTooLong:
        case HttpParseStatus::kHeadersTooLarge: {
          fail_protocol();
          const int code = status == HttpParseStatus::kUriTooLong     ? 414
                           : status == HttpParseStatus::kHeadersTooLarge ? 431
                                                                         : 400;
          Json body{JsonObject{}};
          body.set("error", "malformed_request");
          (void)send_all(fd, make_http_response(code, body.dump(), false));
          close_connection = true;
          break;
        }
      }
    }
    if (close_connection) break;

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;  // peer closed
    } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      continue;  // recv timeout: re-check stop_ and block again
    } else {
      break;
    }
  }
  ::close(fd);
}

RouteServerStats RouteServer::stats() const {
  RouteServerStats s;
  s.connections = connections_count_.load(std::memory_order_relaxed);
  s.http_requests = http_requests_.load(std::memory_order_relaxed);
  s.wire_requests = wire_requests_.load(std::memory_order_relaxed);
  s.queries_ok = queries_ok_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 6; ++i) {
    s.errors[i] = error_counts_[i].load(std::memory_order_relaxed);
  }
  s.batches = routed_.load(std::memory_order_relaxed);
  s.batched_queries = s.batches;
  s.max_batch = s.batches > 0 ? 1 : 0;
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

Json RouteServer::stats_json() const {
  const RouteServerStats s = stats();
  Json doc{JsonObject{}};
  doc.set("schema", "rtr-stats/1");
  doc.set("scheme", source_.scheme_name());
  doc.set("connections", static_cast<std::int64_t>(s.connections));
  doc.set("http_requests", static_cast<std::int64_t>(s.http_requests));
  doc.set("wire_requests", static_cast<std::int64_t>(s.wire_requests));
  doc.set("queries_ok", static_cast<std::int64_t>(s.queries_ok));
  Json errors{JsonObject{}};
  for (std::size_t i = 1; i < 6; ++i) {
    errors.set(serving_error_name(static_cast<ServingError>(i)),
               static_cast<std::int64_t>(s.errors[i]));
  }
  doc.set("errors", std::move(errors));
  doc.set("batches", static_cast<std::int64_t>(s.batches));
  doc.set("batched_queries", static_cast<std::int64_t>(s.batched_queries));
  doc.set("max_batch", static_cast<std::int64_t>(s.max_batch));
  doc.set("protocol_errors", static_cast<std::int64_t>(s.protocol_errors));
  const EpochManager::Counters r = source_.epoch_counters();
  doc.set("epochs_built", static_cast<std::int64_t>(r.epochs_built));
  doc.set("repairs", static_cast<std::int64_t>(r.repairs));
  doc.set("repair_fallbacks", static_cast<std::int64_t>(r.repair_fallbacks));
  doc.set("last_rebuild_ms", r.last_rebuild_ms);
  doc.set("last_repair_ms", r.last_repair_ms);
  const auto epoch = source_.current_epoch();
  if (epoch != nullptr) {
    doc.set("epoch", static_cast<std::int64_t>(epoch->seq));
  }
  return doc;
}

}  // namespace rtr
