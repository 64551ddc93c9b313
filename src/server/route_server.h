// The rtr_routed serving core: a TCP front end over the epoch serving stack.
//
// Connections speak either HTTP/1.1 (GET /route, /healthz, /stats --
// keep-alive and pipelining supported) or the rtr-wire/1 binary framing; the
// protocol is sniffed from the first byte of the connection (binary sessions
// open with the "RTRWIRE1" preamble, and no HTTP method starts with 'R').
//
// Request flow: every accepted connection gets its own thread, which parses
// each request and answers it in place -- a route query pins the current
// epoch, validates and translates the names, and walks the scheme with
// QueryEngine::serve (serve_by_name), so an epoch swap never straddles a
// query.  Connections share nothing on this path but the epoch pointer and
// the stat counters.
//
// The server reads its epochs through the ServingSource interface: the
// EpochManager adapter serves live-churn traffic (queries keep completing
// against the pinned epoch while the next one builds -- the availability
// property the net_serving bench gates at 1.0), and the static adapter
// serves one fixed epoch (e.g. rtr_routed --snapshot).
#ifndef RTR_SERVER_ROUTE_SERVER_H
#define RTR_SERVER_ROUTE_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/epoch_manager.h"
#include "server/http.h"
#include "util/json.h"

namespace rtr {

/// Where the server gets the epoch it serves.  Implementations must be
/// thread-safe: every connection thread calls these concurrently.
class ServingSource {
 public:
  virtual ~ServingSource() = default;
  /// The epoch to answer from; nullptr means kEpochUnavailable.  Its
  /// engine's naming is the fixed TINN naming queries are keyed by.
  [[nodiscard]] virtual std::shared_ptr<const Epoch> current_epoch() const = 0;
  [[nodiscard]] virtual const std::string& scheme_name() const = 0;
  /// Epoch preprocessing counters surfaced through /stats: how the epochs
  /// this source serves came to be (full rebuilds vs incremental repairs)
  /// and what the most recent preprocess cost.  All-zero default: a static
  /// source never rebuilds.
  [[nodiscard]] virtual EpochManager::Counters epoch_counters() const {
    return {};
  }
};

/// Serves whatever epoch the manager currently publishes (live churn).
class ManagerServingSource final : public ServingSource {
 public:
  explicit ManagerServingSource(const EpochManager& manager)
      : manager_(manager) {}
  [[nodiscard]] std::shared_ptr<const Epoch> current_epoch() const override {
    return manager_.current();
  }
  [[nodiscard]] const std::string& scheme_name() const override {
    return manager_.scheme_name();
  }
  [[nodiscard]] EpochManager::Counters epoch_counters() const override {
    return manager_.counters();
  }

 private:
  const EpochManager& manager_;
};

/// Serves one fixed epoch forever (snapshot serving, tests).
class StaticServingSource final : public ServingSource {
 public:
  StaticServingSource(std::shared_ptr<const Epoch> epoch,
                      std::string scheme_name)
      : epoch_(std::move(epoch)), scheme_name_(std::move(scheme_name)) {}
  [[nodiscard]] std::shared_ptr<const Epoch> current_epoch() const override {
    return epoch_;
  }
  [[nodiscard]] const std::string& scheme_name() const override {
    return scheme_name_;
  }

 private:
  std::shared_ptr<const Epoch> epoch_;
  std::string scheme_name_;
};

struct RouteServerOptions {
  /// Loopback by default; the server is a trusted-network component.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; RouteServer::port() reports the actual one.
  int port = 0;
  /// Accept-loop threads sharing one listening socket (thread-per-core when
  /// set to the core count; every accepted connection still gets its own
  /// handler thread so keep-alive sessions cannot starve the accept loop).
  int acceptor_threads = 1;
  /// Ignored: each query is answered on its connection thread.  Still
  /// declared so existing callers compile.
  int batch_threads = 0;
  /// How often blocked reads re-check the stop flag.
  int poll_interval_ms = 50;
  HttpLimits http_limits;
};

struct RouteServerStats {
  std::uint64_t connections = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t wire_requests = 0;
  std::uint64_t queries_ok = 0;
  /// Indexed by ServingError enumerator value (0 unused -- that's kNone).
  std::uint64_t errors[6] = {0, 0, 0, 0, 0, 0};
  /// Queries that reached QueryEngine::serve, each counted as a batch of
  /// one: batches == batched_queries, and max_batch is 1 once any has.
  std::uint64_t batches = 0;
  std::uint64_t batched_queries = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t protocol_errors = 0;  ///< malformed HTTP/wire inputs
};

class RouteServer {
 public:
  /// Binds and starts serving immediately (acceptors running when the
  /// constructor returns).  Throws std::runtime_error when the
  /// socket cannot be bound.  `source` must outlive the server.
  RouteServer(const ServingSource& source, RouteServerOptions options = {});
  ~RouteServer();

  RouteServer(const RouteServer&) = delete;
  RouteServer& operator=(const RouteServer&) = delete;

  /// The bound TCP port (resolves option `port` 0 to the actual ephemeral
  /// port via getsockname).
  [[nodiscard]] int port() const { return port_; }

  /// Stops accepting, completes in-flight requests, joins every thread.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] RouteServerStats stats() const;

  /// The /stats JSON document (also what the endpoint serves).
  [[nodiscard]] Json stats_json() const;

 private:
  /// One live connection-handler thread; `done` lets the accept loop reap
  /// finished sessions instead of accumulating joinable threads forever.
  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void handle_connection(int fd);

  /// Answers one route query on the calling thread and counts it.
  [[nodiscard]] ServingResult serve_query(NodeName src, NodeName dst);

  [[nodiscard]] std::string handle_http(const HttpRequest& request);
  void count_result(const ServingResult& result);

  const ServingSource& source_;
  RouteServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> stop_{false};

  std::vector<std::thread> acceptors_;
  std::mutex connections_mutex_;
  std::vector<Conn> connections_;

  std::atomic<std::uint64_t> connections_count_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> wire_requests_{0};
  std::atomic<std::uint64_t> queries_ok_{0};
  std::atomic<std::uint64_t> error_counts_[6] = {};
  std::atomic<std::uint64_t> routed_{0};  ///< queries that reached serve()
  std::atomic<std::uint64_t> protocol_errors_{0};
};

/// The JSON body for one /route answer ({"ok", "error", "epoch", ...});
/// shared by the server and the golden-response tests.
[[nodiscard]] Json route_response_json(NodeName src, NodeName dst,
                                       const ServingResult& result);

/// HTTP status for a ServingResult: 200 for delivered AND for unreachable
/// (a valid query whose answer is "no route"), 400 for the caller's bad
/// input, 500 for a scheme failure, 503 when no epoch is available.
[[nodiscard]] int http_status_for(const ServingResult& result);

}  // namespace rtr

#endif  // RTR_SERVER_ROUTE_SERVER_H
