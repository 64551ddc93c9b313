// RouteServer integration tests over real loopback sockets: golden
// request/response pairs for both protocols, the malformed-input taxonomy
// (bad name, oversized URI, truncated binary frame), pipelined keep-alive,
// concurrent pipelined clients answered exactly as QueryEngine::serve
// answers, pipelined bursts answered without Nagle delays, and -- the
// serving property this subsystem exists for -- zero
// dropped queries while the epoch swaps live under concurrent load.  CI runs
// every suite in this file under -fsanitize=thread.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/churn.h"
#include "graph/generators.h"
#include "serve/epoch_manager.h"
#include "server/route_server.h"
#include "server/wire.h"
#include "util/json.h"
#include "test_support.h"

namespace rtr {
namespace {

Digraph small_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return random_strongly_connected(n, 4.0, 5, rng).freeze();
}

NameAssignment small_names(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  return NameAssignment::random(n, rng);
}

/// A blocking loopback client connection for driving the server in-process.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  [[nodiscard]] bool connected() const { return connected_; }

  [[nodiscard]] bool send_all(const std::string& data) const {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Appends available bytes to `buffer_`; false on orderly close or error.
  [[nodiscard]] bool recv_some() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Reads one full HTTP response off the connection; false on close.
  [[nodiscard]] bool read_http_response(int& status, std::string& body) {
    std::size_t head_end = std::string::npos;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!recv_some()) return false;
    }
    const std::size_t sp = buffer_.find(' ');
    if (sp == std::string::npos || sp + 4 > head_end) return false;
    status = (buffer_[sp + 1] - '0') * 100 + (buffer_[sp + 2] - '0') * 10 +
             (buffer_[sp + 3] - '0');
    std::size_t content_length = 0;
    const std::string head = buffer_.substr(0, head_end);
    std::size_t at = head.find("Content-Length:");
    if (at == std::string::npos) return false;
    at += 15;
    while (at < head.size() && head[at] == ' ') ++at;
    while (at < head.size() && head[at] >= '0' && head[at] <= '9') {
      content_length =
          content_length * 10 + static_cast<std::size_t>(head[at] - '0');
      ++at;
    }
    while (buffer_.size() < head_end + 4 + content_length) {
      if (!recv_some()) return false;
    }
    body = buffer_.substr(head_end + 4, content_length);
    buffer_.erase(0, head_end + 4 + content_length);
    return true;
  }

  /// True when the peer has closed the connection (blocking read hits EOF
  /// with no buffered bytes left).
  [[nodiscard]] bool closed_by_peer() {
    return buffer_.empty() && !recv_some();
  }

  [[nodiscard]] std::string& buffer() { return buffer_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

[[nodiscard]] std::string route_request(NodeName src, NodeName dst,
                                        bool keep_alive = true) {
  std::string r = "GET /route?src=" + std::to_string(src) +
                  "&dst=" + std::to_string(dst) + " HTTP/1.1\r\nHost: t\r\n";
  if (!keep_alive) r += "Connection: close\r\n";
  r += "\r\n";
  return r;
}

// The epoch-counter block of an rtr-stats/1 document, pinned key by key and
// type by type: five members right after "protocol_errors", in this order,
// carrying the source's EpochManager counters (integers, then two doubles).
void expect_epoch_counter_block(const Json& stats,
                                const EpochManager::Counters& c) {
  const JsonObject& fields = stats.as_object();
  const auto first =
      std::find_if(fields.begin(), fields.end(),
                   [](const auto& kv) { return kv.first == "epochs_built"; });
  ASSERT_NE(first, fields.begin());
  ASSERT_GE(fields.end() - first, 5);
  EXPECT_EQ((first - 1)->first, "protocol_errors");
  const JsonObject expected = {
      {"epochs_built", Json(static_cast<std::int64_t>(c.epochs_built))},
      {"repairs", Json(static_cast<std::int64_t>(c.repairs))},
      {"repair_fallbacks", Json(static_cast<std::int64_t>(c.repair_fallbacks))},
      {"last_rebuild_ms", Json(c.last_rebuild_ms)},
      {"last_repair_ms", Json(c.last_repair_ms)},
  };
  EXPECT_TRUE(JsonObject(first, first + 5) == expected)
      << Json(JsonObject(first, first + 5)).dump();
}

class RouteServerTest : public ::testing::Test {
 protected:
  static constexpr NodeId kNodes = 48;
  RouteServerTest()
      : manager_("stretch6", small_names(kNodes, 11), small_graph(kNodes, 12)),
        source_(manager_),
        server_(source_) {}

  EpochManager manager_;
  ManagerServingSource source_;
  RouteServer server_;
};

TEST_F(RouteServerTest, HttpRouteGoldenResponse) {
  const auto& names = manager_.names();
  const NodeName src = names.name_of(2);
  const NodeName dst = names.name_of(9);
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all(route_request(src, dst)));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 200);

  // The body must be byte-identical to the shared JSON model's rendering of
  // the same ServingResult -- the golden-response contract.
  const Json doc = Json::parse(body);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("error").as_string(), "none");
  EXPECT_EQ(doc.at("src").as_int(), src);
  EXPECT_EQ(doc.at("dst").as_int(), dst);
  EXPECT_GT(doc.at("roundtrip_length").as_int(), 0);
  EXPECT_GT(doc.at("out_hops").as_int(), 0);
  const ServingResult expect = manager_.roundtrip_by_name(src, dst);
  EXPECT_EQ(body, route_response_json(src, dst, expect).dump());
}

TEST_F(RouteServerTest, HealthzAndStatsAnswerInline) {
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("GET /healthz HTTP/1.1\r\n\r\n"));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 200);
  Json health = Json::parse(body);
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("scheme").as_string(), "stretch6");
  EXPECT_EQ(health.at("nodes").as_int(), kNodes);

  ASSERT_TRUE(client.send_all("GET /stats HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 200);
  Json stats = Json::parse(body);
  EXPECT_EQ(stats.at("schema").as_string(), "rtr-stats/1");
  EXPECT_GE(stats.at("connections").as_int(), 1);
  // No rebuild has run: the block is all zeros, integers then doubles.
  expect_epoch_counter_block(stats, manager_.counters());
  EXPECT_NE(body.find("\"repair_fallbacks\": 0,\n  \"last_rebuild_ms\": 0.0,\n"
                      "  \"last_repair_ms\": 0.0"),
            std::string::npos)
      << body;
}

TEST_F(RouteServerTest, UnknownNameIs400InvalidName) {
  // Publish epoch 1 first, so the pinned epoch an invalid_name answer
  // carries differs from the 0 that means "no epoch pinned".
  manager_.rebuild_now(small_graph(kNodes, 13));
  const NodeName src = manager_.names().name_of(0);
  const NodeName dst = kNodes * 1000 + 17;
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all(route_request(src, dst)));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 400);
  const Json doc = Json::parse(body);
  EXPECT_EQ(doc.at("error").as_string(), "invalid_name");
  EXPECT_EQ(doc.at("epoch").as_int(), 1);
  // The server and the manager's name-keyed path give the same answer.
  EXPECT_EQ(body, route_response_json(src, dst,
                                      manager_.roundtrip_by_name(src, dst))
                      .dump());
}

TEST_F(RouteServerTest, MissingParamsAre400InvalidQuery) {
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("GET /route?src=1 HTTP/1.1\r\n\r\n"));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 400);
  EXPECT_EQ(Json::parse(body).at("error").as_string(), "invalid_query");
}

TEST_F(RouteServerTest, MalformedRequestLineIs400AndCloses) {
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("BOGUS\r\n\r\n"));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 400);
  EXPECT_TRUE(client.closed_by_peer());
}

TEST_F(RouteServerTest, OversizedUriIs414AndCloses) {
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  const std::string huge =
      "GET /route?src=" + std::string(8192, '1') + " HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(client.send_all(huge));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 414);
  EXPECT_TRUE(client.closed_by_peer());
}

TEST_F(RouteServerTest, UnknownPathAndMethod) {
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("GET /nope HTTP/1.1\r\n\r\n"));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 404);
  ASSERT_TRUE(client.send_all("POST /route HTTP/1.1\r\n\r\n"));
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 405);
}

TEST_F(RouteServerTest, PipelinedKeepAliveAnswersInOrder) {
  const auto& names = manager_.names();
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  // Three requests in one write; the middle one is an error -- responses
  // must come back in order on the same connection.
  std::string burst = route_request(names.name_of(1), names.name_of(2));
  burst += route_request(names.name_of(1), kNodes * 1000 + 3);
  burst += route_request(names.name_of(3), names.name_of(4));
  ASSERT_TRUE(client.send_all(burst));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(Json::parse(body).at("dst").as_int(), names.name_of(2));
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(client.read_http_response(status, body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(Json::parse(body).at("src").as_int(), names.name_of(3));
}

TEST_F(RouteServerTest, BinarySessionRoundTripsAndPipelines) {
  const auto& names = manager_.names();
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  std::string session(kWirePreamble, kWirePreambleBytes);
  session += encode_wire_request(WireRequest{names.name_of(5),
                                             names.name_of(11)});
  session += encode_wire_request(WireRequest{names.name_of(5), -999});
  ASSERT_TRUE(client.send_all(session));

  WireResponse response;
  WireParseStatus status = WireParseStatus::kNeedMore;
  while ((status = parse_wire_response(client.buffer(), response)) ==
         WireParseStatus::kNeedMore) {
    ASSERT_TRUE(client.recv_some());
  }
  ASSERT_EQ(status, WireParseStatus::kOk);
  EXPECT_TRUE(response.ok());
  EXPECT_GT(response.roundtrip_length, 0);

  while ((status = parse_wire_response(client.buffer(), response)) ==
         WireParseStatus::kNeedMore) {
    ASSERT_TRUE(client.recv_some());
  }
  ASSERT_EQ(status, WireParseStatus::kOk);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error,
            static_cast<std::uint32_t>(ServingError::kInvalidName));
}

TEST_F(RouteServerTest, TruncatedBinaryFrameClosesWithoutAnAnswer) {
  TestClient client(server_.port());
  ASSERT_TRUE(client.connected());
  std::string session(kWirePreamble, kWirePreambleBytes);
  // A frame claiming 64 payload bytes: not a legal request frame, so the
  // server must drop the session instead of waiting for the rest.
  append_u32le(session, 64);
  session += "partial";
  ASSERT_TRUE(client.send_all(session));
  EXPECT_TRUE(client.closed_by_peer());
  EXPECT_GE(server_.stats().protocol_errors, 1u);
}

// Connection threads call QueryEngine::serve concurrently, with nothing
// between them to serialize the walks.  Three clients -- two rtr-wire/1
// sessions and one HTTP keep-alive connection -- each send pipelined bursts
// against one static epoch; every answer must be byte-identical to
// QueryEngine::serve's on that epoch, and every query must count as a batch
// of one.  ThreadSanitizer target: CI reruns this under -fsanitize=thread.
TEST(RouteServerConcurrency, PipelinedClientsMatchEngineServe) {
  const NodeId n = 48;
  EpochManager manager("rtz3", small_names(n, 30), small_graph(n, 31));
  // Serve epoch 1, so a missing epoch stamp (0) cannot pass for the real one.
  manager.rebuild_now(small_graph(n, 32));
  const std::shared_ptr<const Epoch> epoch = manager.current();
  StaticServingSource source(epoch, "rtz3");
  RouteServer server(source);
  const NameAssignment& names = epoch->engine->names();

  constexpr int kClients = 3;
  constexpr int kBursts = 25;
  constexpr int kBurst = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const bool binary = c != 1;
      TestClient client(server.port());
      ASSERT_TRUE(client.connected());
      if (binary) {
        ASSERT_TRUE(client.send_all(
            std::string(kWirePreamble, kWirePreambleBytes)));
      }
      Rng rng(static_cast<std::uint64_t>(c) + 300);
      for (int b = 0; b < kBursts; ++b) {
        std::vector<std::pair<NodeName, NodeName>> pairs;
        std::string burst;
        for (int i = 0; i < kBurst; ++i) {
          const auto& [src, dst] = pairs.emplace_back(
              names.name_of(static_cast<NodeId>(rng.index(n))),
              names.name_of(static_cast<NodeId>(rng.index(n))));
          burst += binary ? encode_wire_request(WireRequest{src, dst})
                          : route_request(src, dst);
        }
        ASSERT_TRUE(client.send_all(burst));
        for (const auto& [src, dst] : pairs) {
          ServingResult want =
              epoch->engine->serve(names.id_of(src), names.id_of(dst));
          want.epoch = epoch->seq;
          std::string got;
          std::string expect;
          if (binary) {
            expect = encode_wire_response(want);
            while (client.buffer().size() < expect.size()) {
              ASSERT_TRUE(client.recv_some());
            }
            got = client.buffer().substr(0, expect.size());
            client.buffer().erase(0, expect.size());
          } else {
            int status = 0;
            ASSERT_TRUE(client.read_http_response(status, got));
            EXPECT_EQ(status, http_status_for(want));
            expect = route_response_json(src, dst, want).dump();
          }
          EXPECT_EQ(got, expect) << "client " << c << ": " << src << "->" << dst;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // What GET /stats serves.
  const Json stats = server.stats_json();
  const std::int64_t routed = kClients * kBursts * kBurst;
  EXPECT_EQ(stats.at("batches").as_int(), routed);
  EXPECT_EQ(stats.at("batched_queries").as_int(), routed);
  EXPECT_EQ(stats.at("max_batch").as_int(), 1);
}

// The server writes each pipelined answer with its own send(), so accepted
// sockets must carry TCP_NODELAY: under Nagle every answer after the first
// of a burst waits for the client's delayed ACK, about 40 ms a burst on
// Linux, so these 10 bursts would take at least 400 ms.
TEST(RouteServerConcurrency, PipelinedBurstsAreNotHeldBackByNagle) {
  const NodeId n = 48;
  EpochManager manager("rtz3", small_names(n, 30), small_graph(n, 31));
  StaticServingSource source(manager.current(), "rtz3");
  RouteServer server(source);
  const NameAssignment& names = manager.names();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(
      client.send_all(std::string(kWirePreamble, kWirePreambleBytes)));
  constexpr int kBursts = 10;
  constexpr int kBurst = 8;
  const auto start = std::chrono::steady_clock::now();
  for (int b = 0; b < kBursts; ++b) {
    std::string burst;
    for (int i = 0; i < kBurst; ++i) {
      burst += encode_wire_request(
          WireRequest{names.name_of(i), names.name_of(kBurst + b + i)});
    }
    ASSERT_TRUE(client.send_all(burst));
    for (int i = 0; i < kBurst; ++i) {
      WireResponse response;
      WireParseStatus status = WireParseStatus::kNeedMore;
      while ((status = parse_wire_response(client.buffer(), response)) ==
             WireParseStatus::kNeedMore) {
        ASSERT_TRUE(client.recv_some());
      }
      ASSERT_EQ(status, WireParseStatus::kOk);
      EXPECT_TRUE(response.ok());
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(200))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms for " << kBursts << " bursts of " << kBurst;
}

// The availability property, asserted end to end: concurrent HTTP clients
// hammer /route while the topology churns and three epochs publish; every
// single query must come back with a definitive answer (200 with ok or
// unreachable -- never a dropped connection, never epoch_unavailable).
// ThreadSanitizer target: CI reruns this under -fsanitize=thread.
TEST(RouteServerChurn, ZeroDroppedQueriesAcrossLiveEpochSwaps) {
  const NodeId n = 48;
  Digraph graph = small_graph(n, 21);
  EpochManager manager("stretch6", small_names(n, 20), Digraph(graph));
  ManagerServingSource source(manager);
  RouteServer server(source);

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 120;
  std::atomic<std::int64_t> answered{0};
  std::atomic<std::int64_t> dropped{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TestClient client(server.port());
      if (!client.connected()) {
        dropped.fetch_add(kRequestsPerClient);
        return;
      }
      Rng rng(static_cast<std::uint64_t>(c) + 100);
      const auto& names = manager.names();
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto src = names.name_of(static_cast<NodeId>(rng.index(n)));
        const auto dst = names.name_of(static_cast<NodeId>(rng.index(n)));
        if (!client.send_all(route_request(src, dst))) {
          dropped.fetch_add(1);
          return;
        }
        int status = 0;
        std::string body;
        if (!client.read_http_response(status, body)) {
          dropped.fetch_add(1);
          return;
        }
        // src == dst draws are a legitimate 400; everything else must be a
        // served answer from SOME epoch.
        if (status != 200 && !(status == 400 && src == dst)) {
          dropped.fetch_add(1);
          return;
        }
        answered.fetch_add(1);
      }
    });
  }

  // Three live swaps racing the clients.
  Rng churn_rng(77);
  ChurnOptions churn;
  for (int swap = 0; swap < 3; ++swap) {
    graph = churn_step(graph, churn, churn_rng);
    manager.rebuild_now(Digraph(graph));
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(dropped.load(), 0);
  EXPECT_EQ(answered.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(manager.epoch(), 3u);
  const RouteServerStats stats = server.stats();
  EXPECT_EQ(stats.errors[static_cast<int>(ServingError::kEpochUnavailable)],
            0u)
      << "an epoch swap must never surface as unavailability";
  EXPECT_EQ(stats.errors[static_cast<int>(ServingError::kSchemeFailure)], 0u);
  const EpochManager::Counters counters = manager.counters();
  EXPECT_EQ(counters.epochs_built, 3u);
  EXPECT_GT(counters.last_rebuild_ms, 0.0);
  expect_epoch_counter_block(server.stats_json(), counters);
  server.stop();
}

}  // namespace
}  // namespace rtr
