#include "net/server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "net/client.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "util/crc32.h"

namespace approxql::net {
namespace {

using engine::Database;
using engine::ExecOptions;
using engine::Strategy;
using service::QueryService;
using service::ServiceOptions;

std::vector<std::string> CatalogDocs() {
  return {
      "<catalog><cd><title>piano concerto</title>"
      "<composer>rachmaninov</composer></cd></catalog>",
      "<catalog><cd><title>goldberg variations</title>"
      "<composer>bach</composer></cd></catalog>",
  };
}

Database MakeDb() {
  cost::CostModel model;
  model.SetRenameCost(NodeType::kText, "concerto", "variations", 3);
  model.SetDeleteCost(NodeType::kText, "piano", 5);
  auto db = Database::BuildFromXml(CatalogDocs(), std::move(model));
  APPROXQL_CHECK(db.ok()) << db.status();
  return std::move(db).value();
}

constexpr char kQuery[] = R"(cd[title["piano" and "concerto"]])";

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServiceOptions service_options = {.num_threads = 2},
                   ServerOptions server_options = {}) {
    db_ = std::make_unique<Database>(MakeDb());
    service_ = std::make_unique<QueryService>(*db_, service_options);
    server_ = std::make_unique<Server>(*service_, *db_, server_options);
    auto started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
  }

  void TearDown() override {
    if (server_) server_->Shutdown(/*drain=*/true);
  }

  Client MakeClient() {
    ClientOptions options;
    options.port = server_->port();
    return Client(options);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<Server> server_;  // after service_: destroyed first
};

// --- raw-socket helpers (protocol abuse the Client cannot produce) ---------

int ConnectRaw(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0 && errno != EINTR) return false;
    if (n > 0) sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until `count` frames decode, EOF, or a 5 s safety timeout.
/// Returns the frames read (possibly fewer than requested on EOF).
std::vector<std::pair<FrameHeader, std::string>> ReadFrames(int fd,
                                                            size_t count) {
  std::vector<std::pair<FrameHeader, std::string>> frames;
  FrameDecoder decoder;
  char buf[8192];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames.size() < count) {
    FrameHeader header;
    std::string payload;
    util::Status error;
    FrameDecoder::Next next = decoder.Take(&header, &payload, &error);
    if (next == FrameDecoder::Next::kFrame) {
      frames.emplace_back(header, std::move(payload));
      continue;
    }
    if (next == FrameDecoder::Next::kError) break;
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready <= 0) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.Append(buf, static_cast<size_t>(n));
  }
  return frames;
}

/// True when recv() reports EOF (server closed) within 5 s.
bool WaitForClose(int fd) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  char buf[4096];
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;                    // clean EOF
    if (n < 0) return errno != EINTR;           // RST also counts as closed
  }
}

// --- equivalence -----------------------------------------------------------

TEST_F(ServerTest, WireAnswersMatchInProcessExecutionBothStrategies) {
  StartServer();
  Client client = MakeClient();
  for (Strategy strategy : {Strategy::kSchema, Strategy::kDirect}) {
    WireRequest request;
    request.query = kQuery;
    request.strategy = strategy;
    request.n = std::numeric_limits<uint64_t>::max();
    request.bypass_cache = true;
    auto response = client.Call(request, /*deadline_ms=*/5000);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_FALSE(response->truncated);

    ExecOptions exec;
    exec.strategy = strategy;
    exec.n = SIZE_MAX;
    auto expected = db_->Execute(kQuery, exec);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(response->answers.size(), expected->size());
    for (size_t i = 0; i < expected->size(); ++i) {
      EXPECT_EQ(response->answers[i].cost, (*expected)[i].cost);
      EXPECT_EQ(response->answers[i].root, (*expected)[i].root);
      // The document root is resolved server-side; it is never the
      // super-root (node 0) for a real answer.
      EXPECT_NE(response->answers[i].doc, 0u);
    }
  }
}

TEST_F(ServerTest, ExpiredDeadlineComesBackAsDeadlineExceeded) {
  StartServer();
  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  request.deadline_ms = -1;  // already expired: deterministic expiry
  auto response = client.Call(request, /*deadline_ms=*/5000);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded()) << response.status();
}

TEST_F(ServerTest, AdmissionRejectionComesBackAsResourceExhausted) {
  // queue_capacity = 0 makes every TrySubmit fail, so each wire request
  // deterministically exercises the backpressure path.
  StartServer(ServiceOptions{.num_threads = 1, .queue_capacity = 0});
  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  auto response = client.Call(request, /*deadline_ms=*/5000);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsResourceExhausted()) << response.status();
  // The connection survived the rejection.
  auto metrics = client.FetchMetrics(/*deadline_ms=*/5000);
  EXPECT_TRUE(metrics.ok()) << metrics.status();
}

TEST_F(ServerTest, MetricsDumpCoversServiceAndWire) {
  StartServer();
  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(client.Call(request, 5000).ok());
  auto metrics = client.FetchMetrics(/*deadline_ms=*/5000);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("net_requests"), std::string::npos);
  EXPECT_NE(metrics->find("net_connections_open"), std::string::npos);
  EXPECT_NE(metrics->find("net_wire_latency_us"), std::string::npos);
  EXPECT_NE(metrics->find("thread_pool_queue_depth"), std::string::npos);
}

// --- robustness ------------------------------------------------------------

TEST_F(ServerTest, GarbageBytesCloseOnlyThatConnection) {
  StartServer();
  Client healthy = MakeClient();
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(healthy.Call(request, 5000).ok());

  int bad = ConnectRaw(server_->port());
  ASSERT_GE(bad, 0);
  // Declares a body of 0xffffffff bytes: over max_frame_bytes, instant
  // protocol error.
  ASSERT_TRUE(SendAll(bad, std::string(64, '\xff')));
  EXPECT_TRUE(WaitForClose(bad));
  ::close(bad);

  // The healthy connection is untouched and the server still serves.
  auto response = healthy.Call(request, 5000);
  EXPECT_TRUE(response.ok()) << response.status();
  EXPECT_GE(server_->GetStats().protocol_errors, 1u);
}

TEST_F(ServerTest, BadCrcClosesConnection) {
  StartServer();
  std::string wire;
  WireRequest corrupt_request;
  corrupt_request.query = kQuery;
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 1,
                          static_cast<uint32_t>(MessageType::kQueryRequest)},
              EncodeQueryRequest(corrupt_request), &wire).ok());
  wire.back() = static_cast<char>(wire.back() ^ 0x1);  // corrupt the CRC

  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, wire));
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
  EXPECT_GE(server_->GetStats().protocol_errors, 1u);

  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  EXPECT_TRUE(client.Call(request, 5000).ok());
}

TEST_F(ServerTest, OversizedFrameClosesConnection) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(ServiceOptions{.num_threads = 2}, options);
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  const uint32_t huge = 1u << 16;  // over the 1 KiB limit
  char prefix[4] = {static_cast<char>(huge & 0xff),
                    static_cast<char>((huge >> 8) & 0xff),
                    static_cast<char>((huge >> 16) & 0xff),
                    static_cast<char>((huge >> 24) & 0xff)};
  ASSERT_TRUE(SendAll(fd, std::string_view(prefix, sizeof(prefix))));
  EXPECT_TRUE(WaitForClose(fd));
  ::close(fd);
}

TEST_F(ServerTest, UnknownMessageTypeFailsOnlyThatRequest) {
  StartServer();
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  std::string wire;
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 7, /*type=*/99}, "whatever",
              &wire).ok());
  // Follow with a valid query on the same connection: the unknown type
  // must cost one error response, not the connection.
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 8,
                          static_cast<uint32_t>(MessageType::kQueryRequest)},
              EncodeQueryRequest(request), &wire).ok());
  ASSERT_TRUE(SendAll(fd, wire));

  auto frames = ReadFrames(fd, 2);
  ::close(fd);
  ASSERT_EQ(frames.size(), 2u);
  for (auto& [header, payload] : frames) {
    ASSERT_EQ(header.type,
              static_cast<uint32_t>(MessageType::kQueryResponse));
    WireResponse response;
    ASSERT_TRUE(DecodeQueryResponse(payload, &response).ok());
    if (header.request_id == 7) {
      EXPECT_EQ(response.status_code,
                static_cast<uint32_t>(util::StatusCode::kUnimplemented));
    } else {
      EXPECT_EQ(header.request_id, 8u);
      EXPECT_EQ(response.status_code,
                static_cast<uint32_t>(util::StatusCode::kOk));
      EXPECT_FALSE(response.answers.empty());
    }
  }
}

TEST_F(ServerTest, MalformedRequestPayloadFailsOnlyThatRequest) {
  StartServer();
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  std::string wire;
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 3,
                          static_cast<uint32_t>(MessageType::kQueryRequest)},
              "\x05trunc", &wire).ok());  // claims 5 query bytes, CRC still valid
  ASSERT_TRUE(SendAll(fd, wire));
  auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  WireResponse response;
  ASSERT_TRUE(DecodeQueryResponse(frames[0].second, &response).ok());
  EXPECT_NE(response.status_code,
            static_cast<uint32_t>(util::StatusCode::kOk));

  // Same connection still answers valid requests.
  WireRequest request;
  request.query = kQuery;
  wire.clear();
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 4,
                          static_cast<uint32_t>(MessageType::kQueryRequest)},
              EncodeQueryRequest(request), &wire).ok());
  ASSERT_TRUE(SendAll(fd, wire));
  frames = ReadFrames(fd, 1);
  ::close(fd);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first.request_id, 4u);
}

TEST_F(ServerTest, MidRequestDisconnectLeavesServerServing) {
  StartServer();
  for (int round = 0; round < 3; ++round) {
    int fd = ConnectRaw(server_->port());
    ASSERT_GE(fd, 0);
    WireRequest request;
    request.query = kQuery;
    request.bypass_cache = true;
    std::string wire;
    ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 1,
                            static_cast<uint32_t>(MessageType::kQueryRequest)},
                EncodeQueryRequest(request), &wire).ok());
    ASSERT_TRUE(SendAll(fd, wire));
    ::close(fd);  // gone before the response can be written
  }
  // The dropped responses must not wedge or crash the loop.
  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  auto response = client.Call(request, 5000);
  EXPECT_TRUE(response.ok()) << response.status();
}

TEST_F(ServerTest, TornFrameAtDisconnectIsHarmless) {
  StartServer();
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  std::string wire;
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 1,
                          static_cast<uint32_t>(MessageType::kQueryRequest)},
              EncodeQueryRequest(request), &wire).ok());
  ASSERT_TRUE(SendAll(fd, wire.substr(0, wire.size() / 2)));
  ::close(fd);  // peer dies mid-frame

  Client client = MakeClient();
  auto response = client.Call(request, 5000);
  EXPECT_TRUE(response.ok()) << response.status();
}

TEST_F(ServerTest, PipelinedRequestsAllAnsweredAndMatchedById) {
  StartServer();
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  constexpr uint64_t kFirstId = 100;
  constexpr size_t kCount = 8;
  std::string wire;
  for (size_t i = 0; i < kCount; ++i) {
    WireRequest request;
    request.query = kQuery;
    request.bypass_cache = true;
    ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, kFirstId + i,
                            static_cast<uint32_t>(MessageType::kQueryRequest)},
                EncodeQueryRequest(request), &wire).ok());
  }
  ASSERT_TRUE(SendAll(fd, wire));  // one burst, no waiting in between

  auto frames = ReadFrames(fd, kCount);
  ::close(fd);
  ASSERT_EQ(frames.size(), kCount);
  std::vector<bool> seen(kCount, false);
  for (auto& [header, payload] : frames) {
    ASSERT_GE(header.request_id, kFirstId);
    ASSERT_LT(header.request_id, kFirstId + kCount);
    size_t index = static_cast<size_t>(header.request_id - kFirstId);
    EXPECT_FALSE(seen[index]) << "duplicate response for id "
                              << header.request_id;
    seen[index] = true;
    WireResponse response;
    ASSERT_TRUE(DecodeQueryResponse(payload, &response).ok());
    EXPECT_EQ(response.status_code,
              static_cast<uint32_t>(util::StatusCode::kOk));
  }
}

TEST_F(ServerTest, GracefulDrainFlushesInFlightResponses) {
  StartServer();
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  WireRequest request;
  request.query = kQuery;
  request.bypass_cache = true;
  std::string wire;
  ASSERT_TRUE(EncodeFrame(FrameHeader{kProtocolVersion, 55,
                          static_cast<uint32_t>(MessageType::kQueryRequest)},
              EncodeQueryRequest(request), &wire).ok());
  ASSERT_TRUE(SendAll(fd, wire));
  // Wait until the request is past admission (SubmitAsync ran), then
  // begin the drain: the response must still reach the socket.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service_->GetSnapshot().submitted == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request never admitted";
    std::this_thread::yield();
  }
  server_->RequestDrain();

  auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first.request_id, 55u);
  WireResponse response;
  ASSERT_TRUE(DecodeQueryResponse(frames[0].second, &response).ok());
  EXPECT_EQ(response.status_code,
            static_cast<uint32_t>(util::StatusCode::kOk));
  EXPECT_TRUE(WaitForClose(fd));  // drain ends by closing the connection
  ::close(fd);
  server_->Wait();  // loop exits on its own after the drain
}

TEST_F(ServerTest, RequestsDuringDrainAreTurnedAway) {
  StartServer();
  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(client.Call(request, 5000).ok());  // connection established
  server_->RequestDrain();
  // The already-open connection may get kUnavailable or a close,
  // depending on where the loop is; either way it must not hang.
  auto response = client.Call(request, /*deadline_ms=*/5000);
  EXPECT_FALSE(response.ok());
  server_->Wait();
}

TEST_F(ServerTest, IdleConnectionIsSweptAndClientRecovers) {
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(50);
  StartServer(ServiceOptions{.num_threads = 2}, options);
  Client client = MakeClient();
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(client.Call(request, 5000).ok());
  // Exceed the idle timeout (plus the loop's 200 ms sweep cadence).
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  // The first call may land on the swept socket and fail; the client
  // reconnects and the next one must succeed.
  auto retried = client.Call(request, 5000);
  if (!retried.ok()) retried = client.Call(request, 5000);
  EXPECT_TRUE(retried.ok()) << retried.status();
  EXPECT_GE(server_->GetStats().connections_accepted, 2u);
}

TEST_F(ServerTest, ConnectionLimitRejectsExcessConnections) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(ServiceOptions{.num_threads = 2}, options);
  Client first = MakeClient();
  WireRequest request;
  request.query = kQuery;
  ASSERT_TRUE(first.Call(request, 5000).ok());  // holds the only slot

  int second = ConnectRaw(server_->port());
  ASSERT_GE(second, 0);  // accepted by the kernel...
  EXPECT_TRUE(WaitForClose(second));  // ...then closed by the server
  ::close(second);
  EXPECT_GE(server_->GetStats().connections_rejected, 1u);

  // Releasing the slot lets new connections in again.
  first.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    Client next = MakeClient();
    if (next.Call(request, 1000).ok()) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "slot never released";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST_F(ServerTest, ShutdownWhileAnotherThreadWaitsDoesNotDeadlock) {
  // Wait() used to hold the lifecycle mutex across the join, so a
  // concurrent Shutdown could never store the stop flag: both threads
  // hung forever. Shutdown must be able to end the loop out from under
  // a parked Wait().
  StartServer();
  std::thread waiter([this] { server_->Wait(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Shutdown(/*drain=*/false);
  waiter.join();
}

TEST_F(ServerTest, DrainTimesOutUnderContinuousLoad) {
  // A peer that floods requests and never reads its responses keeps
  // its write_buffer nonempty, so the quiesce check alone never
  // converges; the drain deadline must bound the loop's lifetime.
  ServerOptions options;
  options.drain_timeout = std::chrono::milliseconds(200);
  StartServer(ServiceOptions{.num_threads = 2}, options);
  int fd = ConnectRaw(server_->port());
  ASSERT_GE(fd, 0);
  WireRequest request;
  request.query = kQuery;
  request.bypass_cache = true;
  std::string wire;
  ASSERT_TRUE(EncodeFrame(
                  FrameHeader{kProtocolVersion, 1,
                              static_cast<uint32_t>(MessageType::kQueryRequest)},
                  EncodeQueryRequest(request), &wire)
                  .ok());
  std::thread spammer([&] {
    // Send and never read, until the server hard-closes the socket.
    while (SendAll(fd, wire)) {
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->GetStats().requests == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "no request ever reached the server";
    std::this_thread::yield();
  }
  server_->RequestDrain();
  server_->Wait();  // must return via the drain deadline, not hang
  spammer.join();
  ::close(fd);
}

TEST_F(ServerTest, MetricsDumpIsTruncatedToTheFrameLimit) {
  // The full dump text is well over this limit; the server must shrink
  // it to something frameable instead of emitting an oversized frame
  // the client's decoder would reject as corruption.
  ServerOptions options;
  options.max_frame_bytes = 512;
  StartServer(ServiceOptions{.num_threads = 2}, options);
  Client client = MakeClient();
  auto metrics = client.FetchMetrics(/*deadline_ms=*/5000);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_LE(metrics->size(), 512u);
  EXPECT_FALSE(metrics->empty());
  // The connection survived and still serves queries.
  WireRequest request;
  request.query = kQuery;
  EXPECT_TRUE(client.Call(request, 5000).ok());
}

TEST(ClientConnectTest, RefusedConnectionFailsWithoutHanging) {
  ClientOptions options;
  options.port = 1;  // nothing listens here
  options.connect_timeout_ms = 500;
  Client client(options);
  util::Status status = client.Connect();
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(client.connected());

  // A call without a deadline must not wait out reconnect attempts that
  // can never succeed: it fails once connect_timeout_ms is spent (the
  // bound below only adds scheduling slack for sanitizer builds).
  WireRequest request;
  request.query = kQuery;
  const auto start = std::chrono::steady_clock::now();
  auto response = client.Call(request);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable()) << response.status();
  EXPECT_LT(elapsed, std::chrono::milliseconds(options.connect_timeout_ms +
                                               1500));
  EXPECT_FALSE(client.connected());
}

/// Listening loopback socket on an ephemeral port; -1 on failure.
int ListenLoopback(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

TEST(ClientDeadlineTest, LateReplyIsDroppedAndTheConnectionIsKept) {
  uint16_t port = 0;
  const int listener = ListenLoopback(&port);
  ASSERT_GE(listener, 0);
  constexpr cost::Cost kLateCost = 1;
  constexpr cost::Cost kFreshCost = 2;
  // A peer whose first query is slow: it holds that reply until the
  // next query arrives (which the client sends only after the first
  // call's deadline expired), then sends the stale reply ahead of the
  // fresh one. Anything but a query gets a kUnimplemented reply, as a
  // plain server answers a ping.
  std::thread peer([&] {
    pollfd pfd{listener, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) <= 0) return;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    auto reply = [conn](uint64_t id, util::StatusCode code, cost::Cost cost) {
      WireResponse response;
      response.status_code = static_cast<uint32_t>(code);
      if (code == util::StatusCode::kOk) response.answers = {{cost, 1, 1}};
      std::string wire;
      if (EncodeFrame(FrameHeader{kProtocolVersion, id,
                                  static_cast<uint32_t>(
                                      MessageType::kQueryResponse)},
                      EncodeQueryResponse(response), &wire)
              .ok()) {
        SendAll(conn, wire);
      }
    };
    uint64_t held = 0;
    bool released = false;
    for (;;) {
      auto frames = ReadFrames(conn, 1);
      if (frames.empty()) break;  // client closed (or 5 s of silence)
      const FrameHeader& header = frames[0].first;
      if (header.type != static_cast<uint32_t>(MessageType::kQueryRequest)) {
        reply(header.request_id, util::StatusCode::kUnimplemented, 0);
        continue;
      }
      if (!released && held == 0) {
        held = header.request_id;
        continue;
      }
      if (!released) {
        reply(held, util::StatusCode::kOk, kLateCost);
        released = true;
      }
      reply(header.request_id, util::StatusCode::kOk, kFreshCost);
    }
    ::close(conn);
  });

  // No ASSERT before the join: an early return would leave `peer`
  // joinable and terminate the whole binary.
  ClientOptions options;
  options.port = port;
  Client client(options);
  util::Status connected = client.Connect();
  WireRequest request;
  request.query = kQuery;
  auto late = client.Call(request, /*deadline_ms=*/100);
  const bool kept = client.connected();
  auto fresh = client.Call(request, /*deadline_ms=*/5000);
  client.Close();
  peer.join();
  // The peer served one connection; a reconnect would be waiting in the
  // backlog.
  pollfd pending{listener, POLLIN, 0};
  const int reconnects = ::poll(&pending, 1, 0);
  ::close(listener);

  EXPECT_TRUE(connected.ok()) << connected;
  EXPECT_TRUE(late.status().IsDeadlineExceeded()) << late.status();
  EXPECT_TRUE(kept) << "the deadline closed the connection";
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(fresh->answers.size(), 1u);
  EXPECT_EQ(fresh->answers[0].cost, kFreshCost);  // not the stale reply
  EXPECT_EQ(reconnects, 0) << "the client reconnected";
}

TEST_F(ServerTest, ShutdownWithoutDrainIsSafeWithRequestsInFlight) {
  StartServer();
  std::vector<std::thread> callers;
  std::atomic<bool> stop{false};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([this, &stop] {
      Client client = MakeClient();
      WireRequest request;
      request.query = kQuery;
      request.bypass_cache = true;
      while (!stop.load(std::memory_order_relaxed)) {
        // Errors (and successes) are equally fine here; the loop only
        // exists to churn connections while the server shuts down.
        util::IgnoreError(
            client.Call(request, /*deadline_ms=*/1000).status());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Shutdown(/*drain=*/false);  // must not crash or leak callbacks
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : callers) thread.join();
}

}  // namespace
}  // namespace approxql::net
