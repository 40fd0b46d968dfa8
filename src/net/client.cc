#include "net/client.h"

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace approxql::net {

namespace {

using Frame = std::pair<FrameHeader, std::string>;

/// One call's completion, filled on the AsyncClient's IO thread.
class Completion {
 public:
  void Set(util::Result<Frame> result) {
    util::MutexLock lock(&mu_);
    result_.emplace(std::move(result));
    // Under the lock: once the waiter sees the result it returns and
    // this object is gone.
    cv_.NotifyOne();
  }

  /// Waits up to `timeout` for the result; true once it is in.
  bool WaitFor(std::chrono::milliseconds timeout) {
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    util::MutexLock lock(&mu_);
    while (!result_.has_value() &&
           std::chrono::steady_clock::now() < give_up) {
      cv_.WaitFor(&mu_, give_up - std::chrono::steady_clock::now());
    }
    return result_.has_value();
  }

  util::Result<Frame> Take() {
    util::MutexLock lock(&mu_);
    while (!result_.has_value()) cv_.Wait(&mu_);
    return std::move(*result_);
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  std::optional<util::Result<Frame>> result_ GUARDED_BY(mu_);
};

/// The reply step every call shares: check the reply type, decode the
/// payload, and map a non-OK wire status to an error Status.
template <typename Reply>
util::Result<Reply> DecodeReply(util::Result<Frame> frame,
                                MessageType reply_type,
                                util::Status (*decode)(std::string_view,
                                                       Reply*)) {
  if (!frame.ok()) return frame.status();
  if (frame->first.type != static_cast<uint32_t>(reply_type)) {
    return util::Status::Corruption("unexpected response type " +
                                    std::to_string(frame->first.type));
  }
  Reply reply;
  RETURN_IF_ERROR(decode(frame->second, &reply));
  if constexpr (requires { reply.status_code; }) {
    RETURN_IF_ERROR(StatusFromWire(reply.status_code, reply.status_message));
  }
  return reply;
}

util::Status DecodeMetricsText(std::string_view payload, std::string* out) {
  out->assign(payload);
  return util::Status::OK();
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {}

Client::~Client() { Close(); }

void Client::Close() { async_.reset(); }

util::Status Client::Connect() {
  Close();
  util::Result<Frame> reply =
      Exchange(MessageType::kPing, std::string(), options_.connect_timeout_ms);
  if (!reply.ok()) {
    Close();
    return util::Status::Unavailable("cannot reach " + options_.host + ":" +
                                     std::to_string(options_.port) + ": " +
                                     reply.status().message());
  }
  return util::Status::OK();
}

util::Result<Frame> Client::Exchange(MessageType type, std::string payload,
                                     int deadline_ms) {
  if (async_ == nullptr) {
    AsyncClientOptions transport;
    transport.host = options_.host;
    transport.port = options_.port;
    transport.connect_timeout_ms = options_.connect_timeout_ms;
    transport.max_frame_bytes = options_.max_frame_bytes;
    auto started = std::make_unique<AsyncClient>(std::move(transport));
    RETURN_IF_ERROR(started->Start());
    async_ = std::move(started);
  }

  Completion done;
  // This Client is the transport's only caller, so `sent` moving past
  // this value means our request reached the socket.
  const uint64_t sent_before = async_->stats().sent;
  async_->Call(type, std::move(payload), deadline_ms,
               [&done](util::Result<Frame> result) {
                 done.Set(std::move(result));
               });
  // A request still unwritten after connect_timeout_ms is queued behind
  // a connection that is not coming up, and AsyncClient would keep
  // reconnecting forever. Stopping it is the one way to withdraw the
  // request (Shutdown fails it kUnavailable).
  const bool unreachable =
      options_.connect_timeout_ms > 0 &&
      !done.WaitFor(std::chrono::milliseconds(options_.connect_timeout_ms)) &&
      async_->stats().sent == sent_before;
  if (unreachable) Close();

  util::Result<Frame> result = done.Take();
  if (!result.ok() && result.status().IsUnavailable()) {
    Close();
    if (unreachable) {
      return util::Status::Unavailable(
          "no connection to " + options_.host + ":" +
          std::to_string(options_.port) + " within " +
          std::to_string(options_.connect_timeout_ms) + " ms");
    }
  }
  return result;
}

util::Result<WireResponse> Client::Call(const WireRequest& request,
                                        int deadline_ms) {
  return DecodeReply(Exchange(MessageType::kQueryRequest,
                              EncodeQueryRequest(request), deadline_ms),
                     MessageType::kQueryResponse, &DecodeQueryResponse);
}

util::Result<WireIngestAck> Client::Ingest(const WireIngest& ingest,
                                           int deadline_ms) {
  return DecodeReply(
      Exchange(MessageType::kIngest, EncodeIngest(ingest), deadline_ms),
      MessageType::kIngestAck, &DecodeIngestAck);
}

util::Result<std::string> Client::FetchMetrics(int deadline_ms) {
  return DecodeReply(
      Exchange(MessageType::kMetricsDump, std::string(), deadline_ms),
      MessageType::kMetricsText, &DecodeMetricsText);
}

}  // namespace approxql::net
