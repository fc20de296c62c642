#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

namespace atr {
namespace net {
namespace {

// Every response payload leads with the request id it answers.
uint64_t ResponseRequestId(const Frame& frame) {
  ByteReader reader(frame.payload);
  uint64_t id = 0;
  reader.ReadU64(&id);
  return id;
}

}  // namespace

Status AtrClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("AtrClient: already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("AtrClient: socket failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("AtrClient: bad host address " + host);
  }
  if (options_.io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(options_.io_timeout_ms % 1000) * 1000;
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
        ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
      const int err = errno;
      Close();
      return Status::Internal(
          std::string("AtrClient: setting the I/O timeout failed: ") +
          std::strerror(err));
    }
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    Close();
    return Status::Internal("AtrClient: connect to " + host + ":" +
                            std::to_string(port) +
                            " failed: " + std::strerror(err));
  }
  return Status::Ok();
}

void AtrClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  parser_ = FrameParser();
  stash_.clear();
}

Status AtrClient::SendBytes(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("AtrClient: not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO elapsed with the socket unwritable.
        return Status::DeadlineExceeded(
            "AtrClient: send made no progress within io_timeout_ms=" +
            std::to_string(options_.io_timeout_ms));
      }
      return Status::Internal(std::string("AtrClient: send failed: ") +
                              std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

StatusOr<Frame> AtrClient::ReceiveFor(uint64_t request_id, MsgType expected) {
  last_retry_after_ms_ = 0;
  for (;;) {
    // Serve from the stash first: the frame may have arrived while an
    // earlier call was blocked on a different id.
    if (auto it = stash_.find(request_id); it != stash_.end()) {
      Frame frame = std::move(it->second);
      stash_.erase(it);
      if (frame.type == MsgType::kError) {
        StatusOr<ErrorResponse> error = ErrorResponse::Decode(frame.payload);
        if (!error.ok()) return error.status();
        last_retry_after_ms_ = error->retry_after_ms;
        return error->ToStatus();
      }
      if (frame.type != expected) {
        return Status::Internal(
            std::string("AtrClient: expected ") + MsgTypeName(expected) +
            " but the server answered " + MsgTypeName(frame.type));
      }
      return frame;
    }

    if (std::optional<Frame> frame = parser_.Next()) {
      stash_[ResponseRequestId(*frame)] = std::move(*frame);
      continue;
    }
    if (!parser_.ok()) return parser_.status();

    if (fd_ < 0) return Status::FailedPrecondition("AtrClient: not connected");
    uint8_t chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::Internal(
          "AtrClient: server closed the connection mid-request");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO elapsed with no bytes from the server. The request
        // is still in flight remotely; only this wait is abandoned.
        return Status::DeadlineExceeded(
            "AtrClient: no response within io_timeout_ms=" +
            std::to_string(options_.io_timeout_ms));
      }
      return Status::Internal(std::string("AtrClient: recv failed: ") +
                              std::strerror(errno));
    }
    parser_.Feed(chunk, static_cast<size_t>(n));
  }
}

Status AtrClient::Ping() {
  PingRequest request;
  request.request_id = NextRequestId();
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kPingResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<PingResponse> response = PingResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return Status::Ok();
}

StatusOr<std::vector<std::string>> AtrClient::ListGraphs() {
  ListGraphsRequest request;
  request.request_id = NextRequestId();
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kListGraphsResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<ListGraphsResponse> response =
      ListGraphsResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return std::move(response->names);
}

StatusOr<AtrService::GraphInfo> AtrClient::Info(const std::string& graph) {
  InfoRequest request;
  request.request_id = NextRequestId();
  request.graph = graph;
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kInfoResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<InfoResponse> response = InfoResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return std::move(response->info);
}

StatusOr<uint64_t> AtrClient::SendSubmit(
    const std::string& graph, const std::string& solver,
    const WireSolverOptions& options, const std::string& tenant, int priority) {
  SubmitRequest request;
  request.request_id = NextRequestId();
  request.graph = graph;
  request.solver = solver;
  request.options = options;
  request.tenant = tenant;
  request.priority = priority;
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  return request.request_id;
}

StatusOr<uint64_t> AtrClient::ReceiveSubmit(uint64_t request_id) {
  StatusOr<Frame> frame = ReceiveFor(request_id, MsgType::kSubmitResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<SubmitResponse> response = SubmitResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return response->job_id;
}

StatusOr<uint64_t> AtrClient::Submit(
    const std::string& graph, const std::string& solver,
    const WireSolverOptions& options, const std::string& tenant, int priority) {
  StatusOr<uint64_t> request_id =
      SendSubmit(graph, solver, options, tenant, priority);
  if (!request_id.ok()) return request_id.status();
  return ReceiveSubmit(*request_id);
}

StatusOr<uint64_t> AtrClient::SendWait(uint64_t job_id) {
  WaitRequest request;
  request.request_id = NextRequestId();
  request.job_id = job_id;
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  return request.request_id;
}

StatusOr<WireSolveResult> AtrClient::ReceiveWait(uint64_t request_id) {
  StatusOr<Frame> frame = ReceiveFor(request_id, MsgType::kWaitResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<WaitResponse> response = WaitResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return std::move(response->result);
}

StatusOr<WireSolveResult> AtrClient::Wait(uint64_t job_id) {
  StatusOr<uint64_t> request_id = SendWait(job_id);
  if (!request_id.ok()) return request_id.status();
  return ReceiveWait(*request_id);
}

StatusOr<bool> AtrClient::Cancel(uint64_t job_id) {
  CancelRequest request;
  request.request_id = NextRequestId();
  request.job_id = job_id;
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kCancelResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<CancelResponse> response = CancelResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return response->cancelled;
}

StatusOr<UpdateGraphResponse> AtrClient::UpdateGraph(const std::string& graph,
                                                     const GraphDelta& delta) {
  UpdateGraphRequest request;
  request.request_id = NextRequestId();
  request.graph = graph;
  request.delta = delta;
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kUpdateGraphResponse);
  if (!frame.ok()) return frame.status();
  return UpdateGraphResponse::Decode(frame->payload);
}

Status AtrClient::Compact(const std::string& graph) {
  CompactRequest request;
  request.request_id = NextRequestId();
  request.graph = graph;
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kCompactResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<CompactResponse> response = CompactResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return Status::Ok();
}

Status AtrClient::Shutdown() {
  ShutdownRequest request;
  request.request_id = NextRequestId();
  if (Status s = SendBytes(request.EncodeFrame()); !s.ok()) return s;
  StatusOr<Frame> frame =
      ReceiveFor(request.request_id, MsgType::kShutdownResponse);
  if (!frame.ok()) return frame.status();
  StatusOr<ShutdownResponse> response =
      ShutdownResponse::Decode(frame->payload);
  if (!response.ok()) return response.status();
  return Status::Ok();
}

}  // namespace net
}  // namespace atr
