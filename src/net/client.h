// AtrClient — blocking C++ client for the AtrServer wire protocol
// (net/wire.h). Used by the integration tests and the atr_client CLI.
//
//   AtrClient client;
//   client.Connect("127.0.0.1", port);
//   StatusOr<uint64_t> job = client.Submit("social", "gas", options);
//   StatusOr<WireSolveResult> result = client.Wait(*job);
//
// The typed methods are synchronous round trips, but the connection
// itself is pipelined: every request carries a fresh request id, and
// responses arriving for OTHER ids while one call blocks are stashed and
// handed out when their call asks. The lower-level Send*/Receive split
// (SendSubmit + ReceiveSubmit, ...) exposes that directly — fire many
// requests, then collect the responses in any order.
//
// Server-side errors come back as the error frame's embedded Status
// (code + message). For kResourceExhausted rejections the server's
// retry_after_ms hint is retained and readable via last_retry_after_ms()
// until the next request.

#ifndef ATR_NET_CLIENT_H_
#define ATR_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "net/wire.h"
#include "util/status.h"

namespace atr {
namespace net {

struct AtrClientOptions {
  // Per-I/O deadline, applied to the socket as SO_RCVTIMEO + SO_SNDTIMEO
  // at Connect. A send or recv that makes no progress for this long fails
  // the call with kDeadlineExceeded — the request may still execute
  // server-side (the deadline bounds the wait, not the work). 0 = block
  // forever (the pre-deadline behavior).
  uint32_t io_timeout_ms = 0;
};

class AtrClient {
 public:
  AtrClient() = default;
  explicit AtrClient(AtrClientOptions options) : options_(options) {}
  ~AtrClient() { Close(); }

  AtrClient(const AtrClient&) = delete;
  AtrClient& operator=(const AtrClient&) = delete;

  // Movable: the moved-from client is disconnected.
  AtrClient(AtrClient&& other) noexcept { *this = std::move(other); }
  AtrClient& operator=(AtrClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
      options_ = other.options_;
      next_request_id_ = other.next_request_id_;
      parser_ = std::move(other.parser_);
      stash_ = std::move(other.stash_);
      last_retry_after_ms_ = other.last_retry_after_ms_;
    }
    return *this;
  }

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // --- Synchronous round trips -------------------------------------------

  Status Ping();
  StatusOr<std::vector<std::string>> ListGraphs();
  StatusOr<AtrService::GraphInfo> Info(const std::string& graph);
  // Enqueues a solve; the returned job id feeds Wait / Cancel. `tenant`
  // names the fair-share queue the job lands in ("" = the default
  // tenant); higher `priority` runs first within the tenant.
  StatusOr<uint64_t> Submit(
      const std::string& graph, const std::string& solver,
      const WireSolverOptions& options, const std::string& tenant = "",
      int priority = 0);
  // Blocks until the job finishes server-side and returns its result.
  StatusOr<WireSolveResult> Wait(uint64_t job_id);
  // true = the job was cancelled before running; false = too late.
  StatusOr<bool> Cancel(uint64_t job_id);
  StatusOr<UpdateGraphResponse> UpdateGraph(const std::string& graph,
                                            const GraphDelta& delta);
  Status Compact(const std::string& graph);
  // Asks the server process to shut down (it still answers).
  Status Shutdown();

  // --- Pipelined form -----------------------------------------------------
  //
  // Send* writes the request and returns its request id without waiting;
  // Receive* blocks until THAT id's response arrives (stashing others).

  StatusOr<uint64_t> SendSubmit(
      const std::string& graph, const std::string& solver,
      const WireSolverOptions& options, const std::string& tenant = "",
      int priority = 0);
  StatusOr<uint64_t> ReceiveSubmit(uint64_t request_id);
  StatusOr<uint64_t> SendWait(uint64_t job_id);
  StatusOr<WireSolveResult> ReceiveWait(uint64_t request_id);

  // retry_after_ms of the most recent error response (0 when the last
  // error carried no hint or the last call succeeded).
  uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }

 private:
  uint64_t NextRequestId() { return next_request_id_++; }
  Status SendBytes(const std::vector<uint8_t>& bytes);
  // Blocks until the response frame for `request_id` arrives. An error
  // frame for that id is converted to its embedded Status (and the
  // retry-after hint captured); a response whose type differs from
  // `expected` is a protocol error.
  StatusOr<Frame> ReceiveFor(uint64_t request_id, MsgType expected);

  int fd_ = -1;
  AtrClientOptions options_;
  uint64_t next_request_id_ = 1;
  FrameParser parser_;
  std::map<uint64_t, Frame> stash_;  // responses for ids nobody asked for yet
  uint32_t last_retry_after_ms_ = 0;
};

}  // namespace net
}  // namespace atr

#endif  // ATR_NET_CLIENT_H_
