// Wire protocol for the networked ATR server: length-prefixed binary
// frames over a byte stream (TCP).
//
// Frame layout (little-endian):
//
//   u32 payload_len      bytes that follow the 8-byte header
//   u32 type             MsgType
//   payload              message-specific, see below
//
// Every request payload begins with a u64 request_id chosen by the
// client; the matching response (or error) echoes it, so clients may
// pipeline many requests on one connection and match responses out of
// order. Response types are request type + 100; type 255 is the
// structured error response, which any request can receive instead of
// its success response. kError carries a StatusCode, a message, and a
// retry_after_ms hint (> 0 only for kResourceExhausted — the server's
// admission-control rejection when the pending-job queue is full).
//
// FrameParser is the incremental decoder used by both server and client:
// feed it raw bytes as they arrive, pop complete frames. It never
// crashes on hostile input (fuzz/fuzz_wire.cc drives it); a frame whose
// length field exceeds kMaxFramePayload poisons the parser and the
// connection is dropped.

#ifndef ATR_NET_WIRE_H_
#define ATR_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/solver.h"
#include "graph/graph.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace atr {
namespace net {

// Frames larger than this are protocol violations, not big messages:
// the parser refuses them instead of buffering unbounded attacker-chosen
// allocations.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

enum class MsgType : uint32_t {
  kPing = 1,
  kListGraphs = 2,
  kInfo = 3,
  kSubmit = 4,
  kWait = 5,
  kCancel = 6,
  kUpdateGraph = 7,
  kCompact = 8,
  kShutdown = 9,

  // Responses: request type + 100.
  kPingResponse = 101,
  kListGraphsResponse = 102,
  kInfoResponse = 103,
  kSubmitResponse = 104,
  kWaitResponse = 105,
  kCancelResponse = 106,
  kUpdateGraphResponse = 107,
  kCompactResponse = 108,
  kShutdownResponse = 109,

  kError = 255,
};

const char* MsgTypeName(MsgType type);

// One complete decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::vector<uint8_t> payload;
};

// Serializes one frame (header + payload).
std::vector<uint8_t> EncodeFrame(MsgType type,
                                 std::span<const uint8_t> payload);

// Incremental frame decoder. Usage:
//
//   parser.Feed(bytes, n);
//   while (auto frame = parser.Next()) { ... }
//   if (!parser.ok()) drop_connection(parser.status());
//
// Next() returns nullopt when no complete frame is buffered (and always
// after the parser failed). Failure is sticky: an oversize length field
// means the stream is garbage from here on.
class FrameParser {
 public:
  void Feed(const uint8_t* data, size_t size);

  std::optional<Frame> Next();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  // Bytes buffered but not yet returned as frames.
  size_t buffered() const { return buffer_.size(); }

 private:
  std::deque<uint8_t> buffer_;
  Status status_ = Status::Ok();
};

// --- Request / response payloads -----------------------------------------
//
// Each struct has EncodeFrame() (the full wire frame, header included)
// and a static Decode(payload) that validates shape and bounds. Decoders
// must survive hostile bytes: they return InvalidArgument, never crash.

struct ErrorResponse {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kInternal;
  std::string message;
  // > 0: retry the request after this many milliseconds (admission
  // control said "later", not "never").
  uint32_t retry_after_ms = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<ErrorResponse> Decode(std::span<const uint8_t> payload);

  // The Status a client surfaces for this error.
  Status ToStatus() const;
};

struct PingRequest {
  uint64_t request_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<PingRequest> Decode(std::span<const uint8_t> payload);
};

struct PingResponse {
  uint64_t request_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<PingResponse> Decode(std::span<const uint8_t> payload);
};

struct ListGraphsRequest {
  uint64_t request_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<ListGraphsRequest> Decode(std::span<const uint8_t> payload);
};

struct ListGraphsResponse {
  uint64_t request_id = 0;
  std::vector<std::string> names;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<ListGraphsResponse> Decode(std::span<const uint8_t> payload);
};

struct InfoRequest {
  uint64_t request_id = 0;
  std::string graph;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<InfoRequest> Decode(std::span<const uint8_t> payload);
};

struct InfoResponse {
  uint64_t request_id = 0;
  AtrService::GraphInfo info;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<InfoResponse> Decode(std::span<const uint8_t> payload);
};

// The SolverOptions subset that travels over the wire. Progress/cancel
// callbacks and thread counts are process-local concerns and stay out.
struct WireSolverOptions {
  uint32_t budget = 1;
  std::vector<uint32_t> budget_checkpoints;
  uint64_t seed = 1;
  uint32_t trials = 100;

  SolverOptions ToSolverOptions() const;
};

struct SubmitRequest {
  uint64_t request_id = 0;
  std::string graph;
  std::string solver;
  WireSolverOptions options;
  // Fair-share scheduling identity (protocol revision 2). Older clients
  // omit both trailing fields; the decoder maps that to the default
  // tenant ("") at priority 0.
  std::string tenant;
  int32_t priority = 0;
  // Protocol revision 3 appended a 10-byte trailer after `priority` that
  // once selected the server's decomposition kernel: u8 algorithm id
  // (0-2), u32, u32, u8. The decoder still reads and bounds-checks it —
  // a cut trailer or an algorithm id above 2 is rejected — then ignores
  // it; the encoder never writes it.

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<SubmitRequest> Decode(std::span<const uint8_t> payload);
};

struct SubmitResponse {
  uint64_t request_id = 0;
  uint64_t job_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<SubmitResponse> Decode(std::span<const uint8_t> payload);
};

struct WaitRequest {
  uint64_t request_id = 0;
  uint64_t job_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<WaitRequest> Decode(std::span<const uint8_t> payload);
};

// The SolveResult subset that travels over the wire (per-round records
// stay server-side; anchors, gains, and timing travel).
struct WireSolveResult {
  std::string solver;
  std::vector<uint32_t> anchor_edges;
  std::vector<uint32_t> anchor_vertices;
  uint64_t total_gain = 0;
  std::vector<uint64_t> gain_at_checkpoint;
  double seconds = 0.0;
  bool stopped_early = false;

  static WireSolveResult FromSolveResult(const SolveResult& result);
};

struct WaitResponse {
  uint64_t request_id = 0;
  uint64_t job_id = 0;
  WireSolveResult result;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<WaitResponse> Decode(std::span<const uint8_t> payload);
};

struct CancelRequest {
  uint64_t request_id = 0;
  uint64_t job_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<CancelRequest> Decode(std::span<const uint8_t> payload);
};

struct CancelResponse {
  uint64_t request_id = 0;
  bool cancelled = false;  // false: the job had already finished

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<CancelResponse> Decode(std::span<const uint8_t> payload);
};

struct UpdateGraphRequest {
  uint64_t request_id = 0;
  std::string graph;
  GraphDelta delta;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<UpdateGraphRequest> Decode(std::span<const uint8_t> payload);
};

struct UpdateGraphResponse {
  uint64_t request_id = 0;
  uint64_t version = 0;
  uint32_t num_vertices = 0;
  uint32_t num_edges = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<UpdateGraphResponse> Decode(std::span<const uint8_t> payload);
};

struct CompactRequest {
  uint64_t request_id = 0;
  std::string graph;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<CompactRequest> Decode(std::span<const uint8_t> payload);
};

struct CompactResponse {
  uint64_t request_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<CompactResponse> Decode(std::span<const uint8_t> payload);
};

struct ShutdownRequest {
  uint64_t request_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<ShutdownRequest> Decode(std::span<const uint8_t> payload);
};

struct ShutdownResponse {
  uint64_t request_id = 0;

  std::vector<uint8_t> EncodeFrame() const;
  static StatusOr<ShutdownResponse> Decode(std::span<const uint8_t> payload);
};

}  // namespace net
}  // namespace atr

#endif  // ATR_NET_WIRE_H_
