#include "net/wire.h"

#include <algorithm>
#include <utility>

namespace atr {
namespace net {
namespace {

// Shared decode preamble: every payload starts with the u64 request_id.
bool ReadRequestId(ByteReader& reader, uint64_t* request_id) {
  return reader.ReadU64(request_id);
}

Status DecodeError(const char* what) {
  return Status::InvalidArgument(std::string(what) +
                                 ": truncated or malformed payload");
}

// Decoders reject trailing garbage: a payload must be consumed exactly.
Status FinishDecode(const ByteReader& reader, const char* what) {
  if (!reader.ok()) return DecodeError(what);
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(std::string(what) +
                                   ": trailing bytes after payload");
  }
  return Status::Ok();
}

void WriteEndpointVector(ByteWriter& writer,
                         const std::vector<EdgeEndpoints>& edges) {
  writer.WriteU32(static_cast<uint32_t>(edges.size()));
  for (const EdgeEndpoints& e : edges) {
    writer.WriteU32(e.u);
    writer.WriteU32(e.v);
  }
}

bool ReadEndpointVector(ByteReader& reader, std::vector<EdgeEndpoints>* out) {
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return false;
  if (reader.remaining() / 8 < count) return false;
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    reader.ReadU32(&(*out)[i].u);
    reader.ReadU32(&(*out)[i].v);
  }
  return reader.ok();
}

std::vector<uint8_t> FinishFrame(MsgType type, ByteWriter& payload) {
  return EncodeFrame(type, payload.buffer());
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing: return "Ping";
    case MsgType::kListGraphs: return "ListGraphs";
    case MsgType::kInfo: return "Info";
    case MsgType::kSubmit: return "Submit";
    case MsgType::kWait: return "Wait";
    case MsgType::kCancel: return "Cancel";
    case MsgType::kUpdateGraph: return "UpdateGraph";
    case MsgType::kCompact: return "Compact";
    case MsgType::kShutdown: return "Shutdown";
    case MsgType::kPingResponse: return "PingResponse";
    case MsgType::kListGraphsResponse: return "ListGraphsResponse";
    case MsgType::kInfoResponse: return "InfoResponse";
    case MsgType::kSubmitResponse: return "SubmitResponse";
    case MsgType::kWaitResponse: return "WaitResponse";
    case MsgType::kCancelResponse: return "CancelResponse";
    case MsgType::kUpdateGraphResponse: return "UpdateGraphResponse";
    case MsgType::kCompactResponse: return "CompactResponse";
    case MsgType::kShutdownResponse: return "ShutdownResponse";
    case MsgType::kError: return "Error";
  }
  return "Unknown";
}

std::vector<uint8_t> EncodeFrame(MsgType type,
                                 std::span<const uint8_t> payload) {
  ByteWriter out;
  out.WriteU32(static_cast<uint32_t>(payload.size()));
  out.WriteU32(static_cast<uint32_t>(type));
  out.WriteBytes(payload.data(), payload.size());
  return out.TakeBuffer();
}

void FrameParser::Feed(const uint8_t* data, size_t size) {
  if (!status_.ok()) return;  // poisoned: drop everything
  buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<Frame> FrameParser::Next() {
  if (!status_.ok() || buffer_.size() < 8) return std::nullopt;
  uint32_t payload_len = 0, raw_type = 0;
  for (int i = 0; i < 4; ++i) payload_len |= uint32_t(buffer_[i]) << (8 * i);
  for (int i = 0; i < 4; ++i) {
    raw_type |= uint32_t(buffer_[4 + i]) << (8 * i);
  }
  if (payload_len > kMaxFramePayload) {
    status_ = Status::InvalidArgument(
        "frame payload length " + std::to_string(payload_len) +
        " exceeds kMaxFramePayload");
    buffer_.clear();
    return std::nullopt;
  }
  if (buffer_.size() < 8 + size_t(payload_len)) return std::nullopt;

  Frame frame;
  frame.type = static_cast<MsgType>(raw_type);
  frame.payload.assign(buffer_.begin() + 8,
                       buffer_.begin() + 8 + payload_len);
  buffer_.erase(buffer_.begin(), buffer_.begin() + 8 + payload_len);
  return frame;
}

// --- ErrorResponse --------------------------------------------------------

std::vector<uint8_t> ErrorResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU32(static_cast<uint32_t>(code));
  w.WriteString(message);
  w.WriteU32(retry_after_ms);
  return FinishFrame(MsgType::kError, w);
}

StatusOr<ErrorResponse> ErrorResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  ErrorResponse out;
  uint32_t raw_code = 0;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU32(&raw_code) ||
      !r.ReadString(&out.message) || !r.ReadU32(&out.retry_after_ms)) {
    return DecodeError("ErrorResponse");
  }
  if (raw_code == 0 ||
      raw_code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("ErrorResponse: unknown status code " +
                                   std::to_string(raw_code));
  }
  out.code = static_cast<StatusCode>(raw_code);
  if (Status s = FinishDecode(r, "ErrorResponse"); !s.ok()) return s;
  return out;
}

Status ErrorResponse::ToStatus() const {
  return Status(code, message);
}

// --- Ping -----------------------------------------------------------------

std::vector<uint8_t> PingRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  return FinishFrame(MsgType::kPing, w);
}

StatusOr<PingRequest> PingRequest::Decode(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  PingRequest out;
  if (!ReadRequestId(r, &out.request_id)) return DecodeError("PingRequest");
  if (Status s = FinishDecode(r, "PingRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> PingResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  return FinishFrame(MsgType::kPingResponse, w);
}

StatusOr<PingResponse> PingResponse::Decode(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  PingResponse out;
  if (!ReadRequestId(r, &out.request_id)) return DecodeError("PingResponse");
  if (Status s = FinishDecode(r, "PingResponse"); !s.ok()) return s;
  return out;
}

// --- ListGraphs -----------------------------------------------------------

std::vector<uint8_t> ListGraphsRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  return FinishFrame(MsgType::kListGraphs, w);
}

StatusOr<ListGraphsRequest> ListGraphsRequest::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  ListGraphsRequest out;
  if (!ReadRequestId(r, &out.request_id)) {
    return DecodeError("ListGraphsRequest");
  }
  if (Status s = FinishDecode(r, "ListGraphsRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> ListGraphsResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) w.WriteString(name);
  return FinishFrame(MsgType::kListGraphsResponse, w);
}

StatusOr<ListGraphsResponse> ListGraphsResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  ListGraphsResponse out;
  uint32_t count = 0;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU32(&count)) {
    return DecodeError("ListGraphsResponse");
  }
  // Each name costs at least its 4-byte length prefix.
  if (r.remaining() / 4 < count) return DecodeError("ListGraphsResponse");
  out.names.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.ReadString(&out.names[i])) return DecodeError("ListGraphsResponse");
  }
  if (Status s = FinishDecode(r, "ListGraphsResponse"); !s.ok()) return s;
  return out;
}

// --- Info -----------------------------------------------------------------

std::vector<uint8_t> InfoRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteString(graph);
  return FinishFrame(MsgType::kInfo, w);
}

StatusOr<InfoRequest> InfoRequest::Decode(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  InfoRequest out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadString(&out.graph)) {
    return DecodeError("InfoRequest");
  }
  if (Status s = FinishDecode(r, "InfoRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> InfoResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteString(info.name);
  w.WriteU32(info.num_vertices);
  w.WriteU32(info.num_edges);
  w.WriteU32(info.decomposition_builds);
  w.WriteU32(info.max_trussness);
  w.WriteU64(info.version);
  w.WriteU64(info.delta_updates);
  w.WriteU64(info.delta_chain_length);
  w.WriteU64(info.jobs_submitted);
  return FinishFrame(MsgType::kInfoResponse, w);
}

StatusOr<InfoResponse> InfoResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  InfoResponse out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadString(&out.info.name) ||
      !r.ReadU32(&out.info.num_vertices) || !r.ReadU32(&out.info.num_edges) ||
      !r.ReadU32(&out.info.decomposition_builds) ||
      !r.ReadU32(&out.info.max_trussness) || !r.ReadU64(&out.info.version) ||
      !r.ReadU64(&out.info.delta_updates) ||
      !r.ReadU64(&out.info.delta_chain_length) ||
      !r.ReadU64(&out.info.jobs_submitted)) {
    return DecodeError("InfoResponse");
  }
  if (Status s = FinishDecode(r, "InfoResponse"); !s.ok()) return s;
  return out;
}

// --- Submit ---------------------------------------------------------------

SolverOptions WireSolverOptions::ToSolverOptions() const {
  SolverOptions options;
  options.budget = budget;
  options.budget_checkpoints = budget_checkpoints;
  options.seed = seed;
  options.trials = trials;
  return options;
}

std::vector<uint8_t> SubmitRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteString(graph);
  w.WriteString(solver);
  w.WriteU32(options.budget);
  w.WriteU32Vector(options.budget_checkpoints);
  w.WriteU64(options.seed);
  w.WriteU32(options.trials);
  // Reserved byte: it once selected a greedy state-maintenance path that
  // no longer exists. Still written so revision-1 frames keep their shape.
  w.WriteU8(0);
  w.WriteString(tenant);
  w.WriteU32(static_cast<uint32_t>(priority));
  return FinishFrame(MsgType::kSubmit, w);
}

StatusOr<SubmitRequest> SubmitRequest::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  SubmitRequest out;
  uint8_t reserved = 0;  // read and ignored; see EncodeFrame
  if (!ReadRequestId(r, &out.request_id) || !r.ReadString(&out.graph) ||
      !r.ReadString(&out.solver) || !r.ReadU32(&out.options.budget) ||
      !r.ReadU32Vector(&out.options.budget_checkpoints) ||
      !r.ReadU64(&out.options.seed) || !r.ReadU32(&out.options.trials) ||
      !r.ReadU8(&reserved)) {
    return DecodeError("SubmitRequest");
  }
  // Tenancy fields arrived in protocol revision 2; a payload that ends
  // here is a revision-1 Submit and maps to the default tenant at
  // priority 0 (docs/PROTOCOL.md, "Version compatibility").
  if (r.remaining() > 0) {
    uint32_t raw_priority = 0;
    if (!r.ReadString(&out.tenant) || !r.ReadU32(&raw_priority)) {
      return DecodeError("SubmitRequest");
    }
    out.priority = static_cast<int32_t>(raw_priority);
  }
  // The revision-3 trailer (see SubmitRequest) is read, checked and
  // ignored — untrusted-bytes boundary, never aborts. Algorithm ids above
  // 2 never named a kernel and stay rejected.
  if (r.remaining() > 0) {
    uint8_t algorithm = 0;
    uint32_t ignored32 = 0;
    uint8_t ignored8 = 0;
    if (!r.ReadU8(&algorithm) || !r.ReadU32(&ignored32) ||
        !r.ReadU32(&ignored32) || !r.ReadU8(&ignored8) || algorithm > 2) {
      return DecodeError("SubmitRequest");
    }
  }
  if (Status s = FinishDecode(r, "SubmitRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> SubmitResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU64(job_id);
  return FinishFrame(MsgType::kSubmitResponse, w);
}

StatusOr<SubmitResponse> SubmitResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  SubmitResponse out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU64(&out.job_id)) {
    return DecodeError("SubmitResponse");
  }
  if (Status s = FinishDecode(r, "SubmitResponse"); !s.ok()) return s;
  return out;
}

// --- Wait -----------------------------------------------------------------

std::vector<uint8_t> WaitRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU64(job_id);
  return FinishFrame(MsgType::kWait, w);
}

StatusOr<WaitRequest> WaitRequest::Decode(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  WaitRequest out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU64(&out.job_id)) {
    return DecodeError("WaitRequest");
  }
  if (Status s = FinishDecode(r, "WaitRequest"); !s.ok()) return s;
  return out;
}

WireSolveResult WireSolveResult::FromSolveResult(const SolveResult& result) {
  WireSolveResult wire;
  wire.solver = result.solver;
  wire.anchor_edges.assign(result.anchor_edges.begin(),
                           result.anchor_edges.end());
  wire.anchor_vertices.assign(result.anchor_vertices.begin(),
                              result.anchor_vertices.end());
  wire.total_gain = result.total_gain;
  wire.gain_at_checkpoint = result.gain_at_checkpoint;
  wire.seconds = result.seconds;
  wire.stopped_early = result.stopped_early;
  return wire;
}

std::vector<uint8_t> WaitResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU64(job_id);
  w.WriteString(result.solver);
  w.WriteU32Vector(result.anchor_edges);
  w.WriteU32Vector(result.anchor_vertices);
  w.WriteU64(result.total_gain);
  w.WriteU64Vector(result.gain_at_checkpoint);
  w.WriteDouble(result.seconds);
  w.WriteU8(result.stopped_early ? 1 : 0);
  return FinishFrame(MsgType::kWaitResponse, w);
}

StatusOr<WaitResponse> WaitResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  WaitResponse out;
  uint8_t stopped_early = 0;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU64(&out.job_id) ||
      !r.ReadString(&out.result.solver) ||
      !r.ReadU32Vector(&out.result.anchor_edges) ||
      !r.ReadU32Vector(&out.result.anchor_vertices) ||
      !r.ReadU64(&out.result.total_gain) ||
      !r.ReadU64Vector(&out.result.gain_at_checkpoint) ||
      !r.ReadDouble(&out.result.seconds) || !r.ReadU8(&stopped_early)) {
    return DecodeError("WaitResponse");
  }
  out.result.stopped_early = stopped_early != 0;
  if (Status s = FinishDecode(r, "WaitResponse"); !s.ok()) return s;
  return out;
}

// --- Cancel ---------------------------------------------------------------

std::vector<uint8_t> CancelRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU64(job_id);
  return FinishFrame(MsgType::kCancel, w);
}

StatusOr<CancelRequest> CancelRequest::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  CancelRequest out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU64(&out.job_id)) {
    return DecodeError("CancelRequest");
  }
  if (Status s = FinishDecode(r, "CancelRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> CancelResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU8(cancelled ? 1 : 0);
  return FinishFrame(MsgType::kCancelResponse, w);
}

StatusOr<CancelResponse> CancelResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  CancelResponse out;
  uint8_t cancelled = 0;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU8(&cancelled)) {
    return DecodeError("CancelResponse");
  }
  out.cancelled = cancelled != 0;
  if (Status s = FinishDecode(r, "CancelResponse"); !s.ok()) return s;
  return out;
}

// --- UpdateGraph ----------------------------------------------------------

std::vector<uint8_t> UpdateGraphRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteString(graph);
  WriteEndpointVector(w, delta.add);
  WriteEndpointVector(w, delta.remove);
  return FinishFrame(MsgType::kUpdateGraph, w);
}

StatusOr<UpdateGraphRequest> UpdateGraphRequest::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  UpdateGraphRequest out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadString(&out.graph) ||
      !ReadEndpointVector(r, &out.delta.add) ||
      !ReadEndpointVector(r, &out.delta.remove)) {
    return DecodeError("UpdateGraphRequest");
  }
  if (Status s = FinishDecode(r, "UpdateGraphRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> UpdateGraphResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteU64(version);
  w.WriteU32(num_vertices);
  w.WriteU32(num_edges);
  return FinishFrame(MsgType::kUpdateGraphResponse, w);
}

StatusOr<UpdateGraphResponse> UpdateGraphResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  UpdateGraphResponse out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadU64(&out.version) ||
      !r.ReadU32(&out.num_vertices) || !r.ReadU32(&out.num_edges)) {
    return DecodeError("UpdateGraphResponse");
  }
  if (Status s = FinishDecode(r, "UpdateGraphResponse"); !s.ok()) return s;
  return out;
}

// --- Compact --------------------------------------------------------------

std::vector<uint8_t> CompactRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  w.WriteString(graph);
  return FinishFrame(MsgType::kCompact, w);
}

StatusOr<CompactRequest> CompactRequest::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  CompactRequest out;
  if (!ReadRequestId(r, &out.request_id) || !r.ReadString(&out.graph)) {
    return DecodeError("CompactRequest");
  }
  if (Status s = FinishDecode(r, "CompactRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> CompactResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  return FinishFrame(MsgType::kCompactResponse, w);
}

StatusOr<CompactResponse> CompactResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  CompactResponse out;
  if (!ReadRequestId(r, &out.request_id)) return DecodeError("CompactResponse");
  if (Status s = FinishDecode(r, "CompactResponse"); !s.ok()) return s;
  return out;
}

// --- Shutdown -------------------------------------------------------------

std::vector<uint8_t> ShutdownRequest::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  return FinishFrame(MsgType::kShutdown, w);
}

StatusOr<ShutdownRequest> ShutdownRequest::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  ShutdownRequest out;
  if (!ReadRequestId(r, &out.request_id)) return DecodeError("ShutdownRequest");
  if (Status s = FinishDecode(r, "ShutdownRequest"); !s.ok()) return s;
  return out;
}

std::vector<uint8_t> ShutdownResponse::EncodeFrame() const {
  ByteWriter w;
  w.WriteU64(request_id);
  return FinishFrame(MsgType::kShutdownResponse, w);
}

StatusOr<ShutdownResponse> ShutdownResponse::Decode(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  ShutdownResponse out;
  if (!ReadRequestId(r, &out.request_id)) {
    return DecodeError("ShutdownResponse");
  }
  if (Status s = FinishDecode(r, "ShutdownResponse"); !s.ok()) return s;
  return out;
}

}  // namespace net
}  // namespace atr
