// Tests for the networked front end (src/net/): wire codec round trips,
// the incremental frame parser's hostile-input handling, and TCP
// integration — submit/wait results byte-identical to a local engine run,
// structured admission-control rejection with a retry-after hint, and the
// kill-and-restart resume contract over a persistent data dir (both the
// graceful and the crash path restart with zero decomposition rebuilds).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/service.h"
#include "graph/generators/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "persist/snapshot.h"

namespace atr {
namespace net {
namespace {

Graph ServedGraph(uint64_t seed = 11) { return HolmeKimGraph(60, 4, 0.7, seed); }

std::string FreshRoot(const char* name) {
  const std::string root = std::string(::testing::TempDir()) + "/" + name;
  std::system(("rm -rf " + root).c_str());
  return root;
}

// --- Wire codec -----------------------------------------------------------

// Strips the 8-byte frame header, checking the type on the way.
std::vector<uint8_t> PayloadOf(const std::vector<uint8_t>& frame,
                               MsgType expected) {
  FrameParser parser;
  EXPECT_GE(frame.size(), 8u);
  parser.Feed(frame.data(), frame.size());
  std::optional<Frame> next = parser.Next();
  EXPECT_TRUE(next.has_value());
  if (!next.has_value()) return {};
  EXPECT_EQ(next->type, expected);
  return std::move(next->payload);
}

TEST(WireCodec, SubmitRequestRoundTrips) {
  SubmitRequest request;
  request.request_id = 42;
  request.graph = "social";
  request.solver = "gas";
  request.options.budget = 7;
  request.options.budget_checkpoints = {2, 5, 7};
  request.options.seed = 99;
  request.options.trials = 17;

  StatusOr<SubmitRequest> decoded =
      SubmitRequest::Decode(PayloadOf(request.EncodeFrame(), MsgType::kSubmit));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->graph, "social");
  EXPECT_EQ(decoded->solver, "gas");
  EXPECT_EQ(decoded->options.budget, 7u);
  EXPECT_EQ(decoded->options.budget_checkpoints, (std::vector<uint32_t>{2, 5, 7}));
  EXPECT_EQ(decoded->options.seed, 99u);
  EXPECT_EQ(decoded->options.trials, 17u);
  EXPECT_EQ(decoded->tenant, "");
  EXPECT_EQ(decoded->priority, 0);
}

// The u8 after `trials` in a Submit is reserved: it once selected a greedy
// state-maintenance path that no longer exists. Offset of that byte in a
// frame the encoder wrote: only the tenant string and the priority follow
// it.
size_t ReservedSubmitByteAt(const std::vector<uint8_t>& frame,
                            const SubmitRequest& request) {
  return frame.size() - (4 + request.tenant.size()) - 4 - 1;
}

// Appends the 10-byte revision-3 trailer — u8 algorithm id, u32, u32, u8 —
// that once selected the server's decomposition kernel, and patches the
// frame's little-endian length field to match.
std::vector<uint8_t> WithPlanTrailer(std::vector<uint8_t> frame,
                                     uint8_t algorithm) {
  ByteWriter trailer;
  trailer.WriteU8(algorithm);
  trailer.WriteU32(512);
  trailer.WriteU32(1024);
  trailer.WriteU8(1);
  frame.insert(frame.end(), trailer.buffer().begin(), trailer.buffer().end());
  const uint32_t payload_len = static_cast<uint32_t>(frame.size() - 8);
  for (int i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>(payload_len >> (8 * i));
  }
  return frame;
}

TEST(WireCodec, SubmitReservedByteIsWrittenAsZeroAndIgnored) {
  SubmitRequest request;
  request.request_id = 47;
  request.graph = "social";
  request.solver = "gas";
  request.options.budget = 3;
  request.options.budget_checkpoints = {1, 3};
  request.tenant = "acme";
  request.priority = 2;
  const std::vector<uint8_t> frame = request.EncodeFrame();
  const size_t reserved_at = ReservedSubmitByteAt(frame, request);
  EXPECT_EQ(frame[reserved_at], 0);

  // An older client sets the byte to 1: the request decodes to the same
  // fields, re-encodes with the byte back at 0, and solves identically.
  std::vector<uint8_t> legacy = frame;
  legacy[reserved_at] = 1;
  StatusOr<SubmitRequest> zero =
      SubmitRequest::Decode(PayloadOf(frame, MsgType::kSubmit));
  StatusOr<SubmitRequest> one =
      SubmitRequest::Decode(PayloadOf(legacy, MsgType::kSubmit));
  ASSERT_TRUE(zero.ok()) << zero.status().message();
  ASSERT_TRUE(one.ok()) << one.status().message();
  EXPECT_EQ(one->EncodeFrame(), frame);
  EXPECT_EQ(one->tenant, "acme");
  EXPECT_EQ(one->priority, 2);

  AtrEngine engine(ServedGraph());
  StatusOr<SolveResult> a =
      engine.Run(zero->solver, zero->options.ToSolverOptions());
  StatusOr<SolveResult> b =
      engine.Run(one->solver, one->options.ToSolverOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->anchor_edges, b->anchor_edges);
  EXPECT_EQ(a->total_gain, b->total_gain);
  EXPECT_EQ(a->gain_at_checkpoint, b->gain_at_checkpoint);
}

TEST(WireCodec, SubmitRequestCarriesTenantAndPriority) {
  SubmitRequest request;
  request.request_id = 43;
  request.graph = "social";
  request.solver = "gas";
  request.options.budget = 2;
  request.tenant = "acme";
  request.priority = -3;

  StatusOr<SubmitRequest> decoded =
      SubmitRequest::Decode(PayloadOf(request.EncodeFrame(), MsgType::kSubmit));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->tenant, "acme");
  EXPECT_EQ(decoded->priority, -3);
}

TEST(WireCodec, LegacyPlanTrailerIsReadAndIgnored) {
  SubmitRequest request;
  request.request_id = 44;
  request.graph = "social";
  request.solver = "gas";
  request.options.budget = 2;
  request.tenant = "acme";
  request.priority = -2;
  const std::vector<uint8_t> frame = request.EncodeFrame();

  // A revision-3 client's frame is the frame the encoder writes plus the
  // trailer. Every algorithm id it could name decodes to the same request
  // and re-encodes to the trailer-less frame.
  for (const uint8_t algorithm : {0, 1, 2}) {
    SCOPED_TRACE("algorithm id " + std::to_string(algorithm));
    const std::vector<uint8_t> legacy = WithPlanTrailer(frame, algorithm);
    StatusOr<SubmitRequest> decoded =
        SubmitRequest::Decode(PayloadOf(legacy, MsgType::kSubmit));
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->EncodeFrame(), frame);
    EXPECT_EQ(decoded->tenant, "acme");
    EXPECT_EQ(decoded->priority, -2);

    // Every strict prefix of the trailer is a malformed frame.
    const std::span<const uint8_t> payload(legacy.data() + 8,
                                           legacy.size() - 8);
    for (size_t cut = 1; cut < 10; ++cut) {
      EXPECT_FALSE(
          SubmitRequest::Decode(payload.subspan(0, payload.size() - cut)).ok())
          << "trailer cut " << cut;
    }
  }

  // Ids above 2 named no kernel: still rejected, as before.
  for (const uint8_t bogus : {3, 7, 255}) {
    const std::vector<uint8_t> legacy = WithPlanTrailer(frame, bogus);
    EXPECT_FALSE(
        SubmitRequest::Decode(PayloadOf(legacy, MsgType::kSubmit)).ok())
        << "algorithm id " << static_cast<int>(bogus);
  }
}

TEST(WireCodec, WaitResponseRoundTrips) {
  WaitResponse response;
  response.request_id = 3;
  response.job_id = 12;
  response.result.solver = "base+";
  response.result.anchor_edges = {5, 9, 1};
  response.result.total_gain = 77;
  response.result.gain_at_checkpoint = {30, 77};
  response.result.seconds = 1.5;
  response.result.stopped_early = true;

  StatusOr<WaitResponse> decoded = WaitResponse::Decode(
      PayloadOf(response.EncodeFrame(), MsgType::kWaitResponse));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->job_id, 12u);
  EXPECT_EQ(decoded->result.solver, "base+");
  EXPECT_EQ(decoded->result.anchor_edges, (std::vector<uint32_t>{5, 9, 1}));
  EXPECT_EQ(decoded->result.total_gain, 77u);
  EXPECT_EQ(decoded->result.gain_at_checkpoint, (std::vector<uint64_t>{30, 77}));
  EXPECT_DOUBLE_EQ(decoded->result.seconds, 1.5);
  EXPECT_TRUE(decoded->result.stopped_early);
}

TEST(WireCodec, ErrorResponseRoundTripsAndRejectsUnknownCodes) {
  ErrorResponse error;
  error.request_id = 8;
  error.code = StatusCode::kResourceExhausted;
  error.message = "queue full";
  error.retry_after_ms = 125;

  StatusOr<ErrorResponse> decoded =
      ErrorResponse::Decode(PayloadOf(error.EncodeFrame(), MsgType::kError));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->retry_after_ms, 125u);
  EXPECT_EQ(decoded->ToStatus().code(), StatusCode::kResourceExhausted);

  // A forged code outside the enum is a decode error, not a cast.
  ByteWriter forged;
  forged.WriteU64(8);
  forged.WriteU32(200);
  forged.WriteString("x");
  forged.WriteU32(0);
  EXPECT_FALSE(ErrorResponse::Decode(forged.buffer()).ok());
}

TEST(WireCodec, UpdateGraphRequestRoundTrips) {
  UpdateGraphRequest request;
  request.request_id = 5;
  request.graph = "g";
  request.delta.add = {{1, 9}, {2, 8}};
  request.delta.remove = {{3, 7}};

  StatusOr<UpdateGraphRequest> decoded = UpdateGraphRequest::Decode(
      PayloadOf(request.EncodeFrame(), MsgType::kUpdateGraph));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->delta.add, request.delta.add);
  EXPECT_EQ(decoded->delta.remove, request.delta.remove);
}

TEST(WireCodec, DecodersRejectTruncationAndTrailingBytes) {
  SubmitRequest request;
  request.request_id = 1;
  request.graph = "g";
  request.solver = "gas";
  const std::vector<uint8_t> frame = request.EncodeFrame();
  const std::span<const uint8_t> payload(frame.data() + 8, frame.size() - 8);

  // One prefix is legitimately decodable: the frame minus the revision-2
  // tenant + priority trailer IS a well-formed revision-1 SubmitRequest
  // (old clients still speak it), and must decode to the defaults.
  const size_t rev1_len = payload.size() - 8;
  for (size_t len = 0; len < payload.size(); ++len) {
    StatusOr<SubmitRequest> truncated =
        SubmitRequest::Decode(payload.subspan(0, len));
    if (len == rev1_len) {
      ASSERT_TRUE(truncated.ok()) << "rev-1 prefix " << len;
      EXPECT_EQ(truncated->tenant, "");
      EXPECT_EQ(truncated->priority, 0);
    } else {
      EXPECT_FALSE(truncated.ok()) << "prefix " << len;
    }
  }
  std::vector<uint8_t> padded(payload.begin(), payload.end());
  padded.push_back(0);
  EXPECT_FALSE(SubmitRequest::Decode(padded).ok());
}

// --- FrameParser ----------------------------------------------------------

TEST(FrameParser, ReassemblesFramesFedByteByByte) {
  PingRequest ping;
  ping.request_id = 2;
  SubmitRequest submit;
  submit.request_id = 3;
  submit.graph = "g";
  submit.solver = "gas";
  std::vector<uint8_t> stream = ping.EncodeFrame();
  const std::vector<uint8_t> second = submit.EncodeFrame();
  stream.insert(stream.end(), second.begin(), second.end());

  FrameParser parser;
  std::vector<Frame> frames;
  for (const uint8_t byte : stream) {
    parser.Feed(&byte, 1);
    while (std::optional<Frame> frame = parser.Next()) {
      frames.push_back(std::move(*frame));
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MsgType::kPing);
  EXPECT_EQ(frames[1].type, MsgType::kSubmit);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, ZeroLengthPayloadIsAValidFrame) {
  const std::vector<uint8_t> frame = EncodeFrame(MsgType::kPing, {});
  ASSERT_EQ(frame.size(), 8u);  // header only

  FrameParser parser;
  parser.Feed(frame.data(), frame.size());
  std::optional<Frame> parsed = parser.Next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, MsgType::kPing);
  EXPECT_TRUE(parsed->payload.empty());
  EXPECT_TRUE(parser.ok());
  EXPECT_EQ(parser.buffered(), 0u);

  // And a zero-length frame between two real ones doesn't desynchronize
  // the stream.
  PingRequest ping;
  ping.request_id = 5;
  std::vector<uint8_t> stream = ping.EncodeFrame();
  const std::vector<uint8_t> empty = EncodeFrame(MsgType::kListGraphs, {});
  stream.insert(stream.end(), empty.begin(), empty.end());
  const std::vector<uint8_t> tail = ping.EncodeFrame();
  stream.insert(stream.end(), tail.begin(), tail.end());
  parser.Feed(stream.data(), stream.size());
  int frames = 0;
  while (parser.Next()) ++frames;
  EXPECT_EQ(frames, 3);
  EXPECT_TRUE(parser.ok());
}

TEST(FrameParser, LengthExactlyAtTheCapIsNotPoison) {
  // kMaxFramePayload itself is the largest legal frame: the parser must
  // keep waiting for the payload, not reject the stream. (One past it is
  // poison — covered below.) Only the header is fed; materializing the
  // 64 MiB body would test the allocator, not the boundary.
  ByteWriter writer;
  writer.WriteU32(kMaxFramePayload);
  writer.WriteU32(static_cast<uint32_t>(MsgType::kPing));
  FrameParser parser;
  parser.Feed(writer.buffer().data(), writer.size());
  EXPECT_FALSE(parser.Next().has_value());  // incomplete, not invalid
  EXPECT_TRUE(parser.ok());
  EXPECT_EQ(parser.buffered(), 8u);
}

TEST(FrameParser, OversizeLengthPoisonsTheParser) {
  ByteWriter writer;
  writer.WriteU32(kMaxFramePayload + 1);
  writer.WriteU32(static_cast<uint32_t>(MsgType::kPing));
  FrameParser parser;
  parser.Feed(writer.buffer().data(), writer.size());
  EXPECT_FALSE(parser.Next().has_value());
  EXPECT_FALSE(parser.ok());

  // Sticky: even a valid frame afterwards is refused.
  PingRequest ping;
  const std::vector<uint8_t> valid = ping.EncodeFrame();
  parser.Feed(valid.data(), valid.size());
  EXPECT_FALSE(parser.Next().has_value());
}

// --- TCP integration ------------------------------------------------------

class ServerFixture {
 public:
  explicit ServerFixture(AtrServer::Options options = {}) : server_(options) {
    Status started = server_.Start();
    EXPECT_TRUE(started.ok()) << started.message();
  }

  AtrServer& server() { return server_; }

  AtrClient MakeClient() {
    AtrClient client;
    Status connected = client.Connect("127.0.0.1", server_.port());
    EXPECT_TRUE(connected.ok()) << connected.message();
    return client;
  }

 private:
  AtrServer server_;
};

TEST(ServerIntegration, PingListInfoOverTcp) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  EXPECT_TRUE(client.Ping().ok());

  StatusOr<std::vector<std::string>> names = client.ListGraphs();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"social"});

  StatusOr<AtrService::GraphInfo> info = client.Info("social");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "social");
  EXPECT_GT(info->num_edges, 0u);
  EXPECT_EQ(info->version, 1u);

  EXPECT_EQ(client.Info("absent").status().code(), StatusCode::kNotFound);
}

TEST(ServerIntegration, SolveOverTcpMatchesLocalEngine) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  WireSolverOptions options;
  options.budget = 4;
  StatusOr<uint64_t> job = client.Submit("social", "gas", options);
  ASSERT_TRUE(job.ok()) << job.status().message();
  StatusOr<WireSolveResult> remote = client.Wait(*job);
  ASSERT_TRUE(remote.ok()) << remote.status().message();

  AtrEngine engine(ServedGraph());
  StatusOr<SolveResult> local =
      engine.Run("gas", options.ToSolverOptions());
  ASSERT_TRUE(local.ok());

  EXPECT_EQ(remote->solver, local->solver);
  EXPECT_EQ(remote->total_gain, local->total_gain);
  ASSERT_EQ(remote->anchor_edges.size(), local->anchor_edges.size());
  for (size_t i = 0; i < remote->anchor_edges.size(); ++i) {
    EXPECT_EQ(remote->anchor_edges[i], local->anchor_edges[i]);
  }
  EXPECT_EQ(remote->gain_at_checkpoint,
            std::vector<uint64_t>(local->gain_at_checkpoint.begin(),
                                  local->gain_at_checkpoint.end()));
}

TEST(ServerIntegration, PipelinedSubmitsResolveOutOfOrder) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  WireSolverOptions options;
  options.budget = 2;
  std::vector<uint64_t> request_ids;
  for (int i = 0; i < 3; ++i) {
    StatusOr<uint64_t> sent = client.SendSubmit("social", "gas", options);
    ASSERT_TRUE(sent.ok());
    request_ids.push_back(*sent);
  }
  // Collect in reverse order: the stash matches responses to ids.
  std::vector<uint64_t> jobs;
  for (auto it = request_ids.rbegin(); it != request_ids.rend(); ++it) {
    StatusOr<uint64_t> job = client.ReceiveSubmit(*it);
    ASSERT_TRUE(job.ok());
    jobs.push_back(*job);
  }
  for (const uint64_t job : jobs) {
    StatusOr<WireSolveResult> result = client.Wait(job);
    EXPECT_TRUE(result.ok()) << result.status().message();
  }
}

TEST(ServerIntegration, ErrorsForUnknownGraphSolverAndJob) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  WireSolverOptions options;
  EXPECT_EQ(client.Submit("absent", "gas", options).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Submit("social", "no-such-solver", options).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Wait(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Cancel(999).status().code(), StatusCode::kNotFound);
}

TEST(ServerIntegration, CancelAfterCompletionReportsTooLate) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  WireSolverOptions options;
  options.budget = 1;
  StatusOr<uint64_t> job = client.Submit("social", "gas", options);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(client.Wait(*job).ok());

  StatusOr<bool> cancelled = client.Cancel(*job);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_FALSE(*cancelled);
}

TEST(ServerIntegration, SaturatedQueueAnswersRetryAfter) {
  AtrServer::Options options;
  options.workers = 1;
  options.queue_capacity = 1;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());

  // Deterministically jam the service: one job blocked mid-solve in its
  // progress callback (occupies the lone worker), one job pending (fills
  // the queue). Submitted in-process; the wire path is then guaranteed to
  // hit admission control.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  SolverOptions blocker;
  blocker.budget = 2;
  blocker.progress = [&](const SolveProgress&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return true;
  };
  AtrService& service = fixture.server().service();
  StatusOr<JobHandle> running = service.Submit("social", "gas", blocker);
  ASSERT_TRUE(running.ok());
  // Wait until the worker is actually inside the progress callback
  // (queue load stays 1 while running) then fill the pending slot.
  while (running->state() == JobHandle::State::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SolverOptions pending_options;
  pending_options.budget = 1;
  StatusOr<JobHandle> pending = service.Submit("social", "gas", pending_options);
  ASSERT_TRUE(pending.ok());

  AtrClient client = fixture.MakeClient();
  WireSolverOptions wire_options;
  wire_options.budget = 1;
  StatusOr<uint64_t> rejected = client.Submit("social", "gas", wire_options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(client.last_retry_after_ms(), 0u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(running->Wait().ok());
  ASSERT_TRUE(pending->Wait().ok());

  // With the jam cleared the same wire submit is accepted.
  StatusOr<uint64_t> accepted = client.Submit("social", "gas", wire_options);
  EXPECT_TRUE(accepted.ok()) << accepted.status().message();
  EXPECT_TRUE(client.Wait(*accepted).ok());
}

TEST(ServerIntegration, UpdateGraphOverTcpBumpsVersion) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  GraphDelta delta;
  delta.add = {{0, 40}, {1, 45}};
  StatusOr<UpdateGraphResponse> updated = client.UpdateGraph("social", delta);
  ASSERT_TRUE(updated.ok()) << updated.status().message();
  EXPECT_EQ(updated->version, 2u);

  StatusOr<AtrService::GraphInfo> info = client.Info("social");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 2u);
  EXPECT_EQ(info->delta_updates, 1u);
  // In-memory server: the decomposition still carried incrementally.
  EXPECT_LE(info->decomposition_builds, 1u);
}

TEST(ServerIntegration, OversizeFrameDropsConnectionButServerSurvives) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());

  // Hand-roll the poison on a plain socket: a header whose length field
  // exceeds kMaxFramePayload must cost the connection, nothing more.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.server().port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ByteWriter writer;
  writer.WriteU32(kMaxFramePayload + 7);
  writer.WriteU32(static_cast<uint32_t>(MsgType::kPing));
  ASSERT_EQ(::send(fd, writer.buffer().data(), writer.size(), 0),
            static_cast<ssize_t>(writer.size()));
  // The server answers a protocol violation by closing: EOF, no frame.
  uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  // Fresh connections are unaffected.
  AtrClient after = fixture.MakeClient();
  EXPECT_TRUE(after.Ping().ok());
}

// A raw blocking TCP connection to the fixture's port.
int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

TEST(ServerIntegration, SlowConsumerIsDisconnected) {
  AtrServer::Options options;
  options.max_output_buffer_bytes = 256u << 10;
  ServerFixture fixture(options);
  // Many long graph names make each ListGraphs response a few KB, so the
  // non-reading client below fills the kernel buffers and then the
  // server-side output buffer quickly.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fixture.server()
                    .AddGraph(std::string(180, 'a') + std::to_string(i),
                              ServedGraph(uint64_t(i)))
                    .ok());
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // A tiny receive buffer keeps the in-flight TCP window small: almost
  // all response bytes stay server-side, first in its socket buffer, then
  // in the connection's output buffer.
  const int rcvbuf = 8 << 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.server().port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Fire ListGraphs requests in waves and never read a byte back. The
  // server must cut the connection once its unsent output passes the
  // high-water mark instead of buffering forever.
  ListGraphsRequest request;
  std::vector<uint8_t> wave;
  for (int i = 0; i < 200; ++i) {
    request.request_id = uint64_t(i) + 1;
    const std::vector<uint8_t> frame = request.EncodeFrame();
    wave.insert(wave.end(), frame.begin(), frame.end());
  }
  bool disconnected = false;
  for (int round = 0; round < 40 && !disconnected; ++round) {
    size_t sent = 0;
    while (sent < wave.size()) {
      const ssize_t n = ::send(fd, wave.data() + sent, wave.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        disconnected = true;  // RST from the server's close
        break;
      }
      sent += static_cast<size_t>(n);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(disconnected);
  ::close(fd);

  EXPECT_GE(fixture.server().slow_consumer_disconnects(), 1u);
  // The server itself is unharmed.
  AtrClient after = fixture.MakeClient();
  EXPECT_TRUE(after.Ping().ok());
}

// Sends one hand-rolled Submit frame on a fresh raw connection and returns
// the job id the server answers with.
StatusOr<uint64_t> RawSubmit(uint16_t port, const std::vector<uint8_t>& frame) {
  const int fd = RawConnect(port);
  const bool sent = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
                    static_cast<ssize_t>(frame.size());
  FrameParser parser;
  std::optional<Frame> reply;
  while (sent && !reply.has_value()) {
    uint8_t buffer[256];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    parser.Feed(buffer, static_cast<size_t>(n));
    reply = parser.Next();
  }
  ::close(fd);
  if (!reply.has_value() || reply->type != MsgType::kSubmitResponse) {
    return Status::Internal("RawSubmit: no SubmitResponse");
  }
  StatusOr<SubmitResponse> submitted = SubmitResponse::Decode(reply->payload);
  if (!submitted.ok()) return submitted.status();
  return submitted->job_id;
}

TEST(ServerIntegration, LegacyReservedSubmitByteSolvesLikeZero) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());

  // An older client's Submit with the reserved byte set to 1 and the
  // revision-3 plan trailer appended, hand-rolled on a plain socket since
  // AtrClient writes neither.
  SubmitRequest request;
  request.request_id = 9;
  request.graph = "social";
  request.solver = "gas";
  request.options.budget = 4;
  std::vector<uint8_t> frame = request.EncodeFrame();
  frame[ReservedSubmitByteAt(frame, request)] = 1;
  StatusOr<uint64_t> legacy_job =
      RawSubmit(fixture.server().port(), WithPlanTrailer(frame, 2));
  ASSERT_TRUE(legacy_job.ok()) << legacy_job.status().message();

  AtrClient client = fixture.MakeClient();
  StatusOr<WireSolveResult> legacy = client.Wait(*legacy_job);
  ASSERT_TRUE(legacy.ok()) << legacy.status().message();
  StatusOr<uint64_t> job = client.Submit("social", "gas", request.options);
  ASSERT_TRUE(job.ok()) << job.status().message();
  StatusOr<WireSolveResult> current = client.Wait(*job);
  ASSERT_TRUE(current.ok()) << current.status().message();
  EXPECT_EQ(legacy->anchor_edges, current->anchor_edges);
  EXPECT_EQ(legacy->total_gain, current->total_gain);
  EXPECT_EQ(legacy->gain_at_checkpoint, current->gain_at_checkpoint);
}

TEST(ServerIntegration, PlanTrailerDoesNotSplitTheResultMemo) {
  AtrServer::Options options;
  options.workers = 1;
  ServerFixture fixture(options);
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());

  // Park the lone worker in a job's progress callback (a job with a
  // progress hook stays out of the memo), so both wire Submits below queue
  // behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  SolverOptions blocker;
  blocker.budget = 2;
  blocker.progress = [&](const SolveProgress&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return true;
  };
  AtrService& service = fixture.server().service();
  StatusOr<JobHandle> running = service.Submit("social", "gas", blocker);
  ASSERT_TRUE(running.ok());
  while (running->state() == JobHandle::State::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The same GAS Submit twice, once with the revision-3 trailer naming a
  // non-default kernel. The trailer is ignored, so the second is answered
  // from the first one's walk.
  SubmitRequest request;
  request.request_id = 5;
  request.graph = "social";
  request.solver = "gas";
  request.options.budget = 3;
  const std::vector<uint8_t> frame = request.EncodeFrame();
  StatusOr<uint64_t> plain = RawSubmit(fixture.server().port(), frame);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  StatusOr<uint64_t> trailed =
      RawSubmit(fixture.server().port(), WithPlanTrailer(frame, 2));
  ASSERT_TRUE(trailed.ok()) << trailed.status().message();

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(running->Wait().ok());

  AtrClient client = fixture.MakeClient();
  StatusOr<WireSolveResult> plain_result = client.Wait(*plain);
  ASSERT_TRUE(plain_result.ok()) << plain_result.status().message();
  StatusOr<WireSolveResult> trailed_result = client.Wait(*trailed);
  ASSERT_TRUE(trailed_result.ok()) << trailed_result.status().message();
  EXPECT_EQ(plain_result->anchor_edges, trailed_result->anchor_edges);
  EXPECT_EQ(plain_result->total_gain, trailed_result->total_gain);
  EXPECT_EQ(plain_result->gain_at_checkpoint,
            trailed_result->gain_at_checkpoint);
  // Results are published before the worker counts the job.
  service.Drain();
  EXPECT_EQ(service.Stats().memo_hits, 1u);
}

TEST(ServerIntegration, IdleConnectionIsReaped) {
  AtrServer::Options options;
  options.idle_timeout_ms = 100;
  ServerFixture fixture(options);

  const int fd = RawConnect(fixture.server().port());
  PingRequest ping;
  ping.request_id = 1;
  const std::vector<uint8_t> frame = ping.EncodeFrame();
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  uint8_t buffer[64];
  ASSERT_GT(::recv(fd, buffer, sizeof(buffer), 0), 0);  // the PingResponse

  // Then go quiet. The server reaps the connection after idle_timeout_ms:
  // the blocking recv returns EOF instead of hanging.
  EXPECT_EQ(::recv(fd, buffer, sizeof(buffer), 0), 0);
  ::close(fd);
  EXPECT_GE(fixture.server().idle_disconnects(), 1u);

  // The other half of the contract — an ACTIVE client is never reaped —
  // used to live here as "ping every 60 ms against a 100 ms timeout",
  // which falsely reaps under CI scheduling stalls. It is now exact on a
  // virtual clock in server_sim_test.cc
  // (ServerSim.VirtualTimeIdleReapIsMillisecondExact and
  // ServerSim.ParkedWaiterOutlivesIdleTimeout).
}

TEST(ServerIntegration, TenantAndPrioritySubmitOverTcp) {
  ServerFixture fixture;
  ASSERT_TRUE(fixture.server().AddGraph("social", ServedGraph()).ok());
  AtrClient client = fixture.MakeClient();

  WireSolverOptions options;
  options.budget = 3;
  StatusOr<uint64_t> plain = client.Submit("social", "gas", options);
  ASSERT_TRUE(plain.ok());
  StatusOr<WireSolveResult> plain_result = client.Wait(*plain);
  ASSERT_TRUE(plain_result.ok());

  StatusOr<uint64_t> tenant_job =
      client.Submit("social", "gas", options, "acme", 7);
  ASSERT_TRUE(tenant_job.ok());
  StatusOr<WireSolveResult> tenant_result = client.Wait(*tenant_job);
  ASSERT_TRUE(tenant_result.ok());

  // Tenancy routes scheduling, never results.
  EXPECT_EQ(tenant_result->anchor_edges, plain_result->anchor_edges);
  EXPECT_EQ(tenant_result->total_gain, plain_result->total_gain);
}

TEST(ClientDeadline, SilentServerYieldsDeadlineExceeded) {
  // A socket that accepts the TCP handshake (listen backlog) but never
  // reads or answers: without a deadline the client would block forever.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&bound), &len),
            0);

  AtrClientOptions client_options;
  client_options.io_timeout_ms = 200;
  AtrClient client(client_options);
  ASSERT_TRUE(client.Connect("127.0.0.1", ntohs(bound.sin_port)).ok());

  const auto start = std::chrono::steady_clock::now();
  const Status status = client.Ping();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status.message();
  // Bounded wait, not a hang: generous upper bound for slow CI machines.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ::close(listener);
}

// --- Restart-resume over the wire (satellite: kill and resume) ------------

TrussDecomposition ServedDecomposition(AtrService& service,
                                       const std::string& name) {
  StatusOr<GraphSnapshot> snapshot = service.Snapshot(name);
  EXPECT_TRUE(snapshot.ok());
  return *snapshot->decomposition;
}

class RestartTest : public ::testing::TestWithParam<bool> {};

TEST_P(RestartTest, ServerResumesCatalogAfterRestart) {
  const bool graceful = GetParam();
  const std::string root =
      FreshRoot(graceful ? "net_restart_graceful" : "net_restart_crash");

  TrussDecomposition before;
  WireSolveResult result_before;
  uint64_t version_before = 0;

  {
    AtrServer::Options options;
    options.data_dir = root;
    AtrServer server(options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.AddGraph("social", ServedGraph()).ok());

    AtrClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

    GraphDelta delta;
    delta.add = {{0, 40}, {2, 50}};
    ASSERT_TRUE(client.UpdateGraph("social", delta).ok());
    GraphDelta delta2;
    delta2.add = {{5, 41}};
    StatusOr<UpdateGraphResponse> updated =
        client.UpdateGraph("social", delta2);
    ASSERT_TRUE(updated.ok());
    version_before = updated->version;
    EXPECT_EQ(version_before, 3u);

    WireSolverOptions wire_options;
    wire_options.budget = 3;
    StatusOr<uint64_t> job = client.Submit("social", "gas", wire_options);
    ASSERT_TRUE(job.ok());
    StatusOr<WireSolveResult> result = client.Wait(*job);
    ASSERT_TRUE(result.ok());
    result_before = *result;

    before = ServedDecomposition(server.service(), "social");
    client.Close();
    if (graceful) {
      ASSERT_TRUE(server.Stop().ok());
    } else {
      ASSERT_TRUE(server.StopWithoutPersist().ok());
    }
  }

  {
    AtrServer::Options options;
    options.data_dir = root;
    AtrServer server(options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.catalog(), nullptr);
    EXPECT_EQ(server.catalog()->restore_stats().graphs_restored, 1u);
    // Graceful stop compacted (no deltas to replay); the crash path must
    // replay both logged deltas.
    EXPECT_EQ(server.catalog()->restore_stats().deltas_replayed,
              graceful ? 0u : 2u);

    AtrClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

    StatusOr<AtrService::GraphInfo> info = client.Info("social");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->version, version_before);
    // The headline restart contract: nothing was rebuilt.
    EXPECT_EQ(info->decomposition_builds, 0u);

    // Byte-identical decomposition across the restart.
    const TrussDecomposition after =
        ServedDecomposition(server.service(), "social");
    EXPECT_EQ(after.trussness, before.trussness);
    EXPECT_EQ(after.layer, before.layer);
    EXPECT_EQ(after.max_trussness, before.max_trussness);
    // decomposition_builds must STILL be 0 after serving a snapshot.
    info = client.Info("social");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->decomposition_builds, 0u);

    // Solves against the restored graph reproduce pre-restart results.
    WireSolverOptions wire_options;
    wire_options.budget = 3;
    StatusOr<uint64_t> job = client.Submit("social", "gas", wire_options);
    ASSERT_TRUE(job.ok());
    StatusOr<WireSolveResult> result = client.Wait(*job);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->total_gain, result_before.total_gain);
    EXPECT_EQ(result->anchor_edges, result_before.anchor_edges);

    client.Close();
    ASSERT_TRUE(server.Stop().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(GracefulAndCrash, RestartTest, ::testing::Bool());

TEST(ServerIntegration, ClientShutdownStopsTheServer) {
  const std::string root = FreshRoot("net_shutdown");
  AtrServer::Options options;
  options.data_dir = root;
  AtrServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.AddGraph("social", ServedGraph()).ok());

  AtrClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(client.Shutdown().ok());
  server.Join();  // returns because the loop exited on the request
  EXPECT_TRUE(server.Stop().ok());
}

}  // namespace
}  // namespace net
}  // namespace atr
