// atr_client — command-line client for atr_server.
//
//   atr_client --port 7400 ping
//   atr_client --port 7400 list
//   atr_client --port 7400 info social
//   atr_client --port 7400 solve social gas 10
//   atr_client --port 7400 update social --add 3,9 --add 4,9 --remove 0,1
//   atr_client --port 7400 compact social
//   atr_client --port 7400 shutdown
//
// Exit status: 0 on success, 1 on a server/transport error (message on
// stderr; admission-control rejections additionally print the server's
// retry-after hint).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] COMMAND [ARGS]\n"
               "commands:\n"
               "  ping | list | info GRAPH | compact GRAPH | shutdown\n"
               "  solve GRAPH SOLVER BUDGET [--seed N] [--trials N]\n"
               "  update GRAPH [--add U,V ...] [--remove U,V ...]\n",
               argv0);
  return 2;
}

bool ParseEndpointPair(const std::string& spec, atr::EdgeEndpoints* out) {
  const size_t comma = spec.find(',');
  if (comma == std::string::npos || comma == 0 || comma + 1 == spec.size()) {
    return false;
  }
  out->u = static_cast<atr::VertexId>(std::atoll(spec.substr(0, comma).c_str()));
  out->v = static_cast<atr::VertexId>(std::atoll(spec.substr(comma + 1).c_str()));
  return true;
}

int Fail(const atr::Status& status, uint32_t retry_after_ms) {
  std::fprintf(stderr, "atr_client: %s (%s)\n", status.message().c_str(),
               atr::StatusCodeName(status.code()));
  if (retry_after_ms > 0) {
    std::fprintf(stderr, "atr_client: server says retry after %u ms\n",
                 retry_after_ms);
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else {
      break;
    }
  }
  if (i >= argc || port == 0) return Usage(argv[0]);
  const std::string command = argv[i++];

  atr::net::AtrClient client;
  if (atr::Status s = client.Connect(host, port); !s.ok()) {
    return Fail(s, 0);
  }

  if (command == "ping") {
    if (atr::Status s = client.Ping(); !s.ok()) {
      return Fail(s, client.last_retry_after_ms());
    }
    std::printf("pong\n");
    return 0;
  }

  if (command == "list") {
    atr::StatusOr<std::vector<std::string>> names = client.ListGraphs();
    if (!names.ok()) return Fail(names.status(), client.last_retry_after_ms());
    for (const std::string& name : *names) std::printf("%s\n", name.c_str());
    return 0;
  }

  if (command == "info") {
    if (i >= argc) return Usage(argv[0]);
    atr::StatusOr<atr::AtrService::GraphInfo> info = client.Info(argv[i]);
    if (!info.ok()) return Fail(info.status(), client.last_retry_after_ms());
    std::printf("name:                 %s\n", info->name.c_str());
    std::printf("vertices:             %u\n", info->num_vertices);
    std::printf("edges:                %u\n", info->num_edges);
    std::printf("version:              %llu\n",
                static_cast<unsigned long long>(info->version));
    std::printf("delta_updates:        %llu\n",
                static_cast<unsigned long long>(info->delta_updates));
    std::printf("delta_chain_length:   %llu\n",
                static_cast<unsigned long long>(info->delta_chain_length));
    std::printf("decomposition_builds: %u\n", info->decomposition_builds);
    std::printf("max_trussness:        %u\n", info->max_trussness);
    std::printf("jobs_submitted:       %llu\n",
                static_cast<unsigned long long>(info->jobs_submitted));
    return 0;
  }

  if (command == "solve") {
    if (i + 2 >= argc) return Usage(argv[0]);
    const std::string graph = argv[i++];
    const std::string solver = argv[i++];
    atr::net::WireSolverOptions options;
    options.budget = static_cast<uint32_t>(std::atoi(argv[i++]));
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--seed" && i + 1 < argc) {
        options.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
      } else if (arg == "--trials" && i + 1 < argc) {
        options.trials = static_cast<uint32_t>(std::atoi(argv[++i]));
      } else {
        return Usage(argv[0]);
      }
    }
    atr::StatusOr<uint64_t> job = client.Submit(graph, solver, options);
    if (!job.ok()) return Fail(job.status(), client.last_retry_after_ms());
    atr::StatusOr<atr::net::WireSolveResult> result = client.Wait(*job);
    if (!result.ok()) return Fail(result.status(), client.last_retry_after_ms());
    std::printf("solver:     %s\n", result->solver.c_str());
    std::printf("total_gain: %llu\n",
                static_cast<unsigned long long>(result->total_gain));
    std::printf("seconds:    %.6f\n", result->seconds);
    std::printf("anchors:   ");
    for (const uint32_t e : result->anchor_edges) std::printf(" %u", e);
    for (const uint32_t v : result->anchor_vertices) std::printf(" v%u", v);
    std::printf("\n");
    if (result->stopped_early) std::printf("stopped_early: true\n");
    return 0;
  }

  if (command == "update") {
    if (i >= argc) return Usage(argv[0]);
    const std::string graph = argv[i++];
    atr::GraphDelta delta;
    for (; i < argc; ++i) {
      const std::string arg = argv[i];
      atr::EdgeEndpoints endpoints;
      if (arg == "--add" && i + 1 < argc &&
          ParseEndpointPair(argv[i + 1], &endpoints)) {
        delta.add.push_back(endpoints);
        ++i;
      } else if (arg == "--remove" && i + 1 < argc &&
                 ParseEndpointPair(argv[i + 1], &endpoints)) {
        delta.remove.push_back(endpoints);
        ++i;
      } else {
        return Usage(argv[0]);
      }
    }
    atr::StatusOr<atr::net::UpdateGraphResponse> response =
        client.UpdateGraph(graph, delta);
    if (!response.ok()) {
      return Fail(response.status(), client.last_retry_after_ms());
    }
    std::printf("version %llu: %u vertices, %u edges\n",
                static_cast<unsigned long long>(response->version),
                response->num_vertices, response->num_edges);
    return 0;
  }

  if (command == "compact") {
    if (i >= argc) return Usage(argv[0]);
    if (atr::Status s = client.Compact(argv[i]); !s.ok()) {
      return Fail(s, client.last_retry_after_ms());
    }
    std::printf("compacted\n");
    return 0;
  }

  if (command == "shutdown") {
    if (atr::Status s = client.Shutdown(); !s.ok()) {
      return Fail(s, client.last_retry_after_ms());
    }
    std::printf("server stopping\n");
    return 0;
  }

  return Usage(argv[0]);
}
