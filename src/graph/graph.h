// Immutable undirected simple graph in CSR form with dense edge ids.
//
// Every algorithm in this repository is edge-centric (truss decomposition,
// followers, anchoring), so edges carry first-class ids 0..m-1 and the
// adjacency stores (neighbor, edge id) pairs sorted by neighbor, giving
// O(log d) edge lookup and O(d(u) + d(v)) or O(min(d) * log max(d)) common
// neighbor iteration.
//
// Graphs are built through GraphBuilder, which deduplicates parallel edges
// and drops self-loops; topology is immutable afterwards. Anchoring never
// mutates the graph (anchors are flags interpreted by the truss layer).
//
// Streaming updates do not mutate a Graph either: Graph::ApplyEdits takes a
// GraphDelta (edge insertions + deletions) and materializes the NEXT
// immutable CSR snapshot, together with a stable old-edge-id -> new-edge-id
// remap table so per-edge state (a truss decomposition, anchor flags) can
// be carried across versions instead of recomputed (see
// AtrService::UpdateGraph and truss/incremental.h).

#ifndef ATR_GRAPH_GRAPH_H_
#define ATR_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/binary_io.h"
#include "util/macros.h"
#include "util/status.h"

namespace atr {

using VertexId = uint32_t;
using EdgeId = uint32_t;

inline constexpr EdgeId kInvalidEdge = 0xffffffffu;
inline constexpr VertexId kInvalidVertex = 0xffffffffu;

// Endpoints of an undirected edge, normalized so that u < v.
struct EdgeEndpoints {
  VertexId u;
  VertexId v;
};

inline bool operator==(EdgeEndpoints a, EdgeEndpoints b) {
  return a.u == b.u && a.v == b.v;
}

// One adjacency slot: the neighbor vertex and the id of the connecting edge.
struct AdjEntry {
  VertexId neighbor;
  EdgeId edge;
};

// A batch of edge mutations against one graph version (endpoints in either
// orientation). Consumed by Graph::ApplyEdits.
struct GraphDelta {
  std::vector<EdgeEndpoints> add;
  std::vector<EdgeEndpoints> remove;
};

struct GraphEditResult;

class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  uint32_t NumVertices() const { return num_vertices_; }
  uint32_t NumEdges() const { return static_cast<uint32_t>(edges_.size()); }

  // Endpoints of edge `e` with u < v.
  EdgeEndpoints Edge(EdgeId e) const {
    ATR_DCHECK(e < edges_.size());
    return edges_[e];
  }

  uint32_t Degree(VertexId u) const {
    ATR_DCHECK(u < num_vertices_);
    return offsets_[u + 1] - offsets_[u];
  }

  // Neighbors of `u` sorted by neighbor id.
  std::span<const AdjEntry> Neighbors(VertexId u) const {
    ATR_DCHECK(u < num_vertices_);
    return std::span<const AdjEntry>(adj_.data() + offsets_[u],
                                     offsets_[u + 1] - offsets_[u]);
  }

  // Returns the id of edge {u, v}, or kInvalidEdge when absent.
  // O(log min(d(u), d(v))).
  EdgeId FindEdge(VertexId u, VertexId v) const;

  bool HasEdge(VertexId u, VertexId v) const {
    return FindEdge(u, v) != kInvalidEdge;
  }

  const std::vector<EdgeEndpoints>& edges() const { return edges_; }

  // Materializes the next immutable snapshot: this graph with every edge in
  // `delta.remove` deleted and every edge in `delta.add` inserted, plus the
  // edge-id remap that lets callers carry per-edge state across versions.
  // Vertex ids are stable — the vertex count only grows (to cover added
  // endpoints); deletions leave isolated vertices in place.
  //
  // Semantics: additions are normalized and deduplicated, and an addition
  // that already exists is an idempotent no-op (the edge keeps its remapped
  // id and is not reported in `added_edges`). Errors (kInvalidArgument):
  // self-loop or vertex id >= kInvalidVertex in `add`, a `remove` edge that
  // is absent, and an edge both added and removed in the same delta.
  StatusOr<GraphEditResult> ApplyEdits(const GraphDelta& delta) const;
  StatusOr<GraphEditResult> ApplyEdits(
      const std::vector<EdgeEndpoints>& adds,
      const std::vector<EdgeEndpoints>& removes) const;

  // --- Binary serialization (src/persist/ snapshot files) -----------------
  // Appends the topology to `writer`: vertex count, then the edge list in
  // edge-id order. Edge ids are part of the contract — Deserialize
  // reconstructs a graph whose edge ids (and therefore any per-edge state
  // indexed by them, e.g. a truss decomposition) match this graph exactly.
  void SerializeTo(ByteWriter& writer) const;

  // Mirror of SerializeTo. Fails with kInvalidArgument on truncated input
  // or an edge list that is not normalized (u < v, sorted by (u, v),
  // duplicate-free, endpoints < vertex count) — this is the validation
  // boundary for untrusted snapshot bytes, so it must never abort.
  static StatusOr<Graph> DeserializeFrom(ByteReader& reader);

 private:
  friend class GraphBuilder;

  // Shared CSR materialization for GraphBuilder::Build and ApplyEdits:
  // `edges` must be normalized (u < v), sorted by (u, v), duplicate-free,
  // with endpoints < num_vertices.
  static Graph FromSortedEdges(uint32_t num_vertices,
                               std::vector<EdgeEndpoints> edges);

  uint32_t num_vertices_ = 0;
  std::vector<uint32_t> offsets_;  // size num_vertices_ + 1
  std::vector<AdjEntry> adj_;      // size 2m, sorted per vertex
  std::vector<EdgeEndpoints> edges_;
};

// Result of Graph::ApplyEdits — the new snapshot plus the id translation
// downstream per-edge state (truss decompositions, anchor masks) needs to
// migrate from the previous version.
struct GraphEditResult {
  Graph graph;
  // Indexed by old EdgeId: the edge's id in `graph`, or kInvalidEdge for
  // edges the delta removed.
  std::vector<EdgeId> edge_remap;
  // Old ids (ascending, each once) of the edges the delta removed: exactly
  // the ids whose `edge_remap` entry is kInvalidEdge.
  std::vector<EdgeId> removed_edges;
  // Ids (in `graph`, ascending) of the edges the delta genuinely added —
  // idempotent re-additions of existing edges are not listed.
  std::vector<EdgeId> added_edges;
};

// Accumulates an edge list and produces a normalized Graph: self-loops
// dropped, duplicates (in either orientation) merged, adjacency sorted, edge
// ids assigned in the order edges were first added (after dedup, sorted by
// (u, v) to make ids independent of insertion order).
class GraphBuilder {
 public:
  explicit GraphBuilder(uint32_t num_vertices = 0)
      : num_vertices_(num_vertices) {}

  // Adds the undirected edge {u, v}; grows the vertex count as needed.
  void AddEdge(VertexId u, VertexId v);

  // Number of (not yet deduplicated) edges added so far.
  size_t PendingEdges() const { return pending_.size(); }

  uint32_t NumVertices() const { return num_vertices_; }

  // Builds the graph. The builder is left empty.
  Graph Build();

 private:
  uint32_t num_vertices_;
  std::vector<EdgeEndpoints> pending_;
};

}  // namespace atr

#endif  // ATR_GRAPH_GRAPH_H_
