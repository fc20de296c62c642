#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace atr {
namespace {

// The (u, v) lexicographic edge order every sorted edge list in this file
// shares: FromSortedEdges' precondition, the Build() sort, and the
// ApplyEdits merge must all agree on it.
bool EndpointsPrecede(EdgeEndpoints a, EdgeEndpoints b) {
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

}  // namespace

EdgeId Graph::FindEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices_ || v >= num_vertices_ || u == v) return kInvalidEdge;
  // Search the smaller adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  std::span<const AdjEntry> nbrs = Neighbors(u);
  auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), v,
      [](const AdjEntry& a, VertexId target) { return a.neighbor < target; });
  if (it != nbrs.end() && it->neighbor == v) return it->edge;
  return kInvalidEdge;
}

Graph Graph::FromSortedEdges(uint32_t num_vertices,
                             std::vector<EdgeEndpoints> edges) {
  Graph g;
  g.num_vertices_ = num_vertices;
  g.edges_ = std::move(edges);

  const uint32_t n = g.num_vertices_;
  const uint32_t m = static_cast<uint32_t>(g.edges_.size());
  g.offsets_.assign(size_t{n} + 1, 0);
  for (const EdgeEndpoints& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (uint32_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adj_.resize(2ull * m);
  std::vector<uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  // Two passes over the (u, v)-sorted edges fill each list in order with
  // no per-vertex sort: the first appends every vertex's lower neighbours
  // (the edges (u, v) that end at v arrive in ascending u), the second its
  // higher ones (the edges that start at u arrive in ascending v).
  for (EdgeId e = 0; e < m; ++e) {
    const EdgeEndpoints ends = g.edges_[e];
    g.adj_[cursor[ends.v]++] = AdjEntry{ends.u, e};
  }
  for (EdgeId e = 0; e < m; ++e) {
    const EdgeEndpoints ends = g.edges_[e];
    g.adj_[cursor[ends.u]++] = AdjEntry{ends.v, e};
  }
  return g;
}

StatusOr<GraphEditResult> Graph::ApplyEdits(const GraphDelta& delta) const {
  return ApplyEdits(delta.add, delta.remove);
}

StatusOr<GraphEditResult> Graph::ApplyEdits(
    const std::vector<EdgeEndpoints>& adds,
    const std::vector<EdgeEndpoints>& removes) const {
  const uint32_t old_m = NumEdges();

  // Resolve removals to old edge ids (absent edges are a caller error — a
  // streaming feed that deletes a never-inserted edge is out of sync).
  GraphEditResult result;
  std::vector<EdgeId>& removed = result.removed_edges;
  removed.reserve(removes.size());
  for (const EdgeEndpoints& r : removes) {
    const EdgeId e = FindEdge(r.u, r.v);
    if (e == kInvalidEdge) {
      return Status::InvalidArgument(
          "ApplyEdits: removed edge {" + std::to_string(r.u) + ", " +
          std::to_string(r.v) + "} is not in the graph");
    }
    removed.push_back(e);
  }
  std::sort(removed.begin(), removed.end());
  removed.erase(std::unique(removed.begin(), removed.end()), removed.end());

  // Normalize + dedup the additions; re-adding an existing edge is an
  // idempotent no-op unless the same delta also removes it (ambiguous).
  std::vector<EdgeEndpoints> pending;
  pending.reserve(adds.size());
  uint32_t new_n = num_vertices_;
  for (EdgeEndpoints a : adds) {
    if (a.u == a.v) {
      return Status::InvalidArgument(
          "ApplyEdits: added edge {" + std::to_string(a.u) + ", " +
          std::to_string(a.v) + "} is a self-loop");
    }
    if (a.u > a.v) std::swap(a.u, a.v);
    if (a.v >= kInvalidVertex) {
      return Status::InvalidArgument(
          "ApplyEdits: vertex id " + std::to_string(a.v) +
          " overflows the VertexId space");
    }
    const EdgeId existing = FindEdge(a.u, a.v);
    if (existing != kInvalidEdge) {
      if (std::binary_search(removed.begin(), removed.end(), existing)) {
        return Status::InvalidArgument(
            "ApplyEdits: edge {" + std::to_string(a.u) + ", " +
            std::to_string(a.v) + "} is both added and removed");
      }
      continue;
    }
    new_n = std::max(new_n, a.v + 1);
    pending.push_back(a);
  }
  std::sort(pending.begin(), pending.end(), EndpointsPrecede);
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());

  // Merge the surviving old edges (edges_ is (u, v)-sorted by construction)
  // with the sorted additions, assigning new ids in merge order. Between
  // two edits the old edges move as one block, with consecutive new ids.
  result.edge_remap.resize(old_m);
  std::vector<EdgeEndpoints> merged;
  merged.reserve(old_m - removed.size() + pending.size());
  EdgeId old_e = 0;
  size_t remove_i = 0;
  size_t add_i = 0;
  for (;;) {
    // The next edit: the next removed id, or the old edge the next
    // addition sorts before.
    const EdgeId next_removed =
        remove_i < removed.size() ? removed[remove_i] : old_m;
    const EdgeId next_added =
        add_i < pending.size()
            ? static_cast<EdgeId>(
                  std::lower_bound(edges_.begin() + old_e, edges_.end(),
                                   pending[add_i], EndpointsPrecede) -
                  edges_.begin())
            : old_m;
    const EdgeId stop = std::min(next_removed, next_added);
    std::iota(result.edge_remap.begin() + old_e,
              result.edge_remap.begin() + stop,
              static_cast<EdgeId>(merged.size()));
    merged.insert(merged.end(), edges_.begin() + old_e,
                  edges_.begin() + stop);
    old_e = stop;
    if (add_i < pending.size() && next_added == stop) {
      result.added_edges.push_back(static_cast<EdgeId>(merged.size()));
      merged.push_back(pending[add_i++]);
    } else if (remove_i < removed.size()) {
      result.edge_remap[old_e++] = kInvalidEdge;
      ++remove_i;
    } else {
      break;
    }
  }
  result.graph = FromSortedEdges(new_n, std::move(merged));
  return result;
}

void Graph::SerializeTo(ByteWriter& writer) const {
  writer.WriteU32(num_vertices_);
  writer.WriteU32(static_cast<uint32_t>(edges_.size()));
  for (const EdgeEndpoints& e : edges_) {
    writer.WriteU32(e.u);
    writer.WriteU32(e.v);
  }
}

StatusOr<Graph> Graph::DeserializeFrom(ByteReader& reader) {
  uint32_t n = 0;
  uint32_t m = 0;
  if (!reader.ReadU32(&n) || !reader.ReadU32(&m)) {
    return Status::InvalidArgument("Graph::Deserialize: truncated header");
  }
  if (n >= kInvalidVertex) {
    return Status::InvalidArgument(
        "Graph::Deserialize: vertex count overflows the VertexId space");
  }
  // 8 bytes per edge must still be present; checking before the resize
  // keeps a hostile edge count from driving a huge allocation.
  if (reader.remaining() / 8 < m) {
    return Status::InvalidArgument("Graph::Deserialize: truncated edge list");
  }
  std::vector<EdgeEndpoints> edges(m);
  for (EdgeId e = 0; e < m; ++e) {
    reader.ReadU32(&edges[e].u);
    reader.ReadU32(&edges[e].v);
  }
  ATR_CHECK(reader.ok());
  for (EdgeId e = 0; e < m; ++e) {
    const EdgeEndpoints ends = edges[e];
    if (ends.u >= ends.v || ends.v >= n) {
      return Status::InvalidArgument(
          "Graph::Deserialize: edge " + std::to_string(e) +
          " is not normalized (u < v) or exceeds the vertex count");
    }
    if (e > 0 && !EndpointsPrecede(edges[e - 1], ends)) {
      return Status::InvalidArgument(
          "Graph::Deserialize: edge list is not sorted / duplicate-free at "
          "edge " +
          std::to_string(e));
    }
  }
  return FromSortedEdges(n, std::move(edges));
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;
  if (u > v) std::swap(u, v);
  // v + 1 below would wrap to 0 on the sentinel and silently corrupt
  // num_vertices_; ids this large are a caller bug (the IO layer rejects
  // them with a Status before they reach the builder).
  ATR_CHECK_MSG(v < kInvalidVertex,
                "AddEdge: vertex id overflows the VertexId space");
  num_vertices_ = std::max(num_vertices_, v + 1);
  pending_.push_back(EdgeEndpoints{u, v});
}

Graph GraphBuilder::Build() {
  std::sort(pending_.begin(), pending_.end(), EndpointsPrecede);
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());
  std::vector<EdgeEndpoints> edges = std::move(pending_);
  pending_.clear();
  return Graph::FromSortedEdges(num_vertices_, std::move(edges));
}

}  // namespace atr
