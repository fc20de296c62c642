#include "truss/decomposition.h"

#include <algorithm>

#include "graph/triangles.h"
#include "util/macros.h"

namespace atr {
namespace {

// The serial Algorithm 1 peel. `alive` marks edges participating in the
// decomposition (already excludes out-of-subset edges); anchored edges are
// alive forever.
TrussDecomposition Peel(const Graph& g, const std::vector<bool>& anchored,
                        std::vector<bool> alive) {
  const uint32_t m = g.NumEdges();
  TrussDecomposition out;
  out.trussness.assign(m, kTrussnessNotComputed);
  out.layer.assign(m, 0);

  // Support restricted to alive edges, from one whole-graph sweep; the peel
  // rounds below walk single edges.
  std::vector<uint32_t> support = ComputeSupport(g, alive);

  const bool has_anchors = !anchored.empty();
  auto is_anchored = [&](EdgeId e) { return has_anchors && anchored[e]; };

  // Bucket queue keyed by support; entries are validated lazily on pop.
  uint32_t max_support = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (alive[e]) max_support = std::max(max_support, support[e]);
  }
  std::vector<std::vector<EdgeId>> buckets(max_support + 1);
  uint32_t remaining = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (!alive[e]) continue;
    if (is_anchored(e)) continue;  // never peeled
    buckets[support[e]].push_back(e);
    ++remaining;
  }
  out.trussness.assign(m, kTrussnessNotComputed);
  for (EdgeId e = 0; e < m; ++e) {
    if (alive[e] && is_anchored(e)) out.trussness[e] = kAnchoredTrussness;
  }

  // `queued` dedupes frontier membership per phase round.
  std::vector<bool> queued(m, false);
  std::vector<EdgeId> frontier;
  std::vector<EdgeId> next_frontier;

  uint32_t k = 2;
  uint32_t peak = 2;
  while (remaining > 0) {
    const uint32_t threshold = k - 2;
    // Round 1 frontier: alive non-anchor edges with support <= k-2. Bucket
    // entries are consumed; stale ones (dead or support changed) are skipped
    // — a support value only decreases, and each decrease re-files the edge.
    frontier.clear();
    const uint32_t scan_limit = std::min<uint32_t>(threshold, max_support);
    for (uint32_t s = 0; s <= scan_limit; ++s) {
      for (EdgeId e : buckets[s]) {
        if (alive[e] && !queued[e] && support[e] <= threshold) {
          queued[e] = true;
          frontier.push_back(e);
        }
      }
      buckets[s].clear();
    }

    uint32_t round = 1;
    while (!frontier.empty()) {
      next_frontier.clear();
      for (EdgeId e : frontier) {
        ATR_DCHECK(alive[e]);
        alive[e] = false;
        queued[e] = false;
        out.trussness[e] = k;
        out.layer[e] = round;
        --remaining;
        peak = std::max(peak, k);
        ForEachTriangleOfEdge(g, e, [&](VertexId, EdgeId e1, EdgeId e2) {
          if (!alive[e1] || !alive[e2]) return;
          for (EdgeId partner : {e1, e2}) {
            if (is_anchored(partner)) continue;
            ATR_DCHECK(support[partner] > 0);
            --support[partner];
            const uint32_t s = support[partner];
            if (s <= threshold) {
              if (!queued[partner]) {
                queued[partner] = true;
                next_frontier.push_back(partner);
              }
            } else {
              buckets[s].push_back(partner);
            }
          }
        });
      }
      frontier.swap(next_frontier);
      ++round;
    }
    ++k;
  }
  out.max_trussness = peak;
  return out;
}

}  // namespace

SharedTrussDecomposition ComputeSharedTrussDecomposition(
    const Graph& g, const std::vector<bool>& anchored) {
  return std::make_shared<const TrussDecomposition>(
      ComputeTrussDecomposition(g, anchored));
}

TrussDecomposition ComputeTrussDecompositionSerial(
    const Graph& g, const std::vector<bool>& anchored) {
  ATR_CHECK(anchored.empty() || anchored.size() == g.NumEdges());
  std::vector<bool> alive(g.NumEdges(), true);
  return Peel(g, anchored, std::move(alive));
}

TrussDecomposition ComputeTrussDecompositionOnSubsetSerial(
    const Graph& g, const std::vector<bool>& anchored,
    const std::vector<EdgeId>& edge_subset) {
  ATR_CHECK(anchored.empty() || anchored.size() == g.NumEdges());
  std::vector<bool> alive(g.NumEdges(), false);
  for (EdgeId e : edge_subset) {
    ATR_CHECK(e < g.NumEdges());
    alive[e] = true;
  }
  return Peel(g, anchored, std::move(alive));
}

std::vector<EdgeId> AliveSubsetOf(const TrussDecomposition& decomp) {
  const uint32_t m = static_cast<uint32_t>(decomp.trussness.size());
  std::vector<EdgeId> alive;
  alive.reserve(m);
  for (EdgeId e = 0; e < m; ++e) {
    if (decomp.trussness[e] != kTrussnessNotComputed) alive.push_back(e);
  }
  if (alive.size() == m) alive.clear();
  return alive;
}

void SerializeTrussDecomposition(const TrussDecomposition& decomp,
                                 ByteWriter& writer) {
  ATR_CHECK(decomp.trussness.size() == decomp.layer.size());
  writer.WriteU32(decomp.max_trussness);
  writer.WriteU32Vector(decomp.trussness);
  writer.WriteU32Vector(decomp.layer);
}

StatusOr<TrussDecomposition> DeserializeTrussDecomposition(
    ByteReader& reader, uint32_t num_edges) {
  TrussDecomposition decomp;
  if (!reader.ReadU32(&decomp.max_trussness) ||
      !reader.ReadU32Vector(&decomp.trussness) ||
      !reader.ReadU32Vector(&decomp.layer)) {
    return Status::InvalidArgument(
        "TrussDecomposition::Deserialize: truncated input");
  }
  if (decomp.trussness.size() != num_edges ||
      decomp.layer.size() != num_edges) {
    return Status::InvalidArgument(
        "TrussDecomposition::Deserialize: array lengths do not match the "
        "graph's edge count");
  }
  return decomp;
}

std::vector<uint32_t> HullSizes(const TrussDecomposition& decomp) {
  std::vector<uint32_t> sizes(decomp.max_trussness + 1, 0);
  for (uint32_t t : decomp.trussness) {
    if (t == kAnchoredTrussness || t == kTrussnessNotComputed) continue;
    ATR_DCHECK(t < sizes.size());
    ++sizes[t];
  }
  return sizes;
}

}  // namespace atr
