#include "truss/incremental.h"

#include <algorithm>
#include <limits>

#include "graph/triangle_index.h"
#include "graph/triangles.h"
#include "route/follower_search.h"
#include "util/macros.h"

namespace atr {

// The affected-region re-peel replays the exact batch-peeling process of
// decomposition.cc's Peel() restricted to a region S of edges, treating
// every out-of-region edge as "context" that disappears at the (t, l)
// time the stored decomposition records for it. That replay is exact as
// long as no out-of-region edge's own (t, l) would change — so after each
// pass the boundary is checked: an out-of-region partner w of a changed
// region edge e (old (t1, l1), new (t2, l2)) can only be affected when
// the phases where e's presence differs overlap w's own peel:
//
//   * presence-shrinking change (lex (t2,l2) < (t1,l1)): support losses at
//     phases [t2, t1] can pull w down to any level >= t2, so every w with
//     t(w) >= min(t1, t2) is suspect;
//   * presence-growing change: support gains never remove edges, so only
//     w whose own level lies inside [t1, t2] (its layer is decided there)
//     can move.
//
// Suspects join the region and the simulation re-runs; every changed edge
// is triangle-adjacent to another changed edge or to the mutated edge
// itself (a peel trace can only diverge when a partner's removal time
// diverges), so this fixpoint reaches the full changed set from any seed.

IncrementalTruss::IncrementalTruss(const Graph& g) : g_(&g) {
  AdoptSeed(ComputeTrussDecomposition(g));
}

IncrementalTruss::IncrementalTruss(const Graph& g, TrussDecomposition seed,
                                   const TriangleIndex* triangles)
    : g_(&g), triangles_(triangles) {
  // Every walk indexes `offsets` by edge id: an index of another graph
  // would read out of bounds long before any result looked wrong.
  ATR_CHECK_MSG(triangles == nullptr || triangles->NumEdges() == g.NumEdges(),
                "IncrementalTruss: triangle index is not of this graph");
  AdoptSeed(std::move(seed));
}

IncrementalTruss::IncrementalTruss(const IncrementalTruss& other)
    : g_(other.g_),
      decomp_(other.decomp_),
      anchored_(other.anchored_),
      hull_count_(other.hull_count_),
      total_trussness_(other.total_trussness_),
      undo_(other.undo_),
      next_undo_serial_(other.next_undo_serial_),
      undo_base_serial_(other.undo_base_serial_),
      stats_(other.stats_),
      triangles_(other.triangles_) {
  InitScratch();
}

IncrementalTruss::~IncrementalTruss() = default;

template <typename Fn>
void IncrementalTruss::ForEachTriangle(EdgeId e, Fn&& fn) const {
  if (triangles_ != nullptr) {
    triangles_->ForEachTriangleOf(e, fn);
  } else {
    ForEachTriangleOfEdge(*g_, e,
                          [&](VertexId, EdgeId p, EdgeId q) { fn(p, q); });
  }
}

void IncrementalTruss::AdoptSeed(TrussDecomposition seed) {
  const uint32_t m = g_->NumEdges();
  ATR_CHECK(seed.trussness.size() == m);
  ATR_CHECK(seed.layer.size() == m);
  const uint32_t seed_max = seed.max_trussness;
  decomp_ = std::move(seed);
  anchored_.assign(m, false);
  // Small trussness values are tallied in four interleaved banks: runs of
  // edges share a trussness, and a single counter would serialize the
  // loop on it. Bank slot 0 counts removed edges, which HistAdd skips.
  constexpr uint32_t kBanked = 64;
  uint32_t banks[4][kBanked] = {};
  for (EdgeId e = 0; e < m; ++e) {
    const uint32_t t = decomp_.trussness[e];
    if (t < kBanked) {
      ++banks[e % 4][t];
    } else if (t == kAnchoredTrussness) {
      anchored_[e] = true;
    } else {
      HistAdd(t);
    }
  }
  for (uint32_t t = kBanked; t-- > 1;) {
    const uint32_t count =
        banks[0][t] + banks[1][t] + banks[2][t] + banks[3][t];
    if (count == 0) continue;
    if (t >= hull_count_.size()) hull_count_.resize(t + 1, 0);
    hull_count_[t] += count;
    total_trussness_ += uint64_t{t} * count;
  }
  RecomputeMaxTrussness();
  ATR_CHECK_MSG(decomp_.max_trussness == seed_max,
                "seed decomposition is inconsistent with its graph");
  InitScratch();
}

void IncrementalTruss::InitScratch() {
  const uint32_t m = g_->NumEdges();
  region_pass_ = 0;
  sim_pass_ = 0;
  region_.clear();
  region_epoch_.assign(m, 0);
  removed_epoch_.assign(m, 0);
  queued_epoch_.assign(m, 0);
  event_epoch_.assign(m, 0);
  sim_support_.assign(m, 0);
  sim_t_.assign(m, 0);
  sim_l_.assign(m, 0);
  search_.reset();
}

void IncrementalTruss::CarryAcross(const Graph& next,
                                   std::span<const EdgeId> edge_remap) {
  ATR_CHECK_MSG(triangles_ == nullptr,
                "CarryAcross: the engine reads the old graph's triangle index");
  const uint32_t old_m = g_->NumEdges();
  const uint32_t next_m = next.NumEdges();
  ATR_CHECK(edge_remap.size() == old_m);
  std::vector<uint32_t> trussness(next_m, kTrussnessNotComputed);
  std::vector<uint32_t> layer(next_m, 0);
  std::vector<bool> anchored(next_m, false);
  for (EdgeId e = 0; e < old_m; ++e) {
    const EdgeId mapped = edge_remap[e];
    if (mapped == kInvalidEdge) {
      ATR_CHECK_MSG(!IsAlive(e), "CarryAcross: the remap drops an alive edge");
      continue;
    }
    ATR_CHECK(mapped < next_m);
    ATR_DCHECK(next.Edge(mapped) == g_->Edge(e));
    trussness[mapped] = decomp_.trussness[e];
    layer[mapped] = decomp_.layer[e];
    if (anchored_[e]) anchored[mapped] = true;
  }
  // The alive edges keep their state, so the histogram, its total and
  // max_trussness still describe them.
  decomp_.trussness = std::move(trussness);
  decomp_.layer = std::move(layer);
  anchored_ = std::move(anchored);
  g_ = &next;
  ClearUndoLog();
  search_.reset();

  // Each mutation bumps region_pass_, and each simulation sim_pass_,
  // before it reads a stamp, so every stored stamp stays below the next
  // pass whatever edge it now indexes: the stamp arrays need no zeroing,
  // and an array that must grow need not keep its contents. The sim_*
  // slots are written before they are read.
  region_.clear();
  for (std::vector<uint32_t>* scratch :
       {&region_epoch_, &removed_epoch_, &queued_epoch_, &event_epoch_,
        &sim_support_, &sim_t_, &sim_l_}) {
    if (next_m > scratch->capacity()) scratch->clear();
    scratch->resize(next_m);
  }
}

std::vector<EdgeId> IncrementalTruss::AliveEdges() const {
  std::vector<EdgeId> alive;
  alive.reserve(g_->NumEdges());
  for (EdgeId e = 0; e < g_->NumEdges(); ++e) {
    if (IsAlive(e)) alive.push_back(e);
  }
  return alive;
}

void IncrementalTruss::HistAdd(uint32_t trussness) {
  if (trussness == kTrussnessNotComputed || trussness == kAnchoredTrussness) {
    return;
  }
  if (trussness >= hull_count_.size()) hull_count_.resize(trussness + 1, 0);
  ++hull_count_[trussness];
  total_trussness_ += trussness;
}

void IncrementalTruss::HistRemove(uint32_t trussness) {
  if (trussness == kTrussnessNotComputed || trussness == kAnchoredTrussness) {
    return;
  }
  ATR_DCHECK(trussness < hull_count_.size() && hull_count_[trussness] > 0);
  --hull_count_[trussness];
  total_trussness_ -= trussness;
}

void IncrementalTruss::RecomputeMaxTrussness() {
  uint32_t peak = 2;
  for (uint32_t t = static_cast<uint32_t>(hull_count_.size()); t-- > 2;) {
    if (hull_count_[t] > 0) {
      peak = t;
      break;
    }
  }
  decomp_.max_trussness = peak;
}

void IncrementalTruss::CommitEdgeState(EdgeId e, uint32_t trussness,
                                       uint32_t layer, bool anchored) {
  undo_.push_back(UndoEntry{next_undo_serial_++, e, decomp_.trussness[e],
                            decomp_.layer[e],
                            static_cast<uint8_t>(anchored_[e] ? 1 : 0)});
  HistRemove(decomp_.trussness[e]);
  decomp_.trussness[e] = trussness;
  decomp_.layer[e] = layer;
  anchored_[e] = anchored;
  HistAdd(trussness);
}

void IncrementalTruss::RollbackTo(Checkpoint checkpoint) {
  ATR_CHECK_MSG(IsValidCheckpoint(checkpoint),
                "stale or unknown rollback checkpoint");
  if (checkpoint.position == undo_.size()) return;
  ++stats_.rollbacks;
  while (undo_.size() > checkpoint.position) {
    const UndoEntry& u = undo_.back();
    HistRemove(decomp_.trussness[u.edge]);
    decomp_.trussness[u.edge] = u.trussness;
    decomp_.layer[u.edge] = u.layer;
    anchored_[u.edge] = u.anchored != 0;
    HistAdd(u.trussness);
    undo_.pop_back();
  }
  RecomputeMaxTrussness();
}

void IncrementalTruss::AddToRegion(EdgeId e) {
  if (region_epoch_[e] == region_pass_) return;
  if (anchored_[e] || !IsAlive(e)) return;
  region_epoch_[e] = region_pass_;
  region_.push_back(e);
}

bool IncrementalTruss::PresentNow(EdgeId z, uint32_t phase,
                                  uint32_t round) const {
  if (removed_epoch_[z] == sim_pass_) return false;
  if (region_epoch_[z] == region_pass_) return true;
  const uint32_t t = decomp_.trussness[z];  // anchors: +inf, removed: 0
  return t > phase || (t == phase && decomp_.layer[z] >= round);
}

void IncrementalTruss::SimulateRegion() {
  ++sim_pass_;
  events_.clear();
  visited_triangles_.clear();

  // Initial supports: triangles whose partners are all present at the very
  // start of the peel, i.e. alive (region edges are alive by construction).
  // Alive non-anchored out-of-region partners become context events, and
  // each such triangle is recorded for its context edge: these are the
  // only triangles of a context edge that hold a region edge. A triangle
  // with two region edges is met from both and recorded once.
  uint32_t max_sup = 0;
  for (const EdgeId e : region_) {
    sim_support_[e] = 0;
    ForEachTriangle(e, [&](EdgeId p, EdgeId q) {
      if (decomp_.trussness[p] == kTrussnessNotComputed ||
          decomp_.trussness[q] == kTrussnessNotComputed) {
        return;
      }
      ++sim_support_[e];
      for (const auto& [c, other] : {std::pair{p, q}, std::pair{q, p}}) {
        if (InRegion(c) || anchored_[c]) continue;
        if (InRegion(other) && other < e) continue;
        if (event_epoch_[c] != sim_pass_) {
          event_epoch_[c] = sim_pass_;
          events_.push_back(
              ContextEvent{decomp_.trussness[c], decomp_.layer[c], c});
          sim_support_[c] = 0;
        }
        ++sim_support_[c];
        visited_triangles_.push_back(ContextTriangle{c, e, other});
      }
    });
    max_sup = std::max(max_sup, sim_support_[e]);
  }
  std::sort(events_.begin(), events_.end(),
            [](const ContextEvent& a, const ContextEvent& b) {
              if (a.trussness != b.trussness) return a.trussness < b.trussness;
              if (a.layer != b.layer) return a.layer < b.layer;
              return a.edge < b.edge;
            });
  // Group the recorded triangles by event, in event order. Afterwards the
  // triangles of events_[i] run from where those of events_[i - 1] end up
  // to the support slot of events_[i].edge.
  ATR_CHECK(visited_triangles_.size() <= std::numeric_limits<uint32_t>::max());
  uint32_t filled = 0;
  for (const ContextEvent& event : events_) {
    const uint32_t count = sim_support_[event.edge];
    sim_support_[event.edge] = filled;
    filled += count;
  }
  context_triangles_.resize(filled);
  for (const ContextTriangle& t : visited_triangles_) {
    context_triangles_[sim_support_[t.context]++] = t;
  }

  if (buckets_.size() < static_cast<size_t>(max_sup) + 1) {
    buckets_.resize(max_sup + 1);
  }
  for (auto& bucket : buckets_) bucket.clear();
  for (const EdgeId e : region_) buckets_[sim_support_[e]].push_back(e);

  // Removing an edge during round r decrements the support of every
  // partner in a still-standing triangle {removed, p, q}; Peel()'s
  // sequential mark-then-scan makes each lost triangle count exactly once
  // per surviving partner, which this replays (only region supports are
  // tracked — context edges carry their removal time instead of a
  // support). Which edge of a round decrements first changes no (t, l).
  auto lose_triangle = [&](EdgeId p, EdgeId q, uint32_t phase, uint32_t round,
                           uint32_t threshold) {
    if (!PresentNow(p, phase, round) || !PresentNow(q, phase, round)) {
      return;
    }
    for (const EdgeId z : {p, q}) {
      if (!InRegion(z) || removed_epoch_[z] == sim_pass_) continue;
      ATR_DCHECK(sim_support_[z] > 0);
      const uint32_t s = --sim_support_[z];
      if (s <= threshold) {
        if (queued_epoch_[z] != sim_pass_) {
          queued_epoch_[z] = sim_pass_;
          next_frontier_.push_back(z);
        }
      } else {
        buckets_[s].push_back(z);
      }
    }
  };

  uint32_t unassigned = static_cast<uint32_t>(region_.size());
  size_t ev = 0;
  uint32_t replayed = 0;  // context triangles of the events consumed so far
  uint32_t k = 2;
  while (unassigned > 0) {
    const uint32_t threshold = k - 2;
    size_t ev_end = ev;
    while (ev_end < events_.size() && events_[ev_end].trussness == k) {
      ++ev_end;
    }

    // Round-1 frontier: region edges at or below the phase threshold
    // (bucket entries are lazily validated, exactly as in Peel()).
    frontier_.clear();
    const uint32_t scan_limit = std::min(threshold, max_sup);
    for (uint32_t s = 0; s <= scan_limit; ++s) {
      for (const EdgeId e : buckets_[s]) {
        if (removed_epoch_[e] != sim_pass_ &&
            queued_epoch_[e] != sim_pass_ && sim_support_[e] <= threshold) {
          queued_epoch_[e] = sim_pass_;
          frontier_.push_back(e);
        }
      }
      buckets_[s].clear();
    }

    if (frontier_.empty() && ev == ev_end) {
      // Inactive phase: nothing can change until the threshold reaches the
      // smallest remaining support or the next context removal fires.
      uint32_t next_k = kAnchoredTrussness;
      for (uint32_t s = scan_limit + 1; s <= max_sup; ++s) {
        bool found = false;
        for (const EdgeId e : buckets_[s]) {
          if (removed_epoch_[e] != sim_pass_ && sim_support_[e] == s) {
            found = true;
            break;
          }
        }
        if (found) {
          next_k = s + 2;
          break;
        }
      }
      ATR_CHECK(next_k != kAnchoredTrussness || ev < events_.size());
      if (ev < events_.size()) {
        next_k = std::min(next_k, events_[ev].trussness);
      }
      ATR_DCHECK(next_k > k);
      k = next_k;
      continue;
    }

    uint32_t round = 1;
    while (!frontier_.empty() || ev < ev_end) {
      next_frontier_.clear();
      for (const EdgeId e : frontier_) {
        removed_epoch_[e] = sim_pass_;
        sim_t_[e] = k;
        sim_l_[e] = round;
        --unassigned;
        ForEachTriangle(e, [&](EdgeId p, EdgeId q) {
          lose_triangle(p, q, k, round, threshold);
        });
      }
      while (ev < ev_end && events_[ev].layer == round) {
        const EdgeId c = events_[ev++].edge;
        removed_epoch_[c] = sim_pass_;
        for (; replayed < sim_support_[c]; ++replayed) {
          lose_triangle(context_triangles_[replayed].p,
                        context_triangles_[replayed].q, k, round, threshold);
        }
      }
      frontier_.swap(next_frontier_);
      ++round;
    }
    ++k;
  }
  // Unconsumed context events lie above every region edge's final level;
  // they cannot influence the region.
}

bool IncrementalTruss::ExpandRegion() {
  const size_t snapshot = region_.size();
  for (size_t i = 0; i < snapshot; ++i) {
    const EdgeId e = region_[i];
    const uint32_t t1 = decomp_.trussness[e];
    const uint32_t l1 = decomp_.layer[e];
    const uint32_t t2 = sim_t_[e];
    const uint32_t l2 = sim_l_[e];
    if (t1 == t2 && l1 == l2) continue;
    const bool shrinking = t2 < t1 || (t2 == t1 && l2 < l1);
    const uint32_t lo = std::min(t1, t2);
    const uint32_t hi = std::max(t1, t2);
    ForEachTriangle(e, [&](EdgeId p, EdgeId q) {
      for (const EdgeId w : {p, q}) {
        if (region_epoch_[w] == region_pass_ || anchored_[w]) continue;
        const uint32_t tw = decomp_.trussness[w];
        if (tw == kTrussnessNotComputed) continue;
        const bool affected = shrinking ? tw >= lo : (tw >= lo && tw <= hi);
        if (affected) AddToRegion(w);
      }
    });
  }
  return region_.size() > snapshot;
}

void IncrementalTruss::CommitRegion() {
  for (const EdgeId r : region_) {
    if (sim_t_[r] != decomp_.trussness[r] || sim_l_[r] != decomp_.layer[r]) {
      CommitEdgeState(r, sim_t_[r], sim_l_[r], false);
    }
  }
}

void IncrementalTruss::FullRebuild() {
  // The flat peel fans its rounds out across the calling thread's
  // workers; the committed state is identical at any worker count.
  const TrussDecomposition fresh =
      ComputeTrussDecompositionOnSubset(*g_, anchored_, AliveEdges());
  for (EdgeId e = 0; e < g_->NumEdges(); ++e) {
    if (fresh.trussness[e] != decomp_.trussness[e] ||
        fresh.layer[e] != decomp_.layer[e]) {
      CommitEdgeState(e, fresh.trussness[e], fresh.layer[e], anchored_[e]);
    }
  }
}

uint32_t IncrementalTruss::RunLocalizedUpdate() {
  // Locality budget: once the region covers most of the graph (or keeps
  // rippling), a from-scratch subset decomposition is cheaper and equally
  // correct.
  const size_t max_region = g_->NumEdges() / 2 + 1;
  constexpr int kMaxPasses = 64;
  int passes = 0;
  for (;;) {
    if (region_.size() > max_region || passes >= kMaxPasses) {
      ++stats_.full_rebuilds;
      FullRebuild();
      return kAnchoredTrussness;  // caller-side validation is moot
    }
    SimulateRegion();
    ++passes;
    if (!ExpandRegion()) break;
    ++stats_.expansion_passes;
  }
  stats_.region_edges_total += region_.size();
  uint32_t trussness_changes = 0;
  for (const EdgeId e : region_) {
    if (sim_t_[e] != decomp_.trussness[e]) ++trussness_changes;
  }
  return trussness_changes;
}

FollowerSearch& IncrementalTruss::Search() {
  if (search_ == nullptr) {
    search_ = triangles_ != nullptr
                  ? std::make_unique<FollowerSearch>(*g_, *triangles_)
                  : std::make_unique<FollowerSearch>(*g_);
  }
  search_->SetState(&decomp_, &anchored_);
  return *search_;
}

uint32_t IncrementalTruss::ApplyAnchor(EdgeId e,
                                       std::vector<EdgeId>* followers) {
  ATR_CHECK(e < g_->NumEdges());
  ATR_CHECK_MSG(IsAlive(e), "ApplyAnchor: edge was removed");
  ATR_CHECK_MSG(!anchored_[e], "ApplyAnchor: edge is already anchored");
  ++stats_.anchors_applied;

  follower_scratch_.clear();
  const uint32_t gain = Search().CountFollowers(e, &follower_scratch_);
  if (followers != nullptr) *followers = follower_scratch_;

  const uint32_t old_t = decomp_.trussness[e];
  // Commit the anchor state before seeding: the region filter must already
  // see `e` as anchored (it is triangle-adjacent to its own followers and
  // must act as always-present context, never as a peelable region edge).
  CommitEdgeState(e, kAnchoredTrussness, 0, /*anchored=*/true);

  ++region_pass_;
  region_.clear();
  // Seeds: the followers themselves (each rises by exactly 1), the
  // partners the anchor's eternal presence can delay ([old_t, inf)), and
  // each follower's immediate layer-suspects; ExpandRegion() catches
  // anything further out.
  for (const EdgeId f : follower_scratch_) AddToRegion(f);
  ForEachTriangle(e, [&](EdgeId p, EdgeId q) {
    for (const EdgeId w : {p, q}) {
      if (anchored_[w] || !IsAlive(w)) continue;
      if (decomp_.trussness[w] >= old_t) AddToRegion(w);
    }
  });
  for (const EdgeId f : follower_scratch_) {
    const uint32_t tf = decomp_.trussness[f];
    ForEachTriangle(f, [&](EdgeId p, EdgeId q) {
      for (const EdgeId w : {p, q}) {
        if (anchored_[w] || !IsAlive(w)) continue;
        const uint32_t tw = decomp_.trussness[w];
        if (tw >= tf && tw <= tf + 1) AddToRegion(w);
      }
    });
  }

  const uint32_t trussness_changes = RunLocalizedUpdate();

  if (trussness_changes != kAnchoredTrussness) {
    // Cross-check the re-peel against the follower search: exactly the
    // followers rise, each by 1. A disagreement means one of the two is
    // wrong — resolve with the authoritative from-scratch path and leave a
    // breadcrumb the differential suite turns into a failure.
    bool consistent = trussness_changes == follower_scratch_.size();
    for (const EdgeId f : follower_scratch_) {
      consistent = consistent && InRegion(f) &&
                   sim_t_[f] == decomp_.trussness[f] + 1;
    }
    if (consistent) {
      CommitRegion();
    } else {
      ++stats_.follower_mismatches;
      ++stats_.full_rebuilds;
      FullRebuild();
    }
  }
  RecomputeMaxTrussness();
  return gain;
}

void IncrementalTruss::ScoreAnchorSet(std::span<const EdgeId> anchors,
                                      std::span<const uint32_t> prefix_lengths,
                                      std::span<uint64_t> gains) {
  ATR_CHECK(!prefix_lengths.empty() &&
            prefix_lengths.size() == gains.size() &&
            prefix_lengths.back() <= anchors.size());
  const std::span<const EdgeId> scored =
      anchors.first(prefix_lengths.back());
  // An anchor's rise is read against its trussness before the first apply.
  std::vector<uint32_t> start_trussness;
  start_trussness.reserve(scored.size());
  for (const EdgeId x : scored) {
    ATR_CHECK_MSG(x < g_->NumEdges() && IsAlive(x) && !anchored_[x],
                  "ScoreAnchorSet: anchor is unknown, removed or anchored");
    start_trussness.push_back(decomp_.trussness[x]);
  }

  const Checkpoint start = MarkRollbackPoint();
  uint64_t running = 0;
  size_t c = 0;
  for (size_t i = 0; i < scored.size(); ++i) {
    const EdgeId x = scored[i];
    const uint32_t rise = decomp_.trussness[x] - start_trussness[i];
    const uint32_t followers = i + 1 == scored.size()
                                   ? Search().CountFollowers(x)
                                   : ApplyAnchor(x);
    running = running + followers - rise;
    for (; c < prefix_lengths.size() && prefix_lengths[c] == i + 1; ++c) {
      gains[c] = running;
    }
  }
  ATR_CHECK_MSG(c == prefix_lengths.size(),
                "ScoreAnchorSet: prefix lengths must ascend from 1");
  RollbackTo(start);
}

uint32_t IncrementalTruss::InsertEdge(EdgeId e) {
  ATR_CHECK(e < g_->NumEdges());
  ATR_CHECK_MSG(!IsAlive(e), "InsertEdge: edge is already alive");
  ++stats_.edges_inserted;

  // Commit a provisional alive state before seeding: the simulation must
  // see `e` as a peelable region edge whose triangles contribute to its
  // partners' initial supports. The stored (2, 0) reads as "removed before
  // every real peel event" (real layers start at 1), so ExpandRegion
  // classifies the insertion as a presence-growing change over exactly
  // [2, sim_t(e)] — partners above the settled trussness keep their trace.
  CommitEdgeState(e, 2, 0, /*anchored=*/false);

  ++region_pass_;
  region_.clear();
  AddToRegion(e);
  // Every partner of a now-standing triangle through `e` gains support at
  // all phases up to e's settled removal time, which can lift any of them.
  ForEachTriangle(e, [&](EdgeId p, EdgeId q) {
    if (!IsAlive(p) || !IsAlive(q)) return;
    AddToRegion(p);
    AddToRegion(q);
  });

  if (RunLocalizedUpdate() != kAnchoredTrussness) CommitRegion();
  RecomputeMaxTrussness();
  return decomp_.trussness[e];
}

uint64_t IncrementalTruss::RemoveEdge(EdgeId e) {
  ATR_CHECK(e < g_->NumEdges());
  ATR_CHECK_MSG(IsAlive(e), "RemoveEdge: edge was already removed");
  ATR_CHECK_MSG(!anchored_[e], "RemoveEdge: cannot remove an anchored edge");
  ++stats_.edges_removed;

  const uint32_t old_t = decomp_.trussness[e];
  const uint64_t others_before = total_trussness_ - old_t;

  ++region_pass_;
  region_.clear();
  // Every partner of a standing triangle through `e` loses support at all
  // phases up to e's old removal time, which can pull any of them down;
  // seed them all (gather before the edge dies).
  ForEachTriangle(e, [&](EdgeId p, EdgeId q) {
    if (!IsAlive(p) || !IsAlive(q)) return;
    AddToRegion(p);
    AddToRegion(q);
  });

  CommitEdgeState(e, kTrussnessNotComputed, 0, /*anchored=*/false);
  if (RunLocalizedUpdate() != kAnchoredTrussness) CommitRegion();
  RecomputeMaxTrussness();
  return others_before - total_trussness_;
}

}  // namespace atr
