// Immutable undirected simple graph in compressed-sparse-row form.
//
// Vertices are 0..n-1; these double as the LOCAL-model processor IDs
// (tests additionally exercise adversarial ID permutations at the
// algorithm layer). Edges carry stable indices 0..m-1 so edge-labelling
// algorithms (edge coloring, matching, forest decomposition) can address
// them; the two endpoints of edge e are edge_u(e) < edge_v(e). The
// edge-id tables are derived data: a streamed graph builds them on the
// first edge-id query (see Graph::edge_index).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "util/assertx.hpp"
#include "util/uninit_vector.hpp"

namespace valocal {

using Vertex = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr EdgeId kInvalidEdge = ~EdgeId{0};
inline constexpr Vertex kInvalidVertex = ~Vertex{0};

/// Hard id-width ceilings (see docs/GRAPHS.md). Vertex ids are 32-bit
/// with ~Vertex{0} reserved as the kInvalidVertex sentinel, so a graph
/// holds at most 2^32 - 1 vertices; likewise for edge ids. Every
/// construction path (Graph, GraphBuilder, the streaming build) guards
/// these explicitly instead of silently truncating a std::size_t.
inline constexpr std::size_t kMaxVertices = kInvalidVertex;
inline constexpr std::size_t kMaxEdges = kInvalidEdge;

/// A re-streamable source of directed vertex pairs, the input shape of
/// the memory-lean CSR build (Graph::from_source). Implementations:
/// SpanEdgeSource (in-RAM pairs), gen::RmatSource (rmat.hpp, generated
/// on the fly), BinEdgeList (edgelist_bin.hpp, mmap-backed files).
///
/// Semantics: stream() invokes `fn` on blocks of interleaved pairs
/// (u0, v0, u1, v1, ...; block length is always even). The multiset of
/// pairs must be identical across calls — the CSR build streams twice
/// (degree count, then scatter). Block boundaries and the pair order
/// inside a block are unspecified. `fn` is called from one thread at a
/// time, in block order, so it needs no synchronization. `num_threads`
/// only lets a source *produce* blocks in parallel (see
/// stream_ordered); the hand-over stays serial. Self-loops and
/// duplicate pairs are permitted (the build drops them,
/// Graph500-style).
class EdgeBlockSource {
 public:
  using Block = std::span<const Vertex>;
  using BlockFn = std::function<void(Block)>;

  /// Pairs per block in the library's sources: large enough to amortize
  /// the per-block dispatch, small enough that a block (512 KiB of
  /// pair data) stays cache-friendly.
  static constexpr std::size_t kBlockPairs = std::size_t{1} << 16;

  virtual ~EdgeBlockSource() = default;

  /// Exact number of directed pairs every stream() call yields.
  virtual std::uint64_t num_pairs() const = 0;
  virtual void stream(std::size_t num_threads, const BlockFn& fn) const = 0;

 protected:
  using FillFn =
      std::function<void(std::size_t block, std::vector<Vertex>& buffer)>;

  /// The stream() body of a source whose blocks cost work to produce:
  /// `fill` writes block b (b < num_blocks) into its buffer, on up to
  /// num_threads threads; one thread at a time hands the filled blocks
  /// to `fn` in block order while later blocks are being filled.
  static void stream_ordered(std::size_t num_threads, std::size_t num_blocks,
                             const FillFn& fill, const BlockFn& fn);
};

/// EdgeBlockSource view over contiguous interleaved pairs already in
/// memory (size must be even). Zero-copy: blocks are subspans.
class SpanEdgeSource final : public EdgeBlockSource {
 public:
  explicit SpanEdgeSource(std::span<const Vertex> pairs) : pairs_(pairs) {
    VALOCAL_REQUIRE(pairs.size() % 2 == 0,
                    "interleaved pair span must have even length");
  }

  std::uint64_t num_pairs() const override { return pairs_.size() / 2; }
  void stream(std::size_t num_threads, const BlockFn& fn) const override;

 private:
  std::span<const Vertex> pairs_;
};

/// The edge-id tables of one graph (Graph::edge_index): edge endpoints,
/// incident lists aligned with neighbors(), and reciprocal ports. A
/// bundle of pointers into the graph's arrays, so a loop over edges
/// fetches it once and pays no first-use check per edge. Valid while
/// the graph it came from is alive.
class EdgeIndex {
 public:
  EdgeIndex() = default;

  /// False only for a default-constructed index.
  explicit operator bool() const { return offsets_ != nullptr; }

  /// Edge ids incident on v, aligned with neighbors(v): the i-th entry is
  /// the id of the edge {v, neighbors(v)[i]}.
  std::span<const EdgeId> incident_edges(Vertex v) const {
    return {incident_ + offsets_[v], incident_ + offsets_[v + 1]};
  }

  Vertex edge_u(EdgeId e) const { return edge_u_[e]; }
  Vertex edge_v(EdgeId e) const { return edge_v_[e]; }

  /// Port number: the position of edge {v, neighbors(v)[i]} within the
  /// NEIGHBOR's incident list. In message-passing terms this is the
  /// reciprocal port of the shared communication link, so per-edge
  /// state published by the neighbor can be addressed locally.
  std::size_t neighbor_port(Vertex v, std::size_t i) const {
    return mirror_[offsets_[v] + i];
  }

  /// The endpoint of e that is not v.
  Vertex other_endpoint(EdgeId e, Vertex v) const {
    return edge_u_[e] == v ? edge_v_[e] : edge_u_[e];
  }

 private:
  friend class Graph;

  const std::size_t* offsets_ = nullptr;
  const EdgeId* incident_ = nullptr;
  const std::uint32_t* mirror_ = nullptr;
  const Vertex* edge_u_ = nullptr;
  const Vertex* edge_v_ = nullptr;
};

class Graph {
 public:
  Graph() = default;

  /// Builds from an edge list over vertices [0, n). Self-loops are
  /// rejected; duplicate edges are rejected (simple graph). Edge ids
  /// follow the input order, so this path builds its edge index
  /// eagerly. Requires n <= kMaxVertices.
  Graph(std::size_t n, std::vector<std::pair<Vertex, Vertex>> edges);

  /// Memory-lean streaming build: two serial passes over `src`
  /// (degree count, then scatter straight into CSR), then a
  /// per-vertex sort + dedup in place. The passes are bound by memory
  /// latency, so they prefetch ahead of the pair they are at, and the
  /// adjacency array alone gets huge-page advice; slices sort by size
  /// tier (std::sort, then 8-bit, then 11-bit LSD radix digits). It
  /// stops at the CSR: edge ids, incident lists and reciprocal ports
  /// are built on the first edge-id query (edge_index). No edge-pair
  /// staging vector, no hash-set dedup and no atomics: peak transient
  /// memory is ~2·pairs·sizeof(Vertex) for the adjacency scatter plus
  /// the n+1 offsets and one max-degree radix scratch per sort chunk.
  /// `num_threads` parallelizes the source's block production and the
  /// per-slice sort over disjoint vertex ranges. Unlike the vector
  /// constructor, self-loops and duplicate pairs are silently dropped
  /// (generator-exchange semantics: RMAT and Graph500-style inputs
  /// produce both), and edge ids are canonical — lexicographic by
  /// (u, v) — so any two sources yielding the same edge multiset build
  /// byte-identical graphs regardless of pair order or thread count.
  /// A source whose second stream() differs from its first dies with
  /// "edge source changed between passes" instead of overrunning.
  static Graph from_source(std::size_t n, const EdgeBlockSource& src,
                           std::size_t num_threads = 1);

  /// The induced subgraph G[S] of `g` on `members` (strictly increasing
  /// ids below g.num_vertices(); anything else dies), with member i as
  /// vertex i. A membership bitset with a popcount rank per 64-bit word
  /// maps a member to its new id; ranks are monotone, so each member's
  /// neighbor list comes out sorted and needs no sort, dedup or hash
  /// set. Like from_source, it stops at the CSR: edge ids are canonical
  /// and built on the first edge-id query.
  static Graph induced(const Graph& g, std::span<const Vertex> members);

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return m_; }

  std::size_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbors of v, sorted ascending.
  std::span<const Vertex> neighbors(Vertex v) const {
    return {adjacency_.data() + offsets_[v],
            adjacency_.data() + offsets_[v + 1]};
  }

  /// Neighbors of v above v: the sorted suffix of neighbors(v). Walking
  /// it for every v visits each edge once, with no edge ids.
  std::span<const Vertex> forward_neighbors(Vertex v) const {
    const auto nbrs = neighbors(v);
    return {std::upper_bound(nbrs.begin(), nbrs.end(), v), nbrs.end()};
  }

  /// Calls f(u, v) once per edge {u, v}, u < v, in unspecified order,
  /// without building the edge index: one flat loop over the edge ids
  /// when the index exists (about twice as fast as the per-vertex walk
  /// on sparse graphs), else the forward_neighbors walk.
  template <class F>
  void for_each_edge(F&& f) const {
    if (edge_index_built()) {
      const EdgeIndex ix = edge_index();
      for (EdgeId e = 0; e < m_; ++e) f(ix.edge_u(e), ix.edge_v(e));
      return;
    }
    for (Vertex u = 0; u < n_; ++u)
      for (const Vertex v : forward_neighbors(u)) f(u, v);
  }

  /// The edge-id tables. On a streamed graph the first call builds them
  /// (one O(n + m) cursor sweep); concurrent first calls are safe and
  /// all see the same tables. Fetch it once per loop, not per edge.
  EdgeIndex edge_index() const {
    const EdgeTables* t = edge_tables_ ? edge_tables_->ready.load(
                                             std::memory_order_acquire)
                                       : nullptr;
    return index_over(t ? *t : build_edge_tables());
  }

  /// True once the edge-id tables exist (always for the vector
  /// constructor; after the first edge-id query for a streamed graph).
  bool edge_index_built() const {
    return edge_tables_ &&
           edge_tables_->ready.load(std::memory_order_acquire) != nullptr;
  }

  // Per-call edge-id accessors: each fetches the index. Loops should
  // hold one edge_index() instead.
  std::span<const EdgeId> incident_edges(Vertex v) const {
    return edge_index().incident_edges(v);
  }
  Vertex edge_u(EdgeId e) const { return edge_index().edge_u(e); }
  Vertex edge_v(EdgeId e) const { return edge_index().edge_v(e); }
  std::size_t neighbor_port(Vertex v, std::size_t i) const {
    return edge_index().neighbor_port(v, i);
  }
  Vertex other_endpoint(EdgeId e, Vertex v) const {
    return edge_index().other_endpoint(e, v);
  }

  /// Maximum degree Delta(G). O(1); precomputed.
  std::size_t max_degree() const { return max_degree_; }

  /// True if {u, v} is an edge. O(log deg(u)); needs no edge ids.
  bool has_edge(Vertex u, Vertex v) const;

  /// Edge id of {u, v}, or kInvalidEdge. O(log deg(u)).
  EdgeId find_edge(Vertex u, Vertex v) const;

 private:
  struct EdgeTables {
    std::vector<EdgeId> incident;        // 2m, aligned with adjacency_
    std::vector<std::uint32_t> mirror;   // 2m reciprocal ports
    std::vector<Vertex> edge_u, edge_v;  // m each; u < v
  };
  /// Built at most once and then immutable, so copies of a graph
  /// share it (their CSR arrays are equal, so either may build it).
  /// `ready` publishes `tables` (release) once they are complete.
  struct LazyEdgeTables {
    std::atomic<const EdgeTables*> ready{nullptr};
    std::mutex build;
    EdgeTables tables;
  };

  EdgeIndex index_over(const EdgeTables& t) const {
    EdgeIndex ix;
    ix.offsets_ = offsets_.data();
    ix.incident_ = t.incident.data();
    ix.mirror_ = t.mirror.data();
    ix.edge_u_ = t.edge_u.data();
    ix.edge_v_ = t.edge_v.data();
    return ix;
  }
  /// The slow path of edge_index(): builds the tables once, under the
  /// shared lock, and publishes them.
  const EdgeTables& build_edge_tables() const;
  /// Adjacency slot of w in v's slice, or kNoSlot.
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::size_t slot_of(Vertex v, Vertex w) const;

  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t max_degree_ = 0;
  std::vector<std::size_t> offsets_;  // n+1
  UninitVector<Vertex> adjacency_;    // 2m; every build writes each slot
  std::shared_ptr<LazyEdgeTables> edge_tables_;
};

/// Incremental edge-list builder with de-duplication. Convenient for
/// the small synthetic families; for large streamed inputs prefer
/// Graph::from_source, which needs no pair staging vector and no
/// per-edge hash set (see docs/GRAPHS.md for the memory model).
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t n) : n_(n) {
    VALOCAL_REQUIRE(n <= kMaxVertices,
                    "vertex count exceeds the 32-bit id limit "
                    "(see docs/GRAPHS.md)");
  }

  /// Adds edge {u, v} unless it is a self-loop or already present.
  /// Returns true if the edge was added.
  bool add_edge(Vertex u, Vertex v);

  std::size_t num_vertices() const { return n_; }
  std::size_t num_edges() const { return edges_.size(); }

  Graph build() &&;

 private:
  /// Open-addressing key set: linear probing at load <= 1/2, with
  /// kEmptyKey marking a free slot. Keys are (min << 32) | max of two
  /// distinct ids below n <= 2^32 - 1, so no key equals it.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::uint64_t key(Vertex u, Vertex v);
  /// The slot holding `k`, or the free slot where probing for it ends.
  std::size_t probe(std::uint64_t k) const;
  void grow();

  std::size_t n_;
  std::vector<std::pair<Vertex, Vertex>> edges_;
  std::vector<std::uint64_t> slots_;  // power-of-two size, or empty
};

}  // namespace valocal
