// Edge orientations (Section 5 of the paper).
//
// An Orientation assigns each oriented edge a direction; edges may be
// left unoriented (Partial-Orientation in Section 7.8 produces those).
// Supplies the paper's vocabulary: acyclicity, out-degree of the
// orientation, and length (longest directed path).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace valocal {

enum class EdgeDir : std::uint8_t {
  kNone = 0,    // unoriented
  kToV = 1,     // directed edge_u -> edge_v (towards the larger endpoint)
  kToU = 2,     // directed edge_v -> edge_u
};

class Orientation {
 public:
  explicit Orientation(const Graph& g)
      : graph_(&g), edges_(g.edge_index()),
        dir_(g.num_edges(), EdgeDir::kNone) {}

  const Graph& graph() const { return *graph_; }

  void orient_towards(EdgeId e, Vertex head) {
    dir_[e] = (edges_.edge_v(e) == head) ? EdgeDir::kToV : EdgeDir::kToU;
  }

  void clear(EdgeId e) { dir_[e] = EdgeDir::kNone; }

  bool is_oriented(EdgeId e) const { return dir_[e] != EdgeDir::kNone; }

  /// Head (target) of an oriented edge.
  Vertex head(EdgeId e) const {
    return dir_[e] == EdgeDir::kToV ? edges_.edge_v(e) : edges_.edge_u(e);
  }

  /// Tail (source) of an oriented edge.
  Vertex tail(EdgeId e) const {
    return dir_[e] == EdgeDir::kToV ? edges_.edge_u(e) : edges_.edge_v(e);
  }

  /// Out-degree of vertex v under this orientation.
  std::size_t out_degree(Vertex v) const;

  /// Parents of v: heads of v's outgoing edges (paper's terminology:
  /// the edge (u, v) oriented towards v makes v the parent of u).
  std::vector<Vertex> parents(Vertex v) const;

  /// Children of v: tails of v's incoming edges.
  std::vector<Vertex> children(Vertex v) const;

  /// Maximum out-degree over all vertices ("mu-out-degree").
  std::size_t max_out_degree() const;

  /// True if the oriented subgraph has no directed cycle.
  bool is_acyclic() const;

  /// Length of the longest directed path (edges), or SIZE_MAX if cyclic.
  std::size_t length() const;

  std::size_t num_oriented() const;

 private:
  const Graph* graph_;
  EdgeIndex edges_;  // fetched once: head/tail run per edge
  std::vector<EdgeDir> dir_;
};

}  // namespace valocal
