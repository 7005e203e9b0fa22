// Graph500-style RMAT (recursive-matrix) edge generation — the
// billion-edge synthetic family behind the scale sweeps (ROADMAP:
// "billion-edge graph substrate"). The generator is a pure function of
// (params, edge index): edge i derives its own RNG stream from the
// seed and i alone, so blocks are generated num_threads at a time on
// the existing thread pool and every thread count hands over the same
// pair sequence, block by block in order. Combined with the canonical
// streaming CSR build (Graph::from_source) the resulting Graph is
// byte-identical for every thread count.
//
// As in Graph500, the raw stream contains self-loops and duplicate
// edges; the streaming build drops both, so the built simple graph has
// somewhat fewer than edge_factor * n edges (more skew at small
// scales). See docs/GRAPHS.md for parameter guidance.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"

namespace valocal::gen {

struct RmatParams {
  std::uint32_t scale = 20;      // n = 2^scale vertices
  std::size_t edge_factor = 16;  // edge_factor * n directed pairs
  // Quadrant probabilities (Graph500 defaults); d = 1 - a - b - c.
  double a = 0.57, b = 0.19, c = 0.19;
  std::uint64_t seed = 1;
  // Permute vertex ids with a seeded bijective mix so high-degree
  // vertices are not clustered at low ids (Graph500's scrambling).
  bool scramble_ids = true;

  std::size_t num_vertices() const { return std::size_t{1} << scale; }
  std::uint64_t num_directed_edges() const {
    return static_cast<std::uint64_t>(num_vertices()) * edge_factor;
  }

  /// Aborts via contract failure on out-of-range parameters
  /// (scale in [1, 30], edge_factor >= 1, probabilities in (0, 1)).
  void validate() const;
};

/// The deterministic, block-parallel RMAT pair stream. Feed it to
/// Graph::from_source, save_edgelist_bin, or any other
/// EdgeBlockSource consumer.
class RmatSource final : public EdgeBlockSource {
 public:
  explicit RmatSource(const RmatParams& params);

  std::uint64_t num_pairs() const override {
    return params_.num_directed_edges();
  }
  void stream(std::size_t num_threads, const BlockFn& fn) const override;

 private:
  RmatParams params_;
};

/// Generates and builds in one call (two generation passes — the
/// streaming build counts degrees first, then scatters).
Graph rmat(const RmatParams& params, std::size_t num_threads = 1);

/// Parses the CLI shorthand "SCALExEDGE_FACTOR" (e.g. "24x16" = 2^24
/// vertices, 16 * 2^24 directed pairs). The seed rides in separately
/// (the CLI's --seed flag). Aborts on malformed specs.
RmatParams parse_rmat_spec(const std::string& spec, std::uint64_t seed = 1);

}  // namespace valocal::gen
