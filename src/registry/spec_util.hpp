// Shared helpers for the VALOCAL_ALGO_SPEC provider functions defined
// next to each compute_* entry point: label conversion, one outcome
// builder per problem result (algo/result.hpp), and a spec-base builder
// so providers stay a dozen declarative lines each.
#pragma once

#include <sstream>
#include <utility>

#include "algo/result.hpp"
#include "registry/registry.hpp"
#include "validate/validate.hpp"

namespace valocal::registry {

template <class T>
std::vector<std::int64_t> to_labels(const std::vector<T>& v) {
  return std::vector<std::int64_t>(v.begin(), v.end());
}

inline std::vector<std::int64_t> to_labels(const std::vector<bool>& v) {
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i] ? 1 : 0;
  return out;
}

inline const char* yes_no(bool ok) { return ok ? "yes" : "NO"; }

/// The outcome fields every (vertex or edge) coloring reports, with the
/// classic "<display>: colors=C (palette P) proper=yes" line.
template <class R>
SolveOutcome colors_outcome(const std::string& display, R r, bool proper) {
  SolveOutcome o;
  o.valid = proper;
  o.num_colors = r.num_colors;
  o.palette_bound = r.palette_bound;
  o.labels = to_labels(r.color);
  o.metrics = std::move(r.metrics);
  std::ostringstream ss;
  ss << display << ": colors=" << o.num_colors << " (palette "
     << o.palette_bound << ") proper=" << yes_no(o.valid);
  o.summary = ss.str();
  return o;
}

/// Uniform outcome for a ColoringResult: the properness verdict.
inline SolveOutcome coloring_outcome(const Graph& g,
                                     const std::string& display,
                                     ColoringResult r) {
  const bool proper = is_proper_coloring(g, r.color);
  return colors_outcome(display, std::move(r), proper);
}

/// Uniform outcome for an EdgeColoringResult: the properness verdict,
/// and the palette bound as the aux invariant.
inline SolveOutcome edge_coloring_outcome(const Graph& g,
                                          const std::string& display,
                                          EdgeColoringResult r) {
  const bool proper = is_proper_edge_coloring(g, r.color);
  SolveOutcome o = colors_outcome(display, std::move(r), proper);
  o.aux_valid = o.num_colors <= o.palette_bound;
  return o;
}

/// Uniform outcome for a MisResult: "<prefix> valid=yes".
inline SolveOutcome mis_outcome(const Graph& g, const std::string& prefix,
                                MisResult r) {
  SolveOutcome o;
  o.valid = is_mis(g, r.in_set);
  o.labels = to_labels(r.in_set);
  o.metrics = std::move(r.metrics);
  o.summary = prefix + " valid=" + yes_no(o.valid);
  return o;
}

/// Uniform outcome for a MatchingResult: "<prefix> maximal=yes".
inline SolveOutcome matching_outcome(const Graph& g,
                                     const std::string& prefix,
                                     MatchingResult r) {
  SolveOutcome o;
  o.valid = is_maximal_matching(g, r.in_matching);
  o.labels = to_labels(r.in_matching);
  o.metrics = std::move(r.metrics);
  o.summary = prefix + " maximal=" + yes_no(o.valid);
  return o;
}

/// Fills every descriptive field of a spec; the caller adds bench rows
/// and the factory. `bounds` carries the claimed complexities, one per
/// measure ({measure, expr[, per-bound paper_ref]}); a bound with an
/// empty paper_ref inherits the spec-level `paper_ref`.
inline AlgoSpec spec_base(std::string name, std::string display,
                          Problem problem, bool deterministic,
                          std::vector<Param> params,
                          std::vector<Bound> bounds, std::string paper_ref,
                          GraphFamily family = GraphFamily::kAny) {
  AlgoSpec s;
  s.name = std::move(name);
  s.display = std::move(display);
  s.problem = problem;
  s.deterministic = deterministic;
  s.family = family;
  s.params = std::move(params);
  s.bounds = std::move(bounds);
  s.paper_ref = std::move(paper_ref);
  return s;
}

}  // namespace valocal::registry
