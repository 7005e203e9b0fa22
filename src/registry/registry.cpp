#include "registry/registry.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/batch.hpp"
#include "trace/trace.hpp"
#include "util/assertx.hpp"
#include "util/table.hpp"

namespace valocal::registry {

const char* problem_name(Problem p) {
  switch (p) {
    case Problem::kVertexColoring: return "vertex-coloring";
    case Problem::kEdgeColoring: return "edge-coloring";
    case Problem::kMis: return "MIS";
    case Problem::kMatching: return "matching";
    case Problem::kHPartition: return "H-partition";
    case Problem::kForestDecomposition: return "forest-decomp";
    case Problem::kLeaderElection: return "leader-election";
  }
  return "?";
}

const char* family_name(GraphFamily f) {
  switch (f) {
    case GraphFamily::kAny: return "any";
    case GraphFamily::kRing: return "ring";
  }
  return "?";
}

bool family_ok(GraphFamily f, const Graph& g) {
  if (f == GraphFamily::kAny) return true;
  if (g.num_vertices() < 3) return false;
  // O(1) reject for the large-graph families (RMAT, loaded binaries):
  // a precomputed max degree != 2 can never be a disjoint cycle union,
  // so the O(n) degree sweep below only runs on plausible rings.
  if (g.max_degree() != 2) return false;
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    if (g.degree(v) != 2) return false;
  return true;
}

const char* param_name(Param p) {
  switch (p) {
    case Param::kArboricity: return "a";
    case Param::kEpsilon: return "eps";
    case Param::kK: return "k";
    case Param::kSeed: return "seed";
  }
  return "?";
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Classic two-row Levenshtein; the catalog names are short, so no
  // need for anything cleverer.
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

Registry::Registry(std::vector<AlgoSpec> specs) : specs_(std::move(specs)) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    VALOCAL_REQUIRE(specs_[i].run != nullptr,
                    "registered spec is missing its factory");
    for (std::size_t j = i + 1; j < specs_.size(); ++j)
      VALOCAL_REQUIRE(specs_[i].name != specs_[j].name,
                      "duplicate algorithm name in the registry");
    // Every run of a spec opens one trace span named after it, so the
    // run records carry the registry name whoever dispatches the run.
    specs_[i].run = [run = std::move(specs_[i].run), name = specs_[i].name](
                        const Graph& g, const AlgoParams& p) {
      VALOCAL_TRACE_PHASE(name.c_str());
      return run(g, p);
    };
  }
}

const AlgoSpec* Registry::find(std::string_view name) const {
  for (const AlgoSpec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

const AlgoSpec& Registry::at(std::string_view name) const {
  const AlgoSpec* s = find(name);
  VALOCAL_REQUIRE(s != nullptr, "algorithm not in the registry");
  return *s;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const AlgoSpec& s : specs_) out.push_back(s.name);
  return out;
}

std::string Registry::suggest(std::string_view name) const {
  std::string best;
  std::size_t best_dist = ~std::size_t{0};
  for (const AlgoSpec& s : specs_) {
    const std::size_t d = edit_distance(name, s.name);
    if (d < best_dist) {
      best_dist = d;
      best = s.name;
    }
  }
  return best;
}

std::vector<RowPlan> Registry::rows_for(BenchSection section) const {
  std::vector<RowPlan> out;
  for (const AlgoSpec& s : specs_)
    for (const BenchRow& r : s.rows)
      if (r.section == section) out.push_back({&s, &r});
  std::sort(out.begin(), out.end(),
            [](const RowPlan& a, const RowPlan& b) {
              return a.row->order < b.row->order;
            });
  return out;
}

namespace {

std::string params_cell(const AlgoSpec& s) {
  std::string out;
  for (const Param p : s.params) {
    if (!out.empty()) out += ",";
    out += param_name(p);
  }
  return out.empty() ? "-" : out;
}

}  // namespace

void Registry::print_catalog(std::ostream& os) const {
  // One column per measure (sim/metrics.hpp's tags): a spec with no
  // claim for a measure shows "-", so the 2018 entries read exactly as
  // before while the BGKO'22 entries surface their edge-averaged
  // claims in the same table.
  Table t({"name", "problem", "type", "graphs", "params", "VA bound",
           "EA bound", "WC bound", "paper"});
  for (const AlgoSpec& s : specs_)
    t.add_row({s.name, problem_name(s.problem),
               s.deterministic ? "det" : "rand", family_name(s.family),
               params_cell(s), s.bound_expr(Measure::kVertexAveraged),
               s.bound_expr(Measure::kEdgeAveraged),
               s.bound_expr(Measure::kWorstCase), s.paper_ref});
  t.print(os);
}

void Registry::print_catalog_markdown(std::ostream& os) const {
  os << "| name | problem | type | graphs | params | VA bound | "
        "EA bound | WC bound | paper |\n"
     << "|---|---|---|---|---|---|---|---|---|\n";
  for (const AlgoSpec& s : specs_)
    os << "| `" << s.name << "` | " << problem_name(s.problem) << " | "
       << (s.deterministic ? "det" : "rand") << " | "
       << family_name(s.family) << " | " << params_cell(s) << " | `"
       << s.bound_expr(Measure::kVertexAveraged) << "` | `"
       << s.bound_expr(Measure::kEdgeAveraged) << "` | `"
       << s.bound_expr(Measure::kWorstCase) << "` | " << s.paper_ref
       << " |\n";
}

std::vector<SolveOutcome> run_trials(const AlgoSpec& spec, const Graph& g,
                                     const AlgoParams& params,
                                     std::size_t trials) {
  return run_batch(
      trials,
      [&](std::size_t i) {
        AlgoParams p = params;
        p.seed = params.seed + i;
        return spec.run(g, p);
      },
      {.trial_vertices = g.num_vertices()});
}

}  // namespace valocal::registry
