// Central algorithm registry: one type-erased catalog of every solve
// entry point in src/algo/ and src/baseline/, carrying the metadata
// the paper's tables are organized by (problem x algorithm x bound) so
// the CLI, the Table 1/2 benches, the batch trial sweeps, and the
// validation layer all resolve algorithms through ONE lookup instead
// of five parallel hand-written ladders.
//
// Each AlgoSpec bundles
//   - identity: the CLI name, a display label, the problem kind,
//     deterministic/randomized, and the graph-family constraint
//     (ring-only algorithms refuse non-rings up front);
//   - schema: which AlgoParams fields the algorithm reads, so
//     `--list-algos` and the generated docs table never drift from
//     the dispatch;
//   - the papers' claims: structured per-measure bounds
//     (vertex-averaged, edge-averaged, worst-case — see Bound) plus
//     the theorem / table-row reference;
//   - bench plans: the Table 1 / Table 2 / randomized-tails rows this
//     algorithm contributes, with their exact row labels and
//     parameter overrides (k, seed bases), so the bench binaries
//     iterate registry queries and still print byte-identical tables;
//   - a factory producing a uniform SolveOutcome: the solution labels,
//     the Metrics, and the verdict of the matching src/validate/
//     checker — validation travels with the spec, so `--validate`
//     and the trial batcher work for every registered algorithm.
//
// Registration is a named spec-provider function co-located with each
// compute_* definition (see VALOCAL_ALGO_SPEC) and enumerated once in
// catalog.cpp. A global-constructor registrar would be dropped by the
// linker for any translation unit the consumer no longer references
// (precisely the situation this registry creates: valocal is a static
// library and the CLI now references only the registry), so the
// catalog calls each provider explicitly instead.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "algo/partition.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace valocal::registry {

/// Problem kinds the paper studies (its tables' first axis).
enum class Problem : std::uint8_t {
  kVertexColoring,
  kEdgeColoring,
  kMis,
  kMatching,
  kHPartition,
  kForestDecomposition,
  kLeaderElection,
};
const char* problem_name(Problem p);

/// Graph-family constraint: most algorithms run on any graph with the
/// declared arboricity; the Feuilloley ring results require a ring.
enum class GraphFamily : std::uint8_t { kAny, kRing };
const char* family_name(GraphFamily f);

/// Cheap structural admission test for a family constraint (for kRing:
/// n >= 3 and every degree exactly 2 — a disjoint union of cycles
/// passes, which is exactly what the ring algorithms require locally).
bool family_ok(GraphFamily f, const Graph& g);

/// The uniform parameter set specs draw from; `params` in AlgoSpec
/// lists which fields a given algorithm actually reads.
enum class Param : std::uint8_t { kArboricity, kEpsilon, kK, kSeed };
const char* param_name(Param p);

struct AlgoParams {
  std::size_t arboricity = 2;  // declared arboricity a
  double epsilon = 1.0;        // Procedure Partition epsilon
  int k = 0;                   // segmentation parameter; 0 = rho(n)
  std::uint64_t seed = 1;      // randomized algorithms only

  PartitionParams partition() const {
    return {.arboricity = arboricity, .epsilon = epsilon};
  }
};

/// Type-erased run result: every algorithm, whatever its native result
/// struct, reports through this shape so the CLI / benches / batcher
/// need no per-algorithm code.
struct SolveOutcome {
  Metrics metrics;
  /// Verdict of the spec's attached src/validate/ checker.
  bool valid = true;
  /// Secondary invariant where one exists (edge-coloring palette
  /// bound); true elsewhere.
  bool aux_valid = true;
  /// The full one-line result report the CLI prints (same wording the
  /// per-branch dispatch used to produce).
  std::string summary;
  std::size_t num_colors = 0;     // colorings only
  std::size_t palette_bound = 0;  // colorings only
  /// Canonical solution encoding — per-vertex labels (colorings, MIS,
  /// partitions), per-edge labels (edge coloring, matching, forest
  /// labels), or a scalar (leader). Used for DOT export and for the
  /// byte-identity determinism sweeps.
  std::vector<std::int64_t> labels;

  bool ok() const { return valid && aux_valid; }
};

/// The bench sections of the reproduction; a spec's BenchRows name the
/// sections (and row labels) it appears in, so bench binaries query
/// the registry instead of hard-coding algorithm lists.
enum class BenchSection : std::uint8_t {
  kTable1Adversarial,  // Table 1 deterministic rows, (A+1)-ary tree
  kTable1Eta,          // Table 1 row 3, forest unions
  kTable1Star,         // Table 1 row 7, star unions (Delta >> a)
  kTable1Rand,         // Table 1 rows 8-9, randomized
  kTable2Adversarial,  // Table 2, (A+1)-ary tree
  kTable2Families,     // Table 2, forest- and star-union blocks
  kRandTails,          // Theorem 9.1/9.2 w.h.p. seed sweeps
  kCrossPaper,         // 2018 vs BGKO'22 vs worst-case, shared families
};

struct BenchRow {
  BenchSection section;
  int order = 0;                // row position within the section
  const char* row = "";         // paper row id, e.g. "T1.4 O(a^2 log n)"
  const char* algo_label = "";  // the table's "algorithm" cell
  const char* check = "";       // ValidationTracker label
  const char* check_aux = nullptr;       // label for the aux verdict
  const char* ratio_override = nullptr;  // fixed "WC/VA" cell (baselines)
  int k = 0;                    // k override for this row
  std::uint64_t seed_base = 0;  // randomized sweeps: trial seed base
  bool small_sizes_only = false;  // run-to-completion baselines
};

/// One claimed complexity bound, keyed by the measure it bounds
/// (sim/metrics.hpp's Measure): specs declare a vector of these
/// instead of a fixed vertex-averaged/worst-case string pair, so
/// edge-averaged claims (BGKO'22) are first-class and catalog
/// printing, validation, and bench row plans select by measure.
struct Bound {
  Measure measure = Measure::kVertexAveraged;
  std::string expr;       // e.g. "O~(a + log* n)"
  // Defaulted so two-field {measure, expr} bounds need no third field.
  std::string paper_ref = {};  // per-bound citation; empty = the spec's
};

struct AlgoSpec {
  std::string name;     // unique CLI name (--algo <name>)
  std::string display;  // report prefix, e.g. "be08 (run to completion)"
  Problem problem = Problem::kVertexColoring;
  bool deterministic = true;
  GraphFamily family = GraphFamily::kAny;
  std::vector<Param> params;  // AlgoParams fields the factory reads
  std::vector<Bound> bounds;  // claimed complexities, one per measure
  std::string paper_ref;      // theorem / table row in the paper
  std::vector<BenchRow> rows;
  std::function<SolveOutcome(const Graph&, const AlgoParams&)> run;
  /// Largest PartitionParams::threshold() the entry supports, 0 for no
  /// limit; the CLI refuses a larger --a before dispatch.
  std::size_t max_threshold = 0;

  /// First declared bound for `m`, or nullptr if the spec claims none.
  const Bound* bound_for(Measure m) const {
    for (const Bound& b : bounds)
      if (b.measure == m) return &b;
    return nullptr;
  }
  /// Convenience for table cells: the bound's expr, or "-".
  std::string bound_expr(Measure m) const {
    const Bound* b = bound_for(m);
    return b != nullptr ? b->expr : std::string("-");
  }
};

/// A bench row joined with the spec that owns it.
struct RowPlan {
  const AlgoSpec* spec = nullptr;
  const BenchRow* row = nullptr;
};

class Registry {
 public:
  /// The process-wide catalog (built once, on first use, from the
  /// providers enumerated in catalog.cpp).
  static const Registry& instance();

  std::span<const AlgoSpec> all() const { return specs_; }
  const AlgoSpec* find(std::string_view name) const;
  /// find() that aborts with a message on a miss — for callers that
  /// already resolved the name (benches, tests).
  const AlgoSpec& at(std::string_view name) const;
  std::vector<std::string> names() const;
  /// Nearest registered name by edit distance (for typo suggestions).
  std::string suggest(std::string_view name) const;
  /// All bench rows of a section, sorted by their `order` field.
  std::vector<RowPlan> rows_for(BenchSection section) const;

  /// Catalog tables: fixed-width console form (--list-algos) and
  /// markdown form (--list-algos md; pasted into docs/ALGORITHMS.md).
  void print_catalog(std::ostream& os) const;
  void print_catalog_markdown(std::ostream& os) const;

 private:
  explicit Registry(std::vector<AlgoSpec> specs);
  std::vector<AlgoSpec> specs_;
};

/// Levenshtein distance (for suggest(); exposed for tests).
std::size_t edit_distance(std::string_view a, std::string_view b);

/// Runs `trials` independent trials of `spec` on `g` through the trial
/// batcher (sim/batch.hpp): trial i uses seed `params.seed + i`
/// (deterministic algorithms simply repeat). Byte-identical to the
/// serial loop for every thread count, per run_batch's contract —
/// spec factories and the attached checkers are pure.
std::vector<SolveOutcome> run_trials(const AlgoSpec& spec, const Graph& g,
                                     const AlgoParams& params,
                                     std::size_t trials);

}  // namespace valocal::registry

/// Defines the spec-provider function for one registered algorithm.
/// Use at namespace `valocal` scope in the .cpp that defines the
/// algorithm's compute_* entry point; catalog.cpp declares and calls
/// every provider exactly once (see the file comment above for why
/// this is a named function rather than a static registrar).
#define VALOCAL_ALGO_SPEC(id) ::valocal::registry::AlgoSpec registry_spec_##id()
