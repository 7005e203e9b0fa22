// valocal_cli — run any registered algorithm on any generated or
// loaded graph and print the vertex-averaged / edge-averaged /
// worst-case metrics.
//
//   valocal_cli --gen forest --n 10000 --a 3 --algo mis
//   valocal_cli --gen adversarial --n 65536 --algo a2logn --eps 2
//   valocal_cli --input graph.txt --algo delta_plus1 --dot out.dot
//   valocal_cli --list-algos
//
// Flags:
//   --gen      ring|path|grid|tree|forest|star|star_union|er|ba|
//              hypercube|adversarial          (default forest)
//   --graph    large-graph family spec, e.g. rmat:24x16 (2^24
//              vertices, 16x directed pairs; --seed seeds the
//              generator, --threads parallelizes the build) —
//              overrides --gen
//   --input    edge-list file (overrides --gen)
//   --load-bin binary edge-list file (edgelist_bin.hpp), ingested
//              zero-copy via mmap + the streaming CSR build
//              (overrides every other graph source)
//   --save-bin write the constructed graph as a binary edge list
//              before solving (pairs in canonical edge-id order)
//   --stats    print the one-pass degree/arboricity stats block
//   --n        vertex count                    (default 4096)
//   --a        declared arboricity             (default 2); an entry
//              that reads it refuses a value below
//              ceil((degeneracy + 1) / 2), a bound every graph meets;
//              edge_coloring and matching also refuse one whose
//              threshold passes their limit, naming the largest --a
//   --k        segmentation parameter, 0=rho(n)
//   --eps      Procedure Partition epsilon     (default 1.0)
//   --seed     generator / algorithm seed      (default 1)
//   --avg-deg  Erdos-Renyi average degree      (default 4)
//   --algo     any name in the registry catalog (default a2logn);
//              the list is not hand-maintained here — print it with
//              --list-algos (a typo gets the nearest-name suggestion)
//   --list-algos      print the algorithm catalog and exit; value
//              `names` prints bare names (one per line, for scripts),
//              `md` prints the markdown table docs/ALGORITHMS.md embeds
//   --validate print an explicit validation verdict line (the checker
//              attached to the registry spec always runs either way
//              and the exit code always reflects it)
//   --dot      write a DOT rendering (vertex colorings only)
//   --perm     relabel the graph's IDs by a random permutation drawn
//              from this integer seed before running (the VA measure
//              maxes over ID assignments; the same seed gives the same
//              relabeling)
//   --threads  engine thread count (default 1, at most 256): sizes the
//              one engine pool every run draws its workers from, and
//              the CSR build of --graph/--load-bin. Results are
//              byte-identical for every value — see docs/MODEL.md.
//              Wake scheduling is always on: hinted algorithms park
//              idle vertices in a calendar queue instead of stepping
//              them, with byte-identical results
//   --batch-trials  run N independent trials (seeds seed..seed+N-1)
//              through the trial batcher (sim/batch.hpp) and print the
//              VA/WC distribution; with --threads T > 1 the batch shards
//              trials over the engine pool, T at a time, each trial's
//              rounds serial — byte-identical to the serial sweep
//   --decay-csv    write the active-population decay series to a file
//   --edge-decay-csv  write the edge-decay series (edges still charged
//              under the BGKO'22 cost max(r(u), r(v))) to a file
//   --timings-csv  write per-round active/awake counts + wall-clock to
//              a file
//   --rounds-csv   write the per-vertex round counts r(v) to a file
//   --histogram-csv  write the r(v) histogram (count per round value)
//   --measures-csv write the full measure rollup (round_sum, vertex-,
//              edge-averaged, worst-case, awake_sum) to a file
//   --phase-table  print the per-phase VA/WC/round-sum breakdown
//   --trace-json   write a Chrome-trace / Perfetto JSON timeline
//   --run-json     write a JSONL run record (graph, phases, rounds)
//
// Every numeric flag given is parsed before anything runs, so a
// malformed value dies naming its flag even where the chosen graph
// source never reads it.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>

#include "graph/arboricity.hpp"
#include "graph/edgelist_bin.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/relabel.hpp"
#include "graph/rmat.hpp"
#include "graph/stats.hpp"
#include "registry/registry.hpp"
#include "sim/metrics_io.hpp"
#include "trace/collector.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"

namespace {

using namespace valocal;

/// The numeric flags, parsed once before dispatch (see the file
/// comment).
struct NumericFlags {
  registry::AlgoParams params;  // --a, --eps, --k, --seed
  std::size_t n = 0;
  double avg_deg = 0.0;
  std::optional<std::uint64_t> perm;
  std::size_t threads = 0;
  std::size_t batch_trials = 0;
};

NumericFlags parse_numeric_flags(const CliArgs& args) {
  NumericFlags f;
  f.params.arboricity = args.get_count("a", 2);
  f.params.epsilon = args.get_double("eps", 1.0);
  f.params.k = static_cast<int>(args.get_int("k", 0));
  f.params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  f.n = args.get_count("n", 4096);
  f.avg_deg = args.get_double("avg-deg", 4.0);
  if (args.has("perm"))
    f.perm = static_cast<std::uint64_t>(args.get_int("perm", 0));
  f.threads = args.get_count("threads", 1);
  f.batch_trials = args.get_count("batch-trials", 0);
  return f;
}

Graph make_graph(const CliArgs& args, const NumericFlags& f) {
  if (args.has("load-bin"))
    return load_graph_bin(args.get_string("load-bin", ""), f.threads);
  if (args.has("input")) return load_edge_list(args.get_string("input", ""));
  const std::size_t n = f.n;
  const std::size_t a = f.params.arboricity;
  const std::uint64_t seed = f.params.seed;
  if (args.has("graph")) {
    const std::string spec = args.get_string("graph", "");
    const auto colon = spec.find(':');
    const std::string family = spec.substr(0, colon);
    if (family == "rmat" && colon != std::string::npos)
      return gen::rmat(
          gen::parse_rmat_spec(spec.substr(colon + 1), seed), f.threads);
    std::cerr << "unknown graph spec: " << spec
              << " (expected rmat:SCALExEDGE_FACTOR, e.g. rmat:24x16)\n";
    std::exit(2);
  }
  const std::string gen = args.get_string("gen", "forest");
  if (gen == "ring") return gen::ring(n);
  if (gen == "path") return gen::path(n);
  if (gen == "grid") {
    std::size_t side = 1;
    while (side * side < n) ++side;
    return gen::grid(side, side);
  }
  if (gen == "tree") return gen::random_tree(n, seed);
  if (gen == "forest") return gen::forest_union(n, a, seed);
  if (gen == "star") return gen::star(n);
  if (gen == "star_union") return gen::star_union(n, 8);
  if (gen == "er")
    return gen::erdos_renyi(n, f.avg_deg, seed);
  if (gen == "ba") return gen::barabasi_albert(n, std::max<std::size_t>(1, a), seed);
  if (gen == "hypercube") {
    std::size_t dim = 1;
    while ((std::size_t{1} << dim) < n) ++dim;
    return gen::hypercube(dim);
  }
  if (gen == "adversarial") {
    return gen::dary_tree(n, f.params.partition().threshold() + 1);
  }
  std::cerr << "unknown generator: " << gen << "\n";
  std::exit(2);
}

/// Everything print_metrics needs beyond the Metrics themselves:
/// side-channel output paths and the (optional) trace collector.
struct ReportOptions {
  std::string decay_csv;       // --decay-csv
  std::string edge_decay_csv;  // --edge-decay-csv
  std::string timings_csv;     // --timings-csv
  std::string rounds_csv;      // --rounds-csv
  std::string histogram_csv;   // --histogram-csv
  std::string measures_csv;    // --measures-csv
  bool phase_table = false;    // --phase-table
  const trace::TraceCollector* collector = nullptr;
};

void write_csv_if(const std::string& path, const Metrics& m,
                  void (*writer)(std::ostream&, const Metrics&),
                  const char* what) {
  if (path.empty()) return;
  std::ofstream os(path);
  writer(os, m);
  std::cout << what << " written to " << path << "\n";
}

void print_metrics(const Metrics& m, const ReportOptions& opts) {
  // Every semantic measure on one line; wall-ms stays last — it is the
  // only nondeterministic field, so scripts strip the line's tail
  // from "wall-ms=" on when diffing runs.
  std::cout << "rounds: vertex-averaged=" << m.vertex_averaged()
            << " edge-averaged=" << m.edge_averaged()
            << " worst-case=" << m.worst_case()
            << " round-sum=" << m.round_sum()
            << " edge-round-sum=" << m.edge_round_sum()
            << " wall-ms=" << m.total_wall_ns() / 1e6 << "\n";
  write_csv_if(opts.decay_csv, m, write_decay_csv, "decay series");
  write_csv_if(opts.edge_decay_csv, m, write_edge_decay_csv,
               "edge-decay series");
  write_csv_if(opts.timings_csv, m, write_round_timings_csv,
               "round timings");
  write_csv_if(opts.rounds_csv, m, write_rounds_csv,
               "per-vertex rounds");
  write_csv_if(opts.histogram_csv, m, write_rounds_histogram_csv,
               "rounds histogram");
  write_csv_if(opts.measures_csv, m, write_measures_csv,
               "measure rollup");
  if (opts.phase_table && opts.collector != nullptr &&
      !opts.collector->runs().empty())
    opts.collector->print_phase_table(std::cout);
}

void maybe_dot(const CliArgs& args, const Graph& g,
               const registry::SolveOutcome& o) {
  if (!args.has("dot") || o.labels.size() != g.num_vertices()) return;
  std::vector<int> color(o.labels.begin(), o.labels.end());
  std::ofstream os(args.get_string("dot", ""));
  write_dot(os, g, &color);
}

void print_validation(const CliArgs& args,
                      const registry::AlgoSpec& spec,
                      const registry::SolveOutcome& o) {
  if (!args.has("validate")) return;
  std::cout << "validation: " << (o.ok() ? "PASS" : "FAIL") << " ("
            << registry::problem_name(spec.problem) << " checker"
            << (o.aux_valid ? "" : ", aux invariant violated") << ")\n";
}

/// Single run: one registry lookup, one uniform report. The checker
/// attached to the spec already ran inside spec.run.
int run_single(const CliArgs& args, const registry::AlgoParams& params,
               const ReportOptions& opts, const registry::AlgoSpec& spec,
               const Graph& g) {
  const registry::SolveOutcome o = spec.run(g, params);
  std::cout << o.summary << "\n";
  print_validation(args, spec, o);
  print_metrics(o.metrics, opts);
  if (spec.problem == registry::Problem::kVertexColoring)
    maybe_dot(args, g, o);
  return o.ok() ? 0 : 1;
}

/// --batch-trials N: run N independent trials of the selected
/// algorithm (trial i uses seed `seed + i`; deterministic algorithms
/// simply repeat) through run_batch and print the VA/WC distribution.
/// The batch shards over the engine pool (--threads), so
/// `--threads 8 --batch-trials 32` runs the sweep 8 trials at a time
/// — byte-identical to the serial sweep. Exactly the same registry
/// lookup as the single-run path, so every --algo name works in both.
int run_batched(const registry::AlgoParams& params,
                const registry::AlgoSpec& spec, const Graph& g,
                std::size_t trials) {
  const auto outcomes = registry::run_trials(spec, g, params, trials);

  bool all_ok = true;
  double mean_va = 0.0, max_va = 0.0;
  double mean_ea = 0.0, max_ea = 0.0;
  std::size_t max_wc = 0;
  std::uint64_t round_sum = 0;
  for (const registry::SolveOutcome& o : outcomes) {
    all_ok = all_ok && o.ok();
    const double va = o.metrics.vertex_averaged();
    mean_va += va / static_cast<double>(trials);
    max_va = std::max(max_va, va);
    const double ea = o.metrics.edge_averaged();
    mean_ea += ea / static_cast<double>(trials);
    max_ea = std::max(max_ea, ea);
    max_wc = std::max(max_wc, o.metrics.worst_case());
    round_sum += o.metrics.round_sum();
  }
  std::cout << spec.name << " x" << trials << " trials (seeds "
            << params.seed << ".." << params.seed + trials - 1
            << "): valid=" << (all_ok ? "yes" : "NO") << "\n"
            << "rounds: mean-VA=" << mean_va << " max-VA=" << max_va
            << " mean-EA=" << mean_ea << " max-EA=" << max_ea
            << " max-WC=" << max_wc << " total-round-sum=" << round_sum
            << "\n";
  return all_ok ? 0 : 1;
}

int list_algos(const std::string& mode) {
  const auto& reg = registry::Registry::instance();
  if (mode == "names") {
    for (const auto& name : reg.names()) std::cout << name << "\n";
  } else if (mode == "md") {
    reg.print_catalog_markdown(std::cout);
  } else {
    reg.print_catalog(std::cout);
    std::cout << reg.all().size()
              << " algorithms registered (src/registry/)\n";
  }
  return 0;
}

int unknown_algo(const std::string& algo) {
  const auto& reg = registry::Registry::instance();
  std::cerr << "unknown algorithm: " << algo << "\n";
  const std::string near = reg.suggest(algo);
  if (!near.empty()) std::cerr << "did you mean '" << near << "'?\n";
  std::cerr << "known algorithms:";
  for (const auto& name : reg.names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.check_known({"gen", "graph", "input", "load-bin", "save-bin",
                    "stats", "n", "a", "k", "eps", "seed",
                    "avg-deg", "algo", "dot", "perm", "decay-csv",
                    "edge-decay-csv", "measures-csv",
                    "threads", "batch-trials", "timings-csv",
                    "rounds-csv", "histogram-csv", "phase-table",
                    "trace-json", "run-json", "list-algos",
                    "validate"});
  // The path and name flags must get a value: given bare they would
  // read "true". Numeric flags die parsing it; a bare --list-algos
  // selects its default mode.
  args.require_values({"gen", "graph", "input", "load-bin", "save-bin",
                       "algo", "dot", "decay-csv", "edge-decay-csv",
                       "measures-csv", "timings-csv", "rounds-csv",
                       "histogram-csv", "trace-json", "run-json"});
  const NumericFlags flags = parse_numeric_flags(args);
  if (args.has("list-algos"))
    return list_algos(args.get_string("list-algos", ""));

  set_engine_threads(flags.threads);

  const std::string algo = args.get_string("algo", "a2logn");
  const registry::AlgoSpec* spec = registry::Registry::instance().find(algo);
  if (spec == nullptr) return unknown_algo(algo);

  Graph g = make_graph(args, flags);
  if (args.has("save-bin")) {
    const std::string bin_path = args.get_string("save-bin", "");
    save_edgelist_bin(bin_path, g);
    std::cout << "binary edge list written to " << bin_path << " ("
              << g.num_edges() << " edges)\n";
  }
  if (flags.perm)
    g = relabel(g, random_permutation(g.num_vertices(), *flags.perm));
  if (!registry::family_ok(spec->family, g)) {
    std::cerr << "algorithm '" << spec->name << "' requires a "
              << registry::family_name(spec->family)
              << " graph (try --gen ring)\n";
    return 2;
  }
  // Every graph has a(G) >= ceil((degeneracy + 1) / 2): a declared --a
  // below that is false, and the entry would fail an invariant or spin
  // to the round cap instead of blaming the flag.
  const std::size_t degen = degeneracy(g);
  const std::size_t a_floor = (degen + 2) / 2;
  if (std::find(spec->params.begin(), spec->params.end(),
                registry::Param::kArboricity) != spec->params.end() &&
      flags.params.arboricity < a_floor) {
    std::cerr << "--a " << flags.params.arboricity
              << " is below this graph's arboricity: degeneracy " << degen
              << " means a(G) is at least " << a_floor
              << " = ceil((degeneracy + 1) / 2); rerun with --a "
              << a_floor << " or more\n";
    return 2;
  }
  // An entry with a threshold limit would die mid-construction; name
  // the largest --a that stays within it at this --eps instead.
  const std::size_t a_threshold = flags.params.partition().threshold();
  if (spec->max_threshold != 0 && a_threshold > spec->max_threshold) {
    std::size_t a_max = 0;
    while (PartitionParams{.arboricity = a_max + 1,
                           .epsilon = flags.params.epsilon}
               .threshold() <= spec->max_threshold)
      ++a_max;
    std::cerr << "--a " << flags.params.arboricity << " gives threshold "
              << a_threshold << ", above the " << spec->max_threshold
              << " that '" << spec->name
              << "' supports; the largest admissible --a at --eps "
              << flags.params.epsilon << " is " << a_max << "\n";
    return 2;
  }

  ReportOptions opts;
  opts.decay_csv = args.get_string("decay-csv", "");
  opts.edge_decay_csv = args.get_string("edge-decay-csv", "");
  opts.timings_csv = args.get_string("timings-csv", "");
  opts.rounds_csv = args.get_string("rounds-csv", "");
  opts.histogram_csv = args.get_string("histogram-csv", "");
  opts.measures_csv = args.get_string("measures-csv", "");
  opts.phase_table = args.has("phase-table");

  // Any trace flag installs the collector for the whole dispatch; with
  // no flag the engines keep their null-observer fast path.
  const std::string trace_json = args.get_string("trace-json", "");
  const std::string run_json = args.get_string("run-json", "");
  trace::TraceCollector collector;
  std::optional<trace::ScopedSink> scoped_sink;
  if (opts.phase_table || !trace_json.empty() || !run_json.empty()) {
    for (const char* key : {"gen", "graph", "input", "load-bin", "n",
                            "a", "k", "eps", "seed", "avg-deg", "algo",
                            "perm", "threads"})
      if (args.has(key))
        collector.set_context(key, args.get_string(key, ""));
    collector.set_context("algo", algo);
    scoped_sink.emplace(&collector);
    opts.collector = &collector;
  }

  std::cout << "graph: n=" << g.num_vertices() << " m=" << g.num_edges()
            << " Delta=" << g.max_degree()
            << " degeneracy=" << degen << "\n";
  if (args.has("stats"))
    print_graph_stats(std::cout, compute_graph_stats(g));

  const int rc = flags.batch_trials > 1
                     ? run_batched(flags.params, *spec, g, flags.batch_trials)
                     : run_single(args, flags.params, opts, *spec, g);

  if (!trace_json.empty()) {
    std::ofstream os(trace_json);
    collector.write_chrome_trace(os);
    std::cout << "chrome trace written to " << trace_json << "\n";
  }
  if (!run_json.empty()) {
    std::ofstream os(run_json);
    collector.write_run_records_jsonl(os);
    std::cout << "run record written to " << run_json << "\n";
  }
  return rc;
}
