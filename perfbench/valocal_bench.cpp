// valocal_bench — the measuring program of the repository benchmark.
//
// Runs one workload for a time budget as closed-loop passes (one
// caller, the next job starts when the previous one returns) through
// the library's public calls, and prints one JSON run record on
// stdout. perfbench/run.py builds this program, checks the job
// fingerprints against perfbench/golden.json and prints the
// benchmark's result line; see perfbench/README.md.
//
//   valocal_bench --workload det-catalog|rmat-ingest|rand-dense
//                 --seed S --seconds T --trace 0|1
//                 [--size full|smoke] [--work-dir DIR] [--spans-out FILE]
//
// A pass is: set-up (build every input graph and run the admission
// check), then per job solve (spec.run or registry::run_trials), the
// bench's own validate/ re-check, and the metrics_io reports. Every
// timing is taken here, around those calls; nothing inside src/ is
// timed or traced by the benchmark.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "coverfree/coverfree.hpp"
#include "graph/arboricity.hpp"
#include "graph/edgelist_bin.hpp"
#include "graph/generators.hpp"
#include "graph/rmat.hpp"
#include "registry/registry.hpp"
#include "sim/metrics_io.hpp"
#include "sim/network.hpp"
#include "util/cli.hpp"
#include "validate/validate.hpp"

#ifndef VALOCAL_OPT_FLAGS
#define VALOCAL_OPT_FLAGS "unknown"
#endif

namespace {

using namespace valocal;
using registry::AlgoParams;
using registry::AlgoSpec;
using registry::SolveOutcome;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2.0;
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// User + system CPU time of this process.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------- spans

/// One timed call into a layer. `parent` indexes the enclosing span
/// (-1 at top level); `run` is the workload-run id (pass number, or a
/// negative id for warm-up and extra set-up samples).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span store; written out once, at exit.
struct Tracer {
  bool enabled = false;
  int run = 0;
  int open = -1;  // innermost open span
  std::vector<Span> spans;
};

/// Times one call. It always measures (the end-to-end timings need it)
/// and records a span only while tracing is on.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name) : t_(t), start_(now_ns()) {
    if (!t_.enabled) return;
    index_ = static_cast<int>(t_.spans.size());
    t_.spans.push_back({name, start_, 0, t_.open, t_.run});
    t_.open = index_;
  }
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span (once) and returns its length in seconds.
  double stop() {
    if (end_ == 0) {
      end_ = now_ns();
      if (index_ >= 0) {
        t_.spans[index_].end_ns = end_;
        t_.open = t_.spans[index_].parent;
      }
    }
    return static_cast<double>(end_ - start_) / 1e9;
  }

 private:
  Tracer& t_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  int index_ = -1;
};

/// Sum of span lengths (seconds) by name over the spans of run `run`.
std::map<std::string, double> span_totals(const Tracer& t, int run) {
  std::map<std::string, double> out;
  for (const Span& s : t.spans)
    if (s.run == run)
      out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  return out;
}

/// Spans as JSON lines, each with its self time (its length minus the
/// part its direct children cover; children never overlap).
void write_spans(const Tracer& t, const std::string& path) {
  std::vector<std::int64_t> child_ns(t.spans.size(), 0);
  for (const Span& s : t.spans)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::ofstream os(path);
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << ",\"run\":" << s.run
       << ",\"self_ns\":" << (s.end_ns - s.start_ns - child_ns[i])
       << "}\n";
  }
  VALOCAL_REQUIRE(os.good(), "could not write the span file");
}

/// Metric samples by name; the record reports each sample set's median.
struct Samples {
  std::map<std::string, std::pair<std::string, std::vector<double>>> m;
  void add(const std::string& name, const std::string& unit, double v) {
    auto& slot = m[name];
    slot.first = unit;
    slot.second.push_back(v);
  }
  void write(std::ostream& os) const {
    os << "{";
    const char* sep = "";
    for (const auto& [name, us] : m) {
      os << sep << "\"" << name << "\":{\"value\":" << num(median(us.second))
         << ",\"unit\":\"" << us.first << "\"}";
      sep = ",";
    }
    os << "}";
  }
};

// ------------------------------------------------------------ workloads

struct GraphInput {
  std::string name;
  Graph g;
  std::size_t degeneracy = 0;
};

struct Job {
  std::string entry;
  std::string graph;
  std::size_t trials = 1;  // > 1: registry::run_trials over seeds
};

struct Workload {
  std::string name;
  AlgoParams params;  // declared arboricity, epsilon, seed base
  std::vector<Job> jobs;
  std::vector<std::pair<std::string, std::uint64_t>> sizes;
  /// Builds every input graph and its admission degeneracy; sets the
  /// number of pairs streamed into a CSR build (0 when none was).
  std::function<std::vector<GraphInput>(Tracer&, std::uint64_t& pairs)>
      setup;
  /// Once per process, before the timed passes (may be empty).
  std::function<void(Tracer&, Samples&)> warm;
};

GraphInput generated(Tracer& t, std::string name,
                     const std::function<Graph()>& make) {
  GraphInput in{std::move(name), {}, 0};
  {
    Scope s(t, "graph.gen");
    in.g = make();
  }
  Scope s(t, "graph.degeneracy");
  in.degeneracy = degeneracy(in.g);
  return in;
}

/// Every deterministic 2018 entry that runs on bounded arboricity, on
/// forest_union(a=3) and the (A+1)-ary adversarial tree; the two
/// edge-labelling entries at a smaller n (they cost ~30x more per
/// vertex).
Workload det_catalog(std::uint64_t seed, bool smoke) {
  const std::size_t n = smoke ? 1u << 10 : 1u << 16;
  const std::size_t n_edge = smoke ? 1u << 8 : 1u << 12;
  Workload w;
  w.name = "det-catalog";
  w.params.arboricity = 3;
  w.params.epsilon = 1.0;
  w.params.seed = seed;
  const std::size_t arity = w.params.partition().threshold() + 1;
  w.sizes = {{"n", n}, {"n_edge_entries", n_edge}, {"arboricity", 3},
             {"tree_arity", arity}};
  for (const char* e : {"partition", "forest_decomp", "a2logn", "a2", "ka2",
                        "oa", "one_plus_eta", "delta_plus1", "mis"})
    for (const char* g : {"forest", "tree"}) w.jobs.push_back({e, g, 1});
  for (const char* e : {"edge_coloring", "matching"})
    for (const char* g : {"forest-small", "tree-small"})
      w.jobs.push_back({e, g, 1});
  // The cover-free family Arb-Linial builds for this n and threshold.
  // One construction is microseconds, so time a batch.
  w.warm = [=, a = w.params](Tracer& t, Samples& layer) {
    const std::size_t reps = 1000;
    std::uint64_t ground = 0;
    Scope s(t, "coverfree.build");
    for (std::size_t i = 0; i < reps; ++i)
      ground += CoverFreeFamily(n, a.partition().threshold()).ground_size();
    layer.add("coverfree.build_s", "s", s.stop() / reps);
    VALOCAL_REQUIRE(ground > 0, "empty cover-free family");
  };
  w.setup = [=](Tracer& t, std::uint64_t&) {
    std::vector<GraphInput> out;
    out.push_back(generated(t, "forest", [&] {
      return gen::forest_union(n, 3, seed);
    }));
    out.push_back(
        generated(t, "tree", [&] { return gen::dary_tree(n, arity); }));
    out.push_back(generated(t, "forest-small", [&] {
      return gen::forest_union(n_edge, 3, seed);
    }));
    out.push_back(generated(t, "tree-small", [&] {
      return gen::dary_tree(n_edge, arity);
    }));
    return out;
  };
  return w;
}

/// The cached-graph path: an RMAT instance saved once (untimed) as a
/// VALOCELB file, then per pass mmap + streaming CSR build + admission,
/// and one run each of luby and bgko_mis.
Workload rmat_ingest(std::uint64_t seed, bool smoke,
                     const std::string& cache_file) {
  Workload w;
  w.name = "rmat-ingest";
  w.params.seed = seed;
  gen::RmatParams rp;
  rp.scale = smoke ? 12 : 20;
  rp.edge_factor = 16;
  rp.seed = seed;
  w.sizes = {{"rmat_scale", rp.scale},
             {"rmat_edge_factor", rp.edge_factor},
             {"n", rp.num_vertices()},
             {"pairs", rp.num_directed_edges()}};
  for (const char* e : {"luby", "bgko_mis"}) w.jobs.push_back({e, "rmat", 1});
  w.warm = [=](Tracer& t, Samples& layer) {
    Scope s(t, "graph.gen_save");
    save_edgelist_bin(cache_file, rp.num_vertices(), gen::RmatSource(rp));
    layer.add("graph.gen_save_s", "s", s.stop());
  };
  w.setup = [=](Tracer& t, std::uint64_t& pairs) {
    std::vector<GraphInput> out(1);
    out[0].name = "rmat";
    std::optional<BinEdgeList> bin;
    {
      Scope s(t, "graph.mmap_open");
      bin.emplace(cache_file);
    }
    pairs = bin->num_pairs();
    {
      Scope s(t, "graph.csr_build");
      out[0].g = Graph::from_source(bin->num_vertices(), *bin, 1);
    }
    bin.reset();
    Scope s(t, "graph.degeneracy");
    out[0].degeneracy = degeneracy(out[0].g);
    return out;
  };
  return w;
}

/// Randomized entries (and the run-to-completion wc_delta baseline) on
/// a dense-frontier Erdos-Renyi graph, the randomized ones over several
/// seeds through registry::run_trials. wc_delta steps every vertex to
/// the worst case (313 rounds at n=2^17), hence its smaller graph.
Workload rand_dense(std::uint64_t seed, bool smoke) {
  const std::size_t n = smoke ? 1u << 11 : 1u << 17;
  const std::size_t n_wc = smoke ? 1u << 9 : 1u << 14;
  const std::size_t trials = smoke ? 2 : 8;
  const double avg_degree = 16.0;
  Workload w;
  w.name = "rand-dense";
  w.params.seed = seed;
  w.sizes = {{"n", n}, {"n_wc_delta", n_wc}, {"avg_degree", 16},
             {"trials", trials}};
  for (const char* e : {"luby", "rand_delta_plus1", "bgko_mis",
                        "bgko_matching"})
    w.jobs.push_back({e, "er", trials});
  w.jobs.push_back({"wc_delta", "er-small", 1});
  w.setup = [=](Tracer& t, std::uint64_t&) {
    std::vector<GraphInput> out;
    out.push_back(generated(t, "er", [&] {
      return gen::erdos_renyi(n, avg_degree, seed);
    }));
    out.push_back(generated(t, "er-small", [&] {
      return gen::erdos_renyi(n_wc, avg_degree, seed);
    }));
    return out;
  };
  return w;
}

// ------------------------------------------------------ checks per job

/// Admission pre-flight. A graph of arboricity a has degeneracy at most
/// 2a - 1, so a declared arboricity below (degeneracy + 1) / 2 is
/// certainly too small and the run would only spin to the round cap.
/// (A bound of `declared >= degeneracy` would also refuse correct
/// declarations: forest_union(a=3) has degeneracy 4.)
bool admitted(const AlgoSpec& spec, const GraphInput& in,
              const AlgoParams& p) {
  if (!registry::family_ok(spec.family, in.g)) return false;
  const bool reads_a =
      std::find(spec.params.begin(), spec.params.end(),
                registry::Param::kArboricity) != spec.params.end();
  return !reads_a || 2 * p.arboricity >= in.degeneracy + 1;
}

/// Each label class is acyclic (union-find per forest label). The
/// outcome's labels carry no orientation, so this is the part of
/// is_forest_decomposition the labels alone can show.
bool labels_form_forests(const Graph& g,
                         const std::vector<std::int64_t>& label) {
  if (label.size() != g.num_edges()) return false;
  std::map<std::int64_t, std::vector<Vertex>> parent;
  const auto find = [](std::vector<Vertex>& p, Vertex v) {
    while (p[v] != v) v = p[v] = p[p[v]];
    return v;
  };
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (label[e] < 0) return false;
    auto [it, fresh] = parent.try_emplace(label[e]);
    if (fresh) {
      it->second.resize(g.num_vertices());
      std::iota(it->second.begin(), it->second.end(), Vertex{0});
    }
    const Vertex a = find(it->second, g.edge_u(e));
    const Vertex b = find(it->second, g.edge_v(e));
    if (a == b) return false;
    it->second[a] = b;
  }
  return true;
}

/// The bench's own re-run of the validate/ checker on the labels.
bool recheck(const AlgoSpec& spec, const Graph& g, const AlgoParams& p,
             const SolveOutcome& o) {
  using registry::Problem;
  const auto& l = o.labels;
  const auto ints = [&] { return std::vector<int>(l.begin(), l.end()); };
  const auto bools = [&] {
    std::vector<bool> b(l.size());
    for (std::size_t i = 0; i < l.size(); ++i) b[i] = l[i] != 0;
    return b;
  };
  const std::size_t n = g.num_vertices(), m = g.num_edges();
  switch (spec.problem) {
    case Problem::kVertexColoring:
      return l.size() == n && is_proper_coloring(g, ints());
    case Problem::kEdgeColoring:
      return l.size() == m && is_proper_edge_coloring(g, ints());
    case Problem::kMis:
      return l.size() == n && is_mis(g, bools());
    case Problem::kMatching:
      return l.size() == m && is_maximal_matching(g, bools());
    case Problem::kHPartition:
      return l.size() == n &&
             is_h_partition(g, ints(), p.partition().threshold());
    case Problem::kForestDecomposition:
      return labels_form_forests(g, l);
    case Problem::kLeaderElection:
      return false;  // ring-only; no workload runs it
  }
  return false;
}

/// FNV-1a over labels, r(v) and the active-population series: the
/// semantic output of a run, which the determinism contract pins.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <class T>
  void add(const std::vector<T>& v) {
    const std::uint64_t len = v.size();
    bytes(&len, sizeof len);
    for (const T& x : v) {
      const auto w = static_cast<std::uint64_t>(x);
      bytes(&w, sizeof w);
    }
  }
  void bytes(const void* p, std::size_t k) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < k; ++i) h = (h ^ c[i]) * 1099511628211ull;
  }
};

/// Discards what metrics_io writes, counting the bytes.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize k) override {
    bytes += static_cast<std::uint64_t>(k);
    return k;
  }
};

// --------------------------------------------------------------- a pass

/// The CPUs this process may run on, in id order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Moves the (single) caller to one CPU. Jobs rotate over the allowed
/// CPUs, pass by pass, so one contended CPU of a shared host slows a
/// few samples of every job instead of a whole run; the per-job
/// medians then drop those samples.
void run_on(const std::vector<int>& cpus, std::size_t k) {
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[k % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

struct JobTally {
  std::uint64_t attempted = 0, ok = 0;
  std::uint64_t refused = 0, verdict_fail = 0, recheck_fail = 0;
  std::uint64_t nondeterministic = 0;
  std::string fingerprint;  // from the first pass
};

struct EntryPass {
  double engine_s = 0;
  std::uint64_t round_sum = 0;
  bool has_wall = false;  // any outcome carried round_wall_ns
};

struct PassResult {
  double setup_s = 0, solve_s = 0, check_s = 0, report_s = 0, total_s = 0;
  double cpu_s = 0;  // process CPU time over the pass
  std::uint64_t vertex_rounds = 0, awake = 0, skipped = 0, switches = 0;
  std::uint64_t check_failures = 0, report_bytes = 0;
  std::uint64_t pairs = 0;  // streamed into a CSR build
  std::uint64_t edges = 0;
  double rss_after_setup_mb = 0;
  std::vector<double> job_solve_s;  // per job, in job order
  std::map<std::string, EntryPass> entries;
};

PassResult run_pass(const Workload& w, Tracer& t,
                    std::vector<JobTally>& tally,
                    const std::vector<int>& cpus, std::size_t pass_no) {
  const auto& reg = registry::Registry::instance();
  PassResult r;
  const double cpu0 = cpu_seconds();
  Scope pass(t, "pass");
  run_on(cpus, pass_no);
  std::vector<GraphInput> graphs;
  {
    Scope s(t, "setup");
    graphs = w.setup(t, r.pairs);
    r.setup_s = s.stop();
  }
  r.rss_after_setup_mb = peak_rss_mb();
  for (const GraphInput& in : graphs) r.edges += in.g.num_edges();

  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const Job& job = w.jobs[j];
    const AlgoSpec& spec = reg.at(job.entry);
    const GraphInput& in = *std::find_if(
        graphs.begin(), graphs.end(),
        [&](const GraphInput& gi) { return gi.name == job.graph; });
    JobTally& jt = tally[j];
    run_on(cpus, pass_no + j + 1);
    ++jt.attempted;
    EntryPass& ep = r.entries[job.entry];

    std::vector<SolveOutcome> outcomes;
    {
      Scope s(t, "solve");
      if (admitted(spec, in, w.params)) {
        Scope run(t, "algo." + job.entry + ".run");
        if (job.trials == 1)
          outcomes.push_back(spec.run(in.g, w.params));
        else
          outcomes = registry::run_trials(spec, in.g, w.params, job.trials);
      }
      r.job_solve_s.push_back(s.stop());
      r.solve_s += r.job_solve_s.back();
    }
    if (outcomes.empty()) {
      ++jt.refused;
      continue;
    }

    bool verdicts = true, rechecks = true;
    Fnv fp;
    {
      Scope s(t, "validate.check");
      for (const SolveOutcome& o : outcomes) {
        verdicts = verdicts && o.ok();
        rechecks = rechecks && recheck(spec, in.g, w.params, o);
        fp.add(o.labels);
        fp.add(o.metrics.rounds);
        fp.add(o.metrics.active_per_round);
      }
      r.check_s += s.stop();
    }
    {
      Scope s(t, "metrics_io.report");
      CountingBuf buf;
      std::ostream null_os(&buf);
      for (const SolveOutcome& o : outcomes) {
        write_rounds_csv(null_os, o.metrics);
        write_decay_csv(null_os, o.metrics);
        write_edge_decay_csv(null_os, o.metrics);
        write_measures_csv(null_os, o.metrics);
      }
      r.report_bytes += buf.bytes;
      r.report_s += s.stop();
    }
    for (const SolveOutcome& o : outcomes) {
      const Metrics& m = o.metrics;
      ep.round_sum += m.round_sum();
      ep.engine_s += static_cast<double>(m.total_wall_ns()) / 1e9;
      ep.has_wall = ep.has_wall || !m.round_wall_ns.empty();
      r.vertex_rounds += m.round_sum();
      r.awake += m.awake_sum();
      r.skipped += m.skipped_steps;
      r.switches += m.frontier_switches;
    }

    std::ostringstream hex;
    hex << std::hex << std::setw(16) << std::setfill('0') << fp.h;
    if (jt.fingerprint.empty()) jt.fingerprint = hex.str();
    const bool same = jt.fingerprint == hex.str();
    jt.verdict_fail += verdicts ? 0 : 1;
    jt.recheck_fail += rechecks ? 0 : 1;
    jt.nondeterministic += same ? 0 : 1;
    if (!rechecks) ++r.check_failures;
    if (verdicts && rechecks && same) ++jt.ok;
  }
  r.total_s = pass.stop();
  r.cpu_s = cpu_seconds() - cpu0;
  return r;
}

// --------------------------------------------------------------- record

std::string esc(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.check_known({"workload", "seed", "seconds", "trace", "size",
                    "work-dir", "spans-out"});
  const std::string name = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const bool smoke = args.get_string("size", "full") == "smoke";
  const std::filesystem::path work_dir = args.get_string("work-dir", ".");
  const std::string spans_out = args.get_string("spans-out", "");

  // One engine thread, one CSR-build thread, serial trial batches: the
  // benchmark measures the code, not the scheduler.
  set_engine_threads(1);
  Tracer tracer;
  tracer.run = -1;  // warm-up
  Samples stage, layer;

  // Warm: the catalog is built once per process in real use too.
  registry::Registry::instance();

  Workload w;
  // Per process, so two runs sharing a work dir never share a file.
  const std::filesystem::path cache_file =
      work_dir / ("rmat-" + std::to_string(seed) + "-" +
                  std::to_string(getpid()) + ".bin");
  std::filesystem::create_directories(work_dir);
  if (name == "det-catalog") {
    w = det_catalog(seed, smoke);
  } else if (name == "rmat-ingest") {
    w = rmat_ingest(seed, smoke, cache_file.string());
  } else if (name == "rand-dense") {
    w = rand_dense(seed, smoke);
  } else {
    std::cerr << "unknown workload: " << name
              << " (want det-catalog|rmat-ingest|rand-dense)\n";
    return 2;
  }
  if (w.warm) {
    tracer.enabled = trace;
    w.warm(tracer, layer);
  }

  const std::vector<int> cpus = allowed_cpus();
  std::vector<JobTally> tally(w.jobs.size());
  std::vector<double> traced_totals, untraced_totals;
  std::vector<std::vector<double>> job_solve_s(w.jobs.size());
  std::ostringstream pass_log;  // per pass: traced, setup, solve, total, cpu
  double rss_after_setup = 0, rss_after_pass = 0;
  std::uint64_t pass_vertex_rounds = 0;
  const std::int64_t t0 = now_ns();
  double last_pass_s = 0, last_setup_s = 0;
  std::size_t setups = 0;
  // Passes until the budget is spent. A traced run alternates
  // untraced and traced passes (at least one of each) so it can report
  // the tracing overhead from one process.
  for (int pass = 0;; ++pass) {
    const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    const std::size_t min_passes = trace ? 2 : 1;
    if (static_cast<std::size_t>(pass) >= min_passes &&
        elapsed + last_pass_s > seconds)
      break;
    tracer.run = pass;
    tracer.enabled = trace && pass % 2 == 1;
    const PassResult r = run_pass(w, tracer, tally, cpus, pass);
    ++setups;
    last_pass_s = r.total_s;
    last_setup_s = r.setup_s;
    if (pass == 0) {
      rss_after_setup = r.rss_after_setup_mb;
      rss_after_pass = peak_rss_mb();
      pass_vertex_rounds = r.vertex_rounds;
    }
    (tracer.enabled ? traced_totals : untraced_totals).push_back(r.total_s);
    pass_log << (pass ? "," : "") << "[" << (tracer.enabled ? 1 : 0) << ","
             << num(r.setup_s) << "," << num(r.solve_s) << ","
             << num(r.total_s) << "," << num(r.cpu_s) << "]";

    if (!tracer.enabled) {
      stage.add("setup_s", "s", r.setup_s);
      stage.add("check_s", "s", r.check_s);
      stage.add("report_s", "s", r.report_s);
      for (std::size_t j = 0; j < w.jobs.size(); ++j)
        job_solve_s[j].push_back(r.job_solve_s[j]);
      continue;
    }
    const auto spans = span_totals(tracer, pass);
    const auto span_s = [&](const std::string& n) {
      const auto it = spans.find(n);
      return it == spans.end() ? 0.0 : it->second;
    };
    for (const char* g : {"gen", "mmap_open", "csr_build", "degeneracy"})
      layer.add(std::string("graph.") + g + "_s", "s",
                span_s(std::string("graph.") + g));
    const double csr_s = span_s("graph.csr_build");
    layer.add("graph.csr_pairs_per_s", "1/s",
              csr_s > 0 ? static_cast<double>(r.pairs) / csr_s : 0);
    layer.add("graph.pairs", "count", static_cast<double>(r.pairs));
    layer.add("graph.edges", "count", static_cast<double>(r.edges));
    layer.add("graph.keep_ratio", "ratio",
              r.pairs > 0 ? 2.0 * static_cast<double>(r.edges) /
                                       static_cast<double>(r.pairs)
                                 : 0);
    double engine_s = 0;
    for (const auto& [entry, ep] : r.entries) {
      const double run_s = span_s("algo." + entry + ".run");
      layer.add("algo." + entry + ".run_s", "s", run_s);
      layer.add("algo." + entry + ".vertex_rounds_per_s", "1/s",
                run_s > 0 ? static_cast<double>(ep.round_sum) / run_s : 0);
      if (ep.has_wall) layer.add("sim." + entry + ".engine_s", "s", ep.engine_s);
      engine_s += ep.engine_s;
    }
    layer.add("sim.engine_share", "ratio", engine_s / span_s("solve"));
    layer.add("sim.vertex_rounds", "count", static_cast<double>(r.vertex_rounds));
    layer.add("sim.awake_vertex_rounds", "count", static_cast<double>(r.awake));
    layer.add("sim.skipped_steps", "count", static_cast<double>(r.skipped));
    layer.add("sim.frontier_switches", "count",
              static_cast<double>(r.switches));
    layer.add("validate.check_s", "s", span_s("validate.check"));
    layer.add("validate.failures", "count",
              static_cast<double>(r.check_failures));
    layer.add("metrics_io.report_s", "s", span_s("metrics_io.report"));
    layer.add("metrics_io.bytes", "B", static_cast<double>(r.report_bytes));
    std::size_t n_spans = 0;
    for (const Span& s : tracer.spans) n_spans += s.run == pass ? 1 : 0;
    layer.add("trace.spans", "count", static_cast<double>(n_spans));
  }
  // setup_s is a median over several set-ups: top up with set-up-only
  // samples when the passes were fewer (to 5 when set-up is short, to
  // 3 when each one takes seconds).
  for (int extra = -2; setups < 3 || (setups < 5 && last_setup_s < 1.0);
       --extra, ++setups) {
    tracer.run = extra;
    tracer.enabled = false;
    std::uint64_t pairs = 0;
    Scope s(tracer, "setup");
    w.setup(tracer, pairs);
    last_setup_s = s.stop();
    stage.add("setup_s", "s", last_setup_s);
  }
  // Medians filter the host's short slowdowns: per stage over passes,
  // and per job for solve_s (one slow job does not drag its pass).
  const auto stage_s = [&](const char* n) { return median(stage.m[n].second); };
  double solve_s = 0;
  for (const auto& samples : job_solve_s) solve_s += median(samples);
  Samples e2e;
  e2e.add("setup_s", "s", stage_s("setup_s"));
  e2e.add("solve_s", "s", solve_s);
  e2e.add("total_s", "s",
          stage_s("setup_s") + solve_s + stage_s("check_s") +
              stage_s("report_s"));
  e2e.add("vertex_rounds_per_s", "1/s",
          static_cast<double>(pass_vertex_rounds) / solve_s);
  // One pass's peak: later passes repeat the same work, and allocator
  // reuse across them is an artifact of repeating it.
  e2e.add("peak_rss_mb", "MB", rss_after_pass);
  if (trace) {
    layer.add("graph.rss_mb", "MB", rss_after_setup);
    layer.add("trace.overhead_s", "s",
              median(traced_totals) - median(untraced_totals));
  }
  if (!spans_out.empty()) write_spans(tracer, spans_out);
  std::error_code ignored;
  std::filesystem::remove(cache_file, ignored);

  // Entries whose engine time cannot be read from their Metrics.
  std::map<std::string, std::string> missing;
  for (const Job& job : w.jobs)
    if (trace && layer.m.count("algo." + job.entry + ".run_s") != 0 &&
        layer.m.count("sim." + job.entry + ".engine_s") == 0)
      missing["sim." + job.entry + ".engine_s"] =
          "the entry's Metrics carry no round_wall_ns (it is not one "
          "run_local call), so its engine time is not measured";

  std::ostream& os = std::cout;
  os << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
     << ",\"size\":\"" << (smoke ? "smoke" : "full") << "\",\"trace\":"
     << (trace ? 1 : 0) << ",\"seconds\":" << num(seconds) << ",\"sizes\":{";
  for (std::size_t i = 0; i < w.sizes.size(); ++i)
    os << (i ? "," : "") << "\"" << w.sizes[i].first
       << "\":" << w.sizes[i].second;
  os << "},\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":\"" << esc(cpu_model()) << "\"},\"build\":{"
     << "\"compiler\":\"" << esc(__VERSION__) << "\",\"opt_flags\":\""
     << esc(VALOCAL_OPT_FLAGS) << "\"},\"engine\":{\"threads\":"
     << engine_threads() << ",\"csr_build_threads\":1"
     << ",\"trial_batch\":\"serial\",\"frontier_mode\":\""
     << frontier_mode_name(engine_frontier_mode()) << "\",\"layout\":\""
     << state_layout_name(engine_state_layout())
     << "\",\"sleep_hints\":" << (engine_sleep_hints() ? "true" : "false")
     << "},\"passes\":" << untraced_totals.size() + traced_totals.size()
     << ",\"traced_passes\":" << traced_totals.size()
     << ",\"setup_samples\":" << stage.m["setup_s"].second.size()
     << ",\"pass_log\":[" << pass_log.str() << "]"
     << ",\"jobs\":[";
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const JobTally& jt = tally[j];
    os << (j ? "," : "") << "{\"key\":\"" << w.jobs[j].entry << "@"
       << w.jobs[j].graph << "\",\"trials\":" << w.jobs[j].trials
       << ",\"attempted\":" << jt.attempted << ",\"ok\":" << jt.ok
       << ",\"refused\":" << jt.refused
       << ",\"verdict_fail\":" << jt.verdict_fail
       << ",\"recheck_fail\":" << jt.recheck_fail
       << ",\"nondeterministic\":" << jt.nondeterministic
       << ",\"fingerprint\":\"" << jt.fingerprint << "\"}";
  }
  os << "],\"end_to_end\":";
  e2e.write(os);
  os << ",\"per_layer\":";
  layer.write(os);
  os << ",\"missing\":{";
  const char* sep = "";
  for (const auto& [metric, why] : missing) {
    os << sep << "\"" << metric << "\":\"" << esc(why) << "\"";
    sep = ",";
  }
  os << "}}\n";
  return 0;
}
