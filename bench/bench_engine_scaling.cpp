// Parallel round-engine scaling: Luby MIS and randomized Delta+1 on
// G(n, p) with n = 2^17 (~1.3e5 vertices, avg degree 8), swept over
// engine thread counts 1, 2, 4, 8.
//
// Two claims are checked per row:
//   1. determinism — outputs and semantic metrics (r(v), n_i) are
//      byte-identical to the serial run for every thread count (this
//      is a hard validation; the bench exits nonzero on any mismatch);
//   2. speedup — per-round wall-clock (Metrics::round_wall_ns) drops
//      as threads are added. Speedup is reported, not asserted: it
//      depends on the cores the host actually has.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "baseline/luby_mis.hpp"
#include "algo/rand_delta_plus1.hpp"
#include "bench_common.hpp"
#include "graph/edgelist_bin.hpp"
#include "graph/rmat.hpp"
#include "graph/stats.hpp"
#include "sim/batch.hpp"
#include "validate/validate.hpp"

namespace valocal::bench {
namespace {

/// One measured configuration, exportable as JSON for BENCH_engine.json
/// (scripts/bench_baseline.sh sets VALOCAL_BENCH_JSON=<path>).
struct ScalingRow {
  std::string section;    // "round_engine" | "trial_batch" | ...
  std::string algorithm;
  std::size_t threads = 1;
  std::size_t trials = 1;
  double best_ms = 0.0;
  double speedup = 1.0;
  bool identical = true;
  // graph_build rows: directed-pair throughput of the build and the
  // process peak RSS right after it (ru_maxrss); 0 elsewhere.
  double edges_per_sec = 0.0;
  double peak_rss_mb = 0.0;
};

std::vector<ScalingRow>& json_rows() {
  static std::vector<ScalingRow> rows;
  return rows;
}

// Build-configuration stamp for the JSON dump: BENCH_engine.json
// snapshots are only comparable within one compiler + flag set, so
// scripts/perf_snapshot.py lifts this block into the host record.
// VALOCAL_OPT_FLAGS is injected by bench/CMakeLists.txt with the
// effective CMAKE_CXX_FLAGS for the active build type.
#ifndef VALOCAL_OPT_FLAGS
#define VALOCAL_OPT_FLAGS "unknown"
#endif
constexpr const char* kCompilerId =
#if defined(__clang__)
    "clang";
#elif defined(__GNUC__)
    "gcc";
#else
    "unknown";
#endif

void write_json_rows() {
  const char* path = std::getenv("VALOCAL_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream os(path);
  os << "{\n  \"hardware_threads\": "
     << std::thread::hardware_concurrency()
     << ",\n  \"compiler\": {\"id\": \"" << kCompilerId
     << "\", \"version\": \"" << __VERSION__
     << "\", \"opt_flags\": \"" << VALOCAL_OPT_FLAGS
     << "\"},\n  \"rows\": [\n";
  const auto& rows = json_rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    os << "    {\"section\": \"" << r.section << "\", \"algorithm\": \""
       << r.algorithm << "\", \"threads\": " << r.threads
       << ", \"trials\": " << r.trials << ", \"best_ms\": " << r.best_ms
       << ", \"speedup\": " << r.speedup << ", \"identical\": "
       << (r.identical ? "true" : "false")
       << ", \"edges_per_sec\": " << r.edges_per_sec
       << ", \"peak_rss_mb\": " << r.peak_rss_mb;
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "[scaling rows written to " << path << "]\n";
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Structural CSR fingerprint (FNV-1a over n, m, and every adjacency
/// slice) so the staging-vs-streaming equivalence check does not need
/// both graphs resident at once — keeping the peak-RSS comparison
/// honest.
std::uint64_t csr_fingerprint(const Graph& g) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ULL;
  };
  mix(g.num_vertices());
  mix(g.num_edges());
  for (Vertex v = 0; v < g.num_vertices(); ++v)
    for (const Vertex w : g.neighbors(v)) mix(w);
  return h;
}

template <class F>
double timed_ms(const F& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

template <class F>
auto timed_best_of(int reps, const F& f, double& best_ms) {
  best_ms = 1e300;
  decltype(f()) result = f();  // warm + reference result
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    result = f();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    best_ms = std::min(best_ms, ms);
  }
  return result;
}

int run() {
  ValidationTracker tracker;
  const std::size_t n = 1 << 17;
  const Graph g = gen::erdos_renyi(n, 8.0, 42);

  print_header("Parallel round engine on G(n,p), n = 2^17, avg deg 8");
  std::cout << "hardware threads: "
            << std::thread::hardware_concurrency() << "\n";

  Table t({"algorithm", "threads", "best ms", "speedup", "identical"});
  for (const char* algo : {"luby_mis", "rand_delta_plus1"}) {
    double serial_ms = 0.0;
    std::vector<std::int8_t> ref_mis;
    std::vector<int> ref_colors;
    Metrics ref_metrics;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      set_engine_threads(threads);
      double ms = 0.0;
      bool identical = true;
      if (std::string(algo) == "luby_mis") {
        const auto r =
            timed_best_of(2, [&] { return compute_luby_mis(g, 7); }, ms);
        std::vector<std::int8_t> flat(n);
        for (Vertex v = 0; v < n; ++v) flat[v] = r.in_set[v] ? 1 : 0;
        if (threads == 1) {
          ref_mis = flat;
          ref_metrics = r.metrics;
          tracker.expect(is_mis(g, r.in_set), "luby MIS validity");
        }
        identical = flat == ref_mis &&
                    r.metrics.rounds == ref_metrics.rounds &&
                    r.metrics.active_per_round ==
                        ref_metrics.active_per_round;
      } else {
        const auto r = timed_best_of(
            2, [&] { return compute_rand_delta_plus1(g, 7); }, ms);
        if (threads == 1) {
          ref_colors = r.color;
          ref_metrics = r.metrics;
          tracker.expect(is_proper_coloring(g, r.color),
                         "rand delta+1 propriety");
        }
        identical = r.color == ref_colors &&
                    r.metrics.rounds == ref_metrics.rounds &&
                    r.metrics.active_per_round ==
                        ref_metrics.active_per_round;
      }
      if (threads == 1) serial_ms = ms;
      tracker.expect(identical,
                     std::string(algo) + " determinism @threads=" +
                         std::to_string(threads));
      t.add_row({algo, Table::num(static_cast<std::uint64_t>(threads)),
                 Table::num(ms, 2),
                 Table::num(ms > 0 ? serial_ms / ms : 0.0, 2) + "x",
                 identical ? "yes" : "NO"});
      json_rows().push_back({"round_engine", algo, threads, 1, ms,
                             ms > 0 ? serial_ms / ms : 0.0, identical});
    }
  }
  set_engine_threads(1);
  t.print(std::cout);

  // Trial-level sharding (run_batch): a 32-seed sweep of randomized
  // Delta+1 on a smaller G(n,p), parallelized ACROSS trials rather than
  // within rounds. This is the regime seed sweeps / table benches live
  // in; the determinism check compares every thread count's full result
  // set (colors, r(v), n_i per trial) against the serial loop.
  print_header(
      "Trial batcher (run_batch): 32-seed rand_delta_plus1 sweep, "
      "n = 2^15, avg deg 8");
  const std::size_t bn = 1 << 15;
  const Graph bg = gen::erdos_renyi(bn, 8.0, 7);
  const std::size_t num_trials = 32;
  auto trial = [&](std::size_t i) {
    return compute_rand_delta_plus1(bg, 1000 + i);
  };

  std::vector<std::vector<int>> ref_batch_colors;
  std::vector<Metrics> ref_batch_metrics;
  double batch_serial_ms = 0.0;
  Table bt({"threads", "trials", "best ms", "speedup", "identical"});
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    double ms = 0.0;
    const auto results = timed_best_of(
        2,
        [&] {
          return run_batch(num_trials, trial,
                           {.num_threads = threads,
                            .trial_vertices = bn});
        },
        ms);
    bool identical = true;
    if (threads == 1) {
      batch_serial_ms = ms;
      ref_batch_colors.clear();
      ref_batch_metrics.clear();
      for (const auto& r : results) {
        ref_batch_colors.push_back(r.color);
        ref_batch_metrics.push_back(r.metrics);
        tracker.expect(is_proper_coloring(bg, r.color),
                       "batched rand delta+1 propriety");
      }
    } else {
      for (std::size_t i = 0; i < results.size(); ++i)
        identical = identical &&
                    results[i].color == ref_batch_colors[i] &&
                    results[i].metrics.rounds ==
                        ref_batch_metrics[i].rounds &&
                    results[i].metrics.active_per_round ==
                        ref_batch_metrics[i].active_per_round;
    }
    tracker.expect(identical, "run_batch determinism @threads=" +
                                  std::to_string(threads));
    bt.add_row({Table::num(static_cast<std::uint64_t>(threads)),
                Table::num(static_cast<std::uint64_t>(num_trials)),
                Table::num(ms, 2),
                Table::num(ms > 0 ? batch_serial_ms / ms : 0.0, 2) + "x",
                identical ? "yes" : "NO"});
    json_rows().push_back({"trial_batch", "rand_delta_plus1", threads,
                           num_trials, ms,
                           ms > 0 ? batch_serial_ms / ms : 0.0,
                           identical});
  }
  bt.print(std::cout);

  // Wake scheduling: the wait-heavy composition workload on the
  // adversarial tree, default (hinted) engine vs the no-calendar
  // reference under ScopedNoParking (unhinted), serial engine. The identical
  // column is the hard byte-equality check (outputs, r(v), n_i);
  // speedup = unhinted_ms / hinted_ms is the round-loop throughput
  // wake scheduling buys on an idle-dominated schedule.
  print_header("Wake scheduling: wait-heavy composition, n = 2^16");
  const std::size_t wn = 1 << 16;
  const PartitionParams wparams{.arboricity = 1, .epsilon = 1.0};
  const Graph wg = adversarial_tree(wn, wparams);
  const auto walgo = wait_heavy_composition(wn, wparams);

  double unhinted_ms = 0.0;
  const auto wref = timed_best_of(
      3,
      [&] {
        const ScopedNoParking no_parking;
        return run_local(wg, walgo);
      },
      unhinted_ms);
  double hinted_ms = 0.0;
  const auto whinted = timed_best_of(
      3,
      [&] {
        return run_local(wg, walgo);
      },
      hinted_ms);

  const bool widentical =
      whinted.outputs == wref.outputs &&
      whinted.metrics.rounds == wref.metrics.rounds &&
      whinted.metrics.active_per_round == wref.metrics.active_per_round;
  tracker.expect(widentical, "wake-scheduling determinism (wait-heavy)");
  tracker.expect(wref.metrics.skipped_steps == 0,
                 "no-parking engine must skip nothing");
  tracker.expect(whinted.metrics.skipped_steps > 0,
                 "hinted engine must actually park vertices");

  const double wspeedup = hinted_ms > 0 ? unhinted_ms / hinted_ms : 0.0;
  Table wt({"engine", "best ms", "speedup", "skipped steps", "identical"});
  wt.add_row({"unhinted", Table::num(unhinted_ms, 2), "1.00x",
              Table::num(wref.metrics.skipped_steps), "yes"});
  wt.add_row({"hinted", Table::num(hinted_ms, 2),
              Table::num(wspeedup, 2) + "x",
              Table::num(whinted.metrics.skipped_steps),
              widentical ? "yes" : "NO"});
  wt.print(std::cout);
  json_rows().push_back({"sleep_hints", "wait_heavy_unhinted", 1, 1,
                         unhinted_ms, 1.0, true});
  json_rows().push_back({"sleep_hints", "wait_heavy_hinted", 1, 1,
                         hinted_ms, wspeedup, widentical});

  // Graph substrate: the memory-lean streaming CSR build. Part 1
  // compares peak memory against the GraphBuilder staging path on the
  // same RMAT scale-20 input (streaming runs FIRST so its ru_maxrss
  // reading is its own high-water mark; the staging path must then
  // push the process peak measurably higher). Part 2 runs the full
  // file path — generate + save binary, mmap + streaming build, one
  // solve — at VALOCAL_RMAT_SCALE (default 24, 16M vertices).
  print_header("Graph substrate: RMAT streaming CSR vs staging build");
  Table gt({"path", "pairs", "ms", "Mpairs/s", "peak RSS MB", "ok"});
  {
    gen::RmatParams cmp;
    cmp.scale = 20;
    cmp.edge_factor = 16;
    cmp.seed = 42;
    const gen::RmatSource cmp_src(cmp);
    const double pairs = static_cast<double>(cmp_src.num_pairs());

    std::uint64_t stream_print = 0, staged_print = 0;
    std::size_t stream_edges = 0, staged_edges = 0;
    const double stream_ms = timed_ms([&] {
      const Graph g = Graph::from_source(cmp.num_vertices(), cmp_src, 1);
      stream_print = csr_fingerprint(g);
      stream_edges = g.num_edges();
    });
    const double stream_rss = peak_rss_mb();

    const double staged_ms = timed_ms([&] {
      GraphBuilder b(cmp.num_vertices());
      cmp_src.stream(1, [&](EdgeBlockSource::Block block) {
        for (std::size_t i = 0; i < block.size(); i += 2)
          if (block[i] != block[i + 1])
            b.add_edge(block[i], block[i + 1]);
      });
      const Graph g = std::move(b).build();
      staged_print = csr_fingerprint(g);
      staged_edges = g.num_edges();
    });
    const double staged_rss = peak_rss_mb();

    const bool same_csr =
        stream_print == staged_print && stream_edges == staged_edges;
    tracker.expect(same_csr,
                   "streaming vs staging CSR equivalence (rmat s20)");
    tracker.expect(stream_rss < staged_rss,
                   "streaming build peak RSS below the staging path");
    gt.add_row({"stream s20x16", Table::num(std::uint64_t(pairs)),
                Table::num(stream_ms, 0),
                Table::num(pairs / stream_ms / 1e3, 2),
                Table::num(stream_rss, 0), same_csr ? "yes" : "NO"});
    gt.add_row({"staging s20x16", Table::num(std::uint64_t(pairs)),
                Table::num(staged_ms, 0),
                Table::num(pairs / staged_ms / 1e3, 2),
                Table::num(staged_rss, 0),
                stream_rss < staged_rss ? "yes" : "NO"});
    json_rows().push_back({"graph_build", "rmat_s20x16_stream", 1, 1,
                           stream_ms, staged_ms / stream_ms, same_csr,
                           pairs / stream_ms * 1e3, stream_rss});
    json_rows().push_back({"graph_build", "rmat_s20x16_staging", 1, 1,
                           staged_ms, 1.0, same_csr,
                           pairs / staged_ms * 1e3, staged_rss});
  }
  {
    gen::RmatParams big;
    big.scale =
        static_cast<std::uint32_t>(env_count("VALOCAL_RMAT_SCALE", 24));
    big.edge_factor = env_count("VALOCAL_RMAT_EDGE_FACTOR", 16);
    big.seed = 1;
    const std::string tag = "rmat_s" + std::to_string(big.scale) + "x" +
                            std::to_string(big.edge_factor);
    const std::string label =
        "s" + std::to_string(big.scale) + "x" +
        std::to_string(big.edge_factor);
    const gen::RmatSource big_src(big);
    const double pairs = static_cast<double>(big_src.num_pairs());
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string path = std::string(tmpdir ? tmpdir : "/tmp") +
                             "/valocal_" + tag + ".bin";

    const double gen_ms = timed_ms([&] {
      save_edgelist_bin(path, big.num_vertices(), big_src);
    });
    gt.add_row({"gen+save " + label, Table::num(std::uint64_t(pairs)),
                Table::num(gen_ms, 0),
                Table::num(pairs / gen_ms / 1e3, 2),
                Table::num(peak_rss_mb(), 0), "yes"});
    json_rows().push_back({"graph_build", tag + "_gen_save", 1, 1,
                           gen_ms, 1.0, true, pairs / gen_ms * 1e3,
                           peak_rss_mb()});

    Graph g;
    const double build_ms =
        timed_ms([&] { g = load_graph_bin(path, 1); });
    std::remove(path.c_str());
    const double build_rss = peak_rss_mb();
    const GraphStats stats = compute_graph_stats(g);
    std::cout << "built " << tag << ": n=" << stats.n << " m=" << stats.m
              << " Delta=" << stats.max_degree
              << " avg-deg=" << stats.avg_degree
              << " arboricity>=" << stats.arboricity_estimate << "\n";
    gt.add_row({"mmap build " + label, Table::num(std::uint64_t(pairs)),
                Table::num(build_ms, 0),
                Table::num(pairs / build_ms / 1e3, 2),
                Table::num(build_rss, 0), "yes"});
    json_rows().push_back({"graph_build", tag + "_mmap_build", 1, 1,
                           build_ms, 1.0, true, pairs / build_ms * 1e3,
                           build_rss});

    // One solve end to end on the built instance: Luby MIS, validated.
    double solve_ms = 0.0;
    bool mis_ok = false;
    solve_ms = timed_ms([&] {
      const auto r = compute_luby_mis(g, 7);
      mis_ok = is_mis(g, r.in_set);
    });
    tracker.expect(mis_ok, "luby MIS validity on " + tag);
    gt.add_row({"luby_mis " + label,
                Table::num(static_cast<std::uint64_t>(stats.n)),
                Table::num(solve_ms, 0), "-",
                Table::num(peak_rss_mb(), 0), mis_ok ? "yes" : "NO"});
    json_rows().push_back({"graph_build", tag + "_luby_mis", 1, 1,
                           solve_ms, 1.0, mis_ok, 0.0, peak_rss_mb()});
  }
  gt.print(std::cout);

  std::cout << "\nDeterminism rows must all read 'yes' (byte-identical "
               "outputs, r(v), and n_i for every thread count). The "
               "speedup column tracks the host's real core count; on a "
               "single-core runner it stays ~1x by design.\n";
  return tracker.exit_code();
}

}  // namespace
}  // namespace valocal::bench

int main() {
  // This bench sweeps thread counts itself; hook the tracing opt-in
  // only, leaving the engine default untouched.
  valocal::bench::configure_tracing();
  const int rc = valocal::bench::run();
  valocal::bench::write_json_rows();
  return rc;
}
