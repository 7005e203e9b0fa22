// Trace-layer suite: the observability subsystem (src/trace/) must
// never perturb engine semantics, and its own semantic fields must obey
// the same determinism contract as the engines.
//
//   - Null observer: installing/uninstalling a sink leaves outputs and
//     Metrics byte-identical.
//   - Semantic run records (include_timing=false) are byte-identical
//     across every num_threads/grain combination.
//   - Per-phase charged counts partition the round-sum EXACTLY, for
//     every phase-annotated algorithm in the library.
//   - Emitted JSONL and Chrome-trace output is valid JSON (checked by a
//     self-contained recursive-descent parser, no dependencies).
//   - run_mailbox wall-clock parity and exact message accounting.
//   - ThreadPool worker-load counters total the processed indices.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "algo/coloring_a2.hpp"
#include "algo/coloring_a2logn.hpp"
#include "algo/coloring_ka.hpp"
#include "algo/coloring_ka2.hpp"
#include "algo/delta_plus1.hpp"
#include "algo/edge_coloring.hpp"
#include "algo/matching.hpp"
#include "algo/mis.hpp"
#include "algo/partition.hpp"
#include "graph/generators.hpp"
#include "sim/mailbox.hpp"
#include "sim/network.hpp"
#include "trace/collector.hpp"

namespace valocal {
namespace {

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON validator (syntax only). Good enough
// to catch unbalanced structure, bad escapes and trailing garbage in
// the emitters without adding a dependency.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (eof() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool string() {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (eof() || std::isxdigit(
                             static_cast<unsigned char>(text_[pos_])) == 0)
              return false;
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '+' || peek() == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      if (!value()) return false;
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }
  bool array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view text) {
  return JsonValidator(text).valid();
}

// ---------------------------------------------------------------------

/// Asserts the exact decomposition invariants of one collected run
/// against the engine-reported Metrics.
void expect_exact_decomposition(const trace::RunRecord& run,
                                const Metrics& metrics,
                                const std::string& label) {
  EXPECT_EQ(run.round_sum, metrics.round_sum()) << label;
  EXPECT_EQ(run.worst_case, metrics.worst_case()) << label;
  EXPECT_EQ(run.rounds.size(), metrics.active_per_round.size()) << label;

  std::uint64_t charged_total = 0;
  for (std::size_t i = 0; i < run.rounds.size(); ++i) {
    const trace::RoundSample& r = run.rounds[i];
    EXPECT_EQ(r.active, metrics.active_per_round[i]) << label;
    charged_total += r.charged;
    if (!run.phase_names.empty()) {
      ASSERT_EQ(r.phase_charged.size(), run.phase_names.size()) << label;
      std::size_t phase_sum = 0;
      for (std::size_t c : r.phase_charged) phase_sum += c;
      EXPECT_EQ(phase_sum, r.charged)
          << label << " round " << r.round
          << ": phase counts must partition the charged count";
    }
  }
  // The load-bearing identity: sum of per-round charged counts IS the
  // round-sum, even under kCommit semantics.
  EXPECT_EQ(charged_total, metrics.round_sum()) << label;

  std::uint64_t phase_round_sum = 0;
  for (const trace::PhaseStats& s :
       trace::TraceCollector::phase_breakdown(run))
    phase_round_sum += s.round_sum;
  EXPECT_EQ(phase_round_sum, metrics.round_sum())
      << label << ": phase breakdown must total round_sum()";
}

TEST(Trace, NullObserverLeavesRunsIdentical) {
  const Graph g = gen::forest_union(600, 2, 9);
  const PartitionParams params{.arboricity = 2};
  const ColoringA2LogNAlgo algo(g.num_vertices(), params);

  const auto plain = run_local(g, algo);
  trace::TraceCollector collector;
  {
    trace::ScopedSink sink(&collector);
    const auto traced = run_local(g, algo);
    EXPECT_EQ(traced.outputs, plain.outputs);
    EXPECT_EQ(traced.metrics.rounds, plain.metrics.rounds);
    EXPECT_EQ(traced.metrics.active_per_round,
              plain.metrics.active_per_round);
  }
  EXPECT_EQ(trace::sink(), nullptr);
  ASSERT_EQ(collector.runs().size(), 1u);
}

TEST(Trace, SemanticRecordsIdenticalAcrossThreadsAndGrains) {
  const Graph g = gen::forest_union(800, 3, 21);
  const PartitionParams params{.arboricity = 3};
  const ColoringA2LogNAlgo algo(g.num_vertices(), params);

  auto semantic_record = [&](std::size_t threads, std::size_t grain) {
    trace::TraceCollector collector;
    trace::ScopedSink sink(&collector);
    run_local(g, algo, {.num_threads = threads, .grain = grain});
    std::ostringstream os;
    collector.write_run_records_jsonl(os, /*include_timing=*/false);
    return os.str();
  };

  const std::string reference = semantic_record(1, 0);
  ASSERT_FALSE(reference.empty());
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t grain : {1u, 3u, 64u}) {
      EXPECT_EQ(semantic_record(threads, grain), reference)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

TEST(Trace, PhaseRoundSumsPartitionRoundSumAcrossAlgorithms) {
  const Graph g = gen::forest_union(500, 2, 5);
  const PartitionParams params{.arboricity = 2};

  trace::TraceCollector collector;
  trace::ScopedSink sink(&collector);
  std::vector<std::pair<std::string, Metrics>> expected;

  expected.emplace_back("a2logn",
                        compute_coloring_a2logn(g, params).metrics);
  expected.emplace_back("mis", compute_mis(g, params).metrics);
  expected.emplace_back("delta_plus1",
                        compute_delta_plus1(g, params).metrics);
  expected.emplace_back("edge_coloring",
                        compute_edge_coloring(g, params).metrics);
  expected.emplace_back("matching", compute_matching(g, params).metrics);
  expected.emplace_back("ka",
                        compute_coloring_ka(g, params, 2).metrics);
  expected.emplace_back("ka2",
                        compute_coloring_ka2(g, params, 2).metrics);
  expected.emplace_back("a2", compute_coloring_a2(g, params).metrics);
  expected.emplace_back("partition",
                        compute_h_partition(g, params).metrics);

  ASSERT_EQ(collector.runs().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const trace::RunRecord& run = collector.runs()[i];
    EXPECT_EQ(run.span, expected[i].first);
    EXPECT_FALSE(run.phase_names.empty()) << expected[i].first;
    expect_exact_decomposition(run, expected[i].second,
                               expected[i].first);
  }
}

TEST(Trace, SegmentedAlgorithmsNamePhasesPerSegment) {
  const ColoringKaAlgo algo(500, PartitionParams{.arboricity = 2}, 2);
  const auto phases = algo.trace_phases();
  ASSERT_EQ(phases.size(), 6u);  // 2 segments x {partition, plan, recolor}
  EXPECT_STREQ(phases[0], "seg2.partition");
  EXPECT_STREQ(phases[2], "seg2.recolor");
  EXPECT_STREQ(phases[3], "seg1.partition");
}

TEST(Trace, EmittedJsonIsValid) {
  const Graph g = gen::erdos_renyi(400, 4.0, 3);
  const PartitionParams params{.arboricity = 4};

  trace::TraceCollector collector;
  collector.set_context("algo", "mis");
  collector.set_context("quote\"key", "line\nbreak");
  {
    trace::ScopedSink sink(&collector);
    compute_mis(g, params);
    compute_delta_plus1(g, params);
  }

  std::ostringstream jsonl;
  collector.write_run_records_jsonl(jsonl);
  std::size_t lines = 0;
  std::istringstream in(jsonl.str());
  for (std::string line; std::getline(in, line);) {
    ++lines;
    EXPECT_TRUE(is_valid_json(line)) << "JSONL line " << lines;
  }
  EXPECT_EQ(lines, 2u);

  std::ostringstream semantic;
  collector.write_run_records_jsonl(semantic, /*include_timing=*/false);
  EXPECT_EQ(semantic.str().find("wall_ns"), std::string::npos);
  EXPECT_EQ(semantic.str().find("threads"), std::string::npos);

  std::ostringstream chrome;
  collector.write_chrome_trace(chrome);
  EXPECT_TRUE(is_valid_json(chrome.str()));
  EXPECT_NE(chrome.str().find("\"traceEvents\""), std::string::npos);
}

TEST(Trace, ValidatorRejectsMalformedJson) {
  EXPECT_TRUE(is_valid_json("{\"a\":[1,2,{\"b\":null}]}"));
  EXPECT_FALSE(is_valid_json("{\"a\":1,}"));
  EXPECT_FALSE(is_valid_json("{\"a\":1} trailing"));
  EXPECT_FALSE(is_valid_json("[1,2"));
  EXPECT_FALSE(is_valid_json("{\"a\" 1}"));
}

// --- Mailbox engine ---------------------------------------------------

/// Procedure Partition over explicit messages (mirrors test_mailbox).
struct MailboxPartition {
  PartitionParams params;

  struct State {
    std::size_t active_nbrs = 0;
    std::int32_t hset = 0;
  };
  struct Message {};
  using Output = std::int32_t;

  void init(Vertex v, const Graph& g, State& s, Outbox<Message>&) const {
    s.active_nbrs = g.degree(v);
  }

  bool step(Vertex, std::size_t round, const Inbox<Message>& in,
            State& s, Outbox<Message>& out, Xoshiro256&) const {
    s.active_nbrs -= in.size();
    if (s.active_nbrs <= params.threshold()) {
      s.hset = static_cast<std::int32_t>(round);
      out.broadcast({});
      return true;
    }
    return false;
  }

  Output output(Vertex, const State& s) const { return s.hset; }
};

TEST(Trace, MailboxRecordsRoundWallClock) {
  // Regression: run_mailbox used to leave round_wall_ns empty, so
  // total_wall_ns() reported 0 for every mailbox run.
  const Graph g = gen::forest_union(300, 2, 17);
  const auto r = run_mailbox(g, MailboxPartition{{.arboricity = 2}});
  EXPECT_EQ(r.metrics.round_wall_ns.size(),
            r.metrics.active_per_round.size());
  ASSERT_FALSE(r.metrics.round_wall_ns.empty());
}

TEST(Trace, MailboxMessageAccountingIsExact) {
  const Graph g = gen::forest_union(300, 2, 17);

  trace::TraceCollector collector;
  MailboxRunResult<MailboxPartition> result;
  {
    trace::ScopedSink sink(&collector);
    result = run_mailbox(g, MailboxPartition{{.arboricity = 2}});
  }
  ASSERT_EQ(collector.runs().size(), 1u);
  const trace::RunRecord& run = collector.runs().front();
  EXPECT_EQ(run.engine, "mailbox");
  EXPECT_EQ(run.messages, result.messages_sent);

  // Every vertex broadcasts exactly once (on termination), so the run
  // total is sum of degrees = 2m; per-round deltas must add up to it
  // (this algorithm pre-sends nothing in init).
  EXPECT_EQ(result.messages_sent, 2 * g.num_edges());
  std::uint64_t per_round = 0;
  for (const trace::RoundSample& r : run.rounds) {
    per_round += r.messages;
    EXPECT_EQ(r.volume_bytes,
              r.messages * sizeof(MailboxPartition::Message));
    EXPECT_EQ(r.charged, r.active);  // terminate-only engine
  }
  EXPECT_EQ(per_round, result.messages_sent);
  expect_exact_decomposition(run, result.metrics, "mailbox");
}

// --- Worker-load counters ---------------------------------------------

TEST(Trace, WorkerLoadCountersTotalTheProcessedIndices) {
  const Graph g = gen::erdos_renyi(900, 5.0, 29);
  const ColoringA2LogNAlgo algo(g.num_vertices(),
                                PartitionParams{.arboricity = 4});

  trace::TraceCollector collector;
  trace::ScopedSink sink(&collector);
  const auto run = run_local(g, algo, {.num_threads = 4, .grain = 32});

  ASSERT_EQ(collector.runs().size(), 1u);
  const trace::RunRecord& record = collector.runs().front();
  EXPECT_EQ(record.num_threads, 4u);
  ASSERT_FALSE(record.worker_indices.empty());

  // Every round chunks the whole vertex range (the awake-bitset walk),
  // so the workers' index counts total n per round.
  std::uint64_t indices = 0;
  for (std::uint64_t i : record.worker_indices) indices += i;
  EXPECT_EQ(indices,
            g.num_vertices() * run.metrics.active_per_round.size());
}

TEST(Trace, PhaseSpansNestIntoPaths) {
  trace::TraceCollector collector;
  trace::ScopedSink sink(&collector);
  const Graph g = gen::forest_union(200, 1, 3);
  {
    VALOCAL_TRACE_PHASE("outer");
    compute_h_partition(g, {.arboricity = 1});
  }
  ASSERT_EQ(collector.runs().size(), 1u);
  EXPECT_EQ(collector.runs().front().span, "outer/partition");
}

}  // namespace
}  // namespace valocal
