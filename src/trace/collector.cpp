#include "trace/collector.hpp"

#include <chrono>
#include <cstdio>
#include <ostream>

#include "util/table.hpp"

namespace valocal::trace {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Shortest round-trippable decimal: identical input -> identical text,
/// which the semantic-determinism tests rely on.
std::string json_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

TraceCollector::TraceCollector() {
  epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double TraceCollector::now_us() const {
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return static_cast<double>(ns - epoch_ns_) / 1000.0;
}

std::string TraceCollector::span_path() const {
  std::string path;
  for (const auto& s : open_spans_) {
    if (!path.empty()) path += '/';
    path += s;
  }
  return path;
}

void TraceCollector::set_context(const std::string& key,
                                 const std::string& value) {
  for (auto& [k, v] : context_)
    if (k == key) {
      v = value;
      return;
    }
  context_.emplace_back(key, value);
}

void TraceCollector::on_run_begin(const RunInfo& info,
                                  std::span<const char* const> phases) {
  RunRecord run;
  run.engine = info.engine;
  run.span = span_path();
  run.num_vertices = info.num_vertices;
  run.num_edges = info.num_edges;
  run.num_threads = info.num_threads;
  run.state_bytes = info.state_bytes;
  run.seed = info.seed;
  run.phase_names.assign(phases.begin(), phases.end());
  run.begin_us = now_us();
  runs_.push_back(std::move(run));
  run_open_ = true;
}

void TraceCollector::on_round(const RoundEvent& event) {
  if (!run_open_) return;
  RoundSample sample;
  sample.round = event.round;
  sample.active = event.active;
  sample.asleep = event.asleep;
  sample.charged = event.charged;
  sample.committed = event.committed;
  sample.terminated = event.terminated;
  sample.volume_bytes = event.volume_bytes;
  sample.messages = event.messages;
  sample.wall_ns = event.wall_ns;
  sample.phase_charged.assign(event.phase_charged.begin(),
                              event.phase_charged.end());
  runs_.back().rounds.push_back(std::move(sample));
}

void TraceCollector::on_run_end(const RunEndEvent& event) {
  if (!run_open_) return;
  RunRecord& run = runs_.back();
  run.round_sum = event.round_sum;
  run.worst_case = event.worst_case;
  run.edge_round_sum = event.edge_round_sum;
  run.wall_ns = event.wall_ns;
  run.messages = event.messages;
  run.skipped_steps = event.skipped_steps;
  run.worker_chunks.clear();
  run.worker_indices.clear();
  for (const auto& load : event.worker_load) {
    run.worker_chunks.push_back(load.chunks);
    run.worker_indices.push_back(load.indices);
  }
  run_open_ = false;
}

void TraceCollector::on_phase_begin(const char* name) {
  open_spans_.emplace_back(name);
  open_span_begin_us_.push_back(now_us());
}

void TraceCollector::on_phase_end(const char* /*name*/) {
  if (open_spans_.empty()) return;
  closed_spans_.push_back(SpanSample{span_path(),
                                     open_span_begin_us_.back(),
                                     now_us()});
  open_spans_.pop_back();
  open_span_begin_us_.pop_back();
}

std::vector<PhaseStats> TraceCollector::phase_breakdown(
    const RunRecord& run) {
  const double n =
      run.num_vertices > 0 ? static_cast<double>(run.num_vertices) : 1.0;
  std::vector<PhaseStats> stats;
  if (run.phase_names.empty()) {
    PhaseStats s;
    s.name = run.span.empty() ? "(run)" : run.span;
    for (const auto& r : run.rounds) {
      if (r.charged > 0) ++s.rounds;
      s.round_sum += r.charged;
      s.wall_ns += static_cast<double>(r.wall_ns);
    }
    s.vertex_avg = static_cast<double>(s.round_sum) / n;
    s.worst_case = run.worst_case;
    stats.push_back(std::move(s));
    return stats;
  }
  stats.resize(run.phase_names.size());
  for (std::size_t p = 0; p < run.phase_names.size(); ++p)
    stats[p].name = run.phase_names[p];
  for (const auto& r : run.rounds) {
    for (std::size_t p = 0; p < stats.size(); ++p) {
      const std::size_t c =
          p < r.phase_charged.size() ? r.phase_charged[p] : 0;
      if (c == 0) continue;
      ++stats[p].rounds;
      stats[p].round_sum += c;
      // Wall-clock split by charged share: rounds interleave phases,
      // so exact per-phase timing does not exist; the shares sum to
      // the round's wall and never mis-order dominant phases.
      if (r.charged > 0)
        stats[p].wall_ns += static_cast<double>(r.wall_ns) *
                            static_cast<double>(c) /
                            static_cast<double>(r.charged);
    }
  }
  for (auto& s : stats) {
    s.vertex_avg = static_cast<double>(s.round_sum) / n;
    s.worst_case = s.rounds;
  }
  return stats;
}

void TraceCollector::print_phase_table(std::ostream& os) const {
  for (const RunRecord& run : runs_) {
    std::uint64_t volume = 0;
    for (const auto& r : run.rounds) volume += r.volume_bytes;
    os << "trace: " << (run.span.empty() ? run.engine : run.span)
       << " — engine=" << run.engine << " n=" << run.num_vertices
       << " m=" << run.num_edges << " threads=" << run.num_threads;
    os << " rounds=" << run.rounds.size() << "\n";
    Table table({"phase", "rounds", "round-sum", "vertex-avg",
                 "worst-case", "wall-ms"});
    for (const PhaseStats& s : phase_breakdown(run)) {
      table.add_row({s.name, Table::num(static_cast<int>(s.rounds)),
                     Table::num(static_cast<std::uint64_t>(s.round_sum)),
                     Table::num(s.vertex_avg, 4),
                     Table::num(static_cast<int>(s.worst_case)),
                     Table::num(s.wall_ns / 1e6, 3)});
    }
    const double n = run.num_vertices > 0
                         ? static_cast<double>(run.num_vertices)
                         : 1.0;
    table.add_row(
        {"TOTAL", Table::num(static_cast<int>(run.rounds.size())),
         Table::num(run.round_sum),
         Table::num(static_cast<double>(run.round_sum) / n, 4),
         Table::num(static_cast<int>(run.worst_case)),
         Table::num(static_cast<double>(run.wall_ns) / 1e6, 3)});
    table.print(os);
    os << "volume: " << volume << " bytes published";
    if (run.messages > 0) os << ", " << run.messages << " messages";
    if (run.skipped_steps > 0)
      os << "; wake scheduling skipped " << run.skipped_steps
         << " sleeping vertex-rounds";
    os << "\n\n";
  }
}

void TraceCollector::write_run_records_jsonl(std::ostream& os,
                                             bool include_timing) const {
  for (const RunRecord& run : runs_) {
    std::uint64_t volume = 0;
    std::uint64_t round_messages = 0;
    for (const auto& r : run.rounds) {
      volume += r.volume_bytes;
      round_messages += r.messages;
    }
    os << "{\"engine\":\"" << json_escape(run.engine) << "\"";
    os << ",\"span\":\"" << json_escape(run.span) << "\"";
    os << ",\"n\":" << run.num_vertices << ",\"m\":" << run.num_edges;
    os << ",\"state_bytes\":" << run.state_bytes;
    os << ",\"seed\":" << run.seed;
    if (include_timing) os << ",\"threads\":" << run.num_threads;
    if (!context_.empty()) {
      os << ",\"context\":{";
      bool first = true;
      for (const auto& [k, v] : context_) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
      }
      os << '}';
    }
    os << ",\"phases\":[";
    bool first_phase = true;
    for (const PhaseStats& s : phase_breakdown(run)) {
      if (!first_phase) os << ',';
      first_phase = false;
      os << "{\"name\":\"" << json_escape(s.name) << "\""
         << ",\"rounds\":" << s.rounds
         << ",\"round_sum\":" << s.round_sum
         << ",\"vertex_avg\":" << json_num(s.vertex_avg)
         << ",\"worst_case\":" << s.worst_case;
      if (include_timing) os << ",\"wall_ns\":" << json_num(s.wall_ns);
      os << '}';
    }
    os << "],\"totals\":{\"rounds\":" << run.rounds.size()
       << ",\"round_sum\":" << run.round_sum << ",\"vertex_avg\":"
       << json_num(run.num_vertices > 0
                       ? static_cast<double>(run.round_sum) /
                             static_cast<double>(run.num_vertices)
                       : 0.0)
       << ",\"worst_case\":" << run.worst_case
       << ",\"volume_bytes\":" << volume
       << ",\"messages\":" << run.messages;
    // Edge-averaged totals (BGKO'22 max-endpoint convention): emitted
    // only when the producer actually summarized edge costs, so
    // hand-built records keep their historical byte layout.
    if (run.edge_round_sum > 0)
      os << ",\"edge_round_sum\":" << run.edge_round_sum
         << ",\"edge_avg\":"
         << json_num(run.num_edges > 0
                         ? static_cast<double>(run.edge_round_sum) /
                               static_cast<double>(run.num_edges)
                         : 0.0);
    // Emitted only when wake scheduling actually skipped work, so
    // unhinted and no-parking records keep their byte layout.
    if (run.skipped_steps > 0)
      os << ",\"skipped_steps\":" << run.skipped_steps;
    if (include_timing) os << ",\"wall_ns\":" << run.wall_ns;
    os << "},\"rounds\":[";
    bool first_round = true;
    for (const RoundSample& r : run.rounds) {
      if (!first_round) os << ',';
      first_round = false;
      os << "{\"round\":" << r.round << ",\"active\":" << r.active;
      if (r.asleep > 0) os << ",\"asleep\":" << r.asleep;
      os << ",\"charged\":" << r.charged
         << ",\"committed\":" << r.committed
         << ",\"terminated\":" << r.terminated
         << ",\"volume_bytes\":" << r.volume_bytes;
      if (r.messages > 0 || round_messages > 0)
        os << ",\"messages\":" << r.messages;
      if (include_timing) os << ",\"wall_ns\":" << r.wall_ns;
      if (!r.phase_charged.empty()) {
        os << ",\"phase_charged\":[";
        for (std::size_t p = 0; p < r.phase_charged.size(); ++p) {
          if (p > 0) os << ',';
          os << r.phase_charged[p];
        }
        os << ']';
      }
      os << '}';
    }
    os << ']';
    if (include_timing && !run.worker_chunks.empty()) {
      os << ",\"workers\":{\"chunks\":[";
      for (std::size_t i = 0; i < run.worker_chunks.size(); ++i) {
        if (i > 0) os << ',';
        os << run.worker_chunks[i];
      }
      os << "],\"indices\":[";
      for (std::size_t i = 0; i < run.worker_indices.size(); ++i) {
        if (i > 0) os << ',';
        os << run.worker_indices[i];
      }
      os << "]}";
    }
    os << "}\n";
  }
}

void TraceCollector::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& body) {
    if (!first) os << ',';
    first = false;
    os << '{' << body << '}';
  };
  for (const SpanSample& span : closed_spans_) {
    emit("\"name\":\"" + json_escape(span.path) +
         "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":" +
         json_num(span.begin_us) +
         ",\"dur\":" + json_num(span.end_us - span.begin_us) +
         ",\"pid\":1,\"tid\":1");
  }
  for (const RunRecord& run : runs_) {
    const std::string label =
        run.span.empty() ? std::string(run.engine) : run.span;
    emit("\"name\":\"run:" + json_escape(label) +
         "\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":" +
         json_num(run.begin_us) +
         ",\"dur\":" + json_num(static_cast<double>(run.wall_ns) / 1e3) +
         ",\"pid\":1,\"tid\":2,\"args\":{\"n\":" +
         std::to_string(run.num_vertices) +
         ",\"round_sum\":" + std::to_string(run.round_sum) + "}");
    double ts = run.begin_us;
    for (const RoundSample& r : run.rounds) {
      const double dur = static_cast<double>(r.wall_ns) / 1e3;
      std::string args = "\"active\":" + std::to_string(r.active) +
                         ",\"charged\":" + std::to_string(r.charged) +
                         ",\"committed\":" + std::to_string(r.committed) +
                         ",\"volume_bytes\":" +
                         std::to_string(r.volume_bytes);
      if (r.messages > 0)
        args += ",\"messages\":" + std::to_string(r.messages);
      emit("\"name\":\"round " + std::to_string(r.round) +
           "\",\"cat\":\"round\",\"ph\":\"X\",\"ts\":" + json_num(ts) +
           ",\"dur\":" + json_num(dur) +
           ",\"pid\":1,\"tid\":3,\"args\":{" + args + "}");
      emit("\"name\":\"active\",\"ph\":\"C\",\"ts\":" + json_num(ts) +
           ",\"pid\":1,\"args\":{\"active\":" +
           std::to_string(r.active) + "}");
      ts += dur;
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace valocal::trace
