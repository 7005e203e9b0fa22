#include "sim/metrics_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <ostream>
#include <vector>

namespace valocal {
namespace {

/// Integer CSV rows formatted with std::to_chars into a local block
/// and handed to the stream one os.write per block, not one formatted
/// insertion per field. The stream's flags and locale do not apply.
class IntCsvWriter {
 public:
  explicit IntCsvWriter(std::ostream& os) : os_(os) {}

  template <class... Ints>
  void row(Ints... fields) {
    if (kBlock - used_ < sizeof...(Ints) * kMaxField) flush();
    (field(static_cast<std::uint64_t>(fields)), ...);
    buf_[used_ - 1] = '\n';
  }

  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  // One page: a 32 KiB block wrote no faster and its stack pages
  // raised the process's peak RSS by about 0.1 MB.
  static constexpr std::size_t kBlock = 1 << 12;
  static constexpr std::size_t kMaxField = 21;  // 20 digits + separator

  void field(std::uint64_t x) {
    char* const end = std::to_chars(buf_.data() + used_,
                                    buf_.data() + kBlock, x).ptr;
    *end = ',';
    used_ = static_cast<std::size_t>(end - buf_.data()) + 1;
  }

  std::ostream& os_;
  std::array<char, kBlock> buf_;
  std::size_t used_ = 0;
};

}  // namespace

void write_decay_csv(std::ostream& os, const Metrics& metrics) {
  os << "round,active\n";
  IntCsvWriter csv(os);
  for (std::size_t i = 0; i < metrics.active_per_round.size(); ++i)
    csv.row(i + 1, metrics.active_per_round[i]);
  csv.flush();
}

void write_rounds_csv(std::ostream& os, const Metrics& metrics) {
  os << "vertex,rounds\n";
  IntCsvWriter csv(os);
  for (std::size_t v = 0; v < metrics.rounds.size(); ++v)
    csv.row(v, metrics.rounds[v]);
  csv.flush();
}

void write_rounds_histogram_csv(std::ostream& os,
                                const Metrics& metrics) {
  std::vector<std::size_t> histogram;
  for (auto r : metrics.rounds) {
    if (r >= histogram.size()) histogram.resize(r + 1, 0);
    ++histogram[r];
  }
  os << "rounds,count\n";
  // Bucket 0 included: dropping it silently broke the "counts sum to
  // n" invariant whenever a metrics object carried zero-round entries.
  IntCsvWriter csv(os);
  for (std::size_t r = 0; r < histogram.size(); ++r)
    if (histogram[r] > 0) csv.row(r, histogram[r]);
  csv.flush();
}

void write_round_timings_csv(std::ostream& os, const Metrics& metrics) {
  os << "round,active,awake,wall_ns\n";
  IntCsvWriter csv(os);
  for (std::size_t i = 0; i < metrics.active_per_round.size(); ++i) {
    const std::size_t active = metrics.active_per_round[i];
    const std::size_t parked = i < metrics.parked_per_round.size()
                                   ? metrics.parked_per_round[i]
                                   : 0;
    const std::uint64_t ns =
        i < metrics.round_wall_ns.size() ? metrics.round_wall_ns[i] : 0;
    csv.row(i + 1, active, active >= parked ? active - parked : 0, ns);
  }
  csv.flush();
}

void write_edge_decay_csv(std::ostream& os, const Metrics& metrics) {
  os << "round,active_edges\n";
  IntCsvWriter csv(os);
  for (std::size_t i = 0; i < metrics.edge_active_per_round.size(); ++i)
    csv.row(i + 1, metrics.edge_active_per_round[i]);
  csv.flush();
}

void write_measures_csv(std::ostream& os, const Metrics& metrics) {
  os << "measure,value\n";
  os << "round_sum," << metrics.round_sum() << '\n';
  os << "vertex_averaged," << metrics.vertex_averaged() << '\n';
  os << "edge_round_sum," << metrics.edge_round_sum() << '\n';
  os << "edge_averaged," << metrics.edge_averaged() << '\n';
  os << "worst_case," << metrics.worst_case() << '\n';
  os << "awake_sum," << metrics.awake_sum() << '\n';
}

}  // namespace valocal
