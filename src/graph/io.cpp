#include "graph/io.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/assertx.hpp"

namespace valocal {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_vertices() << ' ' << g.num_edges() << '\n';
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    os << ix.edge_u(e) << ' ' << ix.edge_v(e) << '\n';
  os.flush();
  VALOCAL_REQUIRE(os.good(),
                  "edge list: write failed (disk full or stream error)");
}

Graph read_edge_list(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  auto next_data_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      return true;
    }
    return false;
  };
  // Abort with the offending 1-based line number: a stale or
  // hand-edited file must point at its own bad row, not die deep in
  // the CSR build.
  auto require_line = [&](bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "valocal: edge list: %s at line %zu: %s\n", what,
                 line_no, line.c_str());
    VALOCAL_REQUIRE(ok, "edge list: malformed input (see message above)");
  };

  // A row holds exactly its fields: a third column (a weighted
  // "u v w" file) or any other trailing token is an error, not noise.
  auto fields_end = [](std::istringstream& row) {
    return (row >> std::ws).eof();
  };

  VALOCAL_REQUIRE(next_data_line(), "edge list: missing header");
  std::istringstream header(line);
  std::size_t n = 0, m = 0;
  require_line(header >> n >> m && fields_end(header), "malformed header");

  GraphBuilder builder(n);
  for (std::size_t i = 0; i < m; ++i) {
    VALOCAL_REQUIRE(next_data_line(), "edge list: truncated edge section");
    std::istringstream row(line);
    // Parse signed so "-1" is caught as a negative id instead of
    // silently wrapping around to 4294967295 via unsigned extraction.
    long long u = 0, v = 0;
    require_line(static_cast<bool>(row >> u >> v), "malformed edge line");
    require_line(fields_end(row), "trailing data on edge line");
    require_line(u >= 0 && v >= 0, "negative vertex id");
    require_line(static_cast<unsigned long long>(u) < n &&
                     static_cast<unsigned long long>(v) < n,
                 "vertex id out of range (id >= n)");
    require_line(builder.add_edge(static_cast<Vertex>(u),
                                  static_cast<Vertex>(v)),
                 "self-loop or duplicate edge");
  }
  require_line(!next_data_line(), "data after the last of the m edges");
  return std::move(builder).build();
}

void save_edge_list(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  VALOCAL_REQUIRE(os.good(), "cannot open file for writing");
  write_edge_list(os, g);
  os.close();
  VALOCAL_REQUIRE(os.good(), "edge list: close failed");
}

Graph load_edge_list(const std::string& path) {
  std::ifstream is(path);
  VALOCAL_REQUIRE(is.good(), "cannot open file for reading");
  return read_edge_list(is);
}

void write_dot(std::ostream& os, const Graph& g,
               const std::vector<int>* vertex_color) {
  static const char* kPalette[] = {"red",    "green",  "blue",
                                   "orange", "purple", "cyan",
                                   "magenta", "gold"};
  constexpr std::size_t kPaletteSize = 8;
  os << "graph valocal {\n";
  if (vertex_color != nullptr) {
    VALOCAL_REQUIRE(vertex_color->size() == g.num_vertices(),
                    "color vector size mismatch");
    for (Vertex v = 0; v < g.num_vertices(); ++v)
      os << "  " << v << " [style=filled, fillcolor="
         << kPalette[static_cast<std::size_t>((*vertex_color)[v]) %
                     kPaletteSize]
         << ", label=\"" << v << ':' << (*vertex_color)[v] << "\"];\n";
  }
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    os << "  " << ix.edge_u(e) << " -- " << ix.edge_v(e) << ";\n";
  os << "}\n";
}

}  // namespace valocal
