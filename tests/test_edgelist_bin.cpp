// Binary edge-list format: round-trip fidelity, byte-identity of the
// canonical save→load→save cycle, header/payload validation on
// corrupted files, the width-8 interchange path, and loud failure on
// unwritable targets (the satellite bugfix: a full disk must abort,
// not silently truncate).
#include "graph/edgelist_bin.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/rmat.hpp"
#include "stream_contract.hpp"

namespace valocal {
namespace {

std::string temp_path(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

/// A syntactically valid width-`width` file over `n` vertices.
std::string make_file(std::uint32_t width, std::uint64_t n,
                      const std::vector<std::uint64_t>& pairs) {
  std::string bytes;
  bytes.append(kEdgeListBinMagic, sizeof(kEdgeListBinMagic));
  const std::uint32_t version = kEdgeListBinVersion;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&width), 4);
  bytes.append(reinterpret_cast<const char*>(&n), 8);
  const std::uint64_t m = pairs.size() / 2;
  bytes.append(reinterpret_cast<const char*>(&m), 8);
  for (const std::uint64_t id : pairs) {
    if (width == 8) {
      bytes.append(reinterpret_cast<const char*>(&id), 8);
    } else {
      const std::uint32_t narrow = static_cast<std::uint32_t>(id);
      bytes.append(reinterpret_cast<const char*>(&narrow), 4);
    }
  }
  return bytes;
}

TEST(EdgelistBin, RoundTripPreservesTheGraph) {
  const Graph g = gen::forest_union(500, 3, 97);
  const std::string path = temp_path("valocal_test_roundtrip.bin");
  save_edgelist_bin(path, g);

  const BinEdgeList file(path);
  EXPECT_EQ(file.num_vertices(), g.num_vertices());
  EXPECT_EQ(file.num_pairs(), g.num_edges());
  EXPECT_EQ(file.id_width(), 4u);

  const Graph back = load_graph_bin(path);
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    EXPECT_TRUE(back.has_edge(g.edge_u(e), g.edge_v(e)));
  std::remove(path.c_str());
}

TEST(EdgelistBin, CanonicalSaveLoadSaveIsByteIdentical) {
  // Graphs built by the streaming path have canonical (lexicographic)
  // edge ids, so saving one is a fixed point: save -> load -> save
  // must reproduce the file byte for byte. This is what makes the
  // format safe as an exchange/caching layer — re-ingesting a file
  // and re-exporting it cannot drift.
  gen::RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = 5;
  const Graph g = gen::rmat(p);
  const std::string path1 = temp_path("valocal_test_fixpoint1.bin");
  const std::string path2 = temp_path("valocal_test_fixpoint2.bin");
  save_edgelist_bin(path1, g);
  save_edgelist_bin(path2, load_graph_bin(path1));
  EXPECT_EQ(slurp(path1), slurp(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(EdgelistBin, SourceSaveMatchesGraphLoad) {
  // Streaming a generator straight to disk and ingesting the file must
  // build the same graph as generating in memory.
  gen::RmatParams p;
  p.scale = 9;
  p.edge_factor = 8;
  p.seed = 11;
  const std::string path = temp_path("valocal_test_source_save.bin");
  save_edgelist_bin(path, p.num_vertices(), gen::RmatSource(p));
  const Graph from_file = load_graph_bin(path, /*num_threads=*/2);
  const Graph direct = gen::rmat(p);
  ASSERT_EQ(from_file.num_edges(), direct.num_edges());
  for (EdgeId e = 0; e < direct.num_edges(); ++e) {
    EXPECT_EQ(from_file.edge_u(e), direct.edge_u(e));
    EXPECT_EQ(from_file.edge_v(e), direct.edge_v(e));
  }
  std::remove(path.c_str());
}

TEST(EdgelistBin, EmptyGraphRoundTrips) {
  const std::string path = temp_path("valocal_test_empty.bin");
  save_edgelist_bin(path, Graph(3, {}));
  const Graph back = load_graph_bin(path);
  EXPECT_EQ(back.num_vertices(), 3u);
  EXPECT_EQ(back.num_edges(), 0u);
  std::remove(path.c_str());
}

TEST(EdgelistBin, Width8InterchangeConverts) {
  const std::string path = temp_path("valocal_test_width8.bin");
  dump(path, make_file(8, 4, {0, 1, 1, 2, 2, 3}));
  const BinEdgeList file(path);
  EXPECT_EQ(file.id_width(), 8u);
  const Graph g = load_graph_bin(path);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 3));
  std::remove(path.c_str());
}

TEST(EdgelistBin, StreamHandsBlocksOverSerially) {
  // Five blocks of pairs in both widths: the width-4 zero-copy path and
  // the width-8 path, whose conversion runs on four threads.
  const std::size_t num_pairs = 5 * EdgeBlockSource::kBlockPairs - 3;
  std::vector<std::uint64_t> pairs(2 * num_pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) pairs[i] = i % 1000;
  const std::string path = temp_path("valocal_test_serial.bin");
  for (const std::uint32_t width : {4u, 8u}) {
    SCOPED_TRACE(width);
    dump(path, make_file(width, 1000, pairs));
    const BinEdgeList file(path);
    ASSERT_EQ(file.id_width(), width);
    expect_serial_stream(file, 4);
  }
  std::remove(path.c_str());
}

TEST(EdgelistBin, RejectsCorruptedFiles) {
  const std::string path = temp_path("valocal_test_corrupt.bin");
  const std::string good = make_file(4, 4, {0, 1, 1, 2});

  dump(path, good.substr(0, 16));  // shorter than the header
  EXPECT_DEATH((void)BinEdgeList(path), "shorter than the 32-byte");

  dump(path, good.substr(0, good.size() - 4));  // truncated payload
  EXPECT_DEATH((void)BinEdgeList(path), "truncated or oversized");

  std::string bad = good;
  bad[0] = 'X';
  dump(path, bad);
  EXPECT_DEATH((void)BinEdgeList(path), "bad magic");

  bad = good;
  bad[8] = 99;  // version
  dump(path, bad);
  EXPECT_DEATH((void)BinEdgeList(path), "unsupported format version");

  bad = good;
  bad[12] = 3;  // width
  dump(path, bad);
  EXPECT_DEATH((void)BinEdgeList(path), "width must be 4 or 8");

  EXPECT_DEATH((void)BinEdgeList(temp_path("valocal_no_such_file.bin")),
               "cannot open");
  std::remove(path.c_str());
}

TEST(EdgelistBin, RejectsOutOfRangeIds) {
  // Width-4: the id fits 32 bits but exceeds n; caught by the
  // streaming build's range check (same check as the text loader).
  const std::string path = temp_path("valocal_test_range.bin");
  dump(path, make_file(4, 4, {0, 1, 5, 2}));
  EXPECT_DEATH((void)load_graph_bin(path), "out of range");

  // Width-8: a 64-bit id beyond n must die in the conversion, with
  // the width-8-specific message.
  dump(path, make_file(8, 4, {0, 1, std::uint64_t{1} << 40, 2}));
  EXPECT_DEATH((void)load_graph_bin(path), "width-8 pair");
  std::remove(path.c_str());
}

TEST(EdgelistBin, WriteFailureDiesLoudly) {
  // /dev/full: every flush fails with ENOSPC — the regression test for
  // the silent-truncation bug (saves used to return happily with a
  // partial file on a full disk).
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full unavailable";
  const Graph g = gen::ring(64);
  EXPECT_DEATH(save_edgelist_bin("/dev/full", g), "write failed");
  EXPECT_DEATH(save_edgelist_bin("/no/such/dir/out.bin", g), "cannot open");
}

}  // namespace
}  // namespace valocal
