#include "graph/edgelist_bin.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/assertx.hpp"

namespace valocal {
namespace {

struct BinHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t width;
  std::uint64_t n;
  std::uint64_t m;
};
static_assert(sizeof(BinHeader) == 32, "header must pack to 32 bytes");

void write_header(std::ostream& os, std::uint64_t n, std::uint64_t m) {
  BinHeader h{};
  std::memcpy(h.magic, kEdgeListBinMagic, sizeof(h.magic));
  h.version = kEdgeListBinVersion;
  h.width = sizeof(Vertex);
  h.n = n;
  h.m = m;
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));
}

void finish_write(std::ofstream& os, const std::string& path) {
  os.flush();
  VALOCAL_REQUIRE(os.good(),
                  "binary edge list: write failed (disk full or stream "
                  "error)");
  os.close();
  VALOCAL_REQUIRE(os.good(), "binary edge list: close failed");
  (void)path;
}

}  // namespace

void save_edgelist_bin(const std::string& path, const Graph& g) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VALOCAL_REQUIRE(os.good(), "cannot open file for writing");
  write_header(os, g.num_vertices(), g.num_edges());
  // Chunked pair buffer so a scale-28 save never stages all edges.
  constexpr std::size_t kChunkPairs = std::size_t{1} << 16;
  std::vector<Vertex> buffer;
  buffer.reserve(2 * kChunkPairs);
  const EdgeIndex ix = g.edge_index();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    buffer.push_back(ix.edge_u(e));
    buffer.push_back(ix.edge_v(e));
    if (buffer.size() == 2 * kChunkPairs) {
      os.write(reinterpret_cast<const char*>(buffer.data()),
               static_cast<std::streamsize>(buffer.size() * sizeof(Vertex)));
      buffer.clear();
    }
  }
  if (!buffer.empty())
    os.write(reinterpret_cast<const char*>(buffer.data()),
             static_cast<std::streamsize>(buffer.size() * sizeof(Vertex)));
  finish_write(os, path);
}

void save_edgelist_bin(const std::string& path, std::size_t n,
                       const EdgeBlockSource& src) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  VALOCAL_REQUIRE(os.good(), "cannot open file for writing");
  write_header(os, n, src.num_pairs());
  std::uint64_t written = 0;
  src.stream(1, [&](EdgeBlockSource::Block block) {
    os.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(block.size() * sizeof(Vertex)));
    written += block.size() / 2;
  });
  VALOCAL_ENSURE(written == src.num_pairs(),
                 "edge source yielded a different pair count than "
                 "advertised");
  finish_write(os, path);
}

BinEdgeList::BinEdgeList(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  VALOCAL_REQUIRE(fd >= 0, "cannot open binary edge list for reading");
  struct stat st{};
  VALOCAL_REQUIRE(::fstat(fd, &st) == 0, "cannot stat binary edge list");
  map_len_ = static_cast<std::size_t>(st.st_size);
  VALOCAL_REQUIRE(map_len_ >= sizeof(BinHeader),
                  "binary edge list: file shorter than the 32-byte "
                  "header");
  map_ = ::mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  VALOCAL_REQUIRE(map_ != MAP_FAILED, "mmap of binary edge list failed");

  BinHeader h{};
  std::memcpy(&h, map_, sizeof(h));
  VALOCAL_REQUIRE(
      std::memcmp(h.magic, kEdgeListBinMagic, sizeof(h.magic)) == 0,
      "binary edge list: bad magic (not a VALOCELB file)");
  VALOCAL_REQUIRE(h.version == kEdgeListBinVersion,
                  "binary edge list: unsupported format version");
  VALOCAL_REQUIRE(h.width == 4 || h.width == 8,
                  "binary edge list: id width must be 4 or 8 bytes");
  VALOCAL_REQUIRE(h.n <= kMaxVertices,
                  "binary edge list: vertex count exceeds the 32-bit "
                  "id limit (see docs/GRAPHS.md)");
  const std::uint64_t payload = h.m * 2 * h.width;
  VALOCAL_REQUIRE(payload / (2 * h.width) == h.m &&
                      map_len_ == sizeof(BinHeader) + payload,
                  "binary edge list: truncated or oversized pair "
                  "section (file size != header + m pairs)");
  n_ = static_cast<std::size_t>(h.n);
  m_ = h.m;
  width_ = h.width;
  data_ = static_cast<const unsigned char*>(map_) + sizeof(BinHeader);
}

BinEdgeList::~BinEdgeList() {
  if (map_ != nullptr && map_ != MAP_FAILED) ::munmap(map_, map_len_);
}

void BinEdgeList::stream(std::size_t num_threads, const BlockFn& fn) const {
  if (width_ == sizeof(Vertex)) {
    // Zero-copy: the mapped pair section IS the block data. The data
    // offset (32) keeps 4-byte alignment off the page-aligned base.
    const Vertex* pairs = reinterpret_cast<const Vertex*>(data_);
    for (std::uint64_t begin = 0; begin < m_; begin += kBlockPairs)
      fn(Block(pairs + 2 * begin,
               2 * std::min<std::uint64_t>(kBlockPairs, m_ - begin)));
    return;
  }
  // Width-8 interchange files: convert per block (in parallel), checking
  // every id against the 32-bit limit and n.
  stream_ordered(
      num_threads,
      static_cast<std::size_t>((m_ + kBlockPairs - 1) / kBlockPairs),
      [&](std::size_t block, std::vector<Vertex>& buffer) {
        const std::uint64_t begin = block * kBlockPairs;
        const std::uint64_t count =
            std::min<std::uint64_t>(kBlockPairs, m_ - begin);
        buffer.resize(2 * count);
        for (std::uint64_t i = 0; i < 2 * count; ++i) {
          std::uint64_t wide;
          std::memcpy(&wide, data_ + (2 * begin + i) * 8, 8);
          VALOCAL_REQUIRE(wide < n_,
                          "binary edge list: vertex id out of range "
                          "(id >= n) in a width-8 pair");
          buffer[i] = static_cast<Vertex>(wide);
        }
      },
      fn);
}

Graph load_graph_bin(const std::string& path, std::size_t num_threads) {
  const BinEdgeList file(path);
  return Graph::from_source(file.num_vertices(), file, num_threads);
}

}  // namespace valocal
