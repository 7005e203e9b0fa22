#include "graph/graph.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <utility>

#include <sys/mman.h>

#include "util/assertx.hpp"
#include "util/mathx.hpp"
#include "util/thread_pool.hpp"

namespace valocal {
namespace {

/// Fills incident_ (streaming build only), edge arrays (streaming
/// build only), and the reciprocal ports in one O(2m) sweep, given
/// sorted adjacency slices. Invariant it rides on: iterating u
/// ascending and u's slice ascending visits the edges {u, w} with
/// u < w in exactly the order the reverse slots appear in each w's
/// slice — neighbors below w are a sorted prefix of w's (sorted)
/// slice — so one cursor per vertex pairs every forward slot with its
/// reverse slot without per-edge lookup tables or binary searches.
template <class PerEdge>
void sweep_edge_slots(std::size_t n, const std::vector<std::size_t>& offsets,
                      std::span<const Vertex> adjacency,
                      std::vector<std::size_t>& cursor,
                      const PerEdge& per_edge) {
  std::copy_n(offsets.begin(), n, cursor.begin());
  for (Vertex u = 0; u < n; ++u)
    for (std::size_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const Vertex w = adjacency[i];
      if (w < u) continue;
      VALOCAL_DCHECK(w != u, "self-loop survived the build");
      per_edge(u, w, i, cursor[w]++);
    }
}

/// LSD radix sort of `keys` over ceil(32 / kBits) digits of kBits bits
/// (all 32 bits of a Vertex), ping-ponging through `scratch` (>=
/// keys.size()). One read pass fills every digit's histogram; a digit
/// on which all keys agree is skipped, so with 11-bit digits ids below
/// 2^22 cost two scatter passes.
template <unsigned kBits>
void radix_sort(std::span<Vertex> keys, Vertex* scratch) {
  constexpr unsigned kDigits = (32 + kBits - 1) / kBits;
  constexpr Vertex kMask = (Vertex{1} << kBits) - 1;
  std::array<std::array<std::uint32_t, kMask + 1>, kDigits> count{};
  for (const Vertex x : keys)
    for (unsigned d = 0; d < kDigits; ++d)
      ++count[d][(x >> (kBits * d)) & kMask];
  Vertex* from = keys.data();
  Vertex* to = scratch;
  for (unsigned d = 0; d < kDigits; ++d) {
    const unsigned shift = kBits * d;
    auto& bucket = count[d];
    if (bucket[(from[0] >> shift) & kMask] == keys.size()) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& b : bucket) sum += std::exchange(b, sum);
    for (std::size_t i = 0; i < keys.size(); ++i)
      to[bucket[(from[i] >> shift) & kMask]++] = from[i];
    std::swap(from, to);
  }
  if (from != keys.data()) std::copy_n(from, keys.size(), keys.data());
}

/// Sorts one adjacency slice by size tier: std::sort below 32 keys;
/// 8-bit digits up to 1023, where zeroing the 11-bit sort's 3 × 2048
/// histogram buckets would dominate; 11-bit digits (three passes at
/// most) from 1024. `scratch` grows to the longest radix slice.
void sort_slice(std::span<Vertex> slice, std::vector<Vertex>& scratch) {
  if (slice.size() < 32) {
    std::sort(slice.begin(), slice.end());
    return;
  }
  if (scratch.size() < slice.size()) scratch.resize(slice.size());
  if (slice.size() < 1024)
    radix_sort<8>(slice, scratch.data());
  else
    radix_sort<11>(slice, scratch.data());
}

// Pairs the streaming passes look ahead when they prefetch: a miss
// issued this far ahead has landed by the time its pair is reached.
// The scatter prefetches a pair's cursors twice this far ahead and its
// target slots (read through those cursors) this far ahead.
constexpr std::size_t kPrefetchPairs = 16;

/// Id `x` of a pair not yet range-checked, clamped into [0, n) so that
/// a prefetch address formed from it stays inside its array.
std::size_t clamp_id(Vertex x, std::size_t n) { return x < n ? x : 0; }

/// Advises transparent huge pages for the 2 MiB-aligned interior of
/// [p, p + bytes). The scatter's random stores then miss the TLB far
/// less often. Only advice: a no-op where huge pages are off.
void advise_huge_pages([[maybe_unused]] void* p,
                       [[maybe_unused]] std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  constexpr std::uintptr_t kHuge = std::uintptr_t{1} << 21;
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t begin = (lo + kHuge - 1) & ~(kHuge - 1);
  const std::uintptr_t end = (lo + bytes) & ~(kHuge - 1);
  if (begin < end)
    (void)::madvise(reinterpret_cast<void*>(begin), end - begin,
                    MADV_HUGEPAGE);
#endif
}

}  // namespace

void EdgeBlockSource::stream_ordered(std::size_t num_threads,
                                     std::size_t num_blocks,
                                     const FillFn& fill, const BlockFn& fn) {
  ThreadPool pool(num_threads);
  // Double-buffered batches: dispatch k fills batch k while its chunk 0
  // hands batch k-1 to fn, so one thread consumes, in block order, as
  // the others produce; it joins them once done. Several blocks per
  // thread keep the dynamic chunk claiming balanced.
  const std::size_t batch = 4 * pool.num_threads();
  std::array<std::vector<std::vector<Vertex>>, 2> buffers;
  for (auto& set : buffers) set.resize(std::min(batch, num_blocks));
  std::size_t ready = 0;  // blocks of batch k-1 not yet handed over
  for (std::size_t k = 0; ready > 0 || k * batch < num_blocks; ++k) {
    const std::size_t first = k * batch;
    const std::size_t count =
        first < num_blocks ? std::min(batch, num_blocks - first) : 0;
    auto& fill_set = buffers[k % 2];
    const auto& hand_set = buffers[(k + 1) % 2];
    pool.parallel_for_chunks(
        count + 1, 1, [&](std::size_t c, std::size_t, std::size_t) {
          if (c > 0) {
            fill(first + c - 1, fill_set[c - 1]);
            return;
          }
          for (std::size_t i = 0; i < ready; ++i)
            fn(Block(hand_set[i].data(), hand_set[i].size()));
        });
    ready = count;
  }
}

void SpanEdgeSource::stream(std::size_t /*num_threads*/,
                            const BlockFn& fn) const {
  for (std::size_t begin = 0; begin < pairs_.size();
       begin += 2 * kBlockPairs)
    fn(pairs_.subspan(begin, std::min(2 * kBlockPairs,
                                      pairs_.size() - begin)));
}

Graph Graph::from_source(std::size_t n, const EdgeBlockSource& src,
                         std::size_t num_threads) {
  VALOCAL_REQUIRE(n <= kMaxVertices,
                  "vertex count exceeds the 32-bit id limit "
                  "(see docs/GRAPHS.md)");
  Graph g;
  g.n_ = n;
  g.offsets_.assign(n + 1, 0);
  g.edge_tables_ = std::make_shared<LazyEdgeTables>();
  if (src.num_pairs() == 0) return g;

  // Pass 1: degree counting (duplicates counted, removed after the
  // per-slice sort; self-loops dropped). stream() hands blocks over
  // serially, so plain counters suffice. Duplicates count too, so a
  // hub can in principle wrap its 32-bit counter; that dies here. The
  // counters of the pair kPrefetchPairs ahead are prefetched.
  std::vector<Vertex> degree(n);
  Vertex* const deg = degree.data();
  src.stream(num_threads, [&](EdgeBlockSource::Block block) {
    VALOCAL_REQUIRE(block.size() % 2 == 0,
                    "edge source yielded a half pair");
    for (std::size_t i = 0; i < block.size(); i += 2) {
      if (const std::size_t j = i + 2 * kPrefetchPairs; j < block.size()) {
        __builtin_prefetch(deg + clamp_id(block[j], n), 1);
        __builtin_prefetch(deg + clamp_id(block[j + 1], n), 1);
      }
      const Vertex u = block[i], v = block[i + 1];
      VALOCAL_REQUIRE(u < n && v < n,
                      "edge endpoint out of range (vertex id >= n)");
      if (u == v) continue;
      ++degree[u];
      ++degree[v];
      VALOCAL_REQUIRE(degree[u] != 0 && degree[v] != 0,
                      "vertex degree count exceeds 2^32 - 1");
    }
  });
  for (std::size_t v = 0; v < n; ++v)
    g.offsets_[v + 1] = g.offsets_[v] + degree[v];
  const std::size_t slots = g.offsets_[n];

  // Pass 2: scatter each endpoint straight into its adjacency slice.
  // The bound check keeps a source that yields more endpoints than in
  // pass 1 from writing past its slice (or past the array); the sweep
  // after it catches one that yields fewer. Slot order within a slice
  // is block-order-dependent; the sort below canonicalizes it. Every
  // store lands behind a dependent cursor load at a random place, so
  // the array gets huge pages (before the scatter first touches it)
  // and the loop prefetches cursors and target slots ahead. The array
  // is not zero-filled: the scatter writes every slot, which the
  // cursor sweep after it proves.
  g.adjacency_.reserve(slots);
  advise_huge_pages(g.adjacency_.data(), slots * sizeof(Vertex));
  g.adjacency_.resize(slots);
  {
    struct Cursor {
      std::size_t next, end;
    };
    std::vector<Cursor> cursor(n);
    for (std::size_t v = 0; v < n; ++v)
      cursor[v] = {g.offsets_[v], g.offsets_[v + 1]};
    // A cursor never passes its end, so adj + next stays in the array.
    Cursor* const cur = cursor.data();
    Vertex* const adj = g.adjacency_.data();
    src.stream(num_threads, [&](EdgeBlockSource::Block block) {
      for (std::size_t i = 0; i < block.size(); i += 2) {
        if (const std::size_t j = i + 4 * kPrefetchPairs; j < block.size()) {
          __builtin_prefetch(cur + clamp_id(block[j], n), 1);
          __builtin_prefetch(cur + clamp_id(block[j + 1], n), 1);
        }
        if (const std::size_t j = i + 2 * kPrefetchPairs; j < block.size()) {
          __builtin_prefetch(adj + cur[clamp_id(block[j], n)].next, 1);
          __builtin_prefetch(adj + cur[clamp_id(block[j + 1], n)].next, 1);
        }
        const Vertex u = block[i], v = block[i + 1];
        VALOCAL_REQUIRE(u < n && v < n,
                        "edge source changed between passes");
        if (u == v) continue;
        Cursor& cu = cursor[u];
        Cursor& cv = cursor[v];
        VALOCAL_REQUIRE(cu.next < cu.end && cv.next < cv.end,
                        "edge source changed between passes");
        g.adjacency_[cu.next++] = v;
        g.adjacency_[cv.next++] = u;
      }
    });
    for (const Cursor& c : cursor)
      VALOCAL_REQUIRE(c.next == c.end, "edge source changed between passes");
  }

  // Sort + dedup every slice in place (parallel over vertex ranges;
  // slices are disjoint), by size tier (sort_slice) through one radix
  // scratch per chunk. The deduped degree lands in `degree`.
  {
    ThreadPool pool(num_threads);
    pool.parallel_for_chunks(
        n, 4096,
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
          std::vector<Vertex> scratch;
          for (std::size_t v = begin; v < end; ++v) {
            const std::span<Vertex> slice(
                g.adjacency_.data() + g.offsets_[v], degree[v]);
            sort_slice(slice, scratch);
            degree[v] = static_cast<Vertex>(
                std::unique(slice.begin(), slice.end()) - slice.begin());
          }
        });
  }

  // Compact the deduped slices to the front and rebuild offsets. A
  // duplicate pair shrinks both endpoint slices, so the slot count
  // stays even. The adjacency vector keeps its 2·pairs capacity —
  // that transient is the build's documented peak.
  std::size_t write = 0, old_lo = 0;
  std::size_t max_degree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t old_next = g.offsets_[v + 1];
    const std::size_t d = degree[v];
    if (write != old_lo)
      std::copy(g.adjacency_.begin() + static_cast<std::ptrdiff_t>(old_lo),
                g.adjacency_.begin() +
                    static_cast<std::ptrdiff_t>(old_lo + d),
                g.adjacency_.begin() + static_cast<std::ptrdiff_t>(write));
    write += d;
    old_lo = old_next;
    g.offsets_[v + 1] = write;
    max_degree = std::max(max_degree, d);
  }
  VALOCAL_ENSURE(write % 2 == 0, "odd adjacency slot count after dedup");
  const std::size_t m = write / 2;
  VALOCAL_REQUIRE(m <= kMaxEdges,
                  "edge count exceeds the 32-bit edge-id limit "
                  "(see docs/GRAPHS.md)");
  g.adjacency_.resize(write);
  g.max_degree_ = max_degree;
  g.m_ = m;
  return g;
}

Graph Graph::induced(const Graph& g, std::span<const Vertex> members) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint64_t> member((n + 63) / 64, 0);
  std::size_t slots = 0;  // the members' degree sum bounds G[S]'s
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Vertex v = members[i];
    VALOCAL_REQUIRE(v < n, "induced subgraph member out of range");
    VALOCAL_REQUIRE(i == 0 || members[i - 1] < v,
                    "induced subgraph members must be strictly increasing");
    member[v >> 6] |= std::uint64_t{1} << (v & 63);
    slots += g.degree(v);
  }
  std::vector<Vertex> rank(member.size());
  Vertex below_word = 0;
  for (std::size_t w = 0; w < member.size(); ++w) {
    rank[w] = below_word;
    below_word += popcount64(member[w]);
  }

  Graph h;
  h.n_ = members.size();
  h.offsets_.reserve(members.size() + 1);
  h.offsets_.push_back(0);
  h.adjacency_.resize(slots);
  h.edge_tables_ = std::make_shared<LazyEdgeTables>();
  // Branch-free gather (membership follows no pattern along a hub's
  // list, so a branch per neighbor mispredicts): every neighbor's new
  // id is written, and the cursor advances only past members.
  std::size_t end = 0;
  for (const Vertex v : members) {
    for (const Vertex u : g.neighbors(v)) {
      const std::uint64_t word = member[u >> 6];
      const std::uint64_t below = (std::uint64_t{1} << (u & 63)) - 1;
      h.adjacency_[end] = rank[u >> 6] + popcount64(word & below);
      end += (word >> (u & 63)) & 1;
    }
    h.max_degree_ = std::max(h.max_degree_, end - h.offsets_.back());
    h.offsets_.push_back(end);
  }
  h.adjacency_.resize(end);
  h.m_ = end / 2;
  return h;
}

const Graph::EdgeTables& Graph::build_edge_tables() const {
  static const EdgeTables kNoEdges;
  if (!edge_tables_) return kNoEdges;  // default-constructed graph
  LazyEdgeTables& lazy = *edge_tables_;
  const std::lock_guard lock(lazy.build);
  if (const EdgeTables* built = lazy.ready.load(std::memory_order_acquire))
    return *built;

  // Canonical edge ids — lexicographic by (u, v) — plus incident lists
  // and reciprocal ports, in one cursor sweep. Indexed stores into
  // presized arrays: push_back here cost a third of the sweep.
  EdgeTables& t = lazy.tables;
  t.edge_u.resize(m_);
  t.edge_v.resize(m_);
  t.incident.resize(2 * m_);
  t.mirror.resize(2 * m_);
  std::vector<std::size_t> cursor(n_);
  EdgeId next_edge = 0;
  sweep_edge_slots(
      n_, offsets_, adjacency_, cursor,
      [&](Vertex u, Vertex w, std::size_t fwd_slot, std::size_t rev_slot) {
        const EdgeId e = next_edge++;
        t.edge_u[e] = u;
        t.edge_v[e] = w;
        t.incident[fwd_slot] = e;
        t.incident[rev_slot] = e;
        t.mirror[fwd_slot] =
            static_cast<std::uint32_t>(rev_slot - offsets_[w]);
        t.mirror[rev_slot] =
            static_cast<std::uint32_t>(fwd_slot - offsets_[u]);
      });
  VALOCAL_ENSURE(next_edge == m_, "edge sweep missed slots");
  lazy.ready.store(&t, std::memory_order_release);
  return t;
}

Graph::Graph(std::size_t n, std::vector<std::pair<Vertex, Vertex>> edges)
    : n_(n), m_(edges.size()),
      edge_tables_(std::make_shared<LazyEdgeTables>()) {
  VALOCAL_REQUIRE(n <= kMaxVertices,
                  "vertex count exceeds the 32-bit id limit "
                  "(see docs/GRAPHS.md)");
  const std::size_t m = m_;
  VALOCAL_REQUIRE(m <= kMaxEdges,
                  "edge count exceeds the 32-bit edge-id limit "
                  "(see docs/GRAPHS.md)");
  // Input-order ids cannot be re-derived from the CSR, so this path
  // fills the edge tables now.
  EdgeTables& t = edge_tables_->tables;
  t.edge_u.reserve(m);
  t.edge_v.reserve(m);
  for (auto& [u, v] : edges) {
    VALOCAL_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
    VALOCAL_REQUIRE(u != v, "self-loops are not allowed");
    if (u > v) std::swap(u, v);
    t.edge_u.push_back(u);
    t.edge_v.push_back(v);
  }

  offsets_.assign(n_ + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++offsets_[t.edge_u[e] + 1];
    ++offsets_[t.edge_v[e] + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

  adjacency_.resize(2 * m);
  t.incident.resize(2 * m);
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    const Vertex u = t.edge_u[e], v = t.edge_v[e];
    adjacency_[cursor[u]] = v;
    t.incident[cursor[u]++] = static_cast<EdgeId>(e);
    adjacency_[cursor[v]] = u;
    t.incident[cursor[v]++] = static_cast<EdgeId>(e);
  }

  // Sort each adjacency slice (with its parallel incident slice) so
  // neighbors() is ordered and has_edge() can binary-search.
  std::vector<std::pair<Vertex, EdgeId>> slice;
  for (Vertex v = 0; v < n_; ++v) {
    const std::size_t lo = offsets_[v], hi = offsets_[v + 1];
    slice.clear();
    for (std::size_t i = lo; i < hi; ++i)
      slice.emplace_back(adjacency_[i], t.incident[i]);
    std::sort(slice.begin(), slice.end());
    VALOCAL_REQUIRE(
        std::adjacent_find(slice.begin(), slice.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }) == slice.end(),
        "duplicate edges are not allowed");
    for (std::size_t i = lo; i < hi; ++i) {
      adjacency_[i] = slice[i - lo].first;
      t.incident[i] = slice[i - lo].second;
    }
    max_degree_ = std::max(max_degree_, hi - lo);
  }

  // Reciprocal ports: for each adjacency slot, the position of the
  // same edge within the other endpoint's slice. The cursor sweep
  // (shared with the streaming build) derives both directions from
  // slice order alone — no per-edge slot tables, no extra passes.
  t.mirror.resize(2 * m);
  sweep_edge_slots(
      n_, offsets_, adjacency_, cursor,
      [&](Vertex u, Vertex w, std::size_t fwd_slot, std::size_t rev_slot) {
        t.mirror[fwd_slot] =
            static_cast<std::uint32_t>(rev_slot - offsets_[w]);
        t.mirror[rev_slot] =
            static_cast<std::uint32_t>(fwd_slot - offsets_[u]);
      });
  edge_tables_->ready.store(&t, std::memory_order_release);
}

std::size_t Graph::slot_of(Vertex v, Vertex w) const {
  const auto nbrs = neighbors(v);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  if (it == nbrs.end() || *it != w) return kNoSlot;
  return offsets_[v] + static_cast<std::size_t>(it - nbrs.begin());
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  VALOCAL_REQUIRE(u < n_ && v < n_, "vertex out of range");
  if (degree(u) > degree(v)) std::swap(u, v);
  return slot_of(u, v) != kNoSlot;
}

EdgeId Graph::find_edge(Vertex u, Vertex v) const {
  VALOCAL_REQUIRE(u < n_ && v < n_, "vertex out of range");
  if (degree(u) > degree(v)) std::swap(u, v);
  const std::size_t slot = slot_of(u, v);
  return slot == kNoSlot ? kInvalidEdge : edge_index().incident_[slot];
}

std::uint64_t GraphBuilder::key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

std::size_t GraphBuilder::probe(std::uint64_t k) const {
  // splitmix64's finalizer: the keys are structured (u << 32 | v), so
  // mix every bit into the low ones the mask keeps.
  std::uint64_t h = k;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(h) & mask;
  while (slots_[i] != k && slots_[i] != kEmptyKey) i = (i + 1) & mask;
  return i;
}

void GraphBuilder::grow() {
  const std::vector<std::uint64_t> old = std::exchange(
      slots_, std::vector<std::uint64_t>(
                  std::max<std::size_t>(16, 2 * slots_.size()), kEmptyKey));
  for (const std::uint64_t k : old)
    if (k != kEmptyKey) slots_[probe(k)] = k;
}

bool GraphBuilder::add_edge(Vertex u, Vertex v) {
  VALOCAL_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
  if (u == v) return false;
  if (2 * (edges_.size() + 1) > slots_.size()) grow();
  const std::uint64_t k = key(u, v);
  std::uint64_t& slot = slots_[probe(k)];
  if (slot == k) return false;
  slot = k;
  edges_.emplace_back(u, v);
  return true;
}

Graph GraphBuilder::build() && {
  return Graph(n_, std::move(edges_));
}

}  // namespace valocal
