// Mailbox engine: the explicit message-passing face of the LOCAL model.
// A test-only reference engine, serial and unoptimized: it cross-checks
// run_local (test_mailbox, test_trace, test_engine_contracts) and
// reports to no trace sink.
//
// run_local (network.hpp) models LOCAL communication as "publish your
// state to all neighbors" — the most general form under unbounded
// messages. This engine is the MPI-style dual: algorithms enqueue
// explicit typed messages on ports and receive an inbox the following
// round. Both engines implement the same model; mailbox algorithms can
// express message-frugal protocols, and the tests cross-validate
// Procedure Partition between the two (bit-identical H-partitions).
//
// Semantics mirror run_local: synchronous rounds, init may pre-send
// round-0 messages, messages sent in round r arrive in round r+1, a
// vertex that terminates in round r is charged r rounds and its final
// outbox IS delivered (the paper's "send the final output once").
//
// Algorithm interface:
//   struct MyAlgo {
//     struct State { ... };            // private (not visible)
//     struct Message { ... };          // what travels on edges
//     using Output = ...;
//     void init(Vertex, const Graph&, State&, Outbox<Message>&) const;
//     bool step(Vertex, std::size_t round, const Inbox<Message>&,
//               State&, Outbox<Message>&, Xoshiro256&) const;
//     Output output(Vertex, const State&) const;
//   };
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/metrics.hpp"
#include "util/assertx.hpp"
#include "util/rng.hpp"

namespace valocal {

/// Messages received this round: (port the message arrived on, payload).
template <class Message>
class Inbox {
 public:
  explicit Inbox(const std::vector<std::pair<std::uint32_t, Message>>*
                     messages)
      : messages_(messages) {}

  std::size_t size() const {
    return messages_ == nullptr ? 0 : messages_->size();
  }
  std::uint32_t port(std::size_t i) const { return (*messages_)[i].first; }
  const Message& message(std::size_t i) const {
    return (*messages_)[i].second;
  }

 private:
  const std::vector<std::pair<std::uint32_t, Message>>* messages_;
};

/// Staged outgoing messages, keyed by the sender's port index.
template <class Message>
class Outbox {
 public:
  explicit Outbox(std::size_t degree) : degree_(degree) {}

  void send(std::size_t port, Message msg) {
    VALOCAL_DCHECK(port < degree_, "send on a nonexistent port");
    staged_.emplace_back(static_cast<std::uint32_t>(port),
                         std::move(msg));
  }

  void broadcast(const Message& msg) {
    for (std::size_t p = 0; p < degree_; ++p) staged_.emplace_back(
        static_cast<std::uint32_t>(p), msg);
  }

  const std::vector<std::pair<std::uint32_t, Message>>& staged() const {
    return staged_;
  }

 private:
  std::size_t degree_;
  std::vector<std::pair<std::uint32_t, Message>> staged_;
};

template <class A>
struct MailboxRunResult {
  std::vector<typename A::Output> outputs;
  Metrics metrics;
  std::uint64_t messages_sent = 0;
};

/// Runs `algo` on `g` to completion. Like run_local, the engine
/// records per-round wall-clock in Metrics::round_wall_ns (size T);
/// messages_sent counts every routed message, init-round pre-sends
/// included.
template <class A>
MailboxRunResult<A> run_mailbox(const Graph& g, const A& algo,
                                std::uint64_t seed = 0x5eedULL,
                                std::size_t max_rounds = 0) {
  using State = typename A::State;
  using Message = typename A::Message;
  using Clock = std::chrono::steady_clock;
  const std::size_t n = g.num_vertices();

  MailboxRunResult<A> result;
  result.metrics.rounds.assign(n, 0);

  std::vector<State> state(n);
  // inbox[v] = messages delivered to v this round; pending[v] = messages
  // sent to v this round, delivered next round.
  std::vector<std::vector<std::pair<std::uint32_t, Message>>> inbox(n),
      pending(n);

  const EdgeIndex ports = g.edge_index();
  auto route = [&](Vertex v, const Outbox<Message>& out) {
    for (const auto& [port, msg] : out.staged()) {
      const Vertex u = g.neighbors(v)[port];
      pending[u].emplace_back(
          static_cast<std::uint32_t>(ports.neighbor_port(v, port)), msg);
      ++result.messages_sent;
    }
  };

  std::vector<Xoshiro256> rng;
  rng.reserve(n);
  for (Vertex v = 0; v < n; ++v) rng.push_back(vertex_rng(seed, v));

  std::vector<Vertex> active(n);
  for (Vertex v = 0; v < n; ++v) active[v] = v;
  for (Vertex v = 0; v < n; ++v) {
    Outbox<Message> out(g.degree(v));
    algo.init(v, g, state[v], out);
    route(v, out);
  }
  inbox.swap(pending);

  const std::size_t cap = max_rounds != 0 ? max_rounds : 64 * n + 100000;

  std::vector<Vertex> still_active;
  std::size_t round = 0;
  while (!active.empty()) {
    ++round;
    if (round > cap) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "round cap exceeded: round %llu with %llu vertices "
                    "still active (cap %llu) — non-terminating "
                    "mailbox run?",
                    static_cast<unsigned long long>(round),
                    static_cast<unsigned long long>(active.size()),
                    static_cast<unsigned long long>(cap));
      detail::contract_failure("invariant", "round <= cap", __FILE__,
                               __LINE__, msg);
    }
    result.metrics.active_per_round.push_back(active.size());
    // Wall-clock parity with run_local: one entry per round, so
    // total_wall_ns() / write_round_timings_csv see real numbers for
    // mailbox runs too.
    const auto round_start = Clock::now();

    still_active.clear();
    for (Vertex v : active) {
      Outbox<Message> out(g.degree(v));
      const Inbox<Message> in(&inbox[v]);
      const bool terminated =
          algo.step(v, round, in, state[v], out, rng[v]);
      route(v, out);
      if (terminated)
        result.metrics.rounds[v] = static_cast<std::uint32_t>(round);
      else
        still_active.push_back(v);
    }
    // This round's deliveries are consumed; next round's are pending.
    for (auto& box : inbox) box.clear();
    inbox.swap(pending);
    active.swap(still_active);

    result.metrics.round_wall_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - round_start)
            .count()));
  }

  // Same one-pass measure rollup as run_local: O(1) accessors plus
  // the edge-decay sequence, derived only from `rounds` + the graph.
  result.metrics.finalize(g);

  result.outputs.reserve(n);
  for (Vertex v = 0; v < n; ++v)
    result.outputs.push_back(algo.output(v, state[v]));
  return result;
}

}  // namespace valocal
