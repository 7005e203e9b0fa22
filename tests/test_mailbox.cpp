#include "mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/partition.hpp"
#include "graph/generators.hpp"
#include "trace/trace.hpp"
#include "validate/validate.hpp"

namespace valocal {
namespace {

// Procedure Partition expressed with explicit messages: a vertex tracks
// its active-neighbor count, decrements it on every received "joined"
// announcement, and broadcasts its own announcement exactly once when
// it joins — 2m messages in total for the whole execution.
struct MailboxPartition {
  PartitionParams params;

  struct State {
    std::size_t active_nbrs = 0;
    std::int32_t hset = 0;
  };
  struct Message {};  // the payload IS the announcement
  using Output = std::int32_t;

  void init(Vertex v, const Graph& g, State& s,
            Outbox<Message>&) const {
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

TEST(Mailbox, PartitionMatchesPublishEngineExactly) {
  for (std::size_t a : {1u, 2u, 4u}) {
    const Graph g = gen::forest_union(500, a, 127);
    const PartitionParams params{.arboricity = a};
    const auto publish = compute_h_partition(g, params);
    const auto mailbox = run_mailbox(g, MailboxPartition{params});
    EXPECT_EQ(publish.hset, mailbox.outputs) << "a=" << a;
    EXPECT_EQ(publish.metrics.rounds, mailbox.metrics.rounds);
    EXPECT_EQ(publish.metrics.active_per_round,
              mailbox.metrics.active_per_round);
  }
}

TEST(Mailbox, PartitionSendsExactlyTwoMPerRun) {
  const Graph g = gen::forest_union(400, 3, 131);
  const auto result =
      run_mailbox(g, MailboxPartition{{.arboricity = 3}});
  EXPECT_EQ(result.messages_sent, 2 * g.num_edges());
}

// Flood-max with explicit messages, sending only on IMPROVEMENT — the
// message-frugal pattern the mailbox engine exists for.
struct MailboxFloodMax {
  std::size_t horizon;

  struct State {
    Vertex best = 0;
  };
  struct Message {
    Vertex value = 0;
  };
  using Output = Vertex;

  void init(Vertex v, const Graph&, State& s,
            Outbox<Message>& out) const {
    s.best = v;
    out.broadcast({v});
  }

  bool step(Vertex, std::size_t round, const Inbox<Message>& in,
            State& s, Outbox<Message>& out, Xoshiro256&) const {
    Vertex incoming = s.best;
    for (std::size_t i = 0; i < in.size(); ++i)
      incoming = std::max(incoming, in.message(i).value);
    if (incoming > s.best) {
      s.best = incoming;
      out.broadcast({incoming});
    }
    return round >= horizon;
  }

  Output output(Vertex, const State& s) const { return s.best; }
};

TEST(Mailbox, FloodMaxConvergesWithFewMessages) {
  const std::size_t n = 64;
  const Graph g = gen::ring(n);
  const auto result = run_mailbox(g, MailboxFloodMax{n});
  for (Vertex v = 0; v < n; ++v) EXPECT_EQ(result.outputs[v], n - 1);
  // Improvement-only flooding: well below the naive 2 messages per
  // vertex per round (= 2 * n * horizon = 8192 here).
  EXPECT_LT(result.messages_sent, n * n);
}

TEST(Mailbox, PortsAreReciprocal) {
  // A message sent on my port p to neighbor u must arrive tagged with
  // u's port of the shared edge.
  struct Echo {
    struct State {
      std::uint32_t heard_port = 9999;
      Vertex heard_from = kInvalidVertex;
    };
    struct Message {
      Vertex sender = kInvalidVertex;
    };
    using Output = std::uint32_t;
    void init(Vertex v, const Graph&, State&, Outbox<Message>& out) const {
      if (v == 0) out.send(0, {0});
    }
    bool step(Vertex, std::size_t, const Inbox<Message>& in, State& s,
              Outbox<Message>&, Xoshiro256&) const {
      if (in.size() > 0) {
        s.heard_port = in.port(0);
        s.heard_from = in.message(0).sender;
      }
      return true;
    }
    Output output(Vertex, const State& s) const { return s.heard_port; }
  };

  const Graph g(3, {{0, 1}, {1, 2}});
  const auto result = run_mailbox(g, Echo{});
  // Vertex 0's port 0 is its edge to 1; at vertex 1 that edge sits at
  // port 0 (neighbors sorted: 0 then 2).
  EXPECT_EQ(result.outputs[1], 0u);
  EXPECT_EQ(result.outputs[0], 9999u);
  EXPECT_EQ(result.outputs[2], 9999u);
}

TEST(Mailbox, FinalOutboxIsDelivered) {
  // Vertex 0 terminates in round 1 while sending; vertex 1 must still
  // receive the message in round 2 (the paper's "final output sent
  // once" semantics).
  struct FinalSend {
    struct State {
      bool got = false;
    };
    struct Message {};
    using Output = bool;
    void init(Vertex, const Graph&, State&, Outbox<Message>&) const {}
    bool step(Vertex v, std::size_t round, const Inbox<Message>& in,
              State& s, Outbox<Message>& out, Xoshiro256&) const {
      if (v == 0) {
        out.broadcast({});
        return true;  // terminate while sending
      }
      if (in.size() > 0) {
        s.got = true;
        return true;
      }
      return round > 5;
    }
    Output output(Vertex, const State& s) const { return s.got; }
  };
  const Graph g(2, {{0, 1}});
  const auto result = run_mailbox(g, FinalSend{});
  EXPECT_TRUE(result.outputs[1]);
  EXPECT_EQ(result.metrics.rounds[0], 1u);
  EXPECT_EQ(result.metrics.rounds[1], 2u);
}

}  // namespace
}  // namespace valocal
