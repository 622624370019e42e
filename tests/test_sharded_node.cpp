// ShardedNode over real sockets, and the GroupMux replay battery behind
// its determinism: per-group traces are a pure function of each group's
// frame arrival order, whatever the other groups on the mesh do.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "core/group_mux.h"
#include "core/stack.h"
#include "core/variants.h"
#include "net_helpers.h"
#include "ritas/sharded_node.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

/// Capturing loopback transport (clock-less: now_ns() stays 0, so trace
/// timestamps are identically zero in the replay battery).
struct SentFrame {
  ProcessId to;
  Slice frame;
};
class FakeTransport final : public Transport {
 public:
  void send(ProcessId to, Slice frame) override {
    sent.push_back(SentFrame{to, std::move(frame)});
  }
  std::vector<SentFrame> sent;
};

// --- GroupMux replay battery ------------------------------------------------
// The frame script of each group is generated once by real Bracha RB
// exchanges among processes 1..3 (captured off FakeTransports), then
// replayed into victim stacks (process 0): either all groups interleaved
// through one GroupMux, or one group alone straight into its stack.
// FakeTransport::now_ns() is 0, so trace timestamps cannot differ either.

struct GroupScript {
  std::vector<std::pair<ProcessId, Slice>> frames;  // addressed to process 0
};

constexpr std::uint32_t kGroups = 4;
constexpr std::uint64_t kRbPerGroup = 6;
const Bytes kMaster = to_bytes("pipeline-det");

InstanceId rb_root(std::uint64_t k) {
  return InstanceId::root(ProtocolType::kReliableBroadcast, 0x100 + k);
}

StackConfig group_config(std::uint32_t self, GroupId g) {
  StackConfig cfg;
  cfg.n = 4;
  cfg.self = self;
  cfg.group = g;
  return cfg;
}

/// Runs the full RB exchange for group `g` among generator processes 1..3
/// (process 0 silent), capturing every frame addressed to 0 in a
/// deterministic order.
GroupScript make_group_script(GroupId g) {
  std::array<FakeTransport, 4> fts;
  std::array<std::unique_ptr<KeyChain>, 4> keys;
  std::array<std::unique_ptr<ProtocolStack>, 4> stacks;
  std::vector<std::unique_ptr<RbAlgorithm>> roots;
  for (std::uint32_t s = 1; s <= 3; ++s) {
    keys[s] = std::make_unique<KeyChain>(KeyChain::deal(kMaster, 4, s));
    stacks[s] = std::make_unique<ProtocolStack>(group_config(s, g), fts[s],
                                                *keys[s], 0x9000 + g * 8 + s);
  }
  GroupScript script;
  const auto exchange = [&] {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::uint32_t s = 1; s <= 3; ++s) {
        auto sent = std::move(fts[s].sent);
        fts[s].sent.clear();
        for (auto& sf : sent) {
          progress = true;
          if (sf.to == 0) {
            script.frames.emplace_back(s, std::move(sf.frame));
          } else if (sf.to >= 1 && sf.to <= 3) {
            stacks[sf.to]->on_packet(s, std::move(sf.frame));
          }
        }
      }
    }
  };
  for (std::uint64_t k = 0; k < kRbPerGroup; ++k) {
    for (std::uint32_t s = 1; s <= 3; ++s) {
      roots.push_back(make_rb(*stacks[s], nullptr, rb_root(k), /*origin=*/1,
                              Attribution::kPayload, [](Slice) {}));
    }
    static_cast<RbAlgorithm&>(*roots[roots.size() - 3])
        .bcast(Slice(to_bytes("payload-" + std::to_string(g) + "-" +
                              std::to_string(k))));
    exchange();
  }
  return script;
}

std::vector<GroupScript> make_scripts() {
  std::vector<GroupScript> scripts;
  for (GroupId g = 0; g < kGroups; ++g) scripts.push_back(make_group_script(g));
  return scripts;
}

/// One victim stack (process 0) of group g with its tracer and RB roots.
struct Victim {
  FakeTransport ft;
  std::unique_ptr<ProtocolStack> stack;
  Tracer tracer{0};
  std::vector<std::unique_ptr<RbAlgorithm>> roots;
  std::uint64_t delivered = 0;

  Victim(GroupId g, const KeyChain& keys)
      : stack(std::make_unique<ProtocolStack>(group_config(0, g), ft, keys,
                                              0xa000 + g)) {
    stack->set_tracer(&tracer);
    for (std::uint64_t k = 0; k < kRbPerGroup; ++k) {
      roots.push_back(make_rb(*stack, nullptr, rb_root(k), /*origin=*/1,
                              Attribution::kPayload,
                              [this](Slice) { ++delivered; }));
    }
  }
  Victim(const Victim&) = delete;  // the delivery callbacks capture `this`
  Victim& operator=(const Victim&) = delete;
};

struct Replayed {
  std::vector<Bytes> traces;  // [group]
  std::uint64_t delivered = 0;
};

/// Replays every group's script through one GroupMux, interleaving the
/// groups round-robin.
Replayed replay_through_mux(const std::vector<GroupScript>& scripts) {
  const KeyChain keys = KeyChain::deal(kMaster, 4, 0);
  std::vector<std::unique_ptr<Victim>> victims;
  GroupMux mux;
  for (GroupId g = 0; g < kGroups; ++g) {
    victims.push_back(std::make_unique<Victim>(g, keys));
    mux.attach(g, *victims[g]->stack);
  }
  std::size_t longest = 0;
  for (const auto& s : scripts) longest = std::max(longest, s.frames.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (GroupId g = 0; g < kGroups; ++g) {
      if (i < scripts[g].frames.size()) {
        const auto& [from, frame] = scripts[g].frames[i];
        mux.on_packet(from, frame);
      }
    }
  }
  EXPECT_EQ(mux.malformed_dropped(), 0u);
  EXPECT_EQ(mux.foreign_dropped(), 0u);
  Replayed out;
  for (const auto& v : victims) {
    out.traces.push_back(v->tracer.encode());
    out.delivered += v->delivered;
  }
  return out;
}

TEST(PipelineDeterminism, ReplayIsRepeatableAtFixedThreadCount) {
  const auto scripts = make_scripts();
  for (const auto& s : scripts) ASSERT_FALSE(s.frames.empty());
  const Replayed a = replay_through_mux(scripts);
  const Replayed b = replay_through_mux(scripts);
  ASSERT_EQ(a.delivered, kGroups * kRbPerGroup)
      << "script must drive every RB instance to delivery";
  for (const Bytes& t : a.traces) ASSERT_FALSE(t.empty());
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(PipelineDeterminism, PerGroupTracesMatchIsolatedReplay) {
  // Interleaving other groups through the mux must not change one bit of
  // a group's trace: each equals the trace of that group replayed alone.
  const auto scripts = make_scripts();
  const Replayed muxed = replay_through_mux(scripts);
  const KeyChain keys = KeyChain::deal(kMaster, 4, 0);
  for (GroupId g = 0; g < kGroups; ++g) {
    Victim alone(g, keys);  // no mux: the script goes straight to the stack
    for (const auto& [from, frame] : scripts[g].frames) {
      alone.stack->on_packet(from, frame);
    }
    EXPECT_EQ(alone.delivered, kRbPerGroup) << "group " << g;
    EXPECT_EQ(muxed.traces[g], alone.tracer.encode())
        << "group " << g << " trace diverged";
  }
}

// --- ShardedNode end-to-end -------------------------------------------------

TEST(ShardedNode, PipelinedClusterReachesAgreement) {
  // Two shard groups share each node's one poll thread: ops submitted at
  // every node spread over both shards and every replica converges.
  constexpr std::uint32_t kN = 4;
  constexpr std::uint32_t kShards = 2;
  const auto ports = free_ports(kN);
  const auto peers = local_peers(ports);
  std::vector<std::unique_ptr<ShardedNode>> nodes(kN);
  std::vector<std::thread> starters;
  for (std::uint32_t p = 0; p < kN; ++p) {
    ShardedNode::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("sharded-node");
    o.groups = kShards;
    o.rng_seed = 42;
    nodes[p] = std::make_unique<ShardedNode>(std::move(o));
    // start() blocks until the partial mesh is up; bring all nodes up in
    // parallel like a real deployment.
    starters.emplace_back([&nodes, p] { nodes[p]->start(); });
  }
  for (auto& t : starters) t.join();

  constexpr std::uint64_t kOps = 12;
  std::set<smr::ShardId> shards_used;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::string op = "put k" + std::to_string(i) + " v" + std::to_string(i);
    shards_used.insert(nodes[i % kN]->submit(/*client=*/7, /*seq=*/i,
                                             to_bytes(op)));
  }
  EXPECT_GT(shards_used.size(), 1u) << "keys should spread across shards";
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_TRUE(nodes[p]->wait_applied_at_least(kOps, std::chrono::seconds(60)))
        << "node " << p << " applied " << nodes[p]->applied_total();
  }
  // Every replica of every shard converged on the same state.
  for (smr::ShardId s = 0; s < kShards; ++s) {
    const Bytes snap = nodes[0]->service().snapshot(s);
    for (std::uint32_t p = 1; p < kN; ++p) {
      EXPECT_EQ(nodes[p]->service().snapshot(s), snap) << "shard " << s;
    }
  }
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_EQ(nodes[p]->service().misrouted_dropped(), 0u) << "node " << p;
  }
  for (auto& n : nodes) n->stop();
}

TEST(ShardedNode, SingleThreadPathMatchesDefaults) {
  // Only the required options plus two groups: ops submitted at one node
  // are applied everywhere.
  constexpr std::uint32_t kN = 4;
  const auto ports = free_ports(kN);
  const auto peers = local_peers(ports);
  std::vector<std::unique_ptr<ShardedNode>> nodes(kN);
  std::vector<std::thread> starters;
  for (std::uint32_t p = 0; p < kN; ++p) {
    ShardedNode::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("sharded-node-inline");
    o.groups = 2;
    o.rng_seed = 43;
    nodes[p] = std::make_unique<ShardedNode>(std::move(o));
    starters.emplace_back([&nodes, p] { nodes[p]->start(); });
  }
  for (auto& t : starters) t.join();
  for (std::uint64_t i = 0; i < 4; ++i) {
    nodes[0]->submit(1, i, to_bytes("put x" + std::to_string(i) + " y"));
  }
  for (std::uint32_t p = 0; p < kN; ++p) {
    EXPECT_TRUE(nodes[p]->wait_applied_at_least(4, std::chrono::seconds(60)))
        << "node " << p << " applied " << nodes[p]->applied_total();
  }
  for (auto& n : nodes) n->stop();
}

TEST(ShardedNode, RejectsBadPipelineOptions) {
  // ShardedNode's own option; the shared NodeConfig table is
  // NodeConfigValidation.BothFrontsRejectTheSameTable.
  ShardedNode::Options o;
  o.n = 4;
  o.self = 0;
  o.peers = local_peers(free_ports(4));
  o.master_secret = to_bytes("x");
  o.groups = 0;
  EXPECT_THROW(ShardedNode{o}, std::invalid_argument);
  o.groups = 2;
  EXPECT_NO_THROW(ShardedNode{o});
}

}  // namespace
}  // namespace ritas
