// Multi-core execution pipeline: SPSC handoff queue, ReactorPool
// ownership/ordering, the determinism battery (per-group traces
// bit-identical across T for a fixed frame arrival order), and the
// ShardedNode end-to-end path.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/spsc.h"
#include "common/trace.h"
#include "core/group_mux.h"
#include "core/reactor.h"
#include "core/stack.h"
#include "core/variants.h"
#include "net_helpers.h"
#include "ritas/sharded_node.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;

/// Capturing loopback transport (clock-less: now_ns() stays 0, so trace
/// timestamps are identically zero in the determinism battery).
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

bool wait_until(const std::function<bool()>& cond, int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// --- SPSC handoff queue -----------------------------------------------------

TEST(SpscQueue, FifoAndWraparound) {
  SpscQueue<int> q(4);
  for (int round = 0; round < 10; ++round) {  // wrap several times
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.try_push(round * 10 + i));
    int v = 0;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.try_pop(v));
      EXPECT_EQ(v, round * 10 + i);
    }
    EXPECT_FALSE(q.try_pop(v));
  }
}

TEST(SpscQueue, RejectsWhenFull) {
  SpscQueue<int> q(4);  // capacity rounds to 4
  int pushed = 0;
  while (q.try_push(int(pushed))) ++pushed;
  EXPECT_EQ(pushed, 4);
  int v = 0;
  ASSERT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.try_push(99));  // slot freed
}

TEST(SpscQueue, CrossThreadPreservesOrder) {
  constexpr int kN = 100'000;
  SpscQueue<int> q(256);
  std::thread producer([&] {
    for (int i = 0; i < kN; ++i) {
      while (!q.try_push(int(i))) std::this_thread::yield();
    }
  });
  int expect = 0;
  while (expect < kN) {
    int v = 0;
    if (q.try_pop(v)) {
      ASSERT_EQ(v, expect);
      ++expect;
    }
  }
  producer.join();
}

// --- ReactorPool ------------------------------------------------------------

TEST(ReactorPool, InlineModeExecutesOnCaller) {
  ReactorPool pool;  // threads = 0
  EXPECT_TRUE(pool.inline_mode());
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.post(7, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(pool.stats().handoff_enqueued, 0u);
}

TEST(ReactorPool, TasksRunFifoOnTheOwningReactor) {
  ReactorPool::Options o;
  o.threads = 2;
  ReactorPool pool(o);
  pool.pin(0, 0);
  pool.pin(1, 1);
  pool.start();
  std::mutex m;
  std::map<GroupId, std::vector<int>> order;
  std::map<GroupId, std::set<std::thread::id>> tids;
  constexpr int kPer = 200;
  for (int i = 0; i < kPer; ++i) {
    for (GroupId g = 0; g < 2; ++g) {
      pool.post(g, [&, g, i] {
        std::lock_guard<std::mutex> lock(m);
        order[g].push_back(i);
        tids[g].insert(std::this_thread::get_id());
      });
    }
  }
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lock(m);
    return order[0].size() == kPer && order[1].size() == kPer;
  }));
  pool.stop();
  for (GroupId g = 0; g < 2; ++g) {
    // Per-group FIFO on exactly one thread — the single-threaded reactor
    // contract the protocol layer relies on.
    EXPECT_EQ(tids[g].size(), 1u) << "group " << g;
    for (int i = 0; i < kPer; ++i) EXPECT_EQ(order[g][i], i);
  }
  EXPECT_NE(*tids[0].begin(), *tids[1].begin());
  EXPECT_EQ(pool.stats().tasks_run, 2u * kPer);
}

TEST(ReactorPool, PinningOverridesModuloDefault) {
  ReactorPool::Options o;
  o.threads = 4;
  ReactorPool pool(o);
  EXPECT_EQ(pool.reactor_of(0), 0u);
  EXPECT_EQ(pool.reactor_of(5), 1u);  // 5 % 4
  pool.pin(5, 3);
  EXPECT_EQ(pool.reactor_of(5), 3u);
}

TEST(ReactorPool, FullRingCountsDropsInNonBlockingMode) {
  ReactorPool::Options o;
  o.threads = 1;
  o.queue_capacity = 8;
  o.block_on_full = false;
  ReactorPool pool(o);
  // Stall the reactor so the ring fills behind it.
  std::mutex gate;
  gate.lock();
  pool.start();
  pool.post(0, [&] { std::lock_guard<std::mutex> hold(gate); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // A stack whose frames are garbage: the reactor counts them as parse
  // drops, which is all this test needs.
  FakeTransport ft;
  KeyChain keys = KeyChain::deal(to_bytes("k"), 4, 0);
  StackConfig cfg;
  cfg.n = 4;
  cfg.self = 0;
  ProtocolStack stack(cfg, ft, keys, 1);
  std::size_t accepted = 0;
  for (int i = 0; i < 64; ++i) {
    if (pool.route(0, stack, 1, Slice(to_bytes("junk")))) ++accepted;
  }
  const auto stalled = pool.stats();
  EXPECT_GT(stalled.handoff_dropped, 0u);
  EXPECT_EQ(stalled.handoff_enqueued, accepted);
  EXPECT_LE(accepted, 8u);
  gate.unlock();
  pool.stop();
}

// --- determinism battery ----------------------------------------------------
// A fixed per-group frame arrival order must produce bit-identical
// per-group traces for every T ∈ {0, 1, 2, 4} and any pinning: the pool
// moves groups across cores but never reorders within a group. The frame
// script is generated once by real Bracha RB exchanges among processes
// 1..3 (captured off FakeTransports), then replayed through GroupMux →
// ReactorPool into victim stacks (process 0). FakeTransport::now_ns() is
// 0, so trace timestamps cannot differ either.

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

/// Replays the scripts into fresh victim stacks (process 0, one per
/// group) through GroupMux with a ReactorPool of T threads; returns each
/// group's encoded trace plus the delivery count.
std::pair<std::vector<Bytes>, std::uint64_t> replay(
    const std::vector<GroupScript>& scripts, std::uint32_t threads) {
  std::array<FakeTransport, kGroups> fts;  // one per stack: reactor-owned
  KeyChain keys = KeyChain::deal(kMaster, 4, 0);
  std::vector<std::unique_ptr<ProtocolStack>> stacks;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::unique_ptr<RbAlgorithm>> roots;
  std::atomic<std::uint64_t> delivered{0};
  GroupMux mux;
  for (GroupId g = 0; g < kGroups; ++g) {
    stacks.push_back(std::make_unique<ProtocolStack>(group_config(0, g), fts[g],
                                                     keys, 0xa000 + g));
    tracers.push_back(std::make_unique<Tracer>(0));
    stacks[g]->set_tracer(tracers[g].get());
    mux.attach(g, *stacks[g]);
    for (std::uint64_t k = 0; k < kRbPerGroup; ++k) {
      roots.push_back(make_rb(*stacks[g], nullptr, rb_root(k), /*origin=*/1,
                              Attribution::kPayload,
                              [&delivered](Slice) { ++delivered; }));
    }
  }
  ReactorPool::Options po;
  po.threads = threads;
  ReactorPool pool(po);
  if (threads > 0) {
    mux.bind_reactors(&pool);
    pool.start();
  }
  // Interleave groups round-robin: per-group order is what matters and is
  // identical for every T.
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
  if (threads > 0) pool.stop();  // drains every ring before joining
  std::vector<Bytes> traces;
  for (GroupId g = 0; g < kGroups; ++g) traces.push_back(tracers[g]->encode());
  if (threads > 0) {
    const auto st = pool.stats();
    EXPECT_EQ(st.handoff_enqueued,
              static_cast<std::uint64_t>(kGroups) * scripts[0].frames.size());
    EXPECT_EQ(st.handoff_dropped, 0u);
  }
  return {std::move(traces), delivered.load()};
}

TEST(PipelineDeterminism, PerGroupTracesBitIdenticalAcrossThreadCounts) {
  std::vector<GroupScript> scripts;
  for (GroupId g = 0; g < kGroups; ++g) scripts.push_back(make_group_script(g));
  for (const auto& s : scripts) ASSERT_FALSE(s.frames.empty());

  const auto [inline_traces, inline_delivered] = replay(scripts, 0);
  ASSERT_EQ(inline_delivered, kGroups * kRbPerGroup)
      << "script must drive every RB instance to delivery";
  for (const Bytes& t : inline_traces) ASSERT_FALSE(t.empty());
  for (std::uint32_t threads : {1u, 2u, 4u}) {
    const auto [traces, got] = replay(scripts, threads);
    EXPECT_EQ(got, inline_delivered) << "T=" << threads;
    for (GroupId g = 0; g < kGroups; ++g) {
      EXPECT_EQ(traces[g], inline_traces[g])
          << "group " << g << " trace diverged at T=" << threads;
    }
  }
}

TEST(PipelineDeterminism, ReplayIsRepeatableAtFixedThreadCount) {
  std::vector<GroupScript> scripts;
  for (GroupId g = 0; g < kGroups; ++g) scripts.push_back(make_group_script(g));
  const auto a = replay(scripts, 2);
  const auto b = replay(scripts, 2);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// --- ShardedNode end-to-end -------------------------------------------------

TEST(ShardedNode, PipelinedClusterReachesAgreement) {
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
    o.reactor_threads = 2;
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
  // The pipeline actually ran: frames crossed the handoff rings.
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto ps = nodes[p]->pipeline_stats();
    EXPECT_GT(ps.handoff_enqueued, 0u) << "node " << p;
    EXPECT_EQ(ps.handoff_dropped, 0u) << "node " << p;
    EXPECT_EQ(nodes[p]->service().misrouted_dropped(), 0u);
  }
  for (auto& n : nodes) n->stop();
}

TEST(ShardedNode, SingleThreadPathMatchesDefaults) {
  // reactor_threads = 0 must behave exactly like the pre-pipeline wiring:
  // no pool, no handoff counters, agreement still reached.
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
    EXPECT_TRUE(nodes[p]->wait_applied_at_least(4, std::chrono::seconds(60)));
    EXPECT_EQ(nodes[p]->pipeline_stats().handoff_enqueued, 0u);
  }
  for (auto& n : nodes) n->stop();
}

TEST(ShardedNode, RejectsBadPipelineOptions) {
  ShardedNode::Options o;
  o.n = 4;
  o.self = 0;
  o.peers = local_peers(free_ports(4));
  o.master_secret = to_bytes("x");
  o.groups = 2;
  o.reactor_threads = 65;
  EXPECT_THROW(ShardedNode{o}, std::invalid_argument);
  o.reactor_threads = 2;
  o.pinning = {0, 2};  // reactor index out of range
  EXPECT_THROW(ShardedNode{o}, std::invalid_argument);
  o.pinning = {0};  // wrong size
  EXPECT_THROW(ShardedNode{o}, std::invalid_argument);
}

}  // namespace
}  // namespace ritas
