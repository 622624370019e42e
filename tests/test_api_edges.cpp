// Public-API edge cases: Context lifecycle (stop wakes blocked receivers,
// idempotent stop, errors after stop, service calls racing stop), the
// delivered-root garbage collection behind rb/eb windows, the shared
// option validation of both node-runtime fronts, drop accounting for
// Byzantine frames, and C-API buffer-size corners.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <thread>

#include "core/message.h"
#include "net_helpers.h"
#include "ritas/context.h"
#include "ritas/ritas_c.h"
#include "ritas/sharded_node.h"

namespace ritas {
namespace {

using test::free_ports;
using test::local_peers;
using test::RawPeer;

std::vector<std::unique_ptr<Context>> make_cluster(std::uint32_t n) {
  const auto peers = local_peers(free_ports(n));
  std::vector<std::unique_ptr<Context>> ctxs;
  for (std::uint32_t p = 0; p < n; ++p) {
    Context::Options o;
    o.n = n;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("edge-master");
    o.rng_seed = 2000 + p;
    ctxs.push_back(std::make_unique<Context>(o));
  }
  std::vector<std::thread> starters;
  for (auto& c : ctxs) starters.emplace_back([&c] { c->start(); });
  for (auto& t : starters) t.join();
  return ctxs;
}

TEST(ContextLifecycle, StopWakesBlockedReceiver) {
  auto cluster = make_cluster(4);
  std::atomic<bool> woke{false};
  std::thread blocked([&] {
    try {
      (void)cluster[0]->ab_recv();  // nothing will ever arrive
      ADD_FAILURE() << "recv returned without a delivery";
    } catch (const std::runtime_error&) {
      woke.store(true);  // the documented stop signal
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(woke.load());
  cluster[0]->stop();
  blocked.join();
  EXPECT_TRUE(woke.load());
  for (auto& c : cluster) c->stop();
}

TEST(ContextLifecycle, StopIsIdempotent) {
  auto cluster = make_cluster(4);
  cluster[1]->stop();
  cluster[1]->stop();  // second stop: no-op, no crash
  for (auto& c : cluster) c->stop();
  SUCCEED();
}

TEST(ContextLifecycle, ServiceCallAfterStopThrows) {
  auto cluster = make_cluster(4);
  cluster[2]->stop();
  EXPECT_THROW(cluster[2]->rb_bcast(to_bytes("late")), std::logic_error);
  for (auto& c : cluster) c->stop();
}

TEST(ContextLifecycle, ServiceCallRacingStopRunsOrThrows) {
  // A service call that loses the race with stop() must either run or
  // throw std::logic_error — never block forever on a task the stopped
  // node will not run. The callers are detached and report through a
  // shared counter, so a regression fails the deadline instead of hanging
  // the test binary (the stuck Context is then leaked, not destroyed under
  // its callers). The race is timing-dependent, so it is run ten times.
  constexpr int kCallers = 4;
  struct Returned {
    std::mutex m;
    std::condition_variable cv;
    int count = 0;
  };
  for (int trial = 0; trial < 10 && !HasFailure(); ++trial) {
    auto cluster = make_cluster(4);
    auto returned = std::make_shared<Returned>();
    for (int c = 0; c < kCallers; ++c) {
      std::thread([ctx = cluster[0].get(), returned] {
        try {
          for (;;) ctx->ab_bcast(to_bytes("race"));
        } catch (const std::logic_error&) {  // the stopped-lane signal
        }
        {
          std::lock_guard<std::mutex> lock(returned->m);
          ++returned->count;
        }
        returned->cv.notify_all();
      }).detach();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    cluster[0]->stop();
    std::unique_lock<std::mutex> lock(returned->m);
    const bool all = returned->cv.wait_for(lock, std::chrono::seconds(5), [&] {
      return returned->count == kCallers;
    });
    const int blocked = kCallers - returned->count;
    lock.unlock();
    EXPECT_TRUE(all) << "trial " << trial << ": " << blocked
                     << " caller(s) still blocked";
    if (!all) (void)cluster[0].release();
    for (auto& c : cluster) {
      if (c) c->stop();
    }
  }
}

TEST(ContextLifecycle, StopFailsPendingDecisionWithShutdownError) {
  // A consensus call still waiting for its decision when stop() runs must
  // throw ShutdownError: stop() destroys the instance that would decide.
  // Only node 0 proposes, so the binary consensus cannot decide (it needs
  // n - f proposals). The caller is detached and reports through shared
  // state, so a regression fails the deadline instead of hanging the test
  // binary (the stuck Context is then leaked, not destroyed under it).
  struct Outcome {
    std::mutex m;
    std::condition_variable cv;
    bool returned = false;
    bool shutdown = false;
  };
  auto cluster = make_cluster(4);
  auto out = std::make_shared<Outcome>();
  const std::uint64_t sent_before = cluster[0]->metrics().msgs_sent;
  std::thread([ctx = cluster[0].get(), out] {
    bool shutdown = false;
    try {
      (void)ctx->bc(true);
    } catch (const ShutdownError&) {
      shutdown = true;
    } catch (...) {
    }
    {
      std::lock_guard<std::mutex> lock(out->m);
      out->returned = true;
      out->shutdown = shutdown;
    }
    out->cv.notify_all();
  }).detach();
  // The proposal on the wire means bc() is past the task lane and waiting
  // for the decision.
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cluster[0]->metrics().msgs_sent == sent_before &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(cluster[0]->metrics().msgs_sent, sent_before);
  cluster[0]->stop();
  std::unique_lock<std::mutex> lock(out->m);
  const bool returned = out->cv.wait_for(lock, std::chrono::seconds(5),
                                         [&] { return out->returned; });
  EXPECT_TRUE(returned) << "bc() still blocked 5 s after stop()";
  EXPECT_TRUE(out->shutdown);
  lock.unlock();
  if (!returned) (void)cluster[0].release();
  for (auto& c : cluster) {
    if (c) c->stop();
  }
}

TEST(ContextLifecycle, DeliveredBroadcastRootsAreFreed) {
  // The receive-window roots of delivered broadcasts must be destroyed
  // (deferred GC), keeping the instance count bounded during long streams.
  auto cluster = make_cluster(4);
  const Metrics before = cluster[3]->metrics();
  for (int i = 0; i < 40; ++i) {
    cluster[0]->rb_bcast(to_bytes("gc-probe"));
    (void)cluster[3]->rb_recv();
  }
  // Give the reactor a beat to run its deferred GC.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const Metrics after = cluster[3]->metrics();
  EXPECT_GE(after.msgs_received, before.msgs_received + 40);
  // Windows are 64 per origin x 2 protocols x 4 origins plus the AB tree;
  // 40 delivered instances must NOT have stacked on top permanently. We
  // can't see instance_count through the facade, so probe indirectly: the
  // stream above still works after far more than one window of traffic.
  for (int i = 0; i < 80; ++i) {
    cluster[1]->rb_bcast(to_bytes("beyond-one-window"));
    (void)cluster[3]->rb_recv();
  }
  for (auto& c : cluster) c->stop();
  SUCCEED();
}

TEST(ContextOptions, InvalidMembershipFailsFast) {
  // Construction validates the membership instead of letting a broken
  // configuration reach the TCP mesh (where it used to surface as a
  // confusing connect failure or an out-of-range peer lookup).
  auto base = [] {
    Context::Options o;
    o.n = 4;
    o.self = 0;
    o.peers = std::vector<net::PeerAddr>(4, net::PeerAddr{"127.0.0.1", 1});
    o.master_secret = to_bytes("v");
    return o;
  };
  {
    auto o = base();
    o.n = 3;
    o.peers.resize(3);  // n < 3f+1 for f = 1
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.self = 4;  // self outside the group
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.peers.resize(3);  // peer list shorter than n
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.peers.push_back(net::PeerAddr{"127.0.0.1", 2});  // longer than n
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();  // a valid membership constructs fine (no start())
    Context c(std::move(o));
  }
}

TEST(ContextOptions, NonsensicalKnobsFailFast) {
  auto base = [] {
    Context::Options o;
    o.n = 4;
    o.self = 1;
    o.peers = std::vector<net::PeerAddr>(4, net::PeerAddr{"127.0.0.1", 1});
    o.master_secret = to_bytes("v");
    return o;
  };
  {
    auto o = base();
    o.recv_window = 0;
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.stack.ab_batch.enabled = true;
    o.stack.ab_batch.max_batch_msgs = 0;
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    auto o = base();
    o.stack.ab_batch.enabled = true;
    o.stack.ab_batch.max_batch_bytes = 0;
    EXPECT_THROW(Context c(std::move(o)), std::invalid_argument);
  }
  {
    // Zero limits are harmless while batching is off.
    auto o = base();
    o.stack.ab_batch.max_batch_msgs = 0;
    o.stack.ab_batch.max_batch_bytes = 0;
    Context c(std::move(o));
  }
}

TEST(NodeConfigValidation, BothFrontsRejectTheSameTable) {
  // One table of inconsistent shared settings: Context and ShardedNode
  // both reject every row with std::invalid_argument at construction,
  // before any socket opens (neither is started).
  struct Row {
    const char* what;
    std::function<void(NodeConfig&)> mutate;
  };
  const std::vector<Row> rows = {
      {"n < 4", [](NodeConfig& c) { c.n = 3; c.peers.resize(3); }},
      {"self >= n", [](NodeConfig& c) { c.self = 4; }},
      {"peers shorter than n", [](NodeConfig& c) { c.peers.resize(3); }},
      {"peers longer than n",
       [](NodeConfig& c) { c.peers.push_back(net::PeerAddr{"127.0.0.1", 2}); }},
      {"Imbs-Raynal at n = 4",
       [](NodeConfig& c) { c.stack.variants.rb = RbVariant::kImbsRaynal; }},
      {"Crain with the local coin",
       [](NodeConfig& c) {
         c.stack.variants.bc = BcVariant::kCrain;
         c.stack.coin_mode = CoinMode::kLocal;
       }},
      {"ab_batch max_batch_msgs = 0",
       [](NodeConfig& c) {
         c.stack.ab_batch.enabled = true;
         c.stack.ab_batch.max_batch_msgs = 0;
       }},
      {"ab_batch max_batch_bytes = 0",
       [](NodeConfig& c) {
         c.stack.ab_batch.enabled = true;
         c.stack.ab_batch.max_batch_bytes = 0;
       }},
  };
  const auto fill = [](NodeConfig& c) {
    c.n = 4;
    c.self = 0;
    c.peers = std::vector<net::PeerAddr>(4, net::PeerAddr{"127.0.0.1", 1});
    c.master_secret = to_bytes("v");
  };
  for (const Row& row : rows) {
    Context::Options co;
    fill(co);
    row.mutate(co);
    EXPECT_THROW(Context{co}, std::invalid_argument) << "Context: " << row.what;
    ShardedNode::Options so;
    fill(so);
    so.groups = 2;
    row.mutate(so);
    EXPECT_THROW(ShardedNode{so}, std::invalid_argument) << "ShardedNode: " << row.what;
  }
  // The untouched base is valid for both fronts.
  Context::Options co;
  fill(co);
  EXPECT_NO_THROW(Context{co});
  ShardedNode::Options so;
  fill(so);
  EXPECT_NO_THROW(ShardedNode{so});
}

TEST(ContextMetrics, CountsForeignGroupAndMalformedFrames) {
  // Process 3 is a Byzantine insider (RawPeer holding the real pairwise
  // key): it sends process 0 one well-formed frame for a group nobody
  // here runs and one frame whose body is garbage. Both are counted drops
  // in Context::metrics(), nothing throws, and AB among 0-2 still works.
  const auto ports = free_ports(4);
  const auto peers = local_peers(ports);
  const Bytes master = to_bytes("edge-insider");
  std::vector<std::unique_ptr<Context>> ctxs;
  for (std::uint32_t p = 0; p < 3; ++p) {
    Context::Options o;
    o.n = 4;
    o.self = p;
    o.peers = peers;
    o.master_secret = master;
    o.rng_seed = 3000 + p;
    ctxs.push_back(std::make_unique<Context>(o));
  }
  {
    std::vector<std::thread> starters;
    for (auto& c : ctxs) starters.emplace_back([&c] { c->start(); });
    for (auto& t : starters) t.join();
  }
  const KeyChain insider = KeyChain::deal(master, 4, 3);
  RawPeer peer(ports[0], 3, 0, Bytes(insider.key(0).begin(), insider.key(0).end()));
  peer.connect();
  ASSERT_TRUE(peer.handshake(/*nonce_d=*/0x3333));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ctxs[0]->link_states()[3] != LinkState::kUp &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(ctxs[0]->link_states()[3], LinkState::kUp);

  const Metrics before = ctxs[0]->metrics();
  Message foreign;
  foreign.group = 7;
  foreign.path = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  foreign.tag = 1;
  foreign.payload = Slice(to_bytes("for a group not served here"));
  peer.send_frame(0, foreign.encode().view());
  const Bytes garbage = {0xee, 0x01, 0x02, 0x03};
  peer.send_frame(1, garbage);

  Metrics after = before;
  while (std::chrono::steady_clock::now() < deadline) {
    after = ctxs[0]->metrics();
    if (after.foreign_group_dropped > before.foreign_group_dropped &&
        after.malformed_dropped > before.malformed_dropped) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(after.foreign_group_dropped, before.foreign_group_dropped + 1);
  EXPECT_EQ(after.malformed_dropped, before.malformed_dropped + 1);

  ctxs[1]->ab_bcast(to_bytes("still ordered"));
  for (auto& c : ctxs) {
    const auto got = c->ab_recv_for(std::chrono::seconds(30));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(to_string(got->payload), "still ordered");
  }
  for (auto& c : ctxs) c->stop();
}

TEST(ContextLifecycle, TryRecvAndRecvForTimeout) {
  auto cluster = make_cluster(4);
  // Nothing queued: try_recv polls empty, recv_for times out (and both
  // return, rather than blocking like recv()).
  EXPECT_FALSE(cluster[0]->ab_try_recv().has_value());
  EXPECT_FALSE(cluster[0]->rb_try_recv().has_value());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(cluster[0]->ab_recv_for(std::chrono::milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(25));

  // With a delivery queued, both modes return it.
  cluster[1]->ab_bcast(to_bytes("poll-me"));
  const auto got = cluster[2]->ab_recv_for(std::chrono::seconds(30));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(to_string(got->payload), "poll-me");
  EXPECT_EQ(got->origin, 1u);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::optional<Context::AbDelivery> polled;
  while (!polled && std::chrono::steady_clock::now() < deadline) {
    polled = cluster[3]->ab_try_recv();
    if (!polled) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(to_string(polled->payload), "poll-me");
  for (auto& c : cluster) c->stop();
}

TEST(ContextLifecycle, StopThrowsShutdownErrorSpecifically) {
  auto cluster = make_cluster(4);
  std::atomic<bool> typed{false};
  std::thread blocked([&] {
    try {
      (void)cluster[0]->ab_recv();
    } catch (const ShutdownError&) {
      typed.store(true);  // the precise v2 type, not just runtime_error
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cluster[0]->stop();
  blocked.join();
  EXPECT_TRUE(typed.load());
  // After stop + drain, the non-blocking modes also report shutdown.
  EXPECT_THROW((void)cluster[0]->ab_try_recv(), ShutdownError);
  EXPECT_THROW((void)cluster[0]->ab_recv_for(std::chrono::milliseconds(1)),
               ShutdownError);
  for (auto& c : cluster) c->stop();
}

TEST(CApiEdges, MvcBufferTooSmall) {
  const auto ports = free_ports(4);
  std::array<ritas_t*, 4> r{};
  const std::uint8_t secret[] = "edge";
  for (std::uint32_t p = 0; p < 4; ++p) {
    r[p] = ritas_init(4, p, secret, sizeof(secret));
    for (std::uint32_t q = 0; q < 4; ++q) {
      ritas_proc_add_ipv4(r[p], q, "127.0.0.1", ports[q]);
    }
  }
  std::vector<std::thread> starters;
  for (auto* ctx : r) starters.emplace_back([ctx] { ritas_start(ctx); });
  for (auto& t : starters) t.join();

  const char* big = "a value that certainly does not fit in four bytes";
  std::array<long, 4> rc{};
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 4; ++p) {
    threads.emplace_back([&, p] {
      std::uint8_t tiny[4];
      int bot = 0;
      rc[p] = ritas_mvc(r[p], reinterpret_cast<const std::uint8_t*>(big),
                        std::strlen(big), tiny, sizeof(tiny), &bot);
    });
  }
  for (auto& t : threads) t.join();
  for (long v : rc) EXPECT_EQ(v, RITAS_ETOOBIG);
  for (auto* ctx : r) ritas_destroy(ctx);
}

TEST(CApiEdges, NullArgumentsRejected) {
  EXPECT_EQ(ritas_rb_bcast(nullptr, nullptr, 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_rb_recv(nullptr, nullptr, nullptr, 0), RITAS_EINVAL);
  EXPECT_EQ(ritas_bc(nullptr, 1), RITAS_EINVAL);
  EXPECT_EQ(ritas_vc(nullptr, nullptr, 0, nullptr, 0, nullptr), RITAS_EINVAL);
}

}  // namespace
}  // namespace ritas
