// ShardedNode — one process of a real-TCP sharded SMR deployment, run
// through the multi-core execution pipeline.
//
// The TCP twin of sim::ShardedCluster's per-process wiring, plus the
// pipeline: one TcpTransport (shared mesh), G ProtocolStacks (one per
// group = shard) demultiplexed by a GroupMux, one AtomicBroadcast root
// per group feeding one smr::ShardedService. With reactor_threads > 0
// the mux hands each frame to the ReactorPool and the service's G groups
// are pinned across the T reactors (Options::pinning, default g % T).
// reactor_threads = 0 (default) reproduces the single-thread path: a poll
// thread that does everything, byte-identical to the pre-pipeline wiring.
//
// Thread ownership map:
//   poll thread    — sockets, frame MAC verify, link state machines, mux
//                    routing, handoff
//   reactor r      — every stack/AB/applier of the groups pinned to r
//                    (and the MACs of the frames they send)
//   app threads    — submit() (posts to the owning reactor), stats, waits
//
// Per-group tracers (Options::trace) are recorded only by the owning
// reactor, so for a fixed seed and pinning each group's trace is
// bit-identical whatever T is — the determinism battery in
// tests/test_pipeline.cpp holds this.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/trace.h"
#include "core/atomic_broadcast.h"
#include "core/group_mux.h"
#include "core/reactor.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "net/tcp_transport.h"
#include "smr/sharded_service.h"

namespace ritas {

class ShardedNode {
 public:
  struct Options {
    std::uint32_t n = 4;
    ProcessId self = 0;
    std::vector<net::PeerAddr> peers;  // one per process, index = id
    Bytes master_secret;
    bool authenticate = true;
    /// Shard count: one consensus group (and one ProtocolStack) each.
    std::uint32_t groups = 1;
    /// Execution pipeline (0 = single-thread path, see header).
    std::uint32_t reactor_threads = 0;
    /// Explicit group → reactor pinning (size = groups, entries <
    /// reactor_threads). Empty = g % reactor_threads. Pinning is part of
    /// the determinism contract: same seed + same pinning ⇒ bit-identical
    /// per-group traces.
    std::vector<std::uint32_t> pinning;
    StackConfig stack;  // template; n/self/group overwritten
    std::uint64_t rng_seed = 0;  // 0 = std::random_device
    std::uint32_t min_start_links = 0;
    /// Attach one Tracer per group (read back with group_trace_bytes).
    bool trace = false;
    smr::ShardedService::MachineFactory machine_factory;  // null => KvMachine
    smr::ShardedService::KeyOfFn key_of;                  // null => kv_key_of
  };

  explicit ShardedNode(Options opts);
  ~ShardedNode();
  ShardedNode(const ShardedNode&) = delete;
  ShardedNode& operator=(const ShardedNode&) = delete;

  /// Establishes the mesh (blocks like TcpTransport::start) and starts
  /// the poll thread + reactors.
  void start();
  void stop();

  smr::ShardedService& service() { return *service_; }
  /// Routes `op` to its owning shard and broadcasts it there (any thread).
  smr::ShardId submit(std::uint64_t client, std::uint64_t seq, ByteView op);
  /// Commands applied on this process across all local shards.
  std::uint64_t applied_total() const;
  /// Blocks until applied_total() >= count; false on timeout.
  bool wait_applied_at_least(std::uint64_t count,
                             std::chrono::milliseconds timeout);

  net::TcpTransport& transport() { return *transport_; }
  net::TcpTransport::Stats transport_stats() const { return transport_->stats(); }
  ReactorPool::Stats pipeline_stats() const {
    return pool_ ? pool_->stats() : ReactorPool::Stats{};
  }
  std::uint32_t reactor_of(GroupId g) const {
    return pool_ ? pool_->reactor_of(g) : 0;
  }
  /// Deterministic binary encoding of group g's trace (Options::trace
  /// only; call after stop() — the owning reactor must be quiesced).
  Bytes group_trace_bytes(GroupId g) const;

 private:
  void poll_loop();
  /// Runs fn on the thread that owns group g's stack: the pool reactor in
  /// pipeline mode, the poll thread (via the task queue) otherwise.
  void post_to_group(GroupId g, std::function<void()> fn);

  Options opts_;
  KeyChain keys_;
  std::unique_ptr<net::TcpTransport> transport_;
  std::unique_ptr<ReactorPool> pool_;  // null = single-thread path
  GroupMux mux_;
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;     // [group]
  std::vector<std::unique_ptr<Tracer>> tracers_;           // [group], opt-in
  std::vector<std::unique_ptr<AtomicBroadcast>> abs_;      // [group]
  std::unique_ptr<smr::ShardedService> service_;

  std::thread poll_thread_;
  std::atomic<bool> running_{false};
  std::mutex tasks_mutex_;  // single-thread path only
  std::deque<std::function<void()>> tasks_;

  mutable std::mutex applied_mutex_;
  std::condition_variable applied_cv_;
  std::uint64_t applied_ = 0;
};

}  // namespace ritas
