// ShardedNode — one process of a real-TCP sharded SMR deployment.
//
// The TCP twin of sim::Cluster's per-host wiring with sim::ShardedCluster's
// SMR layer on top: one TcpTransport (shared mesh), G ProtocolStacks (one
// per group = shard) demultiplexed by a GroupMux, one AtomicBroadcast root
// per group feeding one smr::ShardedService. One poll thread runs every
// group inline.
//
// ShardedNode is the G-group front of ritas::NodeRuntime (node_runtime.h
// has the thread ownership map shared with ritas::Context): the runtime
// owns the mesh, the mux, the stacks, the poll thread and the task lane;
// this class adds only the AB roots and the smr::ShardedService on top.
//
// Per-group tracers (Options::trace) are recorded only on the poll thread,
// and the mux never lets one group's frames reach another group's stack —
// the GroupMux replay battery in tests/test_sharded_node.cpp holds this.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/trace.h"
#include "core/atomic_broadcast.h"
#include "ritas/node_runtime.h"
#include "smr/sharded_service.h"

namespace ritas {

class ShardedNode {
 public:
  /// The shared node settings (see NodeConfig; n/self/group of the
  /// stack template are set per group) plus this front's own.
  struct Options : NodeConfig {
    /// Shard count: one consensus group (and one ProtocolStack) each.
    std::uint32_t groups = 1;
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
  /// the poll thread.
  void start() { runtime_.start(); }
  void stop() { runtime_.stop(); }

  smr::ShardedService& service() { return *service_; }
  /// Routes `op` to its owning shard and broadcasts it there (any thread).
  /// Throws std::logic_error unless the node is running: a submit that
  /// loses a race with stop() either runs or throws, never vanishes.
  smr::ShardId submit(std::uint64_t client, std::uint64_t seq, ByteView op) {
    return service_->submit(client, seq, op);
  }
  /// Commands applied on this process across all local shards.
  std::uint64_t applied_total() const;
  /// Blocks until applied_total() >= count; false on timeout.
  bool wait_applied_at_least(std::uint64_t count,
                             std::chrono::milliseconds timeout);

  net::TcpTransport& transport() { return runtime_.transport(); }
  net::TcpTransport::Stats transport_stats() const { return runtime_.transport_stats(); }
  /// Deterministic binary encoding of group g's trace (Options::trace
  /// only; call after stop() — the poll thread must be quiesced).
  Bytes group_trace_bytes(GroupId g) const;

 private:
  NodeRuntime runtime_;
  std::vector<std::unique_ptr<Tracer>> tracers_;       // [group], opt-in
  std::vector<std::unique_ptr<AtomicBroadcast>> abs_;  // [group]
  std::unique_ptr<smr::ShardedService> service_;

  mutable std::mutex applied_mutex_;
  std::condition_variable applied_cv_;
  std::uint64_t applied_ = 0;
};

}  // namespace ritas
