// NodeRuntime — the one node runtime under ritas::Context (one group) and
// ritas::ShardedNode (G groups): one process's keychain, TCP mesh,
// GroupMux, per-group ProtocolStacks, poll thread and task lane,
// configured by one validated NodeConfig.
//
// Thread ownership map (both fronts):
//   poll thread   — sockets, frame MAC verify, link state machines, mux
//                   routing, every stack, every posted task and the
//                   safe-point hook
//   app threads   — post() (closable lane into the poll thread), stats
//
// The lane is closed under its mutex by stop(): a post() after the close
// throws std::logic_error, and every task accepted before it still runs
// (drained by the poll thread's last round), so a caller blocked on a
// posted task's result always returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/group_mux.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "net/tcp_transport.h"

namespace ritas {

/// Everything one process of a RITAS deployment shares across its groups.
/// Validated once, by the NodeRuntime constructor, before any socket.
struct NodeConfig {
  std::uint32_t n = 4;  // n >= 3f+1 with f >= 1, so n >= 4
  ProcessId self = 0;
  std::vector<net::PeerAddr> peers;  // one per process, index = id
  /// Shared secret all processes derive pairwise keys from (the trusted
  /// dealer of §2; distribute out of band).
  Bytes master_secret;
  bool authenticate = true;  // HMAC frames (the "IPSec" switch)
  /// Seeds the transport and every group's stack (derived per process and
  /// group); 0 = seed from std::random_device.
  std::uint64_t rng_seed = 0;
  /// start() returns once this many links are up (0 = auto: n - f - 1);
  /// the remaining links keep dialing in the background and heal through
  /// the transport's backoff/reconnect machinery.
  std::uint32_t min_start_links = 0;
  /// Template for every group's stack; n/self/group are set by the
  /// runtime. ab_batch is a wire-format switch: configure it identically
  /// at every correct process (limits must be > 0 when enabled).
  StackConfig stack;
};

class NodeRuntime {
 public:
  /// Hosts groups [first_group, first_group + groups). Throws
  /// std::invalid_argument on any inconsistent setting.
  NodeRuntime(const NodeConfig& cfg, GroupId first_group, std::uint32_t groups);
  ~NodeRuntime();
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  const NodeConfig& config() const { return cfg_; }
  ProtocolStack& stack(GroupId g) { return *stacks_[g - first_group_]; }

  /// Runs on the poll thread for group g after every poll round, with no
  /// protocol call on the stack (set before start()).
  void set_safe_point(std::function<void(GroupId)> fn) { safe_point_ = std::move(fn); }

  /// Establishes the mesh (blocks like TcpTransport::start), then starts
  /// the poll thread and opens the lane.
  void start();
  /// Closes the lane, runs every task it accepted, joins the threads and
  /// closes the sockets. True iff this call stopped a running node.
  bool stop();
  bool running() const { return running_.load(); }

  /// Runs fn on the poll thread, then pumps g's stack. Any thread;
  /// throws std::logic_error unless the runtime is running.
  void post(GroupId g, std::function<void()> fn);

  net::TcpTransport& transport() { return *transport_; }
  net::TcpTransport::Stats transport_stats() const { return transport_->stats(); }
  /// Per-peer channel health (self entry reads kUp).
  std::vector<LinkState> link_states() const { return transport_->link_states(); }
  /// Frames dropped by the mux before any stack saw them (any thread).
  const GroupMux& mux() const { return mux_; }

 private:
  void poll_loop();
  void run_tasks();
  /// Pumps group g's stack, then runs the safe-point hook.
  void settle(GroupId g);

  NodeConfig cfg_;
  GroupId first_group_;
  KeyChain keys_;
  std::unique_ptr<net::TcpTransport> transport_;
  GroupMux mux_;
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;  // [g - first_group]
  std::function<void(GroupId)> safe_point_;

  std::thread poll_thread_;
  std::mutex lane_mutex_;  // orders post() against the close in stop()
  std::atomic<bool> running_{false};
  std::deque<std::function<void()>> tasks_;  // guarded by lane_mutex_
};

}  // namespace ritas
