// ritas::Context — the application-facing session (the paper's `ritas_t`).
//
// Mirrors the C API of §3.1 in RAII C++: construct with the group
// membership (ritas_init + ritas_proc_add_ipv4), call the service
// functions as often as desired, destroy to tear everything down. Service
// calls follow the paper's blocking semantics:
//
//   rb_bcast / rb_recv     reliable broadcast        (ritas_rb_*)
//   eb_bcast / eb_recv     echo broadcast            (ritas_eb_*)
//   ab_bcast / ab_recv     atomic broadcast          (ritas_ab_*)
//   bc / mvc / vc          propose, block, decide    (ritas_bc/mvc/vc)
//
// Context is the single-group front of ritas::NodeRuntime (node_runtime.h),
// which owns the mesh, the stack, the poll thread and the task lane; this
// class adds only the session's roots, receive windows and blocking
// queues. The protocol stack runs in a single thread, independent of the
// application thread (§3): the runtime's poll thread (node_runtime.h has
// the thread map).
// Application calls post work into that thread through the lane and block
// on futures/queues; a call that loses a race with stop() either runs or
// throws std::logic_error, and a consensus call still waiting for its
// decision when stop() runs throws ShutdownError — none blocks forever.
//
// Instance naming convention (implicit agreement across processes): the
// k-th rb/eb broadcast by origin o is root (kRB/kEB, o<<32|k); consensus
// calls are numbered by call order (all processes must invoke them in the
// same order, as with any consensus API); one atomic broadcast instance
// (kAB, 0) serves the whole session.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/atomic_broadcast.h"
#include "ritas/node_runtime.h"

namespace ritas {

/// Thrown by the blocking receive calls when the session stops underneath
/// them (stop() or destruction). Derives from std::runtime_error so code
/// written against the v1 API keeps catching it.
class ShutdownError : public std::runtime_error {
 public:
  ShutdownError() : std::runtime_error("ritas::Context stopped") {}
};

class Context {
 public:
  /// The shared node settings (membership, secret, seed, start quorum,
  /// the StackConfig template — see NodeConfig) plus this front's own two.
  struct Options : NodeConfig {
    /// Consensus group this session runs when several groups share one
    /// mesh (sharded SMR). Group 0 (default) keeps the original wire
    /// format; non-zero groups prefix frames with the group id
    /// (docs/PROTOCOLS.md "Group multiplexing"), so all correct processes
    /// of a group must configure it identically.
    GroupId group = 0;
    /// Receive-side broadcast instances pre-created per origin.
    std::uint32_t recv_window = 64;
  };

  struct Delivery {
    ProcessId origin;
    Bytes payload;
  };
  struct AbDelivery {
    ProcessId origin;
    std::uint64_t rbid;
    Bytes payload;
  };

  /// Validates `opts` up front — throws std::invalid_argument on an
  /// inconsistent membership (peers.size() != n, self >= n, n < 3f+1 for
  /// f >= 1, i.e. n < 4) or nonsensical knobs (zero recv_window, zero
  /// stack.ab_batch limits) instead of letting them reach the mesh layer.
  explicit Context(Options opts);
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Establishes the TCP mesh and starts the poll thread. Blocks until at
  /// least Options::min_start_links links are up (default: n - f - 1, the
  /// quorum the stack needs to make progress); stragglers keep connecting
  /// in the background. Call once before any service function.
  void start();
  void stop();

  // --- broadcast services -------------------------------------------------
  // Each service offers three receive modes: blocking recv() (the paper's
  // §3.1 semantics), non-blocking try_recv() (nullopt when nothing is
  // queued), and deadline recv_for() (nullopt on timeout). All of them
  // throw ShutdownError once the session has stopped and the queue has
  // drained.
  void rb_bcast(Bytes payload);
  Delivery rb_recv();
  std::optional<Delivery> rb_try_recv();
  std::optional<Delivery> rb_recv_for(std::chrono::milliseconds timeout);
  void eb_bcast(Bytes payload);
  Delivery eb_recv();
  std::optional<Delivery> eb_try_recv();
  std::optional<Delivery> eb_recv_for(std::chrono::milliseconds timeout);
  std::uint64_t ab_bcast(Bytes payload);
  AbDelivery ab_recv();
  std::optional<AbDelivery> ab_try_recv();
  std::optional<AbDelivery> ab_recv_for(std::chrono::milliseconds timeout);

  /// Seals the open atomic-broadcast batch immediately (no-op when
  /// batching is off or nothing is buffered).
  void ab_flush();

  /// Callback mode for atomic broadcast: once subscribed, deliveries are
  /// handed to `fn` on the poll thread (so it must not block or call
  /// back into the Context) instead of being queued for ab_recv().
  /// Deliveries queued before the subscription stay in the queue —
  /// drain them with ab_try_recv(). Subscribe before start() or after;
  /// pass nullptr to return to queue mode.
  using AbSubscriber = std::function<void(AbDelivery)>;
  void ab_subscribe(AbSubscriber fn);

  // --- consensus services -------------------------------------------------
  bool bc(bool proposal);
  std::optional<Bytes> mvc(Bytes proposal);
  std::vector<std::optional<Bytes>> vc(Bytes proposal);

  /// Snapshot of the stack's counters (taken on the poll thread), including
  /// the frames the group mux dropped before the stack saw them.
  Metrics metrics();
  net::TcpTransport::Stats transport_stats() const { return runtime_.transport_stats(); }
  /// Per-peer channel health (self entry reads kUp).
  std::vector<LinkState> link_states() const { return runtime_.link_states(); }
  /// The underlying transport — fault injection (kill_link) and
  /// link-level probes for tests and operational tooling.
  net::TcpTransport& transport() { return runtime_.transport(); }
  ProcessId self() const { return runtime_.config().self; }
  std::uint32_t n() const { return runtime_.config().n; }

 private:
  template <typename T>
  class BlockingQueue {
   public:
    void push(T v) {
      {
        std::lock_guard<std::mutex> lock(m_);
        q_.push_back(std::move(v));
      }
      cv_.notify_one();
    }
    /// Blocks until an element arrives; throws ShutdownError if the queue
    /// is closed and drained (the session stopped).
    T pop() {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [this] { return !q_.empty() || closed_; });
      return *take_locked();
    }
    /// Non-blocking: nullopt when nothing is queued. Throws ShutdownError
    /// only once the queue is closed *and* drained.
    std::optional<T> try_pop() {
      std::lock_guard<std::mutex> lock(m_);
      return take_locked();
    }
    /// Blocks up to `timeout`; nullopt on timeout, ShutdownError when
    /// closed and drained.
    std::optional<T> pop_for(std::chrono::milliseconds timeout) {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait_for(lock, timeout, [this] { return !q_.empty() || closed_; });
      return take_locked();
    }
    void close() {
      {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
      }
      cv_.notify_all();
    }

   private:
    std::optional<T> take_locked() {
      if (q_.empty()) {
        if (closed_) throw ShutdownError();
        return std::nullopt;
      }
      T v = std::move(q_.front());
      q_.pop_front();
      return v;
    }

    std::mutex m_;
    std::condition_variable cv_;
    std::deque<T> q_;
    bool closed_ = false;
  };

  /// Runs fn on the poll thread and waits for it (fn must not block).
  void run_on_poll_thread(std::function<void()> fn);
  /// Starts consensus root `type`/`calls++` on the poll thread via
  /// `start(id, on_decide)` and blocks for its decision (ShutdownError if
  /// stop() comes first).
  template <typename T, typename Start>
  T decide(ProtocolType type, std::uint64_t& calls, Start start);
  ProtocolStack& stack() { return runtime_.stack(group_); }
  static std::uint64_t bcast_seq(ProcessId origin, std::uint64_t k) {
    return (static_cast<std::uint64_t>(origin) << 32) | k;
  }
  /// Maintains the pre-created receive window for rb/eb roots. Poll thread only.
  void ensure_bcast_windows();
  void on_bcast_deliver(ProtocolType type, ProcessId origin, std::uint64_t k,
                        Bytes payload);

  const GroupId group_;
  const std::uint32_t recv_window_;
  NodeRuntime runtime_;

  // Poll-thread-owned protocol state. Broadcast-window roots are destroyed
  // once delivered (deferred to a safe point — never inside their own
  // delivery callback); consensus roots stay for the session (peers may
  // still need our courtesy-round participation).
  std::map<InstanceId, std::unique_ptr<Protocol>> roots_;
  std::vector<InstanceId> dead_roots_;
  AtomicBroadcast* ab_ = nullptr;
  std::vector<std::uint64_t> rb_created_, eb_created_;   // per origin
  std::vector<std::uint64_t> rb_delivered_, eb_delivered_;
  std::uint64_t rb_sent_ = 0, eb_sent_ = 0;
  std::uint64_t bc_calls_ = 0, mvc_calls_ = 0, vc_calls_ = 0;
  /// Undecided consensus calls: fails the caller's promise. Erased on the
  /// decision; run by stop() (after the poll thread joined) for the rest.
  std::map<InstanceId, std::function<void()>> pending_;

  BlockingQueue<Delivery> rb_rx_, eb_rx_;
  BlockingQueue<AbDelivery> ab_rx_;
  /// Poll-thread-owned after start() (ab_subscribe posts the swap there);
  /// when set, AB deliveries bypass ab_rx_.
  AbSubscriber ab_sub_;
};

}  // namespace ritas
