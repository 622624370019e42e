// Simulated RITAS cluster: n hosts on one simulated LAN, each running G
// consensus groups.
//
// This is the one host harness every integration test, paper-replication
// bench, the explorer and the sharded SMR layer (sim/sharded.h) drive. It
// owns the scheduler, the network, per-host keychains, stacks and root
// protocol instances, and applies the experiment faultloads of §4.2:
// failure-free, fail-stop (crashed processes), and Byzantine (processes
// running an Adversary).
//
// Topology per host p (the sim twin of the "many groups, one mesh"
// production layout, ritas::NodeRuntime):
//
//   SimNetwork host p ──► GroupMux p ──► ProtocolStack (p, g)   [G of]
//
// One KeyChain per host, shared by its G stacks (groups share pairwise
// channels, so they share the channel MAC secrets; the GroupId in the
// frame keeps a replay into another group a foreign_group drop). All G
// stacks send through the host's one Transport, so groups compete for the
// host's modeled CPU/NIC timelines. The stack of (p, g) draws its Rng
// from splitmix64(seed) ^ (0x1000 + p) ^ g·0x9e3779b97f4a7c15 — the g
// term vanishes at g = 0, so G = 1 is the plain single-group cluster.
// Wire events are host-scoped and traced into group 0's tracer.
//
// Determinism: same options => bit-identical run and traces.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/group_mux.h"
#include "core/stack.h"
#include "crypto/keychain.h"
#include "sim/network.h"
#include "sim/scheduler.h"

namespace ritas::sim {

struct ClusterOptions {
  std::uint32_t n = 4;
  /// Consensus groups hosted by every process (stacks (p, 0..groups-1)).
  std::uint32_t groups = 1;
  std::uint64_t seed = 1;
  LanModelConfig lan;
  /// Template for every stack's config (n/self/group overwritten).
  StackConfig stack;
  /// Crashed from t=0 (whole host): no roots created, all frames dropped.
  std::vector<ProcessId> crashed;
  /// Crash faults injected mid-run: process p stops sending/receiving at
  /// simulated time t (it still counts as live() for setup purposes —
  /// create its roots and let the crash cut it off).
  std::vector<std::pair<ProcessId, Time>> timed_crashes;
  /// Byzantine processes: each gets one Adversary from the factory, shared
  /// by the process's stacks.
  std::vector<ProcessId> byzantine;
  std::function<std::unique_ptr<Adversary>()> adversary_factory =
      [] { return std::make_unique<PaperByzantineAdversary>(); };
  /// Attach a Tracer to every stack (and the network's wire events).
  /// Timestamps are virtual time, so same seed => bit-identical traces.
  bool trace = false;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts);
  ~Cluster();

  std::uint32_t n() const { return opts_.n; }
  std::uint32_t groups() const { return opts_.groups; }
  Scheduler& scheduler() { return sched_; }
  SimNetwork& network() { return *net_; }
  Time now() const { return sched_.now(); }

  ProtocolStack& stack(ProcessId p, GroupId g = 0) { return *stacks_[at(p, g)]; }
  GroupMux& mux(ProcessId p) { return *muxes_[p]; }
  bool crashed(ProcessId p) const { return net_->crashed(p); }
  bool byzantine(ProcessId p) const { return adversaries_[p] != nullptr; }
  /// Correct = neither crashed nor Byzantine.
  bool correct(ProcessId p) const { return !crashed(p) && !byzantine(p); }
  std::vector<ProcessId> live() const;      // not crashed
  std::vector<ProcessId> correct_set() const;

  /// Creates a root protocol instance of type T at process p (group 0) and
  /// returns a reference. The same root id must be created at every live
  /// process.
  template <typename T, typename... Args>
  T& create_root(ProcessId p, const InstanceId& id, Args&&... args) {
    return adopt(p, std::make_unique<T>(stack(p), nullptr, id,
                                        std::forward<Args>(args)...));
  }

  /// Root RB/BC instances go through the variant factories (core/variants.h)
  /// — create_root<T> can't, since the concrete constructors are private —
  /// so a harness automatically drives whichever algorithm the stack's
  /// StackConfig::variants selects.
  RbAlgorithm& create_rb(ProcessId p, const InstanceId& id, ProcessId origin,
                         Attribution attr, RbAlgorithm::DeliverFn deliver) {
    return adopt(p, make_rb(stack(p), nullptr, id, origin, attr,
                            std::move(deliver)));
  }
  BcAlgorithm& create_bc(ProcessId p, const InstanceId& id, Attribution attr,
                         BcAlgorithm::DecideFn decide) {
    return adopt(p, make_bc(stack(p), nullptr, id, attr, std::move(decide)));
  }

  /// Destroys every root created at process p (recursively tears down the
  /// control-block tree).
  void destroy_roots(ProcessId p) { roots_[p].clear(); }

  /// Runs `fn` as an API call against process p (pumps its stacks after).
  void call(ProcessId p, const std::function<void()>& fn) {
    fn();
    for (GroupId g = 0; g < opts_.groups; ++g) stack(p, g).pump();
  }

  /// Runs the simulation until `done` or `deadline`; true iff done.
  bool run_until(const std::function<bool()>& done, Time deadline);
  /// Runs until the event queue drains; returns events executed.
  std::size_t run_all() { return sched_.run(); }

  /// Sum of group g's stack metrics over non-crashed processes.
  Metrics group_metrics(GroupId g) const;
  /// Sum over every group of the non-crashed processes, plus the frames
  /// their muxes dropped before any stack saw them.
  Metrics total_metrics() const;

  // --- tracing (opts.trace) ----------------------------------------------
  /// Stack (p, g)'s tracer, or nullptr when tracing is off.
  Tracer* tracer(ProcessId p, GroupId g = 0) {
    return tracers_.empty() ? nullptr : tracers_[at(p, g)].get();
  }
  /// Group g's per-process tracers in pid order (empty when tracing is off).
  std::vector<const Tracer*> tracers(GroupId g = 0) const;
  /// Deterministic binary form of group g's trace, processes concatenated
  /// in pid order — what the determinism tests compare. Group 0's trace
  /// also carries the host-scoped wire events of every group's frames.
  Bytes trace_bytes(GroupId g = 0) const;
  /// Chrome trace_event JSON over group 0's processes.
  std::string chrome_trace_json() const;

 private:
  std::size_t at(ProcessId p, GroupId g) const {
    return static_cast<std::size_t>(p) * opts_.groups + g;
  }
  template <typename T>
  T& adopt(ProcessId p, std::unique_ptr<T> inst) {
    T& ref = *inst;
    roots_[p].push_back(std::move(inst));
    stack(p).pump();
    return ref;
  }

  ClusterOptions opts_;
  Scheduler sched_;
  std::unique_ptr<SimNetwork> net_;
  std::vector<KeyChain> keys_;                        // [p]
  std::vector<std::unique_ptr<Adversary>> adversaries_;  // [p]
  // Tracers are declared BEFORE the stacks that point at them: teardown
  // runs in reverse, and a dying stack still records teardown events.
  std::vector<std::unique_ptr<Tracer>> tracers_;      // [at(p, g)]
  std::vector<std::unique_ptr<ProtocolStack>> stacks_;  // [at(p, g)]
  std::vector<std::unique_ptr<GroupMux>> muxes_;      // [p]
  std::vector<std::vector<std::unique_ptr<Protocol>>> roots_;  // [p]
};

}  // namespace ritas::sim
