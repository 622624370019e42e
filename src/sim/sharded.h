// Simulated sharded SMR deployment: the SMR layer over a G-group Cluster.
//
// The hosts, network, keys, stacks, faultloads, metrics and traces are
// the Cluster's (sim/cluster.h: G stacks per host behind one GroupMux on
// one shared simulated LAN). On top, every live process p runs one
// AtomicBroadcast root per group — the SAME root id in every group, since
// the GroupId separates groups on the wire — and one ShardedService whose
// shard g is ordered by group g's atomic broadcast.
//
// At G = 1 this is a replicated state machine over a plain single-group
// cluster: same seeds, same wire bytes, same traces.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/atomic_broadcast.h"
#include "sim/cluster.h"
#include "sim/oracles.h"
#include "smr/sharded_service.h"

namespace ritas::sim {

struct ShardedClusterOptions : ClusterOptions {
  /// Service plumbing; defaults to the KV machine and its key extractor.
  smr::ShardedService::MachineFactory machine_factory;  // null => KvMachine
  smr::ShardedService::KeyOfFn key_of;                  // null => kv_key_of
};

class ShardedCluster : public Cluster {
 public:
  explicit ShardedCluster(ShardedClusterOptions opts);
  ~ShardedCluster();

  smr::ShardedService& service(ProcessId p) { return *services_[p]; }

  /// Submits a client op through process `via`'s service front (routes to
  /// the owning shard's atomic broadcast at that process). Returns the
  /// owning shard.
  smr::ShardId submit(ProcessId via, std::uint64_t client, std::uint64_t seq,
                      ByteView op);
  /// Same, for a client that guessed shard `guess` — a wrong guess is
  /// forwarded (service.forwarded() counts it), never dropped.
  smr::ShardId submit_via(ProcessId via, smr::ShardId guess,
                          std::uint64_t client, std::uint64_t seq, ByteView op);

  /// Seals every open AB batch at every live stack (no-op unbatched).
  void flush_all();

  /// True when every correct process applied >= `count` commands in total
  /// across its shards (the usual run_until predicate).
  bool all_applied_at_least(std::uint64_t count) const;

  // --- per-group observations (oracle inputs) ----------------------------
  /// Process-indexed AB delivery logs of group g (index = ProcessId).
  const std::vector<oracle::AbLog>& ab_log(GroupId g) const {
    return ab_logs_[g];
  }
  /// What correct processes broadcast on group g ((origin, rbid) ->
  /// framed command), maintained by submit(); feed to oracle::check_ab.
  const oracle::AbSent& ab_sent(GroupId g) const { return ab_sent_[g]; }

 private:
  smr::ShardedService& front(ProcessId via);

  std::vector<std::unique_ptr<smr::ShardedService>> services_;  // [p]
  // abs_[p][g] (empty for processes crashed from t=0); ab_logs_[g][p].
  std::vector<std::vector<std::unique_ptr<AtomicBroadcast>>> abs_;
  std::vector<std::vector<oracle::AbLog>> ab_logs_;
  std::vector<oracle::AbSent> ab_sent_;
};

}  // namespace ritas::sim
