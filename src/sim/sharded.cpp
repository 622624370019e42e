#include "sim/sharded.h"

#include <stdexcept>

#include "smr/kv_machine.h"

namespace ritas::sim {

ShardedCluster::ShardedCluster(ShardedClusterOptions opts)
    : Cluster(opts) {
  const std::uint32_t groups = this->groups();
  smr::ShardedService::Config sc;
  sc.shards = groups;
  sc.key_of = opts.key_of ? std::move(opts.key_of)
                          : [](ByteView op) { return smr::kv_key_of(op); };
  const auto factory =
      opts.machine_factory
          ? std::move(opts.machine_factory)
          : [](smr::ShardId) -> std::unique_ptr<smr::StateMachine> {
              return std::make_unique<smr::KvMachine>();
            };
  ab_logs_.assign(groups, std::vector<oracle::AbLog>(n()));
  ab_sent_.assign(groups, {});
  abs_.resize(n());
  for (ProcessId p = 0; p < n(); ++p) {
    services_.push_back(std::make_unique<smr::ShardedService>(sc, factory));
  }

  // AB roots: the SAME root id at every process and every group — the
  // GroupId is the wire-level separator, so identical child-seq encodings
  // across groups never collide.
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  for (ProcessId p : live()) {  // crashed from t=0: no roots, no submitter
    for (GroupId g = 0; g < groups; ++g) {
      abs_[p].push_back(std::make_unique<AtomicBroadcast>(
          stack(p, g), nullptr, ab_root,
          [this, p, g](ProcessId origin, std::uint64_t rbid, Slice payload) {
            const ByteView bytes = payload.view();
            ab_logs_[g][p].push_back(
                {origin, rbid, Bytes(bytes.begin(), bytes.end())});
            services_[p]->on_delivered(g, bytes);
          }));
      stack(p, g).pump();
    }
    services_[p]->bind_submitter([this, p](smr::ShardId shard,
                                           const Bytes& command) {
      const std::uint64_t rbid = abs_[p][shard]->bcast(Bytes(command));
      // Oracle bookkeeping: correct senders only, and only while batching
      // is off — with batching every message of a batch shares the batch's
      // rbid, so (origin, rbid) no longer names one payload and check_ab's
      // no-creation/validity do not apply.
      if (!byzantine(p) && !stack(p, shard).config().ab_batch.enabled) {
        ab_sent_[shard][{p, rbid}] = command;
      }
      stack(p, shard).pump();
    });
  }
}

ShardedCluster::~ShardedCluster() = default;

smr::ShardedService& ShardedCluster::front(ProcessId via) {
  if (via >= n() || crashed(via)) {
    throw std::invalid_argument("submit: bad via process");
  }
  return *services_[via];
}

smr::ShardId ShardedCluster::submit(ProcessId via, std::uint64_t client,
                                    std::uint64_t seq, ByteView op) {
  return front(via).submit(client, seq, op);
}

smr::ShardId ShardedCluster::submit_via(ProcessId via, smr::ShardId guess,
                                        std::uint64_t client, std::uint64_t seq,
                                        ByteView op) {
  return front(via).submit_via(guess, client, seq, op);
}

void ShardedCluster::flush_all() {
  for (ProcessId p = 0; p < n(); ++p) {
    for (GroupId g = 0; g < abs_[p].size(); ++g) {
      abs_[p][g]->flush();
      stack(p, g).pump();
    }
  }
}

bool ShardedCluster::all_applied_at_least(std::uint64_t count) const {
  for (ProcessId p : correct_set()) {
    if (services_[p]->applied_total() < count) return false;
  }
  return true;
}

}  // namespace ritas::sim
