#include "ritas/sharded_node.h"

#include "smr/kv_machine.h"

namespace ritas {

ShardedNode::ShardedNode(Options opts)
    : runtime_(opts, 0, opts.groups) {
  if (opts.trace) {
    for (GroupId g = 0; g < opts.groups; ++g) {
      tracers_.push_back(std::make_unique<Tracer>(opts.self));
      runtime_.stack(g).set_tracer(tracers_[g].get());
    }
  }

  smr::ShardedService::Config sc;
  sc.shards = opts.groups;
  sc.key_of = opts.key_of ? opts.key_of
                          : [](ByteView op) { return smr::kv_key_of(op); };
  const auto factory =
      opts.machine_factory
          ? opts.machine_factory
          : [](smr::ShardId) -> std::unique_ptr<smr::StateMachine> {
              return std::make_unique<smr::KvMachine>();
            };
  service_ = std::make_unique<smr::ShardedService>(sc, factory);

  // AB roots: the SAME root id at every process and every group — the
  // GroupId prefix is the wire-level separator (see sim::Cluster).
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  for (GroupId g = 0; g < opts.groups; ++g) {
    abs_.push_back(std::make_unique<AtomicBroadcast>(
        runtime_.stack(g), nullptr, ab_root,
        [this, g](ProcessId /*origin*/, std::uint64_t /*rbid*/, Slice payload) {
          service_->on_delivered(g, payload.view());
        }));
  }
  service_->set_on_applied([this](smr::ShardId, std::uint64_t, std::uint64_t,
                                  const Bytes&) {
    {
      std::lock_guard<std::mutex> lock(applied_mutex_);
      ++applied_;
    }
    applied_cv_.notify_all();
  });
  service_->bind_submitter([this](smr::ShardId shard, const Bytes& command) {
    // Any thread → the poll thread's lane (throws once the node stopped).
    runtime_.post(shard, [this, shard, command] { abs_[shard]->bcast(Bytes(command)); });
  });
}

ShardedNode::~ShardedNode() { stop(); }

std::uint64_t ShardedNode::applied_total() const {
  std::lock_guard<std::mutex> lock(applied_mutex_);
  return applied_;
}

bool ShardedNode::wait_applied_at_least(std::uint64_t count,
                                        std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(applied_mutex_);
  return applied_cv_.wait_for(lock, timeout,
                              [&] { return applied_ >= count; });
}

Bytes ShardedNode::group_trace_bytes(GroupId g) const {
  if (g >= tracers_.size()) return {};
  return tracers_[g]->encode();
}

}  // namespace ritas
