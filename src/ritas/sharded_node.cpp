#include "ritas/sharded_node.h"

#include <random>
#include <stdexcept>

#include "common/rng.h"
#include "smr/kv_machine.h"

namespace ritas {

namespace {

ShardedNode::Options validate(ShardedNode::Options o) {
  if (o.n < 4) {
    throw std::invalid_argument("ShardedNode: n must be >= 4 (n >= 3f+1)");
  }
  if (o.self >= o.n) throw std::invalid_argument("ShardedNode: self must be < n");
  if (o.peers.size() != o.n) {
    throw std::invalid_argument("ShardedNode: peers.size() must equal n");
  }
  if (o.groups == 0) throw std::invalid_argument("ShardedNode: groups == 0");
  if (o.reactor_threads > 64) {
    throw std::invalid_argument("ShardedNode: reactor_threads must be <= 64");
  }
  if (!o.pinning.empty()) {
    if (o.reactor_threads == 0) {
      throw std::invalid_argument("ShardedNode: pinning needs reactor_threads > 0");
    }
    if (o.pinning.size() != o.groups) {
      throw std::invalid_argument("ShardedNode: pinning.size() must equal groups");
    }
    for (std::uint32_t r : o.pinning) {
      if (r >= o.reactor_threads) {
        throw std::invalid_argument("ShardedNode: pin target out of range");
      }
    }
  }
  return o;
}

}  // namespace

ShardedNode::ShardedNode(Options opts)
    : opts_(validate(std::move(opts))),
      keys_(KeyChain::deal(opts_.master_secret, opts_.n, opts_.self)) {
  net::TcpTransport::Options topts;
  topts.n = opts_.n;
  topts.self = opts_.self;
  topts.peers = opts_.peers;
  topts.authenticate = opts_.authenticate;
  topts.min_start_links = opts_.min_start_links;
  topts.rng_seed =
      opts_.rng_seed == 0
          ? 0
          : opts_.rng_seed ^ (0x9e3779b97f4a7c15ULL * (opts_.self + 1));
  transport_ = std::make_unique<net::TcpTransport>(topts, keys_);

  if (opts_.reactor_threads > 0) {
    ReactorPool::Options popts;
    popts.threads = opts_.reactor_threads;
    pool_ = std::make_unique<ReactorPool>(popts);
    for (GroupId g = 0; g < opts_.groups; ++g) {
      if (!opts_.pinning.empty()) pool_->pin(g, opts_.pinning[g]);
    }
  }

  std::uint64_t seed = opts_.rng_seed;
  if (seed == 0) {
    std::random_device rd;
    seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  // Same per-(process, group) derivation as sim::ShardedCluster, so a
  // fixed-seed TCP run draws the same per-stack randomness streams.
  std::uint64_t s = seed;
  const std::uint64_t base = splitmix64(s);

  stacks_.reserve(opts_.groups);
  if (opts_.trace) tracers_.reserve(opts_.groups);
  for (GroupId g = 0; g < opts_.groups; ++g) {
    StackConfig cfg = opts_.stack;
    cfg.n = opts_.n;
    cfg.self = opts_.self;
    cfg.group = g;
    const std::uint64_t proc_seed =
        base ^ (0x1000 + opts_.self) ^
        (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL);
    stacks_.push_back(
        std::make_unique<ProtocolStack>(cfg, *transport_, keys_, proc_seed));
    mux_.attach(g, *stacks_[g]);
    if (opts_.trace) {
      tracers_.push_back(std::make_unique<Tracer>(opts_.self));
      stacks_[g]->set_tracer(tracers_[g].get());
    }
  }

  smr::ShardedService::Config sc;
  sc.shards = opts_.groups;
  sc.key_of = opts_.key_of ? opts_.key_of
                           : [](ByteView op) { return smr::kv_key_of(op); };
  const auto factory =
      opts_.machine_factory
          ? opts_.machine_factory
          : [](smr::ShardId) -> std::unique_ptr<smr::StateMachine> {
              return std::make_unique<smr::KvMachine>();
            };
  service_ = std::make_unique<smr::ShardedService>(sc, factory);

  // AB roots: the SAME root id at every process and every group — the
  // GroupId prefix is the wire-level separator (see sim::ShardedCluster).
  const InstanceId ab_root = InstanceId::root(ProtocolType::kAtomicBroadcast, 0);
  abs_.reserve(opts_.groups);
  for (GroupId g = 0; g < opts_.groups; ++g) {
    abs_.push_back(std::make_unique<AtomicBroadcast>(
        *stacks_[g], nullptr, ab_root,
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
    // Any thread → the reactor (or poll thread) that owns the shard's
    // stack; the broadcast and the follow-up pump both run there.
    post_to_group(shard, [this, shard, command] {
      abs_[shard]->bcast(Bytes(command));
      stacks_[shard]->pump();
    });
  });
}

ShardedNode::~ShardedNode() { stop(); }

void ShardedNode::start() {
  if (running_.load()) return;
  if (pool_) {
    // One idle hook per reactor: pump exactly the stacks it owns, after
    // every drain batch. Ownership never changes after start.
    for (std::uint32_t r = 0; r < opts_.reactor_threads; ++r) {
      std::vector<GroupId> owned;
      for (GroupId g = 0; g < opts_.groups; ++g) {
        if (pool_->reactor_of(g) == r) owned.push_back(g);
      }
      pool_->set_idle_hook(r, [this, owned = std::move(owned)] {
        for (GroupId g : owned) stacks_[g]->pump();
      });
    }
    pool_->start();
    mux_.bind_reactors(pool_.get());
  }
  transport_->set_sink([this](ProcessId from, Slice frame) {
    mux_.on_packet(from, std::move(frame));
  });
  transport_->start();
  running_.store(true);
  poll_thread_ = std::thread([this] { poll_loop(); });
}

void ShardedNode::stop() {
  if (!running_.exchange(false)) return;
  transport_->wakeup();
  if (poll_thread_.joinable()) poll_thread_.join();
  // Poll thread gone ⇒ no new frames enter the rings; drain the reactors
  // before anything they own (stacks, service) can be torn down.
  if (pool_) pool_->stop();
  transport_->stop();
}

void ShardedNode::poll_loop() {
  if (pool_) {
    // Pipeline mode: this thread owns only the sockets and the handoff.
    while (running_.load()) transport_->poll_once(20);
    return;
  }
  // Single-thread path: poll, run posted tasks, pump — one loop does it
  // all, exactly like the pre-pipeline Context reactor.
  while (running_.load()) {
    transport_->poll_once(20);
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      tasks.swap(tasks_);
    }
    for (auto& t : tasks) t();
    for (GroupId g = 0; g < opts_.groups; ++g) stacks_[g]->pump();
  }
  // Final drain so a submit racing stop() is not silently dropped.
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks.swap(tasks_);
  }
  for (auto& t : tasks) t();
}

void ShardedNode::post_to_group(GroupId g, std::function<void()> fn) {
  if (pool_) {
    pool_->post(g, std::move(fn));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
  }
  transport_->wakeup();
}

smr::ShardId ShardedNode::submit(std::uint64_t client, std::uint64_t seq,
                                 ByteView op) {
  if (!running_.load()) throw std::logic_error("ShardedNode: not started");
  return service_->submit(client, seq, op);
}

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
