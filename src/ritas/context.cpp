#include "ritas/context.h"

#include <random>
#include <stdexcept>

#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"

namespace ritas {

namespace {

/// Rejects inconsistent Options before any member (keychain, transport,
/// stack) is built from them — a wrong membership must never reach the
/// mesh layer.
Context::Options validate(Context::Options o) {
  if (o.n < 4) {
    throw std::invalid_argument("ritas::Context: n must be >= 4 (n >= 3f+1, f >= 1)");
  }
  if (o.self >= o.n) {
    throw std::invalid_argument("ritas::Context: self must be < n");
  }
  if (o.peers.size() != o.n) {
    throw std::invalid_argument("ritas::Context: peers.size() must equal n");
  }
  if (o.recv_window == 0) {
    throw std::invalid_argument("ritas::Context: recv_window must be > 0");
  }
  if (o.batch.enabled && (o.batch.max_msgs == 0 || o.batch.max_bytes == 0)) {
    throw std::invalid_argument("ritas::Context: batch limits must be > 0");
  }
  if (o.reactor_threads > 64) {
    throw std::invalid_argument("ritas::Context: reactor_threads must be <= 64");
  }
  // Unknown or incompatible protocol-variant selections fail here, before
  // any networking exists (the ProtocolStack constructor re-checks, but
  // this path owns the user-facing error).
  validate_variants(o.stack.variants, o.n, o.stack.coin_mode);
  return o;
}

}  // namespace

Context::Context(Options opts)
    : opts_(validate(std::move(opts))),
      keys_(KeyChain::deal(opts_.master_secret, opts_.n, opts_.self)),
      rb_created_(opts_.n, 0),
      eb_created_(opts_.n, 0),
      rb_delivered_(opts_.n, 0),
      eb_delivered_(opts_.n, 0) {
  net::TcpTransport::Options topts;
  topts.n = opts_.n;
  topts.self = opts_.self;
  topts.peers = opts_.peers;
  topts.authenticate = opts_.authenticate;
  topts.min_start_links = opts_.min_start_links;
  // Decorrelate per-process transport randomness (handshake nonces,
  // backoff jitter) even when every node is configured with the same seed.
  topts.rng_seed = opts_.rng_seed == 0
                       ? 0
                       : opts_.rng_seed ^ (0x9e3779b97f4a7c15ULL * (opts_.self + 1));
  transport_ = std::make_unique<net::TcpTransport>(topts, keys_);

  StackConfig cfg = opts_.stack;
  cfg.n = opts_.n;
  cfg.self = opts_.self;
  cfg.group = opts_.group;
  cfg.ab_batch.enabled = opts_.batch.enabled;
  cfg.ab_batch.max_batch_msgs = opts_.batch.max_msgs;
  cfg.ab_batch.max_batch_bytes = opts_.batch.max_bytes;
  if (opts_.reactor_threads > 0) {
    ReactorPool::Options popts;
    popts.threads = opts_.reactor_threads;
    pool_ = std::make_unique<ReactorPool>(popts);
    pool_->pin(opts_.group, 0);  // single-group session: reactor 0 owns it
  }
  std::uint64_t seed = opts_.rng_seed;
  if (seed == 0) {
    std::random_device rd;
    seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  stack_ = std::make_unique<ProtocolStack>(cfg, *transport_, keys_, seed);
}

Context::~Context() { stop(); }

void Context::start() {
  if (running_.load()) return;
  if (pool_) {
    // Pipeline mode: the poll thread only moves frames into the reactor
    // ring; all protocol work (and the roots_ bookkeeping) happens on
    // reactor 0, which also pumps the stack after every drain batch.
    pool_->set_idle_hook(0, [this] {
      stack_->pump();
      for (const InstanceId& id : dead_roots_) roots_.erase(id);
      dead_roots_.clear();
    });
    pool_->start();
    transport_->set_sink([this](ProcessId from, Slice frame) {
      pool_->route(opts_.group, *stack_, from, std::move(frame));
    });
  } else {
    transport_->set_sink([this](ProcessId from, Slice frame) {
      stack_->on_packet(from, std::move(frame));
    });
  }
  transport_->start();
  running_.store(true);
  reactor_ = std::thread([this] { reactor_loop(); });

  // Create the session-wide atomic broadcast root and the initial
  // receive-side broadcast windows on the reactor.
  run_on_reactor([this] {
    auto ab = std::make_unique<AtomicBroadcast>(
        *stack_, nullptr, InstanceId::root(ProtocolType::kAtomicBroadcast, 0),
        [this](ProcessId origin, std::uint64_t rbid, Slice payload) {
          // App-boundary copy: queued deliveries must not pin whole batch
          // frames for as long as the application keeps the payload.
          AbDelivery d{origin, rbid, payload.to_bytes()};
          if (ab_sub_) {
            ab_sub_(std::move(d));  // reactor thread; subscriber must not block
          } else {
            ab_rx_.push(std::move(d));
          }
        });
    ab_ = ab.get();
    roots_.emplace(ab_->id(), std::move(ab));
    ensure_bcast_windows();
  });
}

void Context::stop() {
  if (!running_.exchange(false)) return;
  transport_->wakeup();
  if (reactor_.joinable()) reactor_.join();
  // Poll thread is gone, so no new frames enter the rings; drain the
  // reactors before touching reactor-owned state (roots_).
  if (pool_) pool_->stop();
  // Wake any threads blocked in the recv calls.
  rb_rx_.close();
  eb_rx_.close();
  ab_rx_.close();
  // Tear down the control-block trees before the transport goes away.
  roots_.clear();
  dead_roots_.clear();
  ab_ = nullptr;
  transport_->stop();
}

void Context::reactor_loop() {
  if (pool_) {
    // Pipeline mode: this thread owns only the transport; frames hand
    // off through the ring and tasks go straight to the pool.
    while (running_.load()) transport_->poll_once(20);
    return;
  }
  while (running_.load()) {
    transport_->poll_once(20);
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      tasks.swap(tasks_);
    }
    for (auto& t : tasks) {
      t();  // exceptions captured inside the task wrapper
      stack_->pump();
    }
    // Safe point: nothing is on a protocol call stack here.
    for (const InstanceId& id : dead_roots_) roots_.erase(id);
    dead_roots_.clear();
  }
}

void Context::run_on_reactor(std::function<void()> fn) {
  if (!running_.load()) throw std::logic_error("Context not started");
  std::promise<void> done;
  auto fut = done.get_future();
  // Exceptions must not unwind the reactor thread: capture and rethrow
  // in the calling thread instead.
  auto wrapped = [&done, f = std::move(fn)] {
    try {
      f();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  };
  if (pool_) {
    pool_->post(opts_.group, std::move(wrapped));
  } else {
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      tasks_.push_back(std::move(wrapped));
    }
    transport_->wakeup();
  }
  fut.get();
}

void Context::ensure_bcast_windows() {
  for (ProcessId o = 0; o < opts_.n; ++o) {
    while (rb_created_[o] < rb_delivered_[o] + opts_.recv_window) {
      const std::uint64_t k = rb_created_[o]++;
      const InstanceId id =
          InstanceId::root(ProtocolType::kReliableBroadcast, bcast_seq(o, k));
      roots_.emplace(id, make_rb(*stack_, nullptr, id, o, Attribution::kPayload,
                                 [this, o, k](Slice payload) {
                                   on_bcast_deliver(
                                       ProtocolType::kReliableBroadcast, o, k,
                                       payload.to_bytes());
                                 }));
    }
    while (eb_created_[o] < eb_delivered_[o] + opts_.recv_window) {
      const std::uint64_t k = eb_created_[o]++;
      const InstanceId id =
          InstanceId::root(ProtocolType::kEchoBroadcast, bcast_seq(o, k));
      roots_.emplace(id, std::make_unique<EchoBroadcast>(
                             *stack_, nullptr, id, o, Attribution::kPayload,
                             [this, o, k](Slice payload) {
                               on_bcast_deliver(ProtocolType::kEchoBroadcast, o,
                                                k, payload.to_bytes());
                             }));
    }
  }
}

void Context::on_bcast_deliver(ProtocolType type, ProcessId origin,
                               std::uint64_t k, Bytes payload) {
  auto& delivered = type == ProtocolType::kReliableBroadcast ? rb_delivered_
                                                             : eb_delivered_;
  if (k + 1 > delivered[origin]) delivered[origin] = k + 1;
  // This instance finished its job; free it at the next safe point (we are
  // currently inside its delivery callback).
  dead_roots_.push_back(InstanceId::root(type, bcast_seq(origin, k)));
  ensure_bcast_windows();
  if (type == ProtocolType::kReliableBroadcast) {
    rb_rx_.push(Delivery{origin, std::move(payload)});
  } else {
    eb_rx_.push(Delivery{origin, std::move(payload)});
  }
}

void Context::rb_bcast(Bytes payload) {
  run_on_reactor([this, &payload] {
    const std::uint64_t k = rb_sent_++;
    const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast,
                                           bcast_seq(opts_.self, k));
    // The instance exists in our own receive window unless the sender has
    // outrun it.
    auto it = roots_.find(id);
    if (it == roots_.end()) {
      throw std::logic_error("rb_bcast: sender outran the receive window");
    }
    static_cast<RbAlgorithm&>(*it->second).bcast(std::move(payload));
  });
}

void Context::eb_bcast(Bytes payload) {
  run_on_reactor([this, &payload] {
    const std::uint64_t k = eb_sent_++;
    const InstanceId id = InstanceId::root(ProtocolType::kEchoBroadcast,
                                           bcast_seq(opts_.self, k));
    auto it = roots_.find(id);
    if (it == roots_.end()) {
      throw std::logic_error("eb_bcast: sender outran the receive window");
    }
    static_cast<EchoBroadcast&>(*it->second).bcast(std::move(payload));
  });
}

Context::Delivery Context::rb_recv() { return rb_rx_.pop(); }
std::optional<Context::Delivery> Context::rb_try_recv() { return rb_rx_.try_pop(); }
std::optional<Context::Delivery> Context::rb_recv_for(
    std::chrono::milliseconds timeout) {
  return rb_rx_.pop_for(timeout);
}
Context::Delivery Context::eb_recv() { return eb_rx_.pop(); }
std::optional<Context::Delivery> Context::eb_try_recv() { return eb_rx_.try_pop(); }
std::optional<Context::Delivery> Context::eb_recv_for(
    std::chrono::milliseconds timeout) {
  return eb_rx_.pop_for(timeout);
}

std::uint64_t Context::ab_bcast(Bytes payload) {
  std::uint64_t rbid = 0;
  run_on_reactor([this, &payload, &rbid] { rbid = ab_->bcast(std::move(payload)); });
  return rbid;
}

Context::AbDelivery Context::ab_recv() { return ab_rx_.pop(); }
std::optional<Context::AbDelivery> Context::ab_try_recv() {
  return ab_rx_.try_pop();
}
std::optional<Context::AbDelivery> Context::ab_recv_for(
    std::chrono::milliseconds timeout) {
  return ab_rx_.pop_for(timeout);
}

void Context::ab_flush() {
  run_on_reactor([this] { ab_->flush(); });
}

void Context::ab_subscribe(AbSubscriber fn) {
  if (!running_.load()) {
    ab_sub_ = std::move(fn);  // reactor not running yet; plain write is safe
    return;
  }
  run_on_reactor([this, f = std::move(fn)]() mutable { ab_sub_ = std::move(f); });
}

bool Context::bc(bool proposal) {
  std::promise<bool> decided;
  auto fut = decided.get_future();
  run_on_reactor([this, proposal, &decided] {
    const std::uint64_t k = bc_calls_++;
    auto inst = make_bc(
        *stack_, nullptr, InstanceId::root(ProtocolType::kBinaryConsensus, k),
        Attribution::kAgreement,
        [&decided](bool b) { decided.set_value(b); });
    inst->propose(proposal);
    roots_.emplace(inst->id(), std::move(inst));
  });
  return fut.get();
}

std::optional<Bytes> Context::mvc(Bytes proposal) {
  std::promise<std::optional<Bytes>> decided;
  auto fut = decided.get_future();
  run_on_reactor([this, &proposal, &decided] {
    const std::uint64_t k = mvc_calls_++;
    auto inst = std::make_unique<MultiValuedConsensus>(
        *stack_, nullptr,
        InstanceId::root(ProtocolType::kMultiValuedConsensus, k),
        Attribution::kAgreement,
        [&decided](std::optional<Bytes> v) { decided.set_value(std::move(v)); });
    inst->propose(std::move(proposal));
    roots_.emplace(inst->id(), std::move(inst));
  });
  return fut.get();
}

std::vector<std::optional<Bytes>> Context::vc(Bytes proposal) {
  std::promise<std::vector<std::optional<Bytes>>> decided;
  auto fut = decided.get_future();
  run_on_reactor([this, &proposal, &decided] {
    const std::uint64_t k = vc_calls_++;
    auto inst = std::make_unique<VectorConsensus>(
        *stack_, nullptr, InstanceId::root(ProtocolType::kVectorConsensus, k),
        Attribution::kAgreement,
        [&decided](VectorConsensus::Vector v) { decided.set_value(std::move(v)); });
    inst->propose(std::move(proposal));
    roots_.emplace(inst->id(), std::move(inst));
  });
  return fut.get();
}

Metrics Context::metrics() {
  Metrics m;
  run_on_reactor([this, &m] { m = stack_->metrics(); });
  return m;
}

}  // namespace ritas
