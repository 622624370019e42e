#include "ritas/context.h"

#include <future>
#include <stdexcept>

#include "core/binary_consensus.h"
#include "core/echo_broadcast.h"
#include "core/multivalued_consensus.h"
#include "core/reliable_broadcast.h"
#include "core/vector_consensus.h"

namespace ritas {

Context::Context(Options opts)
    : group_(opts.group),
      recv_window_(opts.recv_window > 0
                       ? opts.recv_window
                       : throw std::invalid_argument("ritas::Context: recv_window must be > 0")),
      runtime_(opts, opts.group, 1),
      rb_created_(opts.n, 0),
      eb_created_(opts.n, 0),
      rb_delivered_(opts.n, 0),
      eb_delivered_(opts.n, 0) {
  // Safe point: nothing is on a protocol call stack, so delivered
  // broadcast roots can be freed.
  runtime_.set_safe_point([this](GroupId) {
    for (const InstanceId& id : dead_roots_) roots_.erase(id);
    dead_roots_.clear();
  });
}

Context::~Context() { stop(); }

void Context::start() {
  if (runtime_.running()) return;
  runtime_.start();
  // Create the session-wide atomic broadcast root and the initial
  // receive-side broadcast windows on the poll thread.
  run_on_poll_thread([this] {
    auto ab = std::make_unique<AtomicBroadcast>(
        stack(), nullptr, InstanceId::root(ProtocolType::kAtomicBroadcast, 0),
        [this](ProcessId origin, std::uint64_t rbid, Slice payload) {
          // App-boundary copy: queued deliveries must not pin whole batch
          // frames for as long as the application keeps the payload.
          AbDelivery d{origin, rbid, payload.to_bytes()};
          if (ab_sub_) {
            ab_sub_(std::move(d));  // poll thread; subscriber must not block
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
  // The runtime has run every accepted task and joined its threads, so
  // the poll-thread-owned state below is ours alone.
  if (!runtime_.stop()) return;
  // Wake any threads blocked in the recv calls.
  rb_rx_.close();
  eb_rx_.close();
  ab_rx_.close();
  // Consensus calls still waiting for a decision throw ShutdownError: the
  // roots that would decide are destroyed below.
  for (auto& [id, fail] : pending_) fail();
  pending_.clear();
  roots_.clear();
  dead_roots_.clear();
  ab_ = nullptr;
}

void Context::run_on_poll_thread(std::function<void()> fn) {
  std::promise<void> done;
  auto fut = done.get_future();
  // Exceptions must not unwind the poll thread: capture and rethrow
  // in the calling thread instead.
  runtime_.post(group_, [&done, f = std::move(fn)] {
    try {
      f();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  fut.get();
}

void Context::ensure_bcast_windows() {
  for (ProcessId o = 0; o < n(); ++o) {
    while (rb_created_[o] < rb_delivered_[o] + recv_window_) {
      const std::uint64_t k = rb_created_[o]++;
      const InstanceId id =
          InstanceId::root(ProtocolType::kReliableBroadcast, bcast_seq(o, k));
      roots_.emplace(id, make_rb(stack(), nullptr, id, o, Attribution::kPayload,
                                 [this, o, k](Slice payload) {
                                   on_bcast_deliver(
                                       ProtocolType::kReliableBroadcast, o, k,
                                       payload.to_bytes());
                                 }));
    }
    while (eb_created_[o] < eb_delivered_[o] + recv_window_) {
      const std::uint64_t k = eb_created_[o]++;
      const InstanceId id =
          InstanceId::root(ProtocolType::kEchoBroadcast, bcast_seq(o, k));
      roots_.emplace(id, std::make_unique<EchoBroadcast>(
                             stack(), nullptr, id, o, Attribution::kPayload,
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
  run_on_poll_thread([this, &payload] {
    const std::uint64_t k = rb_sent_++;
    const InstanceId id = InstanceId::root(ProtocolType::kReliableBroadcast,
                                           bcast_seq(self(), k));
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
  run_on_poll_thread([this, &payload] {
    const std::uint64_t k = eb_sent_++;
    const InstanceId id = InstanceId::root(ProtocolType::kEchoBroadcast,
                                           bcast_seq(self(), k));
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
  run_on_poll_thread([this, &payload, &rbid] { rbid = ab_->bcast(std::move(payload)); });
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
  run_on_poll_thread([this] { ab_->flush(); });
}

void Context::ab_subscribe(AbSubscriber fn) {
  if (!runtime_.running()) {
    ab_sub_ = std::move(fn);  // poll thread not running yet; plain write is safe
    return;
  }
  run_on_poll_thread([this, f = std::move(fn)]() mutable { ab_sub_ = std::move(f); });
}

template <typename T, typename Start>
T Context::decide(ProtocolType type, std::uint64_t& calls, Start start) {
  std::promise<T> decided;
  auto fut = decided.get_future();
  run_on_poll_thread([&] {
    const InstanceId id = InstanceId::root(type, calls++);
    // Until the decision arrives, stop() fails the promise instead.
    pending_.emplace(id, [&decided] {
      decided.set_exception(std::make_exception_ptr(ShutdownError()));
    });
    try {
      roots_.emplace(id, start(id, [this, id, &decided](T v) {
        pending_.erase(id);
        decided.set_value(std::move(v));
      }));
    } catch (...) {
      pending_.erase(id);  // the caller rethrows and its promise dies
      throw;
    }
  });
  return fut.get();
}

bool Context::bc(bool proposal) {
  return decide<bool>(
      ProtocolType::kBinaryConsensus, bc_calls_,
      [&](const InstanceId& id, auto on_decide) {
        auto inst = make_bc(stack(), nullptr, id, Attribution::kAgreement,
                            std::move(on_decide));
        inst->propose(proposal);
        return inst;
      });
}

std::optional<Bytes> Context::mvc(Bytes proposal) {
  return decide<std::optional<Bytes>>(
      ProtocolType::kMultiValuedConsensus, mvc_calls_,
      [&](const InstanceId& id, auto on_decide) {
        auto inst = std::make_unique<MultiValuedConsensus>(
            stack(), nullptr, id, Attribution::kAgreement, std::move(on_decide));
        inst->propose(std::move(proposal));
        return inst;
      });
}

std::vector<std::optional<Bytes>> Context::vc(Bytes proposal) {
  return decide<VectorConsensus::Vector>(
      ProtocolType::kVectorConsensus, vc_calls_,
      [&](const InstanceId& id, auto on_decide) {
        auto inst = std::make_unique<VectorConsensus>(
            stack(), nullptr, id, Attribution::kAgreement, std::move(on_decide));
        inst->propose(std::move(proposal));
        return inst;
      });
}

Metrics Context::metrics() {
  Metrics m;
  run_on_poll_thread([this, &m] {
    m = stack().metrics();
    // The mux sees foreign-group and unparsable frames before the stack.
    m.malformed_dropped += runtime_.mux().malformed_dropped();
    m.foreign_group_dropped += runtime_.mux().foreign_dropped();
  });
  return m;
}

}  // namespace ritas
