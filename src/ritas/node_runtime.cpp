#include "ritas/node_runtime.h"

#include <random>
#include <stdexcept>
#include <string>

#include "common/rng.h"

namespace ritas {

namespace {

/// Rejects an inconsistent configuration before anything (keychain,
/// transport, stacks) is built from it — a wrong membership must never
/// reach the mesh layer.
const NodeConfig& validate(const NodeConfig& c, std::uint32_t groups) {
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("ritas: ") + what);
  };
  if (c.n < 4) fail("n must be >= 4 (n >= 3f+1, f >= 1)");
  if (c.self >= c.n) fail("self must be < n");
  if (c.peers.size() != c.n) fail("peers.size() must equal n");
  const AbBatchConfig& b = c.stack.ab_batch;
  if (b.enabled && (b.max_batch_msgs == 0 || b.max_batch_bytes == 0)) {
    fail("stack.ab_batch limits must be > 0");
  }
  if (groups == 0) fail("groups must be > 0");
  // Unknown or incompatible protocol-variant selections fail here too
  // (the ProtocolStack constructor re-checks, but this path owns the
  // user-facing error).
  validate_variants(c.stack.variants, c.n, c.stack.coin_mode);
  return c;
}

}  // namespace

NodeRuntime::NodeRuntime(const NodeConfig& cfg, GroupId first_group,
                         std::uint32_t groups)
    : cfg_(validate(cfg, groups)),
      first_group_(first_group),
      keys_(KeyChain::deal(cfg_.master_secret, cfg_.n, cfg_.self)) {
  net::TcpTransport::Options topts;
  topts.n = cfg_.n;
  topts.self = cfg_.self;
  topts.peers = cfg_.peers;
  topts.authenticate = cfg_.authenticate;
  topts.min_start_links = cfg_.min_start_links;
  // Decorrelate per-process transport randomness (handshake nonces,
  // backoff jitter) even when every node is configured with the same seed.
  topts.rng_seed = cfg_.rng_seed == 0
                       ? 0
                       : cfg_.rng_seed ^ (0x9e3779b97f4a7c15ULL * (cfg_.self + 1));
  transport_ = std::make_unique<net::TcpTransport>(topts, keys_);

  std::uint64_t seed = cfg_.rng_seed;
  if (seed == 0) {
    std::random_device rd;
    seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  // Same per-(process, group) derivation as sim::Cluster, so a
  // fixed-seed TCP run draws the same per-stack randomness streams.
  const std::uint64_t base = splitmix64(seed);
  stacks_.reserve(groups);
  for (std::uint32_t i = 0; i < groups; ++i) {
    const GroupId g = first_group + i;
    StackConfig sc = cfg_.stack;
    sc.n = cfg_.n;
    sc.self = cfg_.self;
    sc.group = g;
    const std::uint64_t stack_seed = base ^ (0x1000 + cfg_.self) ^
                                     (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL);
    stacks_.push_back(std::make_unique<ProtocolStack>(sc, *transport_, keys_, stack_seed));
    mux_.attach(g, *stacks_.back());
  }
}

NodeRuntime::~NodeRuntime() { stop(); }

void NodeRuntime::start() {
  if (running_.load()) return;
  transport_->set_sink([this](ProcessId from, Slice frame) {
    mux_.on_packet(from, std::move(frame));
  });
  transport_->start();
  running_.store(true);
  poll_thread_ = std::thread([this] { poll_loop(); });
}

bool NodeRuntime::stop() {
  {
    std::lock_guard<std::mutex> lock(lane_mutex_);
    if (!running_.exchange(false)) return false;
  }
  transport_->wakeup();
  if (poll_thread_.joinable()) poll_thread_.join();
  transport_->stop();
  return true;
}

void NodeRuntime::post(GroupId g, std::function<void()> fn) {
  auto task = [this, g, f = std::move(fn)] {
    f();
    stack(g).pump();
  };
  std::lock_guard<std::mutex> lock(lane_mutex_);
  if (!running_.load()) throw std::logic_error("ritas: node runtime is not running");
  tasks_.push_back(std::move(task));
  transport_->wakeup();
}

void NodeRuntime::poll_loop() {
  // One loop polls, runs posted tasks and settles every group.
  const auto drain = [this] {
    run_tasks();
    for (std::uint32_t i = 0; i < stacks_.size(); ++i) settle(first_group_ + i);
  };
  while (running_.load()) {
    transport_->poll_once(20);
    drain();
  }
  drain();  // tasks accepted before the lane closed still run
}

void NodeRuntime::run_tasks() {
  std::deque<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(lane_mutex_);
    tasks.swap(tasks_);
  }
  for (auto& t : tasks) t();
}

void NodeRuntime::settle(GroupId g) {
  stack(g).pump();
  if (safe_point_) safe_point_(g);
}

}  // namespace ritas
