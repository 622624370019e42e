// ritas_perfbench — real-TCP service benchmark (workloads, metrics and
// their layers are described in NOTES.md).
//
// Brings up four real-TCP nodes inside this process on 127.0.0.1, drives
// them open-loop from one generator thread, checks every node's outputs
// and prints the metrics, the last stdout line being one JSON object.
//
//   ritas_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans-dir DIR] [--inject-fault swap|drop|tail]
//   ritas_perfbench --probe [--seed N] [--groups G] [--rates R1,R2,...]
//                   [--step-seconds S]
//
// The stack is reached only through its public surface: ritas::Context,
// ritas::ShardedNode, smr::KvMachine, hmac_sha256_2 and the metrics(),
// transport_stats() and service() accessors. Nothing inside src/ is timed;
// spans are taken around the calls this file makes.
#include <arpa/inet.h>
#include <cpuid.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/hmac.h"
#include "harness.h"
#include "ritas/context.h"
#include "ritas/sharded_node.h"
#include "smr/kv_machine.h"
#include "smr/sharded_service.h"

namespace {

using namespace ritas;
using perfbench::Op;
using perfbench::Rec;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNodes = 4;
constexpr std::uint32_t kKeys = 1000;
constexpr std::uint32_t kClientsPerNode = 16;
constexpr std::uint64_t kWarmupClient = 1'000'000;
// set-up is timed several times per run and reported as the median; the
// cycles are split around the window so that one slow stretch of this
// shared host reaches fewer than half of them
constexpr std::uint32_t kSetupCycles = 15;
constexpr std::uint32_t kSetupCyclesBefore = 8;
constexpr std::uint32_t kWarmupOps = 16;
// an op not delivered at every node this long after the window closes
// counts as failed, and any failed op fails a workload run
constexpr double kDrainSeconds = 20;
// latency percentiles are taken per chunk of this many ops (p99 then keeps
// ten samples beyond it) and the median over chunks is reported
constexpr std::size_t kChunkOps = 1000;
constexpr auto kSetupTimeout = std::chrono::seconds(60);
// how often set-up checks for listeners, the mesh and warm-up deliveries
constexpr auto kSetupPoll = std::chrono::microseconds(100);
// the overload probe's verdict: highest rate with p99 within this
constexpr double kProbeP99LimitMs = 50;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Clock::time_point at_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

struct Workload {
  const char* name;
  bool kv;
  std::size_t payload_bytes;  // ab: atomic-broadcast payload size
  double rate;                // offered ops/s over the whole system
  std::uint32_t groups;       // kv: shards, one consensus group each
};

// Why each exists, why these rates, and why ab_bulk is report-only:
// NOTES.md "Workloads".
constexpr Workload kWorkloads[] = {
    {"ab_small", false, 10, 100.0, 1},
    {"ab_bulk", false, 10 * 1024, 100.0, 1},
    {"kv_sharded", true, 0, 200.0, 4},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --selftest compares them).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_op", "ms/op"},
    {"peak_rss_mb", "MB"},
};

// Printed by every untraced run beside the end-to-end metrics, but not
// in its result object: on a shared host they follow the neighbours' load
// more than the code (NOTES.md "Why latency is not gated"). The traced
// run reports them as trace.lat_p50_ms and trace.lat_p99_ms.
constexpr MetricDef kLatency[] = {
    {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},
};

// Health counters that read 0 on every correct run (retransmits, queue
// drops, out-of-context stores and evictions, duplicates skipped) are not
// metrics: a ratio against 0 shows nothing. Every run prints them on its
// "# health" line.
constexpr MetricDef kPerLayer[] = {
    {"ritas.submit_us_p50", "us"},
    {"ritas.submit_us_p99", "us"},
    {"ritas.gen_lag_ms_p99", "ms"},
    {"ritas.ctx_switches_per_op", "count/op"},
    {"core.frames_per_op", "frames/op"},
    {"core.ab_rounds_per_op", "rounds/op"},
    {"core.bc_rounds_per_decision", "rounds"},
    {"core.mvc_default_frac", "frac"},
    {"core.rb_ms_p50", "ms"},
    {"core.eb_ms_p50", "ms"},
    {"core.bc_ms_p50", "ms"},
    {"core.mvc_ms_p50", "ms"},
    {"net.frames_per_op", "frames/op"},
    {"net.syscalls_per_op", "calls/op"},
    {"net.bytes_per_op", "B/op"},
    {"net.frames_per_syscall", "frames/call"},
    {"net.cpu_sys_ms_per_op", "ms/op"},
    {"crypto.hmac_fixed_us", "us"},
    {"crypto.hmac_ns_per_byte", "ns/B"},
    {"crypto.est_ms_per_op", "ms/op"},
    {"smr.apply_us_p50", "us"},
    {"span.order_ms_p50", "ms"},
    {"span.order_ms_p99", "ms"},
    {"span.spread_ms_p50", "ms"},
    {"trace.lat_p50_ms", "ms"},
    {"trace.lat_p99_ms", "ms"},
    {"trace.cpu_ms_per_op", "ms/op"},
};

// ---------------------------------------------------------------------------
// Host facts recorded with every result.

#ifdef __clang__
constexpr const char* kCompiler = "clang-" __clang_version__;
#else
constexpr const char* kCompiler = "gcc-" __VERSION__;
#endif

struct HostFacts {
  unsigned nproc = 0;
  bool sha_ni = false;
  bool avx512f = false;
};

HostFacts host_facts() {
  HostFacts h;
  h.nproc = std::thread::hardware_concurrency();
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    h.avx512f = (b >> 16) & 1;
    h.sha_ni = (b >> 29) & 1;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Inputs: the op table. Ids [0, warmup) are set-up ops, the rest are the
// measured window in due order.

struct Table {
  const Workload* w = nullptr;
  std::vector<Op> ops;
  std::size_t warmup = 0;
  Bytes filler;                             // ab payload bytes after the id
  std::vector<std::uint64_t> digests;       // per op: digest of its body
  std::vector<smr::ShardId> owner;          // kv: owning shard per op
};

std::string tagged(char tag, std::uint64_t v) {
  std::string s(1, tag);
  s += std::to_string(v);
  return s;
}

Bytes kv_body(const Op& op, std::uint64_t id) {
  smr::KvCommand c;
  c.op = smr::KvCommand::Op::kSet;
  c.key = tagged('k', op.key);
  c.value = tagged('v', id);
  return c.encode();
}

Bytes body_of(const Table& t, std::uint64_t id) {
  if (t.w->kv) return kv_body(t.ops[id], id);
  Bytes b = t.filler;
  std::memcpy(b.data(), &id, sizeof id);
  return b;
}

Table make_table(const Workload& w, std::uint64_t seed, double rate,
                 double seconds) {
  Table t;
  t.w = &w;
  for (std::uint32_t i = 0; i < kWarmupOps; ++i) {
    Op op;
    op.origin = i % kNodes;
    op.client = kWarmupClient + op.origin;
    op.seq = i / kNodes;
    op.key = (i * 61) % kKeys;
    t.ops.push_back(op);
  }
  t.warmup = t.ops.size();
  perfbench::ScheduleSpec spec;
  spec.rate = rate;
  spec.seconds = seconds;
  spec.nodes = kNodes;
  if (w.kv) {
    spec.clients_per_node = kClientsPerNode;
    spec.keys = kKeys;
  }
  for (const Op& op : perfbench::make_schedule(spec, seed)) t.ops.push_back(op);
  if (!w.kv) {
    Rng fill(perfbench::derive(seed, 4));
    t.filler.resize(std::max<std::size_t>(w.payload_bytes, 8));
    for (auto& b : t.filler) b = static_cast<std::uint8_t>(fill.next());
  }
  for (std::uint64_t id = 0; id < t.ops.size(); ++id) {
    const Bytes b = body_of(t, id);
    t.digests.push_back(perfbench::digest(b));
    if (w.kv) {
      t.owner.push_back(smr::shard_of_key(to_bytes(tagged('k', t.ops[id].key)), w.groups));
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// The four-node clusters.

std::vector<std::uint16_t> free_ports(std::size_t count) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof addr;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      for (int f : fds) ::close(f);
      throw std::runtime_error("could not reserve a loopback port");
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int f : fds) ::close(f);
  return ports;
}

std::vector<net::PeerAddr> local_peers() {
  std::vector<net::PeerAddr> peers;
  for (std::uint16_t p : free_ports(kNodes)) peers.push_back({"127.0.0.1", p});
  return peers;
}

const Bytes& master_secret() {
  static const Bytes s = to_bytes("perfbench master secret");
  return s;
}

/// Deliveries (ab) or applies (kv) of one stream at one node. Written by
/// the node's single protocol thread; `count` lets other threads follow
/// progress, `recs` is read only after the node has stopped.
struct Log {
  std::vector<Rec> recs;
  std::atomic<std::uint64_t> count{0};

  void add(const Rec& r) {
    recs.push_back(r);
    count.fetch_add(1, std::memory_order_release);
  }
};

std::uint64_t id_of_payload(ByteView p) {
  std::uint64_t id = UINT64_MAX;
  if (p.size() >= sizeof id) std::memcpy(&id, p.data(), sizeof id);
  return id;
}

struct Counters {
  std::uint64_t frames_sent = 0, bytes_sent = 0, sendmsg_calls = 0,
                retransmits = 0, queue_drops = 0, mac_failures = 0,
                replay_drops = 0;
  bool has_core = false;
  Metrics core;  // summed over nodes (Context only)

  void add(const net::TcpTransport::Stats& s) {
    frames_sent += s.frames_sent;
    bytes_sent += s.bytes_sent;
    sendmsg_calls += s.sendmsg_calls;
    retransmits += s.frames_retransmitted;
    queue_drops += s.queue_drops;
    mac_failures += s.mac_failures;
    replay_drops += s.replay_drops;
  }
};

class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;  // node callbacks hold `this`
  Cluster& operator=(const Cluster&) = delete;
  virtual ~Cluster() = default;
  /// Starts every node in parallel and waits for the full mesh.
  virtual void start() = 0;
  /// Submits `body` at the op's origin; returns the shard that ordered it.
  virtual smr::ShardId submit(const Op& op, Bytes body) = 0;
  /// Fewest deliveries (ab) or applies (kv) seen at any node.
  virtual std::uint64_t min_delivered() const = 0;
  virtual Counters counters() = 0;
  virtual void stop() = 0;
  /// [stream][node] records; a stream is the AB order (ab) or one shard's
  /// apply order (kv). Only after stop().
  virtual std::vector<std::vector<std::vector<Rec>>> logs() = 0;
  /// [shard][node] snapshots (kv only). Only after stop().
  virtual std::vector<std::vector<Bytes>> snapshots() { return {}; }
  virtual std::uint64_t duplicates_skipped() { return 0; }

 protected:
  /// Starts the nodes on parallel threads (each start() blocks until part
  /// of the mesh is up) and waits for the full mesh. Node p dials only
  /// nodes below p, so node p is launched once every node below it is
  /// listening: a dial never meets a closed port and never waits out a
  /// reconnect backoff, which would make set-up time a race.
  template <typename Node>
  static void start_all(std::vector<std::unique_ptr<Node>>& nodes,
                        const std::vector<net::PeerAddr>& peers) {
    std::vector<std::exception_ptr> errors(nodes.size());
    std::vector<std::thread> starters;
    const auto deadline = Clock::now() + kSetupTimeout;
    bool waited = true;
    for (std::size_t p = 0; p < nodes.size() && waited; ++p) {
      starters.emplace_back([&nodes, &errors, p] {
        try {
          nodes[p]->start();
        } catch (...) {
          errors[p] = std::current_exception();
        }
      });
      while (!(waited = listening(peers[p].port)) && Clock::now() < deadline) {
        std::this_thread::sleep_for(kSetupPoll);
      }
    }
    // A node that cannot listen throws from start(), and those waiting
    // for it time out, so every starter ends.
    for (auto& t : starters) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    if (!waited) throw std::runtime_error("a node never listened");
    for (auto& node : nodes) {
      for (;;) {
        const auto states = node->transport().link_states();
        if (std::all_of(states.begin(), states.end(),
                        [](LinkState s) { return s == LinkState::kUp; })) {
          break;
        }
        if (Clock::now() > deadline) throw std::runtime_error("mesh never came up");
        std::this_thread::sleep_for(kSetupPoll);
      }
    }
  }

 private:
  /// Whether a socket is listening on the loopback port: binding it then
  /// fails. The probe sets SO_REUSEADDR, as the transport's listener does,
  /// so a probe that lands before the listener binds never blocks it.
  static bool listening(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const bool in_use = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
                        errno == EADDRINUSE;
    ::close(fd);
    return in_use;
  }
};

class AbCluster final : public Cluster {
 public:
  AbCluster(std::uint64_t seed, std::size_t capacity) {
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      logs_[p].recs.reserve(capacity);
      Context::Options o;
      o.n = kNodes;
      o.self = p;
      o.peers = peers_;
      o.master_secret = master_secret();
      o.rng_seed = perfbench::derive(seed, 100 + p);
      nodes_.push_back(std::make_unique<Context>(std::move(o)));
      nodes_[p]->ab_subscribe([log = &logs_[p]](Context::AbDelivery d) {
        Rec r;
        r.t_ns = now_ns();
        r.id = id_of_payload(d.payload);
        r.digest = perfbench::digest(d.payload);
        r.aux = d.origin;
        log->add(r);
      });
    }
  }

  void start() override { start_all(nodes_, peers_); }

  smr::ShardId submit(const Op& op, Bytes body) override {
    nodes_[op.origin]->ab_bcast(std::move(body));
    return 0;
  }

  std::uint64_t min_delivered() const override {
    std::uint64_t m = UINT64_MAX;
    for (const Log& l : logs_) m = std::min(m, l.count.load(std::memory_order_acquire));
    return m;
  }

  Counters counters() override {
    Counters c;
    c.has_core = true;
    for (auto& node : nodes_) {
      c.add(node->transport_stats());
      c.core += node->metrics();
    }
    return c;
  }

  void stop() override {
    for (auto& node : nodes_) node->stop();
  }

  std::vector<std::vector<std::vector<Rec>>> logs() override {
    std::vector<std::vector<Rec>> order;
    for (Log& l : logs_) order.push_back(l.recs);
    return {order};
  }

 private:
  const std::vector<net::PeerAddr> peers_ = local_peers();
  std::array<Log, kNodes> logs_;  // outlives nodes_: their callbacks write here
  std::vector<std::unique_ptr<Context>> nodes_;
};

/// KvMachine wrapped to record, per apply, which op it was and when (the
/// benchmark's view of the smr apply path).
class TimedKv final : public smr::StateMachine {
 public:
  TimedKv(Log& log, bool time_apply) : log_(log), time_apply_(time_apply) {}

  Bytes apply(ByteView command) override {
    Rec r;
    r.t_ns = now_ns();
    Bytes result = inner_.apply(command);
    if (time_apply_) r.aux = static_cast<std::uint64_t>(now_ns() - r.t_ns);
    r.digest = perfbench::digest(command);
    r.id = UINT64_MAX;
    if (const auto c = smr::KvCommand::decode(command);
        c && c->value.size() > 1 && c->value[0] == 'v') {
      r.id = std::strtoull(c->value.c_str() + 1, nullptr, 10);
    }
    log_.add(r);
    return result;
  }

  Bytes snapshot() const override { return inner_.snapshot(); }

 private:
  smr::KvMachine inner_;
  Log& log_;
  bool time_apply_;
};

class KvCluster final : public Cluster {
 public:
  KvCluster(std::uint64_t seed, std::uint32_t groups, std::size_t capacity,
            bool time_apply)
      : groups_(groups) {
    for (std::uint32_t i = 0; i < kNodes * groups; ++i) {
      logs_.push_back(std::make_unique<Log>());
      logs_.back()->recs.reserve(capacity / groups + capacity / 4);
    }
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      ShardedNode::Options o;
      o.n = kNodes;
      o.self = p;
      o.peers = peers_;
      o.master_secret = master_secret();
      o.groups = groups;
      o.rng_seed = perfbench::derive(seed, 100 + p);
      o.machine_factory = [this, p, time_apply](smr::ShardId s) {
        return std::make_unique<TimedKv>(*logs_[p * groups_ + s], time_apply);
      };
      nodes_.push_back(std::make_unique<ShardedNode>(std::move(o)));
    }
  }

  void start() override { start_all(nodes_, peers_); }

  smr::ShardId submit(const Op& op, Bytes body) override {
    return nodes_[op.origin]->submit(op.client, op.seq, body);
  }

  std::uint64_t min_delivered() const override {
    std::uint64_t m = UINT64_MAX;
    for (std::uint32_t p = 0; p < kNodes; ++p) {
      std::uint64_t sum = 0;
      for (std::uint32_t s = 0; s < groups_; ++s) {
        sum += logs_[p * groups_ + s]->count.load(std::memory_order_acquire);
      }
      m = std::min(m, sum);
    }
    return m;
  }

  Counters counters() override {
    Counters c;
    for (auto& node : nodes_) c.add(node->transport_stats());
    return c;
  }

  void stop() override {
    for (auto& node : nodes_) node->stop();
  }

  std::vector<std::vector<std::vector<Rec>>> logs() override {
    std::vector<std::vector<std::vector<Rec>>> out(groups_);
    for (std::uint32_t s = 0; s < groups_; ++s) {
      for (std::uint32_t p = 0; p < kNodes; ++p) {
        out[s].push_back(logs_[p * groups_ + s]->recs);
      }
    }
    return out;
  }

  std::vector<std::vector<Bytes>> snapshots() override {
    std::vector<std::vector<Bytes>> out(groups_);
    for (std::uint32_t s = 0; s < groups_; ++s) {
      for (auto& node : nodes_) out[s].push_back(node->service().snapshot(s));
    }
    return out;
  }

  std::uint64_t duplicates_skipped() override {
    std::uint64_t d = 0;
    for (auto& node : nodes_) {
      for (std::uint32_t s = 0; s < groups_; ++s) {
        d += node->service().duplicates_skipped(s);
      }
    }
    return d;
  }

 private:
  std::uint32_t groups_;
  const std::vector<net::PeerAddr> peers_ = local_peers();
  std::vector<std::unique_ptr<Log>> logs_;  // [node * groups + shard]
  std::vector<std::unique_ptr<ShardedNode>> nodes_;
};

std::unique_ptr<Cluster> make_cluster(const Table& t, std::uint64_t seed,
                                      std::uint32_t groups, bool trace) {
  if (t.w->kv) {
    return std::make_unique<KvCluster>(seed, groups, t.ops.size(), trace);
  }
  return std::make_unique<AbCluster>(seed, t.ops.size());
}

bool wait_delivered(const Cluster& c, std::uint64_t count,
                    Clock::time_point deadline) {
  while (c.min_delivered() < count) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(kSetupPoll);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Driving a cluster and checking what it did.

struct SetupTime {
  double mesh_s = 0;   // construction until the full mesh is up
  double total_s = 0;  // ... until the warm-up ops are delivered everywhere
};

/// Brings a cluster up and delivers the warm-up ops everywhere.
SetupTime set_up(std::unique_ptr<Cluster>& cluster, const Table& t,
                 std::uint64_t seed, std::uint32_t groups, bool trace) {
  const auto t0 = Clock::now();
  cluster = make_cluster(t, seed, groups, trace);
  cluster->start();
  SetupTime st;
  st.mesh_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::uint64_t id = 0; id < t.warmup; ++id) {
    cluster->submit(t.ops[id], body_of(t, id));
  }
  if (!wait_delivered(*cluster, t.warmup, Clock::now() + kSetupTimeout)) {
    throw std::runtime_error("warm-up ops were not delivered everywhere");
  }
  st.total_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return st;
}

struct Usage {
  double user_ms = 0, sys_ms = 0;
  std::int64_t ctx_switches = 0, max_rss_kb = 0;
};

Usage usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw,
          ru.ru_maxrss};
}

/// What the generator saw while driving the window.
struct Window {
  bool drained = false;
  std::vector<std::int64_t> due_ns, sub_start_ns, sub_end_ns;  // per op id
  std::vector<smr::ShardId> routed;                              // per op id
  Usage u0, u1;
  std::uint64_t backlog_mid = 0, backlog_end = 0;
};

/// Open loop: op i is submitted at its due time whatever the cluster is
/// doing; a late generator is recorded, never compensated.
Window drive(Cluster& c, const Table& t, double seconds) {
  Window win;
  const std::size_t n = t.ops.size();
  win.due_ns.assign(n, 0);
  win.sub_start_ns.assign(n, 0);
  win.sub_end_ns.assign(n, 0);
  win.routed.assign(n, 0);
  const std::int64_t start = now_ns() + 20'000'000;
  std::this_thread::sleep_until(at_ns(start));
  win.u0 = usage();
  const std::int64_t mid = start + static_cast<std::int64_t>(seconds * 0.5e9);
  bool mid_taken = false;
  for (std::uint64_t id = t.warmup; id < n; ++id) {
    const Op& op = t.ops[id];
    Bytes body = body_of(t, id);
    const std::int64_t due = start + static_cast<std::int64_t>(op.due_s * 1e9);
    if (!mid_taken && due >= mid) {
      std::this_thread::sleep_until(at_ns(mid));
      win.backlog_mid = id - c.min_delivered();
      mid_taken = true;
    }
    std::this_thread::sleep_until(at_ns(due));
    win.due_ns[id] = due;
    win.sub_start_ns[id] = now_ns();
    win.routed[id] = c.submit(op, std::move(body));
    win.sub_end_ns[id] = now_ns();
  }
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::this_thread::sleep_until(at_ns(end));
  win.backlog_end = n - c.min_delivered();
  win.drained = wait_delivered(
      c, n, at_ns(end + static_cast<std::int64_t>(kDrainSeconds * 1e9)));
  win.u1 = usage();
  return win;
}

/// Per-op view of the logs plus every correctness finding.
struct Outcome {
  std::vector<std::string> errors;
  std::vector<bool> everywhere;
  std::vector<std::int64_t> origin_ns, last_ns;  // 0 = not seen
  std::vector<std::uint64_t> fingerprints;       // per stream
  std::vector<double> apply_us;
  std::uint64_t duplicates_skipped = 0;
};

/// Stops the cluster and checks its outputs. `inject` corrupts node 1's
/// records first (the self-test's proof that the gate fires). An op
/// missing at some node is left to the caller: `everywhere` says which.
Outcome check(Cluster& c, const Table& t, const Counters& after,
              const std::string& inject) {
  c.stop();
  Outcome out;
  const std::size_t n = t.ops.size();
  auto streams = c.logs();
  if (!inject.empty()) {
    auto& victim = streams[0][1];
    if (victim.size() >= 3) {
      if (inject == "swap") std::swap(victim[1], victim[2]);
      if (inject == "drop") victim.erase(victim.begin() + 1);
      // node 1 never delivers the second half: a stall, not a reordering
      if (inject == "tail") victim.resize(victim.size() / 2);
    }
  }
  out.everywhere.assign(n, false);
  out.origin_ns.assign(n, 0);
  out.last_ns.assign(n, 0);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    std::vector<bool> member(n, true);
    if (t.w->kv) {
      for (std::size_t id = 0; id < n; ++id) member[id] = t.owner[id] == s;
    }
    auto oc = perfbench::check_order(streams[s], t.digests, member);
    for (auto& e : oc.errors) out.errors.push_back("stream " + std::to_string(s) + ": " + e);
    out.fingerprints.push_back(oc.fingerprint);
    for (std::size_t id = 0; id < n; ++id) {
      if (oc.everywhere[id]) out.everywhere[id] = true;
    }
    for (std::size_t node = 0; node < streams[s].size(); ++node) {
      for (const Rec& r : streams[s][node]) {
        if (r.id >= n) continue;
        if (node == t.ops[r.id].origin) out.origin_ns[r.id] = r.t_ns;
        out.last_ns[r.id] = std::max(out.last_ns[r.id], r.t_ns);
        if (t.w->kv && r.id >= t.warmup) {
          out.apply_us.push_back(static_cast<double>(r.aux) / 1e3);
        }
      }
    }
  }
  if (!t.w->kv) {
    for (const auto& node : streams[0]) {
      for (const Rec& r : node) {
        if (r.id < n && r.aux != t.ops[r.id].origin) {
          out.errors.push_back("op " + std::to_string(r.id) +
                               " delivered with the wrong origin");
        }
      }
    }
  }
  std::vector<std::vector<std::size_t>> applied(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const auto& node : streams[s]) applied[s].push_back(node.size());
  }
  for (auto& e : perfbench::check_snapshots(c.snapshots(), applied)) {
    out.errors.push_back(e);
  }
  if (after.mac_failures != 0) out.errors.push_back("transport mac_failures != 0");
  if (after.replay_drops != 0) out.errors.push_back("transport replay_drops != 0");
  if (after.has_core && after.core.payload_bytes_copied != 0) {
    out.errors.push_back("stack payload_bytes_copied != 0");
  }
  out.duplicates_skipped = c.duplicates_skipped();
  return out;
}

void check_routing(const Table& t, const Window& win, Outcome& out) {
  if (!t.w->kv) return;
  for (std::size_t id = t.warmup; id < t.ops.size(); ++id) {
    if (win.routed[id] != t.owner[id]) {
      out.errors.push_back("op " + std::to_string(id) + " routed to shard " +
                           std::to_string(win.routed[id]) + ", owner is " +
                           std::to_string(t.owner[id]));
    }
  }
}

// ---------------------------------------------------------------------------
// HMAC cost, timed through the transport's MAC function.

volatile std::uint8_t g_hmac_sink = 0;  // keeps the timed MACs alive

double time_hmac_us(std::size_t body_bytes, int iters) {
  const Bytes key(32, 0x5a);
  const Bytes header(24, 0x11);
  Bytes body(body_bytes, 0x22);
  std::vector<double> batches;
  std::uint8_t sink = 0;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      body[static_cast<std::size_t>(i) % body.size()] ^= sink;
      const auto d = hmac_sha256_2(key, header, body);
      sink ^= d[0];
    }
    batches.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
                      iters);
  }
  g_hmac_sink = sink;
  return perfbench::percentile(batches, 50);
}

// ---------------------------------------------------------------------------
// Output.

using MetricMap = std::map<std::string, double>;

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const MetricMap& values, const MetricDef* defs, std::size_t ndefs) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (std::size_t i = 0; correct && i < ndefs; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                defs[i].name, values.at(defs[i].name), defs[i].unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool probe = false;
  std::string spans_dir;
  std::string inject;
  std::uint32_t groups = 4;
  std::vector<double> rates = {200, 400, 800, 1200, 1600};
  double step_seconds = 5;
};

int run_workload(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const HostFacts host = host_facts();
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d rate=%g/s nodes=%u groups=%u "
              "payload=%zuB\n",
              w->name, static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
              w->rate, kNodes, w->groups, w->payload_bytes);
  std::printf("# host nproc=%u sha_ni=%d avx512f=%d build=%s compiler=%s\n", host.nproc,
              host.sha_ni, host.avx512f, PERFBENCH_BUILD_TYPE, kCompiler);

  const Table t = make_table(*w, a.seed, w->rate, a.seconds);
  const std::size_t window_ops = t.ops.size() - t.warmup;
  if (window_ops == 0) {
    std::fprintf(stderr, "empty schedule\n");
    return 2;
  }

  std::vector<std::string> errors;
  std::vector<double> setups, meshes;
  std::unique_ptr<Cluster> cluster;
  // Each set-up but the one that runs the window is checked and discarded.
  const auto set_up_cycle = [&](std::uint32_t cycle, bool keep) {
    const SetupTime st =
        set_up(cluster, t, perfbench::derive(a.seed, 10 + cycle), w->groups, a.trace);
    setups.push_back(st.total_s);
    meshes.push_back(st.mesh_s);
    if (keep) return;
    for (auto& e : check(*cluster, t, cluster->counters(), "").errors) {
      errors.push_back("set-up " + std::to_string(cycle) + ": " + e);
    }
    cluster.reset();
  };
  for (std::uint32_t cycle = 0; cycle < kSetupCyclesBefore; ++cycle) {
    set_up_cycle(cycle, cycle + 1 == kSetupCyclesBefore);
  }

  double hmac_small_us = 0, hmac_large_us = 0;
  constexpr std::size_t kSmall = 100, kLarge = 10 * 1024;
  if (a.trace) {
    hmac_small_us = time_hmac_us(kSmall, 2000);
    hmac_large_us = time_hmac_us(kLarge, 200);
  }
  const Counters before = cluster->counters();
  const Window win = drive(*cluster, t, a.seconds);
  const Counters after = cluster->counters();
  Outcome out = check(*cluster, t, after, a.inject);
  check_routing(t, win, out);
  for (auto& e : out.errors) errors.push_back(e);
  const double peak_rss_mb = static_cast<double>(usage().max_rss_kb) / 1024.0;
  cluster.reset();
  for (std::uint32_t cycle = kSetupCyclesBefore; cycle < kSetupCycles; ++cycle) {
    set_up_cycle(cycle, false);
  }

  // End-to-end, from the due time to delivery (ab) or apply (kv) at the
  // origin. An op missing at any node after the drain fails the run.
  std::vector<std::optional<double>> lat;
  std::vector<double> submit_us, lag_ms, order_ms, spread_ms;
  for (std::size_t id = t.warmup; id < t.ops.size(); ++id) {
    submit_us.push_back(static_cast<double>(win.sub_end_ns[id] - win.sub_start_ns[id]) / 1e3);
    lag_ms.push_back(ms_between(win.due_ns[id], win.sub_start_ns[id]));
    if (!out.everywhere[id]) {
      lat.push_back(std::nullopt);
      continue;
    }
    lat.push_back(ms_between(win.due_ns[id], out.origin_ns[id]));
    order_ms.push_back(ms_between(win.sub_end_ns[id], out.origin_ns[id]));
    spread_ms.push_back(ms_between(out.origin_ns[id], out.last_ns[id]));
  }
  const auto ls =
      perfbench::summarize_latency(lat, (a.seconds + kDrainSeconds) * 1e3, kChunkOps);
  if (ls.failed > 0) {
    errors.push_back(std::to_string(ls.failed) + " of " + std::to_string(ls.samples) +
                     " ops not delivered at every node " + std::to_string(int(kDrainSeconds)) +
                     " s after the window closed");
  }
  const double delivered = static_cast<double>(std::max<std::size_t>(ls.samples - ls.failed, 1));
  const double cpu_ms = (win.u1.user_ms + win.u1.sys_ms) - (win.u0.user_ms + win.u0.sys_ms);

  MetricMap m;
  m["setup_s"] = perfbench::median(setups);
  m["lat_p50_ms"] = ls.p50;
  m["lat_p99_ms"] = ls.p99;
  m["cpu_ms_per_op"] = cpu_ms / delivered;
  m["peak_rss_mb"] = peak_rss_mb;

  const double ops = static_cast<double>(window_ops);
  const Metrics& c0 = before.core;
  const Metrics& c1 = after.core;
  const auto per_op = [&](std::uint64_t x1, std::uint64_t x0) {
    return static_cast<double>(x1 - x0) / ops;
  };
  const auto hist_ms = [&](ProtocolType p) {
    return static_cast<double>(c1.proto_latency_ns[static_cast<std::size_t>(p)].p50()) / 1e6;
  };
  m["ritas.submit_us_p50"] = perfbench::percentile(submit_us, 50);
  m["ritas.submit_us_p99"] = perfbench::percentile(submit_us, 99);
  m["ritas.gen_lag_ms_p99"] = perfbench::percentile(lag_ms, 99);
  m["ritas.ctx_switches_per_op"] =
      static_cast<double>(win.u1.ctx_switches - win.u0.ctx_switches) / ops;
  // core.* exist only where the stack's Metrics are reachable (Context);
  // ShardedNode exposes none, so they read 0 on kv_sharded.
  m["core.frames_per_op"] = per_op(c1.msgs_sent, c0.msgs_sent);
  m["core.ab_rounds_per_op"] = per_op(c1.ab_rounds, c0.ab_rounds) / kNodes;
  const std::uint64_t decided = c1.bc_decided - c0.bc_decided;
  m["core.bc_rounds_per_decision"] =
      decided ? static_cast<double>(c1.bc_rounds_total - c0.bc_rounds_total) /
                    static_cast<double>(decided)
              : 0;
  const std::uint64_t mvc_def = c1.mvc_decided_default - c0.mvc_decided_default;
  const std::uint64_t mvc_all = mvc_def + c1.mvc_decided_value - c0.mvc_decided_value;
  m["core.mvc_default_frac"] =
      mvc_all ? static_cast<double>(mvc_def) / static_cast<double>(mvc_all) : 0;
  m["core.rb_ms_p50"] = hist_ms(ProtocolType::kReliableBroadcast);
  m["core.eb_ms_p50"] = hist_ms(ProtocolType::kEchoBroadcast);
  m["core.bc_ms_p50"] = hist_ms(ProtocolType::kBinaryConsensus);
  m["core.mvc_ms_p50"] = hist_ms(ProtocolType::kMultiValuedConsensus);
  m["net.frames_per_op"] = per_op(after.frames_sent, before.frames_sent);
  m["net.syscalls_per_op"] = per_op(after.sendmsg_calls, before.sendmsg_calls);
  m["net.bytes_per_op"] = per_op(after.bytes_sent, before.bytes_sent);
  const std::uint64_t calls = after.sendmsg_calls - before.sendmsg_calls;
  m["net.frames_per_syscall"] =
      calls ? static_cast<double>(after.frames_sent - before.frames_sent) /
                  static_cast<double>(calls)
            : 0;
  m["net.cpu_sys_ms_per_op"] = (win.u1.sys_ms - win.u0.sys_ms) / delivered;
  // Linear fit through the two body sizes: fixed per-frame cost plus a
  // per-byte slope. Every frame is MACed once by its sender and verified
  // once by its receiver, hence the factor 2 in the estimate.
  const double ns_per_byte = (hmac_large_us - hmac_small_us) * 1e3 / (kLarge - kSmall);
  const double fixed_us = hmac_small_us - kSmall * ns_per_byte / 1e3;
  m["crypto.hmac_fixed_us"] = fixed_us;
  m["crypto.hmac_ns_per_byte"] = ns_per_byte;
  m["crypto.est_ms_per_op"] = 2 * (m["net.frames_per_op"] * fixed_us / 1e3 +
                                   m["net.bytes_per_op"] * ns_per_byte / 1e6);
  m["smr.apply_us_p50"] = perfbench::percentile(out.apply_us, 50);
  m["span.order_ms_p50"] = perfbench::percentile(order_ms, 50);
  m["span.order_ms_p99"] = perfbench::percentile(order_ms, 99);
  m["span.spread_ms_p50"] = perfbench::percentile(spread_ms, 50);
  m["trace.lat_p50_ms"] = m["lat_p50_ms"];
  m["trace.lat_p99_ms"] = m["lat_p99_ms"];
  m["trace.cpu_ms_per_op"] = m["cpu_ms_per_op"];

  const bool correct = errors.empty();
  for (const auto& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  for (std::size_t s = 0; s < out.fingerprints.size(); ++s) {
    std::printf("# stream %zu fingerprint %016llx\n", s,
                static_cast<unsigned long long>(out.fingerprints[s]));
  }
  std::printf("# chunk p50/p99 ms:");
  for (std::size_t i = 0; i < ls.chunk_p50.size(); ++i) {
    std::printf(" %.2f/%.2f", ls.chunk_p50[i], ls.chunk_p99[i]);
  }
  std::printf("\n");
  std::printf("# samples=%zu chunks=%zu failed=%zu ops_failed_frac=%.6g frac "
              "p99_supported=%d window_drained=%d backlog_mid=%llu backlog_end=%llu\n",
              ls.samples, ls.chunk_p50.size(), ls.failed, ls.failed_frac, ls.p99_supported ? 1 : 0,
              win.drained ? 1 : 0, static_cast<unsigned long long>(win.backlog_mid),
              static_cast<unsigned long long>(win.backlog_end));
  const auto u64 = [](std::uint64_t x) { return static_cast<unsigned long long>(x); };
  std::printf("# health net.retransmits=%llu net.queue_drops=%llu core.ooc_stored=%llu "
              "core.ooc_evicted=%llu smr.duplicates_skipped=%llu\n",
              u64(after.retransmits - before.retransmits),
              u64(after.queue_drops - before.queue_drops),
              u64(after.core.ooc_stored - before.core.ooc_stored),
              u64(after.core.ooc_evicted - before.core.ooc_evicted), u64(out.duplicates_skipped));
  std::printf("# set-up ms (mesh up / warm-up delivered):");
  for (std::size_t i = 0; i < setups.size(); ++i) {
    std::printf(" %.2f/%.2f", meshes[i] * 1e3, setups[i] * 1e3);
  }
  std::printf("\n");
  const MetricDef* defs = a.trace ? kPerLayer : kEndToEnd;
  const std::size_t ndefs = a.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (correct) {
    for (std::size_t i = 0; i < ndefs; ++i) {
      std::printf("%-30s %14.6g %s\n", defs[i].name, m.at(defs[i].name), defs[i].unit);
    }
    for (const MetricDef& d : kLatency) {
      if (!a.trace) std::printf("%-30s %14.6g %s\n", d.name, m.at(d.name), d.unit);
    }
    std::printf("%-30s %14.6g %s\n", "ops_failed_frac", ls.failed_frac, "frac");
  }
  if (a.trace && !a.spans_dir.empty()) {
    std::ofstream f(a.spans_dir + "/spans-" + w->name + "-" + std::to_string(a.seed) + ".csv");
    f << "id,origin,due_ns,submit_start_ns,submit_end_ns,origin_deliver_ns,last_deliver_ns\n";
    for (std::size_t id = t.warmup; id < t.ops.size(); ++id) {
      f << id << ',' << t.ops[id].origin << ',' << win.due_ns[id] << ','
        << win.sub_start_ns[id] << ',' << win.sub_end_ns[id] << ','
        << out.origin_ns[id] << ',' << out.last_ns[id] << '\n';
    }
  }
  print_result(correct, window_ops, ls.failed, m, defs, ndefs);
  return correct ? 0 : 1;
}

// Report-only overload probe (NOTES.md "Overload probe"): kv_sharded's
// non-blocking submit stepped through rising rates, one fresh cluster per
// step so a stalled step cannot poison the next.
int run_probe(const Args& a) {
  Workload w = *find_workload("kv_sharded");
  w.groups = a.groups;
  std::printf("# probe kv_sharded groups=%u seed=%llu step=%gs p99_limit=%gms\n", w.groups,
              static_cast<unsigned long long>(a.seed), a.step_seconds, kProbeP99LimitMs);
  std::printf("%10s %10s %12s %12s %14s %14s %16s %s\n", "rate_1/s", "offered", "lat_p50_ms",
              "lat_p99_ms", "backlog_mid", "backlog_end", "ops_failed_frac", "verdict");
  double best = 0;
  bool correct = true;
  for (std::size_t i = 0; i < a.rates.size(); ++i) {
    const double rate = a.rates[i];
    const std::uint64_t seed = perfbench::derive(a.seed, 1000 + i);
    const Table t = make_table(w, seed, rate, a.step_seconds);
    std::unique_ptr<Cluster> cluster;
    set_up(cluster, t, seed, w.groups, false);
    const Window win = drive(*cluster, t, a.step_seconds);
    const Counters after = cluster->counters();
    Outcome out = check(*cluster, t, after, "");
    check_routing(t, win, out);
    for (const auto& e : out.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    correct = correct && out.errors.empty();
    std::vector<std::optional<double>> lat;
    for (std::size_t id = t.warmup; id < t.ops.size(); ++id) {
      if (out.everywhere[id]) {
        lat.push_back(ms_between(win.due_ns[id], out.origin_ns[id]));
      } else {
        lat.push_back(std::nullopt);
      }
    }
    // One pooled chunk: a stall confined to the end of the step must
    // reach the verdict's p99.
    const auto ls = perfbench::summarize_latency(lat, (a.step_seconds + kDrainSeconds) * 1e3,
                                                 lat.size());
    // Growing: the second half of the step added more than 5% of what it
    // offered to the backlog.
    const double half_offered = rate * a.step_seconds / 2;
    const bool growing = static_cast<double>(win.backlog_end) >
                         static_cast<double>(win.backlog_mid) + 0.05 * half_offered;
    const bool ok = ls.failed == 0 && !growing && ls.p99 <= kProbeP99LimitMs;
    if (ok) best = std::max(best, rate);
    std::printf("%10g %10zu %12.3f %12.3f %14llu %14llu %16.6g %s\n", rate, ls.samples, ls.p50,
                ls.p99, static_cast<unsigned long long>(win.backlog_mid),
                static_cast<unsigned long long>(win.backlog_end), ls.failed_frac,
                ok ? "ok" : (ls.failed ? "STALL" : (growing ? "backlog-growing" : "p99-over-limit")));
    std::fflush(stdout);
  }
  std::printf("# highest rate meeting p99 <= %g ms without a growing backlog: %g ops/s\n",
              kProbeP99LimitMs, best);
  return correct ? 0 : 1;
}

std::vector<double> parse_rates(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(std::stod(s.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string k = argv[i];
      const auto val = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
        return argv[++i];
      };
      if (k == "--workload") a.workload = val();
      else if (k == "--seed") a.seed = std::stoull(val());
      else if (k == "--seconds") a.seconds = std::stod(val());
      else if (k == "--trace") a.trace = std::stoi(val()) != 0;
      else if (k == "--spans-dir") a.spans_dir = val();
      else if (k == "--inject-fault") a.inject = val();
      else if (k == "--probe") a.probe = true;
      else if (k == "--groups") a.groups = static_cast<std::uint32_t>(std::stoul(val()));
      else if (k == "--rates") a.rates = parse_rates(val());
      else if (k == "--step-seconds") a.step_seconds = std::stod(val());
      else throw std::invalid_argument("unknown argument " + k);
    }
    if (a.probe) return run_probe(a);
    if (a.workload.empty() || a.seconds <= 0) {
      throw std::invalid_argument("--workload and a positive --seconds are required");
    }
    if (!a.inject.empty() && a.inject != "swap" && a.inject != "drop" && a.inject != "tail") {
      throw std::invalid_argument("--inject-fault takes swap, drop or tail");
    }
    return run_workload(a);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
