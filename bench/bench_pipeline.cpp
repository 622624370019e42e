// Execution pipeline: aggregate sharded-SMR throughput vs the reactor
// thread count T.
//
// Workload: real-TCP sharded SMR — four ShardedNode processes-in-threads
// over a loopback mesh, G=4 groups, sweeping T ∈ {0,1,2,4} reactor
// threads (0 = the inline single-thread path).
//
// Gate (in-binary, exit 1 on failure; re-derived by CI from
// BENCH_pipeline.json): T=2 must reach >= 1.3x the aggregate ops/s of
// T=1. The gate is HARDWARE-GUARDED: with fewer than 2n (= 8) hardware
// threads the four nodes' poll+reactor threads already oversubscribe the
// cores at T=1, so extra reactors cannot buy wall-clock speedup — the
// sweep still runs and reports, but the floor is only enforced when
// hardware_concurrency >= 8 (CI re-checks under the same condition;
// RITAS_PIPELINE_GATE=1/0 forces it on/off for calibration runs).
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "paper_harness.h"
#include "ritas/sharded_node.h"
#include "smr/kv_machine.h"

namespace ritas::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kN = 4;
constexpr std::uint32_t kGroups = 4;
constexpr std::uint32_t kPerShardOps = 40;
constexpr double kMinSpeedupT2 = 1.3;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- real-TCP sharded SMR sweep ---------------------------------------------

std::vector<net::PeerAddr> reserve_local_ports(std::uint32_t n) {
  std::vector<net::PeerAddr> peers;
  std::vector<int> fds;
  for (std::uint32_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    peers.push_back(net::PeerAddr{"127.0.0.1", ntohs(addr.sin_port)});
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  return peers;
}

Bytes set_cmd(const std::string& key, const std::string& value) {
  smr::KvCommand c;
  c.op = smr::KvCommand::Op::kSet;
  c.key = key;
  c.value = value;
  return c.encode();
}

/// kPerShardOps keys per shard, scanning "k<i>" (same partition-aware
/// load generator as bench_shard_scaling).
std::vector<std::vector<std::string>> keys_per_shard(std::uint32_t groups) {
  std::vector<std::vector<std::string>> keys(groups);
  std::uint32_t filled = 0;
  for (std::uint64_t i = 0; filled < groups; ++i) {
    const std::string k = "k" + std::to_string(i);
    const auto s = smr::shard_of_key(
        ByteView(reinterpret_cast<const std::uint8_t*>(k.data()), k.size()),
        groups);
    if (keys[s].size() >= kPerShardOps) continue;
    keys[s].push_back(k);
    if (keys[s].size() == kPerShardOps) ++filled;
  }
  return keys;
}

struct SmrResult {
  bool done = false;
  double elapsed_ms = 0;
  double agg_ops_s = 0;
  std::uint64_t handoff_enqueued = 0;
  std::uint64_t handoff_dropped = 0;
};

SmrResult run_smr_once(std::uint32_t reactor_threads, std::uint64_t seed) {
  const auto peers = reserve_local_ports(kN);
  std::vector<std::unique_ptr<ShardedNode>> nodes(kN);
  std::vector<std::thread> starters;
  for (std::uint32_t p = 0; p < kN; ++p) {
    ShardedNode::Options o;
    o.n = kN;
    o.self = p;
    o.peers = peers;
    o.master_secret = to_bytes("bench-pipeline");
    o.groups = kGroups;
    o.reactor_threads = reactor_threads;
    o.rng_seed = seed;
    nodes[p] = std::make_unique<ShardedNode>(std::move(o));
    starters.emplace_back([&nodes, p] { nodes[p]->start(); });
  }
  for (auto& t : starters) t.join();

  const auto keys = keys_per_shard(kGroups);
  const std::uint64_t total =
      static_cast<std::uint64_t>(kGroups) * kPerShardOps;
  const auto t0 = Clock::now();
  std::uint64_t seq = 0;
  for (std::uint32_t i = 0; i < kPerShardOps; ++i) {
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      nodes[seq % kN]->submit(/*client=*/1, seq, set_cmd(keys[g][i], "v"));
      ++seq;
    }
  }
  SmrResult r;
  r.done = true;
  for (std::uint32_t p = 0; p < kN; ++p) {
    r.done = r.done && nodes[p]->wait_applied_at_least(
                           total, std::chrono::seconds(120));
  }
  r.elapsed_ms = ms_since(t0);
  r.agg_ops_s = (r.done && r.elapsed_ms > 0)
                    ? static_cast<double>(total) / (r.elapsed_ms / 1e3)
                    : 0;
  for (std::uint32_t p = 0; p < kN; ++p) {
    const auto ps = nodes[p]->pipeline_stats();
    r.handoff_enqueued += ps.handoff_enqueued;
    r.handoff_dropped += ps.handoff_dropped;
  }
  for (auto& n : nodes) n->stop();
  return r;
}

SmrResult run_smr_avg(std::uint32_t reactor_threads, int runs) {
  SmrResult acc;
  acc.done = true;
  for (int i = 0; i < runs; ++i) {
    const SmrResult r =
        run_smr_once(reactor_threads, 7000 + static_cast<std::uint64_t>(i));
    acc.done = acc.done && r.done;
    acc.elapsed_ms += r.elapsed_ms / runs;
    acc.agg_ops_s += r.agg_ops_s / runs;
    acc.handoff_enqueued += r.handoff_enqueued;
    acc.handoff_dropped += r.handoff_dropped;
  }
  return acc;
}

}  // namespace
}  // namespace ritas::bench

int main() {
  using namespace ritas::bench;
  const int kRuns = bench_runs(3);
  const unsigned hw = std::thread::hardware_concurrency();

  // Hardware guard: below 2n hardware threads the T=1 deployment already
  // saturates every core, so the speedup floor is physically out of reach
  // and only reported, not enforced.
  bool gate_enforced = hw >= 2 * kN;
  if (const char* env = std::getenv("RITAS_PIPELINE_GATE")) {
    gate_enforced = std::atoi(env) != 0;
  }

  print_header(
      "Execution pipeline: reactor threads vs aggregate sharded-SMR ops/s");

  BenchReport report("pipeline");
  report.meta("n", kN);
  report.meta("groups", kGroups);
  report.meta("per_shard_ops", static_cast<std::uint64_t>(kPerShardOps));
  report.meta("runs", kRuns);
  report.meta("hw_threads", static_cast<std::uint64_t>(hw));
  report.meta("gate_enforced", gate_enforced);
  report.meta("min_speedup_t2", kMinSpeedupT2);

  // --- real-TCP sharded sweep ----------------------------------------------
  std::printf("sharded SMR over real TCP (n=%u, G=%u, %llu ops):\n", kN,
              kGroups,
              static_cast<unsigned long long>(kGroups) * kPerShardOps);
  std::printf("%-10s %12s %14s %10s %12s\n", "reactors", "elapsed(ms)",
              "agg ops/s", "speedup", "handoff");
  double t1_ops = 0;
  double speedup_t2 = 0;
  bool all_done = true;
  bool no_drops = true;
  for (std::uint32_t t : {0u, 1u, 2u, 4u}) {
    const SmrResult r = run_smr_avg(t, kRuns);
    all_done = all_done && r.done;
    no_drops = no_drops && r.handoff_dropped == 0;
    if (t == 1) t1_ops = r.agg_ops_s;
    const double speedup = (t >= 1 && t1_ops > 0) ? r.agg_ops_s / t1_ops : 0;
    if (t == 2) speedup_t2 = speedup;
    std::printf("%-10s %12.1f %14.0f %9.2fx %12llu\n",
                t == 0 ? "inline" : std::to_string(t).c_str(), r.elapsed_ms,
                r.agg_ops_s, speedup,
                static_cast<unsigned long long>(r.handoff_enqueued));
    std::fflush(stdout);
    report.add_row([&](ritas::JsonWriter& w) {
      w.field("kind", "smr");
      w.field("reactor_threads", t);
      w.field("elapsed_ms", r.elapsed_ms);
      w.field("agg_ops_s", r.agg_ops_s);
      w.field("speedup_vs_t1", speedup);
      w.field("handoff_enqueued", r.handoff_enqueued);
      w.field("handoff_dropped", r.handoff_dropped);
      w.field("completed", r.done);
    });
  }

  const bool gate_ok = !gate_enforced || speedup_t2 >= kMinSpeedupT2;
  std::printf("\nshape checks:\n");
  std::printf("  all sweeps completed                       : %s\n",
              all_done ? "PASS" : "FAIL");
  std::printf("  no handoff drops (backpressure only)       : %s\n",
              no_drops ? "PASS" : "FAIL");
  std::printf("  T=2 >= %.1fx T=1 (hw=%u, %s)              : %s (%.2fx)\n",
              kMinSpeedupT2, hw, gate_enforced ? "enforced" : "report-only",
              gate_ok ? "PASS" : "FAIL", speedup_t2);

  report.meta("speedup_t2", speedup_t2);
  report.meta("gate_speedup_ok", gate_ok);
  report.meta("all_done", all_done);
  report.meta("no_drops", no_drops);
  const bool wrote = report.write();
  std::printf("  wrote %s : %s\n", report.path().c_str(),
              wrote ? "PASS" : "FAIL");
  return (gate_ok && all_done && no_drops && wrote) ? 0 : 1;
}
