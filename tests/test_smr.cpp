// State machine replication over the stack at G = 1: exactly-once
// application, cross-replica consistency under every faultload,
// deterministic results.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <map>

#include "common/serialize.h"
#include "sim_helpers.h"

namespace ritas::smr {
namespace {

using test::fast_lan;
using test::kDeadline;

/// Deterministic counter machine: "add <u64>" / "get".
class CounterMachine final : public StateMachine {
 public:
  Bytes apply(ByteView command) override {
    Reader r(command);
    const std::uint8_t op = r.u8();
    if (op == 0) {  // add
      value_ += r.u64();
    }
    if (!r.ok()) return to_bytes("err");
    Writer w;
    w.u64(value_);
    return std::move(w).take();
  }
  Bytes snapshot() const override {
    Writer w;
    w.u64(value_);
    return std::move(w).take();
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

Bytes add_cmd(std::uint64_t x) {
  Writer w;
  w.u8(0);
  w.u64(x);
  return std::move(w).take();
}

sim::ShardedClusterOptions counter_cluster(std::uint64_t seed) {
  sim::ShardedClusterOptions o;
  static_cast<test::ClusterOptions&>(o) = fast_lan(4, seed);
  o.machine_factory = [](ShardId) -> std::unique_ptr<StateMachine> {
    return std::make_unique<CounterMachine>();
  };
  return o;
}

std::uint64_t value(sim::ShardedCluster& c, ProcessId p) {
  return static_cast<const CounterMachine&>(c.service(p).machine(0)).value();
}

TEST(Smr, ReplicasConvergeToSameState) {
  sim::ShardedCluster c(counter_cluster(1));
  for (std::uint64_t i = 1; i <= 8; ++i) {
    c.submit(static_cast<ProcessId>(i % 4), /*client=*/1, i, add_cmd(i));
  }
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(8); }, kDeadline));
  // 1+2+...+8 = 36, identical everywhere.
  for (ProcessId p : c.live()) {
    EXPECT_EQ(value(c, p), 36u);
    EXPECT_EQ(c.service(p).snapshot(0), c.service(0).snapshot(0));
  }
}

TEST(Smr, DuplicateSubmissionsApplyOnce) {
  sim::ShardedCluster c(counter_cluster(2));
  // The same request (client 9, seq 1) retried through THREE replicas.
  for (ProcessId via : {0u, 1u, 2u}) c.submit(via, 9, 1, add_cmd(100));
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(1); }, kDeadline));
  c.run_all();
  for (ProcessId p : c.live()) {
    EXPECT_EQ(value(c, p), 100u) << "applied more than once at p" << p;
    EXPECT_EQ(c.service(p).duplicates_skipped(0), 2u);
  }
}

TEST(Smr, ResultsReportedToSubmittingReplica) {
  sim::ShardedCluster c(counter_cluster(3));
  std::map<std::uint64_t, std::uint64_t> results;  // seq -> counter value
  c.service(0).set_on_applied(
      [&results](ShardId, std::uint64_t, std::uint64_t seq, const Bytes& result) {
        Reader r(result);
        results[seq] = r.u64();
      });
  c.submit(0, 5, 1, add_cmd(10));
  c.submit(0, 5, 2, add_cmd(20));
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(2); }, kDeadline));
  EXPECT_EQ(results[1], 10u);
  EXPECT_EQ(results[2], 30u);
}

TEST(Smr, ConsistentUnderByzantineReplica) {
  sim::ShardedClusterOptions o = counter_cluster(4);
  o.byzantine = {2};
  sim::ShardedCluster c(o);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    // Includes the attacker as a front.
    c.submit(static_cast<ProcessId>(i % 4), 1, i, add_cmd(i));
  }
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(6); }, kDeadline));
  for (ProcessId p : c.correct_set()) {
    EXPECT_EQ(value(c, p), 21u);
  }
}

TEST(Smr, ConsistentUnderCrash) {
  sim::ShardedClusterOptions o = counter_cluster(5);
  o.crashed = {3};
  sim::ShardedCluster c(o);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    c.submit(static_cast<ProcessId>(i % 3), 1, i, add_cmd(1));
  }
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(6); }, kDeadline));
  for (ProcessId p : c.correct_set()) {
    EXPECT_EQ(value(c, p), 6u);
  }
}

TEST(Smr, JunkOperationHandledDeterministically) {
  sim::ShardedCluster c(counter_cluster(6));
  // A buggy or Byzantine client submits an operation the machine cannot
  // parse; every replica applies the same deterministic "err" no-op and
  // states stay equal.
  c.submit(1, 4, 1, to_bytes("junk-op"));
  c.submit(0, 4, 2, add_cmd(5));
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(2); }, kDeadline));
  for (ProcessId p : c.live()) {
    EXPECT_EQ(value(c, p), 5u);
    EXPECT_EQ(c.service(p).snapshot(0), c.service(0).snapshot(0));
  }
}

TEST(Smr, InterleavedClientsKeepPerClientExactlyOnce) {
  sim::ShardedCluster c(counter_cluster(7));
  // Three clients, interleaved seqs, some duplicated through two replicas.
  for (std::uint64_t client : {10u, 20u, 30u}) {
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      const ProcessId via = static_cast<ProcessId>((client + seq) % 4);
      c.submit(via, client, seq, add_cmd(client + seq));
      if (seq % 2 == 0) {  // duplicate the even ones elsewhere
        c.submit((via + 1) % 4, client, seq, add_cmd(client + seq));
      }
    }
  }
  // 12 unique commands; sum = sum over clients of (4*client + 10).
  const std::uint64_t expected = (4 * 10 + 10) + (4 * 20 + 10) + (4 * 30 + 10);
  ASSERT_TRUE(c.run_until([&] { return c.all_applied_at_least(12); }, kDeadline));
  c.run_all();
  for (ProcessId p : c.live()) {
    EXPECT_EQ(value(c, p), expected);
    EXPECT_EQ(c.service(p).applied_count(0), 12u);
  }
}

}  // namespace
}  // namespace ritas::smr
