// Pure, clock-free pieces of the benchmark: seeded input generation,
// latency/failure accounting and the delivery-order checks. Kept apart
// from main.cpp so selftest.cpp can drive them with synthetic data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"

namespace perfbench {

using ritas::Bytes;
using ritas::ByteView;

/// Independent stream `stream` of the workload seed: every random input
/// (schedule, origins, keys, clients, node seeds) draws a ritas::Rng
/// seeded from its own.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/// Exponential variate with the given rate (mean 1/rate).
double exponential(ritas::Rng& rng, double rate);

/// One generated operation. `due_s` is relative to the start of the
/// measured window (warm-up ops have due_s = 0 and are not timed).
struct Op {
  double due_s = 0;
  std::uint32_t origin = 0;
  std::uint64_t client = 0;  // kv only
  std::uint64_t seq = 0;     // kv only: contiguous per client
  std::uint32_t key = 0;     // kv only
};

struct ScheduleSpec {
  double rate = 0;       // ops/s, Poisson arrivals
  double seconds = 0;    // window length
  std::uint32_t nodes = 4;
  std::uint32_t clients_per_node = 0;  // 0 = origins drawn directly
  std::uint32_t keys = 0;              // 0 = no keys
  std::uint64_t first_client = 0;
};

/// Open-loop Poisson schedule over [0, seconds). Origins are uniform over
/// the nodes; with clients, each op draws a client uniformly and the
/// client's bound origin (client % nodes) submits it with the client's
/// next sequence number.
std::vector<Op> make_schedule(const ScheduleSpec& spec, std::uint64_t seed);

/// Word-at-a-time digest of a payload (not cryptographic; detects a
/// corrupted or substituted delivery).
std::uint64_t digest(ByteView bytes);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile of `values` (p in (0, 100]); 0 when empty.
double percentile(std::vector<double> values, double p);

struct LatencySummary {
  std::size_t samples = 0;
  std::size_t failed = 0;
  std::vector<double> chunk_p50, chunk_p99;  // in due order
  double p50 = 0;
  double p99 = 0;
  double failed_frac = 0;
  /// Every chunk keeps at least ten samples beyond its p99.
  bool p99_supported = false;
};

/// Latencies of the offered ops in due order; nullopt marks a failed op,
/// which counts as `censored` (a lower bound on its latency) so failures
/// land in the tail instead of vanishing from it. The ops are cut into
/// consecutive chunks of `chunk` (a short remainder joins the last chunk);
/// p50 and p99 are the medians of the per-chunk percentiles, so one
/// disturbed stretch of the run moves them less than a pooled percentile.
/// That also hides failures confined to fewer than half the chunks, so a
/// gated run treats any failed op as a check failure, and the overload
/// probe, which reports through failures, summarises with one pooled chunk.
LatencySummary summarize_latency(const std::vector<std::optional<double>>& lat,
                                 double censored, std::size_t chunk);

/// One delivery (ab) or apply (kv) seen at one node.
struct Rec {
  std::uint64_t id = 0;
  std::uint64_t digest = 0;
  std::int64_t t_ns = 0;
  std::uint64_t aux = 0;  // ab: origin; kv: apply duration in ns
};

struct OrderCheck {
  std::vector<std::string> errors;
  /// Per op: delivered at every node.
  std::vector<bool> everywhere;
  /// Fingerprint of the longest sequence (equal at every node that
  /// delivered all of it).
  std::uint64_t fingerprint = 0;
};

/// Checks per-node delivery sequences of ONE totally ordered stream:
/// every record names a known op with the expected digest, no node
/// delivers an op twice, and every node's sequence is a prefix of the
/// longest one (identical order, no gap). `expected_digest[id]` is the
/// digest of op id; ops absent from `stream_ops` must not appear.
OrderCheck check_order(const std::vector<std::vector<Rec>>& per_node,
                       const std::vector<std::uint64_t>& expected_digest,
                       const std::vector<bool>& stream_ops);

/// Replicas of one shard that applied the same number of commands must
/// hold byte-identical snapshots (the order check already pins those
/// commands to one prefix; a replica that fell behind is a failed op, not
/// a divergence). Indexed [shard][node].
std::vector<std::string> check_snapshots(
    const std::vector<std::vector<Bytes>>& snapshots,
    const std::vector<std::vector<std::size_t>>& applied);

}  // namespace perfbench
