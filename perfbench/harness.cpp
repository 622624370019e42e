#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

// splitmix64's finaliser of x: a hash, not a stream.
std::uint64_t mix(std::uint64_t x) {
  return ritas::splitmix64(x);
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return mix(mix(seed) ^ stream);
}

double exponential(ritas::Rng& rng, double rate) {
  return -std::log1p(-rng.uniform()) / rate;
}

std::vector<Op> make_schedule(const ScheduleSpec& spec, std::uint64_t seed) {
  ritas::Rng gaps(derive(seed, 1));
  ritas::Rng picks(derive(seed, 2));
  ritas::Rng keys(derive(seed, 3));
  const std::uint64_t clients =
      static_cast<std::uint64_t>(spec.clients_per_node) * spec.nodes;
  std::vector<std::uint64_t> next_seq(clients, 0);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(spec.rate * spec.seconds * 1.2) + 16);
  for (double t = exponential(gaps, spec.rate); t < spec.seconds;
       t += exponential(gaps, spec.rate)) {
    Op op;
    op.due_s = t;
    if (clients > 0) {
      const std::uint64_t c = picks.below(clients);
      op.client = spec.first_client + c;
      op.seq = next_seq[c]++;
      op.origin = static_cast<std::uint32_t>(c % spec.nodes);
    } else {
      op.origin = static_cast<std::uint32_t>(picks.below(spec.nodes));
    }
    if (spec.keys > 0) op.key = static_cast<std::uint32_t>(keys.below(spec.keys));
    ops.push_back(op);
  }
  return ops;
}

std::uint64_t digest(ByteView bytes) {
  std::uint64_t h = mix(bytes.size());
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return mix(h ^ tail);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 ? values[m] : (values[m - 1] + values[m]) / 2;
}

LatencySummary summarize_latency(const std::vector<std::optional<double>>& lat,
                                 double censored, std::size_t chunk) {
  LatencySummary s;
  s.samples = lat.size();
  if (lat.empty() || chunk == 0) return s;
  s.p99_supported = true;
  for (std::size_t begin = 0; begin < lat.size();) {
    std::size_t end = std::min(lat.size(), begin + chunk);
    if (lat.size() - end < chunk) end = lat.size();
    std::vector<double> v;
    for (std::size_t i = begin; i < end; ++i) {
      if (lat[i]) {
        v.push_back(*lat[i]);
      } else {
        v.push_back(censored);
        ++s.failed;
      }
    }
    s.chunk_p50.push_back(percentile(v, 50));
    s.chunk_p99.push_back(percentile(v, 99));
    s.p99_supported = s.p99_supported && v.size() >= 1000;
    begin = end;
  }
  s.failed_frac = static_cast<double>(s.failed) / static_cast<double>(s.samples);
  s.p50 = median(s.chunk_p50);
  s.p99 = median(s.chunk_p99);
  return s;
}

OrderCheck check_order(const std::vector<std::vector<Rec>>& per_node,
                       const std::vector<std::uint64_t>& expected_digest,
                       const std::vector<bool>& stream_ops) {
  OrderCheck out;
  const std::size_t ops = expected_digest.size();
  std::vector<std::size_t> seen_by(ops, 0);
  const std::vector<Rec>* longest = nullptr;
  for (std::size_t node = 0; node < per_node.size(); ++node) {
    const auto& seq = per_node[node];
    if (!longest || seq.size() > longest->size()) longest = &seq;
    std::vector<bool> seen(ops, false);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const Rec& r = seq[i];
      const std::string at =
          "node " + std::to_string(node) + " position " + std::to_string(i);
      if (r.id >= ops || !stream_ops[r.id]) {
        out.errors.push_back(at + ": delivered unknown op " + std::to_string(r.id));
        continue;
      }
      if (r.digest != expected_digest[r.id]) {
        out.errors.push_back(at + ": op " + std::to_string(r.id) +
                             " delivered with a corrupted payload");
      }
      if (seen[r.id]) {
        out.errors.push_back(at + ": op " + std::to_string(r.id) +
                             " delivered twice");
        continue;
      }
      seen[r.id] = true;
      ++seen_by[r.id];
    }
  }
  out.everywhere.assign(ops, false);
  for (std::size_t id = 0; id < ops; ++id) {
    out.everywhere[id] = seen_by[id] == per_node.size();
  }
  if (!longest) return out;
  for (std::size_t node = 0; node < per_node.size(); ++node) {
    const auto& seq = per_node[node];
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i].id != (*longest)[i].id) {
        out.errors.push_back("node " + std::to_string(node) +
                             " diverges from the total order at position " +
                             std::to_string(i) + " (op " +
                             std::to_string(seq[i].id) + " where another node has op " +
                             std::to_string((*longest)[i].id) + ")");
        break;
      }
    }
  }
  std::uint64_t fp = 0;
  for (const Rec& r : *longest) fp = mix(fp ^ r.id) ^ r.digest;
  out.fingerprint = fp;
  return out;
}

std::vector<std::string> check_snapshots(
    const std::vector<std::vector<Bytes>>& snapshots,
    const std::vector<std::vector<std::size_t>>& applied) {
  std::vector<std::string> errors;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    for (std::size_t node = 1; node < snapshots[s].size(); ++node) {
      for (std::size_t ref = 0; ref < node; ++ref) {
        if (applied[s][ref] != applied[s][node]) continue;
        if (snapshots[s][ref] != snapshots[s][node]) {
          errors.push_back("shard " + std::to_string(s) + ": node " +
                           std::to_string(node) + " snapshot differs from node " +
                           std::to_string(ref) + " after the same " +
                           std::to_string(applied[s][node]) + " applies");
        }
        break;
      }
    }
  }
  return errors;
}

}  // namespace perfbench
