// Unit checks of the benchmark's own accounting and correctness gate, on
// synthetic data. Run by `python3 perfbench/run.py --selftest`, which adds
// smoke runs of every workload and the injected-fault runs.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

using perfbench::Rec;

void percentiles() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  expect(perfbench::percentile(v, 50) == 500, "nearest-rank p50 of 1..1000 is 500");
  expect(perfbench::percentile(v, 99) == 990, "nearest-rank p99 of 1..1000 is 990");
  expect(perfbench::percentile({7}, 99) == 7, "percentile of one sample is that sample");
  expect(perfbench::percentile({}, 50) == 0, "percentile of nothing is 0");
}

void failure_accounting() {
  // 1000 offered ops on a synthetic schedule; every 100th never arrives.
  std::vector<std::optional<double>> lat;
  for (int i = 0; i < 1000; ++i) {
    if (i % 100 == 99) {
      lat.push_back(std::nullopt);
    } else {
      lat.push_back(1.0 + i % 10);
    }
  }
  const auto s = perfbench::summarize_latency(lat, 1e6, 1000);
  expect(s.samples == 1000 && s.failed == 10, "failed ops counted against offered");
  expect(s.failed_frac == 0.01, "ops_failed_frac = failed / offered");
  expect(s.p50 == 5, "p50 over delivered and censored samples");
  expect(s.p99 == 10, "p99 keeps ten censored samples beyond it");
  expect(s.p99_supported && s.chunk_p99.size() == 1, "1000 samples support p99");
  lat[0] = std::nullopt;
  expect(perfbench::summarize_latency(lat, 1e6, 1000).p99 == 1e6,
         "a failed op lands in the tail, never below it");
  expect(!perfbench::summarize_latency({1.0, 2.0}, 1e6, 1000).p99_supported,
         "p99 unsupported below 1000 samples");
}

void censored_second_half() {
  // A permanent stall after mid-window: the last 5 000 of 12 000 ops
  // (five of twelve chunks) never arrive.
  std::vector<std::optional<double>> lat;
  for (int i = 0; i < 12000; ++i) {
    lat.push_back(i < 7000 ? std::optional<double>(1.0 + i % 100) : std::nullopt);
  }
  const auto chunked = perfbench::summarize_latency(lat, 1e6, 1000);
  expect(chunked.failed == 5000 && chunked.chunk_p99.size() == 12, "the stalled ops are all counted");
  expect(chunked.p50 == 50 && chunked.p99 == 99,
         "chunk medians hide a stall in under half the chunks (a gated run fails on "
         "any failed op instead)");
  const auto pooled = perfbench::summarize_latency(lat, 1e6, lat.size());
  expect(pooled.chunk_p99.size() == 1 && pooled.p99 == 1e6,
         "one pooled chunk (the probe) puts the stall in p99");
}

void chunked_percentiles() {
  // Three chunks of 1000 plus a 500-op remainder that joins the last one;
  // the middle chunk is disturbed (10x slower).
  std::vector<std::optional<double>> lat;
  for (int i = 0; i < 3500; ++i) {
    const double base = 1.0 + i % 100;
    lat.push_back(i >= 1000 && i < 2000 ? 10 * base : base);
  }
  const auto s = perfbench::summarize_latency(lat, 1e6, 1000);
  expect(s.chunk_p99.size() == 3 && s.samples == 3500, "a short remainder joins the last chunk");
  expect(s.p50 == 50 && s.p99 == 99, "one disturbed chunk does not move the medians");
  expect(perfbench::median({3, 1, 2}) == 2 && perfbench::median({4, 1, 2, 3}) == 2.5,
         "median of odd and even counts");
}

void schedules() {
  perfbench::ScheduleSpec spec;
  spec.rate = 200;
  spec.seconds = 50;
  spec.clients_per_node = 16;
  spec.keys = 1000;
  const auto a = perfbench::make_schedule(spec, 7);
  const auto b = perfbench::make_schedule(spec, 7);
  const auto c = perfbench::make_schedule(spec, 8);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].origin == b[i].origin &&
           a[i].client == b[i].client && a[i].seq == b[i].seq && a[i].key == b[i].key;
  }
  expect(same, "same seed gives the same schedule");
  expect(c.size() != a.size() || c[0].due_s != a[0].due_s,
         "another seed gives another schedule");
  const double rate = static_cast<double>(a.size()) / spec.seconds;
  expect(std::abs(rate - 200) < 10, "Poisson arrivals at the offered rate");
  std::vector<std::uint64_t> next(64, 0);
  std::vector<std::size_t> per_origin(4, 0);
  bool contiguous = true, bound = true;
  for (const auto& op : a) {
    contiguous = contiguous && op.seq == next[op.client]++;
    bound = bound && op.origin == op.client % 4;
    ++per_origin[op.origin];
  }
  expect(contiguous, "each client's seq numbers are contiguous");
  expect(bound, "each client is bound to one origin");
  bool uniform = true;
  for (std::size_t n : per_origin) uniform = uniform && std::abs(double(n) / a.size() - 0.25) < 0.03;
  expect(uniform, "origins are uniform over the nodes");
}

std::vector<std::vector<Rec>> good_order(std::vector<std::uint64_t>& digests) {
  digests = {11, 22, 33, 44, 55};
  std::vector<Rec> seq;
  for (std::uint64_t id : {2, 0, 4, 1, 3}) seq.push_back({id, digests[id], 0, 0});
  return {seq, seq, seq, seq};
}

void order_checks() {
  std::vector<std::uint64_t> digests;
  const std::vector<bool> all(5, true);
  auto nodes = good_order(digests);
  auto ok = perfbench::check_order(nodes, digests, all);
  expect(ok.errors.empty(), "identical sequences pass");
  bool everywhere = true;
  for (bool e : ok.everywhere) everywhere = everywhere && e;
  expect(everywhere, "every op delivered everywhere");

  auto swapped = nodes;
  std::swap(swapped[2][1], swapped[2][2]);
  expect(!perfbench::check_order(swapped, digests, all).errors.empty(),
         "a swapped delivery is caught");

  auto gap = nodes;
  gap[1].erase(gap[1].begin() + 1);
  expect(!perfbench::check_order(gap, digests, all).errors.empty(),
         "a missing delivery mid-sequence is caught");

  auto tail = nodes;
  tail[3].pop_back();
  const auto t = perfbench::check_order(tail, digests, all);
  expect(t.errors.empty() && !t.everywhere[3] && t.everywhere[1],
         "a missing tail delivery is a failed op, not an order violation");

  auto dup = nodes;
  dup[0].push_back(dup[0][0]);
  expect(!perfbench::check_order(dup, digests, all).errors.empty(),
         "a duplicate delivery is caught");

  auto corrupt = nodes;
  corrupt[0][0].digest ^= 1;
  expect(!perfbench::check_order(corrupt, digests, all).errors.empty(),
         "a corrupted payload is caught");

  auto foreign = nodes;
  std::vector<bool> not_four = all;
  not_four[4] = false;
  expect(!perfbench::check_order(foreign, digests, not_four).errors.empty(),
         "an op delivered on a stream it does not belong to is caught");
}

void snapshot_checks() {
  const ritas::Bytes a = {1, 2, 3}, b = {1, 2, 4};
  const std::vector<std::vector<std::size_t>> same = {{5, 5, 5, 5}, {5, 5, 5, 5}};
  expect(perfbench::check_snapshots({{a, a, a, a}, {b, b, b, b}}, same).empty(),
         "identical shard snapshots pass");
  expect(perfbench::check_snapshots({{a, a, b, a}}, {{5, 5, 5, 5}}).size() == 1,
         "a diverged replica snapshot is caught");
  expect(perfbench::check_snapshots({{a, a, b, a}}, {{5, 5, 4, 5}}).empty(),
         "a replica that applied fewer commands is not a divergence");
  expect(perfbench::check_snapshots({{a, b, a, b}}, {{5, 4, 5, 4}}).empty() &&
             perfbench::check_snapshots({{a, b, a, a}}, {{5, 4, 5, 4}}).size() == 1,
         "replicas are compared with the first one at the same apply count");
}

}  // namespace

int main() {
  percentiles();
  failure_accounting();
  censored_second_half();
  chunked_percentiles();
  schedules();
  order_checks();
  snapshot_checks();
  std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "PASS", failures);
  return failures ? 1 : 0;
}
