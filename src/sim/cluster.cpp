#include "sim/cluster.h"

#include <stdexcept>

#include "common/serialize.h"

namespace ritas::sim {

Cluster::Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
  const std::uint32_t n = opts_.n;
  const std::uint32_t groups = opts_.groups;
  if (groups == 0) throw std::invalid_argument("Cluster: groups == 0");
  net_ = std::make_unique<SimNetwork>(sched_, opts_.lan, n,
                                      opts_.seed ^ 0xabcdef12345678ULL);

  // Trusted-dealer key distribution (out of band, as in the paper), one
  // keychain per host, shared by its groups (see header).
  Writer master;
  master.str("ritas-sim-master");
  master.u64(opts_.seed);
  keys_.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    keys_.push_back(KeyChain::deal(master.data(), n, p));
  }

  adversaries_.resize(n);
  for (ProcessId p : opts_.byzantine) {
    if (p >= n) throw std::invalid_argument("byzantine process out of range");
    adversaries_[p] = opts_.adversary_factory();
  }

  std::uint64_t s = opts_.seed;
  const std::uint64_t base = splitmix64(s);
  stacks_.reserve(static_cast<std::size_t>(n) * groups);
  if (opts_.trace) tracers_.reserve(static_cast<std::size_t>(n) * groups);
  muxes_.reserve(n);
  roots_.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    muxes_.push_back(std::make_unique<GroupMux>());
    for (GroupId g = 0; g < groups; ++g) {
      StackConfig cfg = opts_.stack;
      cfg.n = n;
      cfg.self = p;
      cfg.group = g;
      const std::uint64_t proc_seed =
          base ^ (0x1000 + p) ^
          (static_cast<std::uint64_t>(g) * 0x9e3779b97f4a7c15ULL);
      stacks_.push_back(std::make_unique<ProtocolStack>(
          cfg, net_->transport(p), keys_[p], proc_seed, adversaries_[p].get()));
      muxes_[p]->attach(g, *stacks_.back());
      if (opts_.trace) {
        tracers_.push_back(std::make_unique<Tracer>(p));
        stacks_.back()->set_tracer(tracers_.back().get());
      }
    }
    if (opts_.trace) net_->set_tracer(p, tracer(p, 0));
  }

  // Inbound demux: the shared mesh delivers host-to-host; the mux peeks
  // the GroupId prefix and routes to the owning stack.
  net_->set_deliver([this](ProcessId from, ProcessId to, Slice frame) {
    muxes_[to]->on_packet(from, std::move(frame));
  });

  for (ProcessId p : opts_.crashed) {
    if (p >= n) throw std::invalid_argument("crashed process out of range");
    net_->crash(p);
  }
  for (const auto& [p, t] : opts_.timed_crashes) {
    if (p >= n) throw std::invalid_argument("timed crash process out of range");
    sched_.at(t, [this, p = p] { net_->crash(p); });
  }
}

Cluster::~Cluster() = default;

std::vector<ProcessId> Cluster::live() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (!crashed(p)) out.push_back(p);
  }
  return out;
}

std::vector<ProcessId> Cluster::correct_set() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (correct(p)) out.push_back(p);
  }
  return out;
}

bool Cluster::run_until(const std::function<bool()>& done, Time deadline) {
  return sched_.run_until(done, deadline);
}

std::vector<const Tracer*> Cluster::tracers(GroupId g) const {
  std::vector<const Tracer*> out;
  if (tracers_.empty()) return out;
  out.reserve(opts_.n);
  for (ProcessId p = 0; p < opts_.n; ++p) out.push_back(tracers_[at(p, g)].get());
  return out;
}

Bytes Cluster::trace_bytes(GroupId g) const {
  Bytes out;
  for (const Tracer* t : tracers(g)) append(out, t->encode());
  return out;
}

std::string Cluster::chrome_trace_json() const {
  return ritas::chrome_trace_json(tracers());
}

Metrics Cluster::group_metrics(GroupId g) const {
  Metrics total;
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (!crashed(p)) total += stacks_[at(p, g)]->metrics();
  }
  return total;
}

Metrics Cluster::total_metrics() const {
  Metrics total;
  for (GroupId g = 0; g < opts_.groups; ++g) total += group_metrics(g);
  for (ProcessId p = 0; p < opts_.n; ++p) {
    if (crashed(p)) continue;
    // The mux sees foreign-group and unparsable frames before any stack.
    total.malformed_dropped += muxes_[p]->malformed_dropped();
    total.foreign_group_dropped += muxes_[p]->foreign_dropped();
  }
  return total;
}

}  // namespace ritas::sim
