#include "traffic/engine.hpp"

#include <cmath>
#include <limits>

namespace puno::traffic {

namespace {

[[nodiscard]] std::uint64_t scaled_quota(std::uint32_t base, double scale) {
  const double q = std::llround(static_cast<double>(base) * scale);
  return q < 1.0 ? 1 : static_cast<std::uint64_t>(q);
}

}  // namespace

OpenLoopWorkload::OpenLoopWorkload(KernelKind kind, const TrafficConfig& cfg,
                                   NodeId num_nodes, std::uint64_t seed,
                                   std::uint32_t block_bytes, double scale)
    : name_(std::string("traffic-") + to_string(kind)),
      cfg_(cfg),
      sampler_(cfg),
      gen_(kind, cfg, block_bytes),
      quota_(scaled_quota(cfg.arrivals_per_node, scale)) {
  nodes_.reserve(num_nodes);
  for (NodeId n = 0; n < num_nodes; ++n) nodes_.emplace_back(cfg, seed, n);
}

void OpenLoopWorkload::attach(sim::Kernel& k) {
  kernel_ = &k;
  auto& st = k.stats();
  st_offered_ = &st.counter("traffic.offered");
  st_admitted_ = &st.counter("traffic.admitted");
  st_dropped_ = &st.counter("traffic.dropped");
  st_begun_ = &st.counter("traffic.begun");
  st_delay_ = &st.histogram("traffic.queue_delay", kDelayHistMax);
}

bool OpenLoopWorkload::ensure_next(NodeState& ns) {
  if (ns.next_ready) return true;
  if (ns.generated >= quota_) return false;
  ns.next_time = ns.arrivals.next();
  ns.next_ready = true;
  return true;
}

workloads::TxnDesc OpenLoopWorkload::build(NodeState& ns,
                                           std::uint64_t when) {
  const std::uint64_t key = sampler_.next(when, ns.gen_rng);
  return gen_.make(key, when, ns.gen_rng);
}

void OpenLoopWorkload::count_offered(bool admitted_one) {
  ++offered_;
  if (st_offered_ != nullptr) st_offered_->add();
  if (admitted_one) {
    ++admitted_;
    if (st_admitted_ != nullptr) st_admitted_->add();
  } else {
    ++dropped_;
    if (st_dropped_ != nullptr) st_dropped_->add();
  }
}

void OpenLoopWorkload::pump(NodeState& ns, std::uint64_t now) {
  const std::size_t cap = cfg_.queue_capacity == 0 ? 1 : cfg_.queue_capacity;
  while (ensure_next(ns) && ns.next_time <= now) {
    const bool fits = ns.queue.size() < cap;
    if (fits) {
      // Draw the descriptor only for admitted arrivals: drops consume no
      // gen_rng state, so admitted requests' bodies depend only on the
      // admitted prefix (and the arrival stream stays untouched either way).
      Queued q;
      q.arrival = ns.next_time;
      q.desc = build(ns, ns.next_time);
      ns.queue.push_back(std::move(q));
    }
    count_offered(fits);
    ++ns.generated;
    ns.next_ready = false;
  }
}

std::optional<workloads::TxnDesc> OpenLoopWorkload::next(NodeId node) {
  NodeState& ns = nodes_.at(node);

  if (kernel_ == nullptr) {
    // Drain mode: every arrival in order, no queueing, no waiting. The
    // virtual clock is the arrival schedule itself, so phase-shifted
    // sampling still keys off arrival time.
    if (!ensure_next(ns)) return std::nullopt;
    workloads::TxnDesc d = build(ns, ns.next_time);
    count_offered(true);
    ++begun_;
    ++ns.generated;
    ns.next_ready = false;
    return d;
  }

  const std::uint64_t now = kernel_->now();
  pump(ns, now);

  if (!ns.queue.empty()) {
    Queued q = std::move(ns.queue.front());
    ns.queue.pop_front();
    const std::uint64_t delay = now - q.arrival;
    ++begun_;
    if (st_begun_ != nullptr) st_begun_->add();
    if (st_delay_ != nullptr) st_delay_->sample(delay);
    q.desc.pre_think = 0;  // already waited `delay` in the queue
    return std::move(q.desc);
  }

  if (!ensure_next(ns)) return std::nullopt;  // quota drained, queue empty

  // Idle core, next arrival still in the future: serve it directly with
  // pre_think covering the gap, so the core begins exactly at arrival time.
  // (It would be admitted to an empty queue at that instant anyway.)
  const std::uint64_t when = ns.next_time;
  workloads::TxnDesc d = build(ns, when);
  count_offered(true);
  ++begun_;
  if (st_begun_ != nullptr) st_begun_->add();
  if (st_delay_ != nullptr) st_delay_->sample(0);
  ++ns.generated;
  ns.next_ready = false;
  const std::uint64_t gap = when - now;
  d.pre_think = gap > std::numeric_limits<std::uint32_t>::max()
                    ? std::numeric_limits<std::uint32_t>::max()
                    : static_cast<std::uint32_t>(gap);
  return d;
}

}  // namespace puno::traffic
