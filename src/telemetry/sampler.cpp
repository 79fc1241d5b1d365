#include "telemetry/sampler.hpp"

#include <iterator>

#include "arch/cmp.hpp"
#include "htm/txn_context.hpp"
#include "noc/mesh.hpp"
#include "puno/puno_directory.hpp"
#include "sim/kernel.hpp"

namespace puno::telemetry {

namespace {

/// The differenced counters: each sample field is its counter's delta over
/// the window.
struct CounterDelta {
  std::uint64_t TelemetrySample::*field;
  const char* counter;
};

constexpr CounterDelta kCounterDeltas[] = {
    {&TelemetrySample::commits, "htm.commits"},
    {&TelemetrySample::aborts, "htm.aborts"},
    {&TelemetrySample::false_aborts, "htm.false_abort_events"},
    {&TelemetrySample::notified_backoffs, "htm.notified_backoffs"},
    {&TelemetrySample::nacks, "l1.tx_getx_nacked"},
    {&TelemetrySample::txgetx_services, "dir.txgetx_services"},
    {&TelemetrySample::unicasts, "puno.unicast_predictions"},
    {&TelemetrySample::multicasts, "puno.multicast_fallbacks"},
    {&TelemetrySample::mp_feedbacks, "dir.mp_feedbacks"},
    {&TelemetrySample::offered, "traffic.offered"},
    {&TelemetrySample::admitted, "traffic.admitted"},
    {&TelemetrySample::shed, "traffic.dropped"},
    {&TelemetrySample::flits_sent, "noc.flits_sent"},
    {&TelemetrySample::flits_ejected, "noc.flits_ejected"},
    {&TelemetrySample::traversals, "noc.router_traversals"},
};

/// Reads one counter's current value; an absent one reads 0 ("component
/// never instantiated", e.g. no PUNO counters under Baseline) and is not
/// created, so the stats dump stays the same as an unsampled run's.
std::uint64_t read(const sim::StatsRegistry& stats, const char* name) {
  const auto& counters = stats.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

}  // namespace

TelemetrySampler::TelemetrySampler(arch::Cmp& cmp, Cycle interval,
                                   std::size_t capacity, bool spatial)
    : cmp_(cmp),
      interval_(interval == 0 ? 1 : interval),
      spatial_(spatial),
      ring_(capacity) {
  prev_.counters.assign(std::size(kCounterDeltas), 0);
  prev_.router_traversals.assign(cmp_.config().num_nodes, 0);
  if (spatial_) {
    // Lazily-created spatial state: only spatial samplers pay for it, and
    // runs without one remain bit-identical (nothing below ever writes).
    prev_.tile_aborts.assign(cmp_.config().num_nodes, 0);
    prev_.tile_false_aborts.assign(cmp_.config().num_nodes, 0);
    prev_.tile_nacks_sent.assign(cmp_.config().num_nodes, 0);
    prev_.tile_nacks_recv.assign(cmp_.config().num_nodes, 0);
    prev_.tile_pbuffer_evictions.assign(cmp_.config().num_nodes, 0);
    prev_.tile_ud_mispredicts.assign(cmp_.config().num_nodes, 0);
  }
}

std::unique_ptr<TelemetrySampler> TelemetrySampler::attach(
    arch::Cmp& cmp, const TelemetryRequest& req) {
  auto sampler = std::make_unique<TelemetrySampler>(cmp, req.interval,
                                                    req.capacity, req.spatial);
  TelemetrySampler* raw = sampler.get();
  cmp.kernel().add_post_cycle_hook(
      [raw](Cycle now) { raw->on_post_cycle(now); },
      "telemetry.sampler");
  return sampler;
}

void TelemetrySampler::on_post_cycle(Cycle now) {
  // The hook runs before the clock advances, so cycle `now` has completed
  // `now + 1` cycles. Sample on every interval boundary.
  const Cycle completed = now + 1;
  if (completed % interval_ == 0) take_sample(completed);
}

void TelemetrySampler::finish() {
  const Cycle completed = cmp_.kernel().now();
  if (completed > prev_cycle_) take_sample(completed);
}

void TelemetrySampler::take_sample(Cycle cycles_completed) {
  const auto& cfg = cmp_.config();
  const auto n = static_cast<NodeId>(cfg.num_nodes);
  const sim::StatsRegistry& stats = cmp_.kernel().stats();

  TelemetrySample s;
  s.cycle = cycles_completed;
  s.window = cycles_completed - prev_cycle_;

  // Per-core transaction state.
  s.core_state.resize(cfg.num_nodes, 0);
  for (NodeId i = 0; i < n; ++i) {
    const htm::TxnContext& txn = cmp_.txn(i);
    if (!txn.in_txn()) continue;
    if (txn.aborted()) {
      ++s.cores_aborting;
      s.core_state[i] = 2;
    } else {
      ++s.cores_in_txn;
      s.core_state[i] = 1;
    }
    s.read_set_blocks += txn.read_set_size();
    s.write_set_blocks += txn.write_set_size();
  }

  // Counter deltas.
  CounterSnapshot cur;
  cur.counters.resize(std::size(kCounterDeltas));
  for (std::size_t c = 0; c < std::size(kCounterDeltas); ++c) {
    cur.counters[c] = read(stats, kCounterDeltas[c].counter);
    s.*kCounterDeltas[c].field = cur.counters[c] - prev_.counters[c];
  }

  // Directory gauges.
  for (NodeId i = 0; i < n; ++i) {
    const coherence::Directory& dir = cmp_.directory(i);
    s.dir_busy += dir.pending_services();
    s.dir_entries += dir.entry_count();
  }

  // PUNO assist gauges (assists exist only under Scheme::kPuno).
  for (NodeId i = 0; i < n; ++i) {
    if (const core::PunoDirectory* assist = cmp_.assist(i)) {
      const core::PBuffer& pbuf = assist->pbuffer();
      for (std::uint32_t e = 0; e < pbuf.size(); ++e) {
        if (pbuf.usable(static_cast<NodeId>(e),
                        cfg.puno.validity_threshold)) {
          ++s.pbuffer_usable;
        }
      }
    }
    s.txlb_entries += cmp_.txn(i).txlb().size();
  }

  // NoC gauges + per-router traversal deltas.
  noc::Mesh& mesh = cmp_.mesh();
  s.noc_buffered = mesh.buffered_router_flits();
  s.noc_inflight = mesh.inflight_link_flits();
  cur.router_traversals.resize(cfg.num_nodes);
  s.router_traversals.resize(cfg.num_nodes);
  for (NodeId i = 0; i < n; ++i) {
    cur.router_traversals[i] = mesh.router(i).local_traversals();
    s.router_traversals[i] =
        cur.router_traversals[i] - prev_.router_traversals[i];
  }

  // Spatial channels: per-tile counter deltas + gauges read through the
  // same const accessors the invariant checker uses. Each delta channel
  // sums (over tiles) to its global counterpart, which the spatial tests
  // pin window by window.
  if (spatial_) {
    cur.tile_aborts.resize(cfg.num_nodes);
    cur.tile_false_aborts.resize(cfg.num_nodes);
    cur.tile_nacks_sent.resize(cfg.num_nodes);
    cur.tile_nacks_recv.resize(cfg.num_nodes);
    cur.tile_pbuffer_evictions.resize(cfg.num_nodes);
    cur.tile_ud_mispredicts.resize(cfg.num_nodes);
    s.tile_aborts.resize(cfg.num_nodes);
    s.tile_false_aborts.resize(cfg.num_nodes);
    s.tile_nacks_sent.resize(cfg.num_nodes);
    s.tile_nacks_recv.resize(cfg.num_nodes);
    s.tile_pbuffer_evictions.resize(cfg.num_nodes);
    s.tile_ud_mispredicts.resize(cfg.num_nodes);
    s.tile_txn_pins.resize(cfg.num_nodes);
    s.tile_router_queued.resize(cfg.num_nodes);
    for (NodeId i = 0; i < n; ++i) {
      const htm::TxnContext& txn = cmp_.txn(i);
      const coherence::L1Controller& l1 = cmp_.l1(i);
      const coherence::Directory& dir = cmp_.directory(i);
      cur.tile_aborts[i] = txn.tile_aborts();
      cur.tile_false_aborts[i] = txn.tile_false_aborts();
      cur.tile_nacks_sent[i] = l1.tile_nacks_sent();
      cur.tile_nacks_recv[i] = l1.tile_nacks_received();
      cur.tile_ud_mispredicts[i] = dir.tile_mp_feedbacks();
      if (const core::PunoDirectory* assist = cmp_.assist(i)) {
        cur.tile_pbuffer_evictions[i] = assist->pbuffer().evictions();
      }
      s.tile_aborts[i] = cur.tile_aborts[i] - prev_.tile_aborts[i];
      s.tile_false_aborts[i] =
          cur.tile_false_aborts[i] - prev_.tile_false_aborts[i];
      s.tile_nacks_sent[i] =
          cur.tile_nacks_sent[i] - prev_.tile_nacks_sent[i];
      s.tile_nacks_recv[i] =
          cur.tile_nacks_recv[i] - prev_.tile_nacks_recv[i];
      s.tile_pbuffer_evictions[i] =
          cur.tile_pbuffer_evictions[i] - prev_.tile_pbuffer_evictions[i];
      s.tile_ud_mispredicts[i] =
          cur.tile_ud_mispredicts[i] - prev_.tile_ud_mispredicts[i];
      s.tile_txn_pins[i] = l1.txn_pinned_lines();
      s.tile_router_queued[i] = mesh.buffered_flits(i);
    }
  }

  ring_.push(std::move(s));
  prev_ = std::move(cur);
  prev_cycle_ = cycles_completed;
}

}  // namespace puno::telemetry
