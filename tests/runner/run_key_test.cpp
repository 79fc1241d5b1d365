#include "runner/run_key.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "runner/grid.hpp"

namespace puno::runner {
namespace {

using metrics::ExperimentParams;

TEST(CacheKey, StableForIdenticalParams) {
  ExperimentParams a, b;
  EXPECT_EQ(run_key(a), run_key(b));
  EXPECT_EQ(params_repr(a), params_repr(b));

  // Tracing and telemetry sampling are observational, so a traced or
  // sampled run keys (and joins in punoagg) as the same experiment.
  b.trace.enabled = true;
  b.trace.filter = "txn";
  b.trace.path = "run.trace.json";
  b.trace.report_path = "run.aborts.txt";
  b.telemetry.interval = 200;
  b.telemetry.jsonl_path = "run.telemetry.jsonl";
  b.telemetry.dashboard_path = "run.dashboard.html";
  EXPECT_EQ(run_key(a), run_key(b))
      << "trace and telemetry must not be part of the run key";
  EXPECT_EQ(params_repr(a), params_repr(b));
}

// A run's cycle budget changes what it reports, so it is part of the key.
TEST(CacheKey, DistinguishesMaxCycles) {
  ExperimentParams a, b;
  b.max_cycles = a.max_cycles + 1;
  EXPECT_NE(run_key(a), run_key(b));
}

TEST(CacheKey, DistinguishesEveryTopLevelParam) {
  const ExperimentParams base;
  ExperimentParams p = base;
  p.workload = "bayes";
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.scheme = Scheme::kPuno;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.seed = 17;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.scale = 0.5;
  EXPECT_NE(run_key(base), run_key(p));
}

// The old key also dropped most of SystemConfig; the hashed-full-config key
// must react to any knob that changes simulated behaviour.
TEST(CacheKey, DistinguishesSystemConfigFields) {
  const ExperimentParams base;
  ExperimentParams p = base;
  p.base_config.cache.l2_latency += 5;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.cache.memory_latency += 100;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.noc.vc_depth += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.htm.fixed_backoff += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.htm.requester_wins_max_retries += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.htm.limited_read_entries += 8;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.htm.limited_write_entries += 8;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.puno.timeout_fraction = 0.25;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.noc.mesh_height = 2;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.cache.l2_banks = 4;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.dir.sharer_rep = SharerRep::kCoarse;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.dir.coarse_region = 8;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.dir.limited_pointers = 8;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.dir.shards = 4;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.puno.enable_unicast = false;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.num_nodes = 64;
  p.base_config.noc.mesh_width = 8;
  EXPECT_NE(run_key(base), run_key(p));
}

// The traffic engine's knobs all change simulated behaviour for traffic-*
// workloads, so every TrafficConfig field must be keyed.
TEST(CacheKey, DistinguishesTrafficConfigFields) {
  const ExperimentParams base;
  ExperimentParams p = base;
  p.base_config.traffic.arrivals_per_node += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.zipf_theta = 1.1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.hot_keys = 32;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.phase_cycles = 10'000;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.arrival = ArrivalKind::kOnOff;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.rate_per_kcycle += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.burst_boost = 2.5;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.queue_capacity += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.placement = PlacementMode::kShuffle;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.keys_per_block += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.update_frac = 0.75;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.counter_blocks += 1;
  EXPECT_NE(run_key(base), run_key(p));
  p = base;
  p.base_config.traffic.op_think_max += 1;
  EXPECT_NE(run_key(base), run_key(p));
}

// The two tests above edit fields directly. The key walks the same
// for_each_key list as --set, so every settable knob must also change it.
// Each key needs a non-default value here: the test fails when this map
// and override_keys() differ, so a new knob cannot skip it.
TEST(CacheKey, DistinguishesEveryOverrideKey) {
  const std::map<std::string, std::string> non_default = {
      {"num_nodes", "64"},
      {"noc.mesh_width", "8"},
      {"noc.mesh_height", "2"},
      {"noc.vcs_per_vnet", "3"},
      {"noc.vc_depth", "5"},
      {"noc.pipeline_stages", "3"},
      {"noc.link_latency", "2"},
      {"noc.flit_bytes", "32"},
      {"noc.always_tick", "1"},
      {"cache.l1_size_bytes", "65536"},
      {"cache.l1_assoc", "8"},
      {"cache.l1_latency", "2"},
      {"cache.l2_size_bytes", "16777216"},
      {"cache.l2_assoc", "16"},
      {"cache.l2_latency", "25"},
      {"cache.memory_latency", "300"},
      {"cache.l2_banks", "4"},
      {"dir.sharer_rep", "coarse"},
      {"dir.coarse_region", "8"},
      {"dir.limited_pointers", "8"},
      {"dir.shards", "4"},
      {"htm.fixed_backoff", "21"},
      {"htm.backoff_slot", "41"},
      {"htm.backoff_max_slots", "33"},
      {"htm.abort_recovery_latency", "11"},
      {"htm.rmw_entries", "128"},
      {"htm.requester_wins_max_retries", "5"},
      {"htm.limited_read_entries", "56"},
      {"htm.limited_write_entries", "32"},
      {"puno.pbuffer_entries", "0"},
      {"puno.txlb_entries", "16"},
      {"puno.min_timeout", "32"},
      {"puno.max_timeout", "4096"},
      {"puno.validity_threshold", "2"},
      {"puno.enable_unicast", "0"},
      {"puno.enable_notification", "0"},
      {"puno.max_notified_backoff", "500"},
      {"puno.timeout_fraction", "0.25"},
      {"puno.enable_commit_hint", "1"},
      {"puno.commit_hint_entries", "4"},
      {"puno.unicast_min_sharers", "1"},
      {"traffic.arrivals_per_node", "513"},
      {"traffic.keys", "1024"},
      {"traffic.zipf_theta", "1.1"},
      {"traffic.hot_keys", "32"},
      {"traffic.hot_frac", "0.5"},
      {"traffic.phase_cycles", "10000"},
      {"traffic.arrival", "onoff"},
      {"traffic.rate_per_kcycle", "21"},
      {"traffic.burst_on_frac", "0.5"},
      {"traffic.burst_boost", "2.5"},
      {"traffic.burst_period", "60000"},
      {"traffic.diurnal_amplitude", "0.5"},
      {"traffic.diurnal_period", "100000"},
      {"traffic.queue_capacity", "65"},
      {"traffic.placement", "shuffle"},
      {"traffic.keys_per_block", "5"},
      {"traffic.update_frac", "0.75"},
      {"traffic.counter_blocks", "9"},
      {"traffic.op_think_min", "2"},
      {"traffic.op_think_max", "5"},
  };
  const std::vector<std::string>& keys = override_keys();
  for (const std::string& key : keys) {
    EXPECT_EQ(non_default.count(key), 1u)
        << "no non-default test value for --set key '" << key << "'";
  }
  for (const auto& [key, value] : non_default) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
        << "'" << key << "' is not an override key";
    const ExperimentParams base;
    ExperimentParams p = base;
    ASSERT_TRUE(apply_override(p.base_config, key, value))
        << key << "=" << value;
    EXPECT_NE(run_key(base), run_key(p)) << key << "=" << value;
  }
}

// The default rendering, token for token: renaming, reordering, adding or
// dropping a key changes every run's key, so manifests and aggregates
// written before the edit stop joining with those written after it. It
// must show up here as a deliberate edit.
TEST(CacheKey, DefaultReprIsPinned) {
  EXPECT_EQ(
      params_repr(ExperimentParams{}),
      "workload=vacation scheme=Baseline seed=1 scale=1 max_cycles=30000000"
      " num_nodes=16 noc.mesh_width=4 noc.mesh_height=0 noc.vcs_per_vnet=2"
      " noc.vc_depth=4 noc.pipeline_stages=4 noc.link_latency=1"
      " noc.flit_bytes=16 noc.always_tick=0 cache.l1_size_bytes=32768"
      " cache.l1_assoc=4 cache.l1_latency=1 cache.l2_size_bytes=8388608"
      " cache.l2_assoc=8 cache.l2_latency=20 cache.memory_latency=200"
      " cache.l2_banks=0 dir.sharer_rep=full dir.coarse_region=4"
      " dir.limited_pointers=4 dir.shards=0 htm.fixed_backoff=20"
      " htm.backoff_slot=40 htm.backoff_max_slots=32"
      " htm.abort_recovery_latency=10 htm.rmw_entries=256"
      " htm.requester_wins_max_retries=4 htm.limited_read_entries=48"
      " htm.limited_write_entries=24 puno.pbuffer_entries=16"
      " puno.txlb_entries=32 puno.min_timeout=64 puno.max_timeout=65536"
      " puno.validity_threshold=1 puno.enable_unicast=1"
      " puno.enable_notification=1 puno.max_notified_backoff=0"
      " puno.timeout_fraction=1 puno.enable_commit_hint=0"
      " puno.commit_hint_entries=8 puno.unicast_min_sharers=2"
      " traffic.arrivals_per_node=512 traffic.keys=65536"
      " traffic.zipf_theta=0.98999999999999999 traffic.hot_keys=0"
      " traffic.hot_frac=0.90000000000000002 traffic.phase_cycles=0"
      " traffic.arrival=poisson traffic.rate_per_kcycle=20"
      " traffic.burst_on_frac=0.20000000000000001 traffic.burst_boost=8"
      " traffic.burst_period=50000"
      " traffic.diurnal_amplitude=0.80000000000000004"
      " traffic.diurnal_period=200000 traffic.queue_capacity=64"
      " traffic.placement=spread traffic.keys_per_block=4"
      " traffic.update_frac=0.5 traffic.counter_blocks=8"
      " traffic.op_think_min=1 traffic.op_think_max=4");
  // The key text too: manifests and aggregates already on disk join on it.
  EXPECT_EQ(run_key(ExperimentParams{}), "v8-e73f75b81d81d588");
}

}  // namespace
}  // namespace puno::runner
