// Google-benchmark microbenchmarks of the hot simulator components: the
// structures PUNO adds (P-Buffer, TxLB, RMW predictor), the caches and the
// NoC. These bound the simulator's own performance, not the modelled
// hardware's.
#include <benchmark/benchmark.h>

#include <memory>

#include "coherence/cache_array.hpp"
#include "coherence/directory.hpp"
#include "htm/rmw_predictor.hpp"
#include "htm/txlb.hpp"
#include "noc/mesh.hpp"
#include "puno/pbuffer.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "workloads/stamp.hpp"

namespace {

using namespace puno;

void BM_RngNextBelow(benchmark::State& state) {
  sim::Rng rng(1, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_PBufferUpdate(benchmark::State& state) {
  core::PBuffer pb(16);
  sim::Rng rng(1, 0);
  Timestamp ts = 0;
  for (auto _ : state) {
    pb.update(static_cast<NodeId>(rng.next_below(16)), ++ts);
  }
}
BENCHMARK(BM_PBufferUpdate);

void BM_PBufferTimeout(benchmark::State& state) {
  core::PBuffer pb(16);
  for (NodeId n = 0; n < 16; ++n) pb.update(n, n);
  for (auto _ : state) {
    pb.on_timeout();
    pb.update(3, 100);  // keep some validity alive
  }
}
BENCHMARK(BM_PBufferTimeout);

void BM_TxLBCommit(benchmark::State& state) {
  htm::TxLB txlb(32);
  sim::Rng rng(1, 0);
  for (auto _ : state) {
    txlb.on_commit(static_cast<StaticTxId>(rng.next_below(15)),
                   rng.next_below(1000));
  }
}
BENCHMARK(BM_TxLBCommit);

void BM_RmwPredict(benchmark::State& state) {
  htm::RmwPredictor pred(256);
  for (std::uint64_t pc = 0; pc < 128; ++pc) pred.train(pc, true);
  std::uint64_t pc = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.predict_exclusive(pc++ % 256));
  }
}
BENCHMARK(BM_RmwPredict);

void BM_CacheArrayLookup(benchmark::State& state) {
  struct Meta {};
  coherence::CacheArray<Meta> cache(32 * 1024, 4, 64);
  sim::Rng rng(1, 0);
  for (int i = 0; i < 512; ++i) {
    const BlockAddr a = rng.next_below(1024) * 64;
    cache.fill(cache.victim(a), a);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(rng.next_below(1024) * 64));
  }
}
BENCHMARK(BM_CacheArrayLookup);

void BM_DirectoryRequests(benchmark::State& state) {
  // One home of a 256-node machine, with no NoC and no L1s, serving
  // GetS -> UNBLOCK and GetX -> UNBLOCK over 30,000 blocks: as many as
  // genome at 256 tiles spreads over all the homes, so lookups reach past
  // the host caches as they do across a whole CMP. The blocks are the
  // home's own, 256 x 64 bytes apart. Each iteration is one request and
  // its UNBLOCK; requests visit the blocks in a scattered order, a sweep of
  // GetS, then a sweep of GetX, and so on. The kernel steps a cycle per
  // iteration to send the delayed data replies. per_request is CPU time per
  // request.
  constexpr std::uint64_t kBlocks = 30000;
  constexpr std::uint64_t kStride = 7919;  // prime: visits every block
  constexpr NodeId kHome = 5;
  sim::Kernel kernel;
  SystemConfig cfg;
  cfg.num_nodes = 256;
  cfg.noc.mesh_width = 16;
  coherence::Directory dir(
      kernel, cfg, kHome,
      [](NodeId, std::shared_ptr<const coherence::Message>) {});
  std::uint64_t i = 0;
  coherence::Message req;
  coherence::Message unblock;
  unblock.type = coherence::MsgType::kUnblock;
  unblock.success = true;
  const auto request = [&] {
    const std::uint64_t k = i * kStride % kBlocks;
    const bool sweep_gets = (i / kBlocks) % 2 == 0;
    const auto node = static_cast<NodeId>(i % 251);
    req.type =
        sweep_gets ? coherence::MsgType::kGetS : coherence::MsgType::kGetX;
    req.addr = (k * cfg.num_nodes + kHome) * CacheConfig::block_bytes;
    req.sender = req.requester = node;
    dir.handle_message(req);
    unblock.addr = req.addr;
    unblock.sender = unblock.requester = node;
    dir.handle_message(unblock);
    kernel.step();
    ++i;
  };
  while (i < 2 * kBlocks) request();  // every block has an entry
  const std::uint64_t before = i;
  for (auto _ : state) request();
  state.counters["per_request"] = benchmark::Counter(
      static_cast<double>(i - before),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DirectoryRequests);

void BM_MeshSingleFlitDelivery(benchmark::State& state) {
  // Whole-network cost of moving one control packet corner to corner.
  struct Payload {};
  sim::Kernel kernel;
  NocConfig cfg;
  noc::Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  bool got = false;
  mesh.set_handler(15, [&](noc::Packet) { got = true; });
  auto payload = std::make_shared<Payload>();
  for (auto _ : state) {
    got = false;
    mesh.send(0, 15, noc::VNet::kRequest, 0, payload);
    while (!got) kernel.step();
  }
}
BENCHMARK(BM_MeshSingleFlitDelivery);

void BM_MeshSaturated(benchmark::State& state) {
  // Simulator throughput under all-to-one hotspot traffic (cycles/sec of
  // simulated network under load). Node 0's ejection port drains one flit
  // a cycle, a 5-flit packet every 5 cycles, so offering a packet every
  // cycle would grow the source queues without bound. A send is skipped
  // while kWindow packets are undelivered: enough to keep the port busy
  // (packets_per_cycle reads 0.2), and memory and time per cycle stay the
  // same whatever iteration count google-benchmark picks.
  constexpr std::uint64_t kWindow = 32;
  struct Payload {};
  sim::Kernel kernel;
  NocConfig cfg;
  noc::Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  mesh.set_handler(0, [&](noc::Packet) { ++delivered; });
  auto payload = std::make_shared<Payload>();
  NodeId src = 1;
  for (auto _ : state) {
    if (sent - delivered < kWindow) {
      mesh.send(src, 0, noc::VNet::kResponse, 64, payload);
      ++sent;
      src = static_cast<NodeId>(src % 15 + 1);
    }
    kernel.step();
  }
  state.counters["packets_per_cycle"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MeshSaturated);

void BM_Mesh16x16UniformRandom(benchmark::State& state) {
  // The NoC alone at mesh256's scale, with no protocol above it. A 4x4
  // mesh's router state fits in L2, so the two cases above cannot show a
  // router layout change; 256 routers' state does not. Each node sends a
  // packet to a uniformly random other node with probability 1/100 per
  // cycle, 40% of them 64-byte data packets (5 flits): ~80 router
  // traversals per cycle, about what mesh256 runs. One iteration is one
  // simulated cycle; per_traversal is CPU time per router traversal.
  struct Payload {};
  sim::Kernel kernel;
  NocConfig cfg;
  cfg.mesh_width = 16;
  noc::Mesh mesh(kernel, cfg);
  kernel.add_tickable(mesh);
  sim::Rng rng(1, 0);
  auto payload = std::make_shared<Payload>();
  const std::uint32_t n = mesh.num_nodes();
  const auto cycle = [&] {
    for (NodeId src = 0; src < n; ++src) {
      if (!rng.next_bool(0.01)) continue;
      auto dst = static_cast<NodeId>(rng.next_below(n - 1));
      if (dst >= src) ++dst;
      mesh.send(src, dst, static_cast<noc::VNet>(rng.next_below(3)),
                rng.next_bool(0.4) ? 64 : 0, payload);
    }
    kernel.step();
  };
  for (int warm = 0; warm < 2000; ++warm) cycle();  // reach steady state
  const std::uint64_t before = mesh.router_traversals();
  for (auto _ : state) cycle();
  state.counters["per_traversal"] = benchmark::Counter(
      static_cast<double>(mesh.router_traversals() - before),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Mesh16x16UniformRandom);

void BM_WorkloadGeneration(benchmark::State& state) {
  auto wl = workloads::stamp::make("bayes", 16, 1, /*scale=*/1e9);
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl->next(node));
    node = static_cast<NodeId>((node + 1) % 16);
  }
}
BENCHMARK(BM_WorkloadGeneration);

}  // namespace

BENCHMARK_MAIN();
