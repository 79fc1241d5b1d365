// Predictor playground: drive the PUNO hardware structures directly —
// P-Buffer updates, validity aging, UD-pointer recomputation, unicast
// decisions and misprediction feedback — reproducing the paper's Figure 8
// walk-through step by step on the component API (no full simulation).
#include <cstdio>

#include <string>

#include "coherence/message.hpp"
#include "coherence/sharer_set.hpp"
#include "puno/puno_directory.hpp"
#include "sim/kernel.hpp"

int main() {
  using namespace puno;
  using coherence::SharerSet;

  sim::Kernel kernel;
  SystemConfig cfg;
  cfg.scheme = Scheme::kPuno;
  core::PunoDirectory dir(kernel, cfg, /*node=*/0);

  const auto show = [&](const char* step) {
    std::printf("\n-- %s --\n", step);
    for (NodeId n = 1; n <= 3; ++n) {
      const auto& e = dir.pbuffer().get(n);
      std::printf("  P-Buffer[node%u]: ts=%-6llu validity=%u usable=%s\n", n,
                  e.ts == kInvalidTimestamp
                      ? 0ull
                      : static_cast<unsigned long long>(e.ts),
                  e.validity, dir.pbuffer().usable(n) ? "yes" : "no");
    }
  };

  std::printf("PUNO predictor walk-through (paper Figure 8)\n");

  // (a) Directory updates the P-Buffer from three transactional GETS.
  dir.observe_request(1, /*ts=*/100, /*avg_txn_len=*/500);
  dir.observe_request(2, /*ts=*/250, 500);
  dir.observe_request(3, /*ts=*/180, 500);
  show("(a) three TxGETS observed: priorities recorded");

  SharerSet sharers;
  sharers.add(1);
  sharers.add(2);
  sharers.add(3);
  NodeId ud = dir.recompute_ud(sharers);
  std::printf("  UD pointer -> node %u (highest priority = smallest ts)\n",
              ud);

  // (b) A TxGETX from node 2 (ts 250): node 1 (ts 100) out-prioritizes it,
  // so the directory unicasts among the other sharers.
  SharerSet others = sharers;
  others.remove(2);
  NodeId target = dir.predict_unicast(others, 2, 250, ud);
  std::printf("\n-- (b) TxGETX from node2 (ts=250): %s --\n",
              target == kInvalidNode
                  ? "multicast (no usable older sharer)"
                  : "UNICAST");
  if (target != kInvalidNode) {
    std::printf("  forwarded with U-bit to node %u only\n", target);
  }

  // (c2) Node 1's transaction has committed meanwhile: the NACK comes back
  // with the MP-bit, and the UNBLOCK feedback invalidates the stale entry.
  dir.on_misprediction(1);
  show("(c2) misprediction feedback: node1's priority invalidated");
  ud = dir.recompute_ud(sharers);
  std::printf("  UD pointer recomputed -> node %u\n", ud);

  target = dir.predict_unicast(others, 2, 250, ud);
  std::printf("  next TxGETX from node2: %s%s\n",
              target == kInvalidNode ? "multicast" : "unicast to node ",
              target == kInvalidNode ? "" : std::to_string(target).c_str());

  // Validity aging: rollover timeouts decay unreferenced priorities.
  std::printf("\n-- rollover timeouts (period = %llu cycles) --\n",
              static_cast<unsigned long long>(dir.timeout_period()));
  kernel.run_for(dir.timeout_period() + 1);
  show("after 1 period: all validity counters decremented");
  kernel.run_for(dir.timeout_period() + 1);
  show("after 2 periods: stale priorities are no longer usable");

  return 0;
}
