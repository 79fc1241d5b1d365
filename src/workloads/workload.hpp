// Workload abstraction: a stream of transaction descriptors per core.
//
// The simulator's cores execute transaction *descriptors*: a static
// transaction id (the TX_BEGIN/TX_END site), think-time paddings, and a
// sequence of transactional loads/stores with per-op think time. This is the
// observable surface a trace-driven HTM study needs — the conflict-detection
// machinery only ever sees addresses, timestamps and timing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace puno::sim {
class Kernel;
}  // namespace puno::sim

namespace puno::workloads {

struct TxOp {
  bool is_store = false;
  Addr addr = 0;
  std::uint64_t pc = 0;       ///< Static instruction id (RMW predictor key).
  std::uint32_t pre_think = 0;  ///< Compute cycles before issuing this op.
};

struct TxnDesc {
  StaticTxId static_id = 0;
  std::uint32_t pre_think = 0;   ///< Non-transactional cycles before begin.
  std::uint32_t post_think = 0;  ///< Non-transactional cycles after commit.
  std::vector<TxOp> ops;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;

  /// Produces the next transaction for core `node`, or nullopt when that
  /// core's share of the workload is exhausted. Called again only after the
  /// previous transaction *committed* (aborted attempts re-run the same
  /// descriptor, as re-executing a transaction replays the same code).
  [[nodiscard]] virtual std::optional<TxnDesc> next(NodeId node) = 0;

  /// Binds the workload to the kernel that will simulate it. arch::Cmp's
  /// constructor calls this once, before any next(). Closed-loop workloads
  /// ignore it; open-loop traffic reads simulated time through `k`.
  virtual void attach(sim::Kernel& /*k*/) {}
};

}  // namespace puno::workloads
