// Whole-CMP assembly: 16 tiles of {core, L1, L2 bank + directory, PUNO
// assist, router/NI}, glued to the mesh (Figure 9).
//
// The one tile assembly: experiments run it, and the protocol tests build
// it on an empty workload, whose cores never start, and drive its L1s by
// hand. It is also the only message<->packet glue: a tile's send function
// puts a coherence::Message on the mesh with its virtual network and wire
// size, and the tile's delivery handler hands a delivered message to the
// directory or the L1.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "arch/core.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "htm/txn_context.hpp"
#include "noc/mesh.hpp"
#include "puno/puno_directory.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "workloads/workload.hpp"

namespace puno::arch {

class Cmp {
 public:
  /// Assembles the machine and attaches `workload` to its kernel
  /// (Workload::attach), so an open-loop workload runs open loop on every
  /// path. Throws std::invalid_argument when validate(cfg) fails.
  Cmp(const SystemConfig& cfg, workloads::Workload& workload);

  Cmp(const Cmp&) = delete;
  Cmp& operator=(const Cmp&) = delete;

  /// Runs until every core has exhausted its workload (plus network drain)
  /// or `max_cycles` elapse. Returns true on normal completion.
  bool run(Cycle max_cycles);

  /// As run(), but additionally polls `stop(now)` every `check_interval`
  /// simulated cycles and ends the run early (returning false) when it
  /// returns true. The experiment runner's wall-clock watchdog hangs off
  /// this hook; the slicing itself does not perturb simulated behaviour.
  bool run(Cycle max_cycles, Cycle check_interval,
           const std::function<bool(Cycle)>& stop);

  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] noc::Mesh& mesh() noexcept { return *mesh_; }
  [[nodiscard]] Core& core(NodeId n) { return *cores_[n]; }
  [[nodiscard]] htm::TxnContext& txn(NodeId n) { return *txns_[n]; }
  [[nodiscard]] coherence::L1Controller& l1(NodeId n) { return *l1s_[n]; }
  [[nodiscard]] coherence::Directory& directory(NodeId n) {
    return *dirs_[n];
  }
  /// The PUNO assist at node `n`, or nullptr when the scheme runs without
  /// assists (assists exist only under Scheme::kPuno).
  [[nodiscard]] core::PunoDirectory* assist(NodeId n) {
    return n < assists_.size() ? assists_[n].get() : nullptr;
  }

  [[nodiscard]] std::uint64_t total_committed() const;
  [[nodiscard]] bool all_done() const;

 private:
  SystemConfig cfg_;
  sim::Kernel kernel_;
  bool started_ = false;
  std::unique_ptr<noc::Mesh> mesh_;
  std::vector<std::unique_ptr<htm::TxnContext>> txns_;
  std::vector<std::unique_ptr<coherence::L1Controller>> l1s_;
  std::vector<std::unique_ptr<coherence::Directory>> dirs_;
  std::vector<std::unique_ptr<core::PunoDirectory>> assists_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace puno::arch
