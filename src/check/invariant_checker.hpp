// Runtime protocol-invariant oracle.
//
// The checker watches the directory, L1, HTM and NoC layers through their
// read-only inspection accessors and re-verifies the cross-layer invariants
// of invariants.hpp at every post-cycle boundary (subject to the configured
// stride). It installs itself as a sim::Kernel post-cycle hook, so it is an
// observer by construction: it cannot perturb simulated timing, and a run
// with the checker attached is cycle-identical to one without.
//
// Always available, off by default: production experiments never pay for it.
// A checker is built from an arch::Cmp and reads every layer of it:
// InvariantChecker::attach(cmp) also installs the post-cycle hook (the fuzz
// driver, run_one and the integration tests), while a checker constructed
// directly has no hook, for tests that call check_now() themselves.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "check/invariants.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "htm/txn_context.hpp"
#include "noc/mesh.hpp"
#include "sim/kernel.hpp"

namespace puno::arch {
class Cmp;
}

namespace puno::check {

class InvariantChecker {
 public:
  /// Watches every layer of `cmp` (directories, L1s, transaction contexts
  /// and the mesh) without a hook: nothing runs until check_now().
  explicit InvariantChecker(arch::Cmp& cmp, CheckerConfig cfg = {});

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Builds a checker on `cmp` and installs it as a post-cycle hook in its
  /// kernel, sweeping every cfg.stride cycles. The returned checker must
  /// outlive cmp.run().
  [[nodiscard]] static std::unique_ptr<InvariantChecker> attach(
      arch::Cmp& cmp, CheckerConfig cfg = {});

  // --- Results ---

  /// Runs every enabled invariant immediately (also what the post-cycle hook
  /// calls on stride boundaries). Safe to call from tests at any quiesced
  /// point.
  void check_now(Cycle now);

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool clean() const noexcept { return violations_.empty(); }
  /// Total number of post-cycle sweeps executed (stride accounting).
  [[nodiscard]] std::uint64_t sweeps() const noexcept { return sweeps_; }
  [[nodiscard]] const CheckerConfig& config() const noexcept { return cfg_; }

 private:
  void report(InvariantId id, Cycle cycle, NodeId node, BlockAddr addr,
              std::string detail);
  [[nodiscard]] bool full() const noexcept {
    return violations_.size() >= cfg_.max_violations;
  }

  void check_dir_state(Cycle now);
  void check_dir_l1(Cycle now);
  void check_ud_pointer(Cycle now);
  void check_txn_pin(Cycle now);
  void check_noc_conservation(Cycle now);

  CheckerConfig cfg_;
  std::vector<const coherence::Directory*> dirs_;
  std::vector<const coherence::L1Controller*> l1s_;
  std::vector<const htm::TxnContext*> txns_;
  const noc::Mesh* mesh_ = nullptr;
  const sim::Counter* flits_sent_ = nullptr;
  const sim::Counter* flits_ejected_ = nullptr;

  std::vector<Violation> violations_;
  std::uint64_t sweeps_ = 0;
};

}  // namespace puno::check
