// Shared test fixture: a full 16-node arch::Cmp (mesh + directories + L1s +
// real TxnContexts + optional PUNO assists) on an empty workload, whose
// cores never start, so tests drive memory operations and transaction
// boundaries directly and observe every protocol effect deterministically.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/cmp.hpp"
#include "check/invariant_checker.hpp"
#include "coherence/directory.hpp"
#include "coherence/l1_controller.hpp"
#include "htm/txn_context.hpp"
#include "noc/mesh.hpp"
#include "puno/puno_directory.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"
#include "workloads/stamp.hpp"

namespace puno::testing {

/// A workload with no transactions, for a machine the tests drive by hand.
class NoWorkload final : public workloads::Workload {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] std::optional<workloads::TxnDesc> next(NodeId) override {
    return std::nullopt;
  }

 private:
  std::string name_ = "none";
};

class ProtocolFixture : public ::testing::Test {
 protected:
  explicit ProtocolFixture(SystemConfig cfg = {})
      : cmp_(cfg, no_workload_),
        // The machine's own config, which its components read by
        // reference: a test that changes a knob after construction changes
        // it for the whole machine. Cmp holds it as a non-const member.
        cfg_(const_cast<SystemConfig&>(cmp_.config())),
        kernel_(cmp_.kernel()),
        mesh_(&cmp_.mesh()),
        on_done_(cfg_.num_nodes) {
    for (NodeId i = 0; i < cfg_.num_nodes; ++i) {
      txns_.push_back(&cmp_.txn(i));
      l1s_.push_back(&cmp_.l1(i));
      dirs_.push_back(&cmp_.directory(i));
      if (auto* assist = cmp_.assist(i)) assists_.push_back(assist);
      // The fixture, not the idle core, completes every operation.
      l1s_[i]->set_completion([this, i](bool ok) { on_done_[i](ok); });
    }
  }

  /// Blocking load: runs the simulation until the operation completes.
  /// Returns the completion flag (false = cancelled by a local abort).
  bool do_load(NodeId node, Addr addr, bool transactional = false,
               bool exclusive_hint = false, Cycle budget = 100000) {
    bool done = false, ok = false;
    on_done_[node] = [&](bool success) {
      done = true;
      ok = success;
    };
    l1s_[node]->load(addr, transactional, exclusive_hint);
    kernel_.run_until([&] { return done; }, budget);
    EXPECT_TRUE(done) << "load did not complete within budget";
    if (ok && transactional) txns_[node]->on_access(addr, false, 0);
    drain();
    return ok;
  }

  /// Lets trailing protocol actions (UNBLOCK, writebacks) land so directory
  /// state is settled when a test inspects it. Bounded so tests with other
  /// traffic in flight (pollers) still make progress.
  void drain(Cycle budget = 400) {
    kernel_.run_until([&] { return mesh_->idle(); }, budget);
    kernel_.run_for(2);
  }

  bool do_store(NodeId node, Addr addr, bool transactional = false,
                Cycle budget = 100000) {
    bool done = false, ok = false;
    on_done_[node] = [&](bool success) {
      done = true;
      ok = success;
    };
    l1s_[node]->store(addr, transactional);
    kernel_.run_until([&] { return done; }, budget);
    EXPECT_TRUE(done) << "store did not complete within budget";
    if (ok && transactional) txns_[node]->on_access(addr, true, 0);
    drain();
    return ok;
  }

  /// Starts an asynchronous operation; completion is reported through the
  /// returned flag pointer.
  std::shared_ptr<bool> async_store(NodeId node, Addr addr,
                                    bool transactional = true) {
    auto done = std::make_shared<bool>(false);
    on_done_[node] = [done, this, node, addr, transactional](bool success) {
      *done = true;
      if (success && transactional) txns_[node]->on_access(addr, true, 0);
    };
    l1s_[node]->store(addr, transactional);
    return done;
  }
  std::shared_ptr<bool> async_load(NodeId node, Addr addr,
                                   bool transactional = true) {
    auto done = std::make_shared<bool>(false);
    on_done_[node] = [done, this, node, addr, transactional](bool success) {
      *done = true;
      if (success && transactional) txns_[node]->on_access(addr, false, 0);
    };
    l1s_[node]->load(addr, transactional, false);
    return done;
  }

  void run(Cycle cycles) { kernel_.run_for(cycles); }

  [[nodiscard]] std::uint64_t stat(const std::string& name) {
    return kernel_.stats().counter(name).value();
  }

  using L1State = coherence::L1Controller::LineState;

  NoWorkload no_workload_;
  arch::Cmp cmp_;
  SystemConfig& cfg_;
  sim::Kernel& kernel_;
  noc::Mesh* mesh_;
  std::vector<htm::TxnContext*> txns_;
  std::vector<coherence::L1Controller*> l1s_;
  std::vector<coherence::Directory*> dirs_;
  std::vector<core::PunoDirectory*> assists_;

 private:
  /// What each node's L1 completion hook runs for the operation in flight.
  std::vector<std::function<void(bool)>> on_done_;
};

/// Same fixture with the PUNO scheme enabled.
class PunoProtocolFixture : public ProtocolFixture {
 protected:
  PunoProtocolFixture() : ProtocolFixture(make_config()) {}
  static SystemConfig make_config() {
    SystemConfig cfg;
    cfg.scheme = Scheme::kPuno;
    return cfg;
  }
};

/// Full-system harness (cores + STAMP-profile workload + Cmp), factoring
/// the "build config, make workload, run, inspect" boilerplate the
/// integration tests all repeat — with the protocol invariant oracle
/// optionally riding along so any property test doubles as a protocol
/// consistency test.
class CmpHarness {
 public:
  struct Options {
    std::string workload = "intruder";
    Scheme scheme = Scheme::kBaseline;
    std::uint64_t seed = 1;
    double scale = 0.12;
    /// Attach the invariant checker (off = zero overhead, as in production).
    bool attach_checker = false;
    check::CheckerConfig checker{};
  };

  explicit CmpHarness(Options opts) : opts_(std::move(opts)) {
    cfg_.scheme = opts_.scheme;
    cfg_.seed = opts_.seed;
    workload_ = workloads::stamp::make(opts_.workload, cfg_.num_nodes,
                                       opts_.seed, opts_.scale);
    quota_ = workloads::stamp::make_spec(opts_.workload, opts_.scale)
                 .txns_per_node;
    cmp_ = std::make_unique<arch::Cmp>(cfg_, *workload_);
    if (opts_.attach_checker) {
      checker_ = check::InvariantChecker::attach(*cmp_, opts_.checker);
    }
  }

  [[nodiscard]] bool run(Cycle max_cycles = 20'000'000) {
    const bool completed = cmp_->run(max_cycles);
    if (checker_) checker_->check_now(cmp_->kernel().now());
    return completed;
  }

  /// Fails the current test with a formatted report if the oracle tripped.
  void expect_invariants_clean() const {
    if (!checker_) return;
    for (const auto& v : checker_->violations()) {
      ADD_FAILURE() << check::format_violation(v);
    }
  }

  [[nodiscard]] arch::Cmp& cmp() noexcept { return *cmp_; }
  [[nodiscard]] const SystemConfig& cfg() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t quota() const noexcept { return quota_; }
  [[nodiscard]] const check::InvariantChecker* checker() const noexcept {
    return checker_.get();
  }

 private:
  Options opts_;
  SystemConfig cfg_;
  std::unique_ptr<workloads::Workload> workload_;
  std::uint32_t quota_ = 0;
  std::unique_ptr<arch::Cmp> cmp_;
  std::unique_ptr<check::InvariantChecker> checker_;
};

}  // namespace puno::testing
