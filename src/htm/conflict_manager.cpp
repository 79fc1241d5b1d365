#include "htm/conflict_manager.hpp"

#include <algorithm>
#include <cassert>

#include "htm/txn_context.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"

namespace puno::htm {

// --- Accessors into the bound TxnContext (friend access) ---

sim::Rng& ConflictManager::rng() noexcept { return txn_->rng_; }

Timestamp ConflictManager::local_ts() const noexcept { return txn_->ts_; }

std::uint32_t ConflictManager::attempt_aborts() const noexcept {
  return txn_->attempt_aborts_;
}

Cycle ConflictManager::estimate_remaining() const {
  return txn_->estimate_remaining();
}

Cycle ConflictManager::avg_c2c_latency() const noexcept {
  return txn_->avg_c2c_latency_;
}

bool ConflictManager::rmw_predicts_exclusive(std::uint64_t pc) const {
  assert(txn_->rmw_.has_value() && "only a manager that reads_rmw_predictor");
  return txn_->rmw_->predict_exclusive(pc);
}

std::size_t ConflictManager::read_set_size() const noexcept {
  return txn_->read_set_size();
}

std::size_t ConflictManager::write_set_size() const noexcept {
  return txn_->write_set_size();
}

bool ConflictManager::in_read_set(BlockAddr block) const {
  return txn_->blocks_.contains(block);
}

bool ConflictManager::in_write_set(BlockAddr block) const {
  return txn_->in_write_set(block);
}

void ConflictManager::sample_backoff(Cycle wait) {
  txn_->backoff_cycles_.sample(wait);
}

void ConflictManager::count_notified_backoff() {
  txn_->notified_backoffs_.add();
}

// --- Legacy defaults shared by the time-based schemes ---

coherence::ConflictDecision ConflictManager::resolve(BlockAddr /*addr*/,
                                                     bool /*write*/,
                                                     Timestamp req_ts) {
  // The conflict rule of Section II.B: the older (smaller-timestamp)
  // transaction wins; a younger (or non-transactional, ts = max) requester
  // is NACKed, an older one makes the local transaction abort and grant.
  return req_ts < local_ts() ? coherence::ConflictDecision::kGrantAfterAbort
                             : coherence::ConflictDecision::kNack;
}

Cycle ConflictManager::retry_backoff(Cycle /*notification*/,
                                     std::uint32_t /*retries*/) {
  if (cfg_.htm.fixed_backoff > 0) sample_backoff(cfg_.htm.fixed_backoff);
  return cfg_.htm.fixed_backoff;
}

Cycle ConflictManager::randomized_linear_backoff() {
  const std::uint64_t slots =
      std::min<std::uint64_t>(attempt_aborts(), cfg_.htm.backoff_max_slots);
  if (slots == 0) return 0;
  const Cycle wait = rng().next_below(slots + 1) * cfg_.htm.backoff_slot;
  if (wait > 0) sample_backoff(wait);
  return wait;
}

namespace {

/// Eager HTM with the fixed 20-cycle retry backoff (Section IV.A). Pure
/// base-class behaviour.
class BaselineManager final : public ConflictManager {
 public:
  using ConflictManager::ConflictManager;
  [[nodiscard]] Scheme scheme() const noexcept override {
    return Scheme::kBaseline;
  }
};

/// Baseline plus randomized linear backoff on restart [Scherer & Scott].
class RandomBackoffManager final : public ConflictManager {
 public:
  using ConflictManager::ConflictManager;
  [[nodiscard]] Scheme scheme() const noexcept override {
    return Scheme::kRandomBackoff;
  }
  [[nodiscard]] Cycle restart_backoff() override {
    return randomized_linear_backoff();
  }
};

/// Baseline plus the RMW predictor [Bobba et al.]: predicted
/// read-modify-write loads fetch exclusive up front.
class RmwPredManager final : public ConflictManager {
 public:
  using ConflictManager::ConflictManager;
  [[nodiscard]] Scheme scheme() const noexcept override {
    return Scheme::kRmwPred;
  }
  [[nodiscard]] bool load_exclusive(std::uint64_t pc) override {
    return rmw_predicts_exclusive(pc);
  }
  [[nodiscard]] bool reads_rmw_predictor() const noexcept override {
    return true;
  }
};

/// Predictive Unicast and Notification (this paper): directories run the
/// P-Buffer assist, NACKs carry the nacker's estimated remaining running
/// time, and the requester backs off on it instead of polling
/// (Section III.D).
class PunoManager final : public ConflictManager {
 public:
  using ConflictManager::ConflictManager;
  [[nodiscard]] Scheme scheme() const noexcept override {
    return Scheme::kPuno;
  }
  [[nodiscard]] bool wants_directory_assist() const noexcept override {
    return true;
  }
  [[nodiscard]] Cycle nack_notification() override {
    return cfg_.puno.enable_notification ? estimate_remaining() : 0;
  }
  [[nodiscard]] Cycle retry_backoff(Cycle notification,
                                    std::uint32_t retries) override {
    if (notification > 0) {
      // Back off until the nacker is expected to finish, minus the round
      // trip (twice the average cache-to-cache latency, Section III.D).
      const Cycle rtt = 2 * avg_c2c_latency();
      if (notification > rtt) {
        count_notified_backoff();
        Cycle wait = notification - rtt;
        if (cfg_.puno.max_notified_backoff > 0 &&
            wait > cfg_.puno.max_notified_backoff) {
          wait = cfg_.puno.max_notified_backoff;
        }
        sample_backoff(wait);
        return wait;
      }
    }
    return ConflictManager::retry_backoff(notification, retries);
  }
};

/// TSX-style requester-wins: a speculative transaction always aborts for a
/// conflicting request. An attempt that has been aborted
/// requester_wins_max_retries times re-runs on the serialized fallback
/// path: its timestamp drops the speculative tag, so it NACKs every
/// speculative requester while concurrent fallbacks order by age.
class RequesterWinsManager final : public ConflictManager {
 public:
  RequesterWinsManager(sim::Kernel& kernel, const SystemConfig& cfg,
                       NodeId node)
      : ConflictManager(kernel, cfg, node),
        fallback_entries_(kernel.stats().counter("htm.fallback_entries")) {}
  [[nodiscard]] Scheme scheme() const noexcept override {
    return Scheme::kRequesterWins;
  }
  [[nodiscard]] Timestamp fresh_timestamp(Cycle now) override {
    fallback_ = false;
    return (now * cfg_.num_nodes + node_) | kSpeculativeTsBit;
  }
  [[nodiscard]] Timestamp retry_timestamp(Timestamp prev) override {
    if (!fallback_ &&
        attempt_aborts() >= cfg_.htm.requester_wins_max_retries) {
      fallback_ = true;
      fallback_entries_.add();
    }
    return fallback_ ? prev & ~kSpeculativeTsBit : prev;
  }
  [[nodiscard]] coherence::ConflictDecision resolve(
      BlockAddr /*addr*/, bool /*write*/, Timestamp req_ts) override {
    if (!fallback_) return coherence::ConflictDecision::kGrantAfterAbort;
    // Fallback attempt: speculative (tagged) requesters — including
    // non-transactional ones, kInvalidTimestamp carries the tag — lose;
    // between two fallbacks the older wins, which keeps them deadlock-free.
    if ((req_ts & kSpeculativeTsBit) != 0) {
      return coherence::ConflictDecision::kNack;
    }
    return req_ts < local_ts()
               ? coherence::ConflictDecision::kGrantAfterAbort
               : coherence::ConflictDecision::kNack;
  }
  [[nodiscard]] Cycle restart_backoff() override {
    return randomized_linear_backoff();
  }

 private:
  bool fallback_ = false;
  sim::Counter& fallback_entries_;
};

/// FORTH-style limited-set HTM: read/write sets are architecturally
/// capacity-bounded; an attempt that overflows them aborts (through the
/// same path as an L1 set-conflict eviction) and re-runs serialized with
/// unbounded sets, its timestamp untagged so it dominates all speculation.
class LimitedSetManager final : public ConflictManager {
 public:
  LimitedSetManager(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node)
      : ConflictManager(kernel, cfg, node),
        capacity_overflows_(
            kernel.stats().counter("htm.set_capacity_overflows")),
        serial_entries_(kernel.stats().counter("htm.serial_mode_entries")) {}
  [[nodiscard]] Scheme scheme() const noexcept override {
    return Scheme::kLimitedSet;
  }
  [[nodiscard]] Timestamp fresh_timestamp(Cycle now) override {
    serial_ = false;
    return (now * cfg_.num_nodes + node_) | kSpeculativeTsBit;
  }
  [[nodiscard]] Timestamp retry_timestamp(Timestamp prev) override {
    return serial_ ? prev & ~kSpeculativeTsBit : prev;
  }
  [[nodiscard]] bool admit_access(BlockAddr block, bool write) override {
    if (serial_) return true;  // serialized retry: sets are unbounded
    // A write inserts into both sets (a writer is implicitly a reader), so
    // it must fit both bounds; a read only the read-set bound.
    const bool new_read = !in_read_set(block);
    const bool over_read =
        new_read && read_set_size() >= cfg_.htm.limited_read_entries;
    const bool over_write =
        write && !in_write_set(block) &&
        write_set_size() >= cfg_.htm.limited_write_entries;
    if (over_read || over_write) {
      capacity_overflows_.add();
      return false;
    }
    return true;
  }
  void on_abort(AbortCause cause) override {
    // Any capacity abort — architectural set overflow or L1 set-conflict
    // eviction — serializes the remaining retries of this attempt.
    if (cause == AbortCause::kOverflow && !serial_) {
      serial_ = true;
      serial_entries_.add();
    }
  }

 private:
  bool serial_ = false;
  sim::Counter& capacity_overflows_;
  sim::Counter& serial_entries_;
};

}  // namespace

std::unique_ptr<ConflictManager> make_conflict_manager(sim::Kernel& kernel,
                                                       const SystemConfig& cfg,
                                                       NodeId node) {
  switch (cfg.scheme) {
    case Scheme::kBaseline:
      return std::make_unique<BaselineManager>(kernel, cfg, node);
    case Scheme::kRandomBackoff:
      return std::make_unique<RandomBackoffManager>(kernel, cfg, node);
    case Scheme::kRmwPred:
      return std::make_unique<RmwPredManager>(kernel, cfg, node);
    case Scheme::kPuno:
      return std::make_unique<PunoManager>(kernel, cfg, node);
    case Scheme::kRequesterWins:
      return std::make_unique<RequesterWinsManager>(kernel, cfg, node);
    case Scheme::kLimitedSet:
      return std::make_unique<LimitedSetManager>(kernel, cfg, node);
  }
  return std::make_unique<BaselineManager>(kernel, cfg, node);
}

}  // namespace puno::htm
