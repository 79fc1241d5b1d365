// Read-Modify-Write predictor, one of the two comparison mechanisms of the
// evaluation (Section IV.A), after Bobba et al., "Performance Pathologies in
// Hardware Transactional Memory".
//
// A load instruction (identified by its PC) that has historically been
// followed by a store to the same block within the same transaction is
// predicted to be the read half of a read-modify-write pair; such loads
// request exclusive permission (GETX) up front, avoiding the later
// "dueling write" abort. Each node tracks up to 256 load instructions
// (Table in Section IV.A) in a direct-mapped, tagged table of saturating
// confidence counters.
//
// Units: `pc` is the static instruction address of the load (a synthetic
// program counter in our workloads); nothing in this class is measured in
// cycles — prediction is purely history-based.
//
// Ownership: one RmwPredictor is owned by value by each node's TxnContext,
// allocated (and trained) only when the scheme's ConflictManager reads it
// (reads_rmw_predictor: Scheme::kRmwPred). The table owns its slots; no
// pointer into it escapes — predictions are returned by value at issue
// time and training mutates slots in place.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace puno::htm {

class RmwPredictor {
 public:
  explicit RmwPredictor(std::uint32_t entries) : table_(entries) {}

  /// Should the load at `pc` request exclusive permission?
  [[nodiscard]] bool predict_exclusive(std::uint64_t pc) const {
    const Slot& s = slot(pc);
    return s.tag == pc && s.confidence >= 2;
  }

  /// The load at `pc` turned out to be (`was_rmw`) / not be the read half of
  /// a read-modify-write pair in the transaction that just resolved.
  /// Confidence moves by 1 per outcome and saturates at [0, 3]; entries are
  /// allocated (at confidence 2, weakly predicting) only on a confirmed RMW
  /// so plain reads never evict useful history.
  void train(std::uint64_t pc, bool was_rmw) {
    Slot& s = slot(pc);
    if (s.tag != pc) {
      if (!was_rmw) return;  // don't allocate entries for plain reads
      s.tag = pc;
      s.confidence = 2;  // allocate weakly-predicting
      return;
    }
    if (was_rmw) {
      if (s.confidence < 3) ++s.confidence;
    } else {
      if (s.confidence > 0) --s.confidence;
    }
  }

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(table_.size());
  }

 private:
  struct Slot {
    std::uint64_t tag = 0;
    std::uint8_t confidence = 0;  ///< 2-bit saturating counter.
  };

  [[nodiscard]] Slot& slot(std::uint64_t pc) {
    return table_[pc % table_.size()];
  }
  [[nodiscard]] const Slot& slot(std::uint64_t pc) const {
    return table_[pc % table_.size()];
  }

  std::vector<Slot> table_;
};

}  // namespace puno::htm
