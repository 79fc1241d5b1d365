// Home-node directory controller + co-located shared-L2 bank.
//
// One Directory instance lives on every node; the static-NUCA address
// interleaving (SystemConfig::home_of) decides which blocks it is home for.
// The protocol is a blocking MESI directory in the SGI-Origin style the
// paper assumes (Section II.A):
//
//   * GETS to an idle line: data (exclusive if there are no sharers).
//   * GETS to an owned line: forwarded to the owner, who supplies data and
//     downgrades (or NACKs on a transactional conflict).
//   * GETX to a shared line: invalidations multicast to all sharers plus
//     data from the L2 bank — unless the PUNO assist predicts a unicast
//     destination, in which case a single U-bit invalidation is sent and no
//     data is wasted (Section III.B).
//   * The entry is "busy" from service start until the requester's UNBLOCK;
//     further requests to the line queue. The cycles a transactional GETX
//     keeps an entry busy are the Figure 12 metric.
//
// A failed (nacked) GETX restores the sharer list to the survivors the
// requester reports in the UNBLOCK, removing exactly the sharers that were
// (falsely) invalidated.
//
// Sharer lists are exact sets. The configured encoding (DirectoryConfig::
// sharer_rep) acts where a sharer is recorded — a GETS completing, and the
// rebuild after a failed GETX — through SharerSet::Params::add: a coarse
// list records the sharer's whole region and a limited list every node
// when a new sharer finds its pointers used up. The directory never removes a node from
// a list in place, so a lossy list holds what its hardware would.
//
// The directory state itself is memory-backed (complete), as in the Origin;
// the L2 bank is a data-only cache deciding whether a fill costs the
// 20-cycle bank latency or the 200-cycle memory latency.
//
// Host layout. A home keeps an entry for every block it has ever served, so
// the entry is what the directory's memory scales with. Entries sit in one
// dense array of {block, Entry} in first-request order, indexed by an
// open-addressed table of 32-bit positions (power-of-two size, linear
// probing, doubled at half load) and never erased. An Entry holds only what
// an idle line needs; the in-service fields and the queue of requests
// waiting for the line live in a per-directory pool of service records,
// which a line takes when it goes busy and returns when it is idle with
// nothing queued. The dense array and the pool grow by relocation: an
// Entry& or Service& is held only within one call that inserts nothing
// into the same array, and a scheduled event names a line by its position.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "coherence/cache_array.hpp"
#include "coherence/hooks.hpp"
#include "coherence/message.hpp"
#include "coherence/sharer_set.hpp"
#include "sim/config.hpp"
#include "sim/kernel.hpp"

namespace puno::coherence {

class Directory {
 public:
  using SendFn =
      std::function<void(NodeId dst, std::shared_ptr<const Message>)>;

  enum class DirState : std::uint8_t { kI, kS, kEM };

  /// What the in-flight service was, deciding the state transition applied
  /// when the UNBLOCK arrives.
  enum class ServiceKind : std::uint8_t {
    kGetSIdle,
    kGetSShared,
    kGetSOwned,
    kGetXIdle,
    kGetXMulticast,
    kGetXUnicast,
    kGetXOwned,
  };

  /// No service record: the line is idle with nothing queued.
  static constexpr std::uint32_t kNoService = ~std::uint32_t{0};

  struct Entry {
    DirState state = DirState::kI;
    bool busy = false;
    NodeId owner = kInvalidNode;
    NodeId ud = kInvalidNode;  ///< PUNO Unicast-Destination pointer.
    /// The line's record in the service pool while it is busy or has
    /// requests queued; kNoService otherwise.
    std::uint32_t service = kNoService;
    /// Sharer list, recorded in the configured encoding (DirectoryConfig::
    /// sharer_rep) — the only possibly lossy set.
    SharerSet sharers;
  };
  static_assert(sizeof(Entry) <= 48, "an idle line's entry stays compact");

  Directory(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
            SendFn send);

  Directory(const Directory&) = delete;
  Directory& operator=(const Directory&) = delete;

  /// Installs the PUNO directory assist (nullptr = baseline behaviour).
  void set_assist(DirectoryAssist* assist) noexcept { assist_ = assist; }

  /// Entry point for every protocol message addressed to this home node.
  void handle_message(const Message& msg);

  /// Test/debug introspection.
  [[nodiscard]] const Entry* peek(BlockAddr addr) const;
  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::size_t pending_services() const noexcept {
    return busy_entries_;
  }
  /// Number of blocks this home node currently tracks (occupancy gauge for
  /// the telemetry sampler's directory panel).
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return lines_.size();
  }
  /// Per-tile telemetry counter (docs/TELEMETRY.md): UD misprediction
  /// feedbacks absorbed at this home node. Plain member outside the stats
  /// registry so stats dumps never change when a sampler is attached.
  [[nodiscard]] std::uint64_t tile_mp_feedbacks() const noexcept {
    return tile_mp_feedbacks_;
  }
  /// Read-only visit of every directory entry in first-request order, for
  /// the invariant checker: fn(BlockAddr, const Entry&).
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Line& l : lines_) fn(l.block, l.entry);
  }
  /// Fault injection for the invariant-checker tests ONLY: hands out a
  /// mutable entry so a test can seed a corruption (stale UD pointer, bogus
  /// owner, ...) and assert the checker reports it. Returns nullptr when the
  /// line has no entry yet.
  [[nodiscard]] Entry* mutable_entry_for_test(BlockAddr addr) {
    const std::uint32_t line = find(addr);
    return line == kNoLine ? nullptr : &lines_[line].entry;
  }

 private:
  struct Line {
    BlockAddr block;
    Entry entry;
  };

  /// What a busy line's service needs until its UNBLOCK, and the requests
  /// waiting for the line (FIFO from `head`).
  struct Service {
    Cycle since = 0;
    NodeId requester = kInvalidNode;
    ServiceKind kind = ServiceKind::kGetSIdle;
    bool tx_getx = false;
    /// Nodes the in-flight GETX invalidated (`sharers` minus the requester
    /// at service time), intersected with the UNBLOCK's survivors on a
    /// failure to rebuild the sharer list.
    SharerSet inv_targets;
    std::vector<std::shared_ptr<const Message>> queue;
    std::uint32_t head = 0;
  };

  static constexpr std::uint32_t kNoLine = ~std::uint32_t{0};

  /// The index_ slot holding `addr`'s position, or the free slot that
  /// ends its probe sequence.
  [[nodiscard]] std::size_t probe(BlockAddr addr) const;
  /// Position of `addr` in lines_, or kNoLine.
  [[nodiscard]] std::uint32_t find(BlockAddr addr) const;
  /// Position of `addr` in lines_, appending an idle entry on first request.
  std::uint32_t find_or_insert(BlockAddr addr);

  [[nodiscard]] Service& service_of(const Entry& e) {
    return services_[e.service];
  }
  void service(std::uint32_t line, const Message& msg);
  void service_get_s(Entry& e, Service& s, const Message& msg);
  void service_get_x(Entry& e, Service& s, const Message& msg);
  void handle_put_x(Entry& e, const Message& msg);
  void finish_service(std::uint32_t line, const Message& unblock);
  void maybe_service_next(std::uint32_t line);

  /// Latency to produce the line's data at this bank: L2 hit or memory.
  [[nodiscard]] Cycle data_latency(BlockAddr addr);
  void fill_l2(BlockAddr addr);

  void send_data(NodeId dst, BlockAddr addr, bool exclusive,
                 std::uint32_t expected_responses, bool sole, bool payload,
                 Cycle delay);

  sim::Kernel& kernel_;
  const SystemConfig& cfg_;
  NodeId node_;
  SendFn send_;
  DirectoryAssist* assist_ = nullptr;

  std::vector<Line> lines_;  ///< Every entry, in first-request order.
  /// Open-addressed index over lines_: positions, kNoLine when free.
  std::vector<std::uint32_t> index_;
  std::vector<Service> services_;
  std::vector<std::uint32_t> free_services_;  ///< Records no line holds.
  SharerSet::Params sharer_params_;
  struct L2Meta {};
  static_assert(sizeof(CacheLine<L2Meta>) == 24);
  CacheArray<L2Meta> l2_;
  std::size_t busy_entries_ = 0;

  sim::Counter& requests_;
  sim::Counter& tx_getx_services_;
  sim::Counter& unicast_forwards_;
  sim::Counter& multicast_invs_;
  sim::Counter& l2_misses_;
  sim::Counter& wb_stales_;
  sim::Scalar& tx_getx_blocked_cycles_;
  sim::Counter& mp_feedbacks_;

  std::uint64_t tile_mp_feedbacks_ = 0;  ///< Run-total MP feedbacks here.
};

}  // namespace puno::coherence
