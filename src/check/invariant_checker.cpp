#include "check/invariant_checker.hpp"

#include <sstream>

#include "arch/cmp.hpp"
#include "coherence/message.hpp"

namespace puno::check {

namespace {

using coherence::Directory;
using coherence::L1Controller;

[[nodiscard]] const char* dir_state_name(Directory::DirState s) {
  switch (s) {
    case Directory::DirState::kI: return "I";
    case Directory::DirState::kS: return "S";
    case Directory::DirState::kEM: return "EM";
  }
  return "?";
}

[[nodiscard]] const char* l1_state_name(L1Controller::LineState s) {
  switch (s) {
    case L1Controller::LineState::kS: return "S";
    case L1Controller::LineState::kE: return "E";
    case L1Controller::LineState::kM: return "M";
  }
  return "?";
}

}  // namespace

std::string format_violation(const Violation& v) {
  std::ostringstream os;
  os << "[" << to_string(v.id) << "] cycle " << v.cycle;
  if (v.node != kInvalidNode) os << " node " << v.node;
  if (v.addr != 0) os << " block 0x" << std::hex << v.addr << std::dec;
  os << ": " << v.detail;
  return os.str();
}

InvariantChecker::InvariantChecker(arch::Cmp& cmp, CheckerConfig cfg)
    : cfg_(cfg),
      mesh_(&cmp.mesh()),
      flits_sent_(&cmp.kernel().stats().counter("noc.flits_sent")),
      flits_ejected_(&cmp.kernel().stats().counter("noc.flits_ejected")) {
  if (cfg_.stride == 0) cfg_.stride = 1;
  const auto n = static_cast<NodeId>(cmp.config().num_nodes);
  for (NodeId i = 0; i < n; ++i) {
    dirs_.push_back(&cmp.directory(i));
    l1s_.push_back(&cmp.l1(i));
    txns_.push_back(&cmp.txn(i));
  }
}

std::unique_ptr<InvariantChecker> InvariantChecker::attach(arch::Cmp& cmp,
                                                           CheckerConfig cfg) {
  auto checker = std::make_unique<InvariantChecker>(cmp, cfg);
  InvariantChecker* c = checker.get();
  cmp.kernel().add_post_cycle_hook(
      [c](Cycle now) {
        if (now % c->cfg_.stride == 0) c->check_now(now);
      },
      "check.invariants");
  return checker;
}

void InvariantChecker::report(InvariantId id, Cycle cycle, NodeId node,
                              BlockAddr addr, std::string detail) {
  if (full()) return;
  violations_.push_back(Violation{id, cycle, node, addr, std::move(detail)});
}

void InvariantChecker::check_now(Cycle now) {
  ++sweeps_;
  if (full()) return;
  if (cfg_.dir_state) check_dir_state(now);
  if (cfg_.dir_l1) check_dir_l1(now);
  if (cfg_.ud_pointer) check_ud_pointer(now);
  if (cfg_.txn_pin) check_txn_pin(now);
  if (cfg_.noc_conservation) check_noc_conservation(now);
}

// DIR-STATE: every entry is self-consistent with its state tag, and the
// directory's cached busy-entry count agrees with the entry flags.
void InvariantChecker::check_dir_state(Cycle now) {
  for (const Directory* dir : dirs_) {
    const NodeId home = dir->node();
    const std::uint32_t n = static_cast<std::uint32_t>(dirs_.size());
    std::size_t busy_seen = 0;
    dir->for_each_entry([&](BlockAddr addr, const Directory::Entry& e) {
      if (e.busy) ++busy_seen;
      switch (e.state) {
        case Directory::DirState::kI:
          if (!e.sharers.empty() || e.owner != kInvalidNode) {
            report(InvariantId::kDirState, now, home, addr,
                   "state I but sharers/owner nonempty");
          }
          break;
        case Directory::DirState::kS:
          if (e.sharers.empty()) {
            report(InvariantId::kDirState, now, home, addr,
                   "state S with empty sharer list");
          }
          if (e.owner != kInvalidNode) {
            report(InvariantId::kDirState, now, home, addr,
                   "state S with an owner registered");
          }
          break;
        case Directory::DirState::kEM:
          if (e.owner == kInvalidNode || e.owner >= n) {
            report(InvariantId::kDirState, now, home, addr,
                   "state EM without a valid owner");
          }
          if (!e.sharers.empty()) {
            report(InvariantId::kDirState, now, home, addr,
                   "state EM with a nonempty sharer list");
          }
          break;
      }
      // Note: an idle entry MAY hold queued requests for one cycle — after
      // an UNBLOCK, maybe_service_next() schedules the next service with a
      // 1-cycle delay — so pending-queue occupancy is not checked here.
    });
    if (busy_seen != dir->pending_services()) {
      std::ostringstream os;
      os << "busy-entry count " << dir->pending_services()
         << " != " << busy_seen << " busy flags";
      report(InvariantId::kDirState, now, home, 0, os.str());
    }
  }
}

// DIR-L1: ownership/sharing agreement between the home directories and the
// private L1s. Busy entries are mid-transition and excluded; a writeback in
// flight keeps answering forwards from the L1's writeback buffer and is
// treated as continued ownership.
void InvariantChecker::check_dir_l1(Cycle now) {
  // L1 -> directory direction.
  for (std::size_t n = 0; n < l1s_.size(); ++n) {
    const auto node = static_cast<NodeId>(n);
    l1s_[n]->for_each_line([&](BlockAddr addr, L1Controller::LineState st) {
      // Only the home node holds an entry for a block, so the directory
      // that peeks non-null is the home.
      const Directory::Entry* e = nullptr;
      NodeId home_node = kInvalidNode;
      for (const Directory* d : dirs_) {
        if (const auto* got = d->peek(addr)) {
          e = got;
          home_node = d->node();
          break;
        }
      }
      if (e == nullptr) {
        std::ostringstream os;
        os << "L1 holds " << l1_state_name(st) << " but no directory entry";
        report(InvariantId::kDirL1, now, node, addr, os.str());
        return;
      }
      if (e->busy) return;  // mid-service: ownership is being transferred
      switch (st) {
        case L1Controller::LineState::kE:
        case L1Controller::LineState::kM:
          if (!(e->state == Directory::DirState::kEM && e->owner == node)) {
            std::ostringstream os;
            os << "L1 holds " << l1_state_name(st) << " but home (node "
               << home_node << ") is " << dir_state_name(e->state);
            if (e->owner != kInvalidNode) os << " with owner " << e->owner;
            report(InvariantId::kDirL1, now, node, addr, os.str());
          }
          break;
        case L1Controller::LineState::kS:
          // Sharer lists are stale-inclusive (silent S evictions), so the
          // list may name non-sharers but must never miss a real one.
          // An over-approximating encoding (coarse regions, limited-
          // pointer broadcast) still satisfies this by construction: it
          // only ever records more nodes than the real sharers.
          if (e->state == Directory::DirState::kS &&
              !e->sharers.contains(node)) {
            report(InvariantId::kDirL1, now, node, addr,
                   "L1 holds S but home's sharer list misses it");
          } else if (e->state == Directory::DirState::kI) {
            report(InvariantId::kDirL1, now, node, addr,
                   "L1 holds S but home is I");
          } else if (e->state == Directory::DirState::kEM &&
                     e->owner != node) {
            report(InvariantId::kDirL1, now, node, addr,
                   "L1 holds S but home registered a different owner");
          }
          break;
      }
    });
  }

  // Directory -> L1 direction: a settled EM entry's owner really holds the
  // line (in E or M, or in its writeback buffer with the PutX in flight).
  for (const Directory* dir : dirs_) {
    const NodeId home = dir->node();
    dir->for_each_entry([&](BlockAddr addr, const Directory::Entry& e) {
      if (e.busy || e.state != Directory::DirState::kEM) return;
      if (e.owner >= l1s_.size()) return;  // DIR-STATE reports this
      const L1Controller* l1 = l1s_[e.owner];
      const auto st = l1->line_state(addr);
      const bool owns =
          (st.has_value() && (*st == L1Controller::LineState::kE ||
                              *st == L1Controller::LineState::kM)) ||
          l1->has_writeback(addr);
      if (!owns) {
        std::ostringstream os;
        os << "home registers node " << e.owner
           << " as owner but its L1 holds "
           << (st.has_value() ? l1_state_name(*st) : "nothing")
           << " and no writeback is in flight";
        report(InvariantId::kDirL1, now, home, addr, os.str());
      }
    });
  }
}

// UD-POINTER: PUNO's unicast-destination pointer must name a node that can
// actually hold the block transactionally — a current sharer (kS) or the
// owner (kEM). finish_service recomputes it from the settled sharer mask and
// handle_put_x clears it, so any other value is a stale pointer that would
// send U-bit invalidations to an innocent node.
void InvariantChecker::check_ud_pointer(Cycle now) {
  for (const Directory* dir : dirs_) {
    const NodeId home = dir->node();
    dir->for_each_entry([&](BlockAddr addr, const Directory::Entry& e) {
      if (e.busy || e.ud == kInvalidNode) return;
      switch (e.state) {
        case Directory::DirState::kI:
          report(InvariantId::kUdPointer, now, home, addr,
                 "UD pointer set on an I entry");
          break;
        case Directory::DirState::kS:
          if (!e.sharers.contains(e.ud)) {
            std::ostringstream os;
            os << "UD names node " << e.ud << ", not a current sharer";
            report(InvariantId::kUdPointer, now, home, addr, os.str());
          }
          break;
        case Directory::DirState::kEM:
          if (e.ud != e.owner) {
            std::ostringstream os;
            os << "UD names node " << e.ud << " but the owner is "
               << e.owner;
            report(InvariantId::kUdPointer, now, home, addr, os.str());
          }
          break;
      }
    });
  }
}

// TXN-PIN: the eager HTM detects conflicts through the coherence protocol,
// which only works while every read/write-set block stays resident in the
// transactional L1 (Section II.B). Lines leave the sets only through commit
// or abort, both of which clear the sets synchronously, so a live
// transaction with an uncached set block is a pinning bug.
void InvariantChecker::check_txn_pin(Cycle now) {
  for (std::size_t n = 0; n < txns_.size(); ++n) {
    const htm::TxnContext* txn = txns_[n];
    if (!txn->in_txn() || txn->aborted()) continue;
    const auto node = static_cast<NodeId>(n);
    const L1Controller* l1 = l1s_[n];
    txn->for_each_block([&](BlockAddr addr, bool written) {
      const auto st = l1->line_state(addr);
      if (!st.has_value()) {
        report(InvariantId::kTxnPin, now, node, addr,
               written ? "write-set block not resident in the L1"
                       : "read-set block not resident in the L1");
      } else if (written && *st != L1Controller::LineState::kM) {
        std::ostringstream os;
        os << "write-set block resident in " << l1_state_name(*st)
           << ", not M";
        report(InvariantId::kTxnPin, now, node, addr, os.str());
      }
    });
  }
}

// NOC-CONSERVATION: every flit the NIs injected is either ejected, buffered
// in some router, or riding a link in the mesh's link stage — always; and
// once the mesh drains, protocol messages in equals messages out and the
// packet arena holds no live slot.
void InvariantChecker::check_noc_conservation(Cycle now) {
  const std::uint64_t sent = flits_sent_->value();
  const std::uint64_t accounted = flits_ejected_->value() +
                                  mesh_->inflight_link_flits() +
                                  mesh_->buffered_router_flits();
  if (sent != accounted) {
    std::ostringstream os;
    os << "flits: " << sent << " injected but " << flits_ejected_->value()
       << " ejected + " << mesh_->inflight_link_flits() << " on links + "
       << mesh_->buffered_router_flits() << " buffered = " << accounted;
    report(InvariantId::kNocConservation, now, kInvalidNode, 0, os.str());
  }
  const bool idle = mesh_->idle();
  if (idle && mesh_->messages_injected() != mesh_->messages_delivered()) {
    std::ostringstream os;
    os << "mesh idle with " << mesh_->messages_injected()
       << " messages injected but only " << mesh_->messages_delivered()
       << " delivered";
    report(InvariantId::kNocConservation, now, kInvalidNode, 0, os.str());
  }
  // The destination NI frees a packet's arena slot when it delivers the
  // tail flit, so a drained mesh holds none: a live slot is a lost tail or
  // a missed free, and a doubled free wraps the count.
  if (idle && mesh_->packet_pool().live() != 0) {
    std::ostringstream os;
    os << "mesh idle with " << mesh_->packet_pool().live()
       << " packet(s) still live in the packet arena";
    report(InvariantId::kNocConservation, now, kInvalidNode, 0, os.str());
  }
  // Active-set coverage: a component holding work the tick loop must drain
  // has to be on the schedule, or it would sit on its flits forever. This
  // holds in always_tick mode too — the full sweep keeps the sets pruned
  // but never unregisters a busy component.
  for (NodeId n = 0; n < mesh_->num_nodes(); ++n) {
    if (mesh_->router(n).buffered_flits() != 0 && !mesh_->router_active(n)) {
      std::ostringstream os;
      os << "router buffers " << mesh_->router(n).buffered_flits()
         << " flit(s) but is not on the active schedule";
      report(InvariantId::kNocConservation, now, n, 0, os.str());
    }
    if (!mesh_->ni(n).idle() && !mesh_->ni_active(n)) {
      report(InvariantId::kNocConservation, now, n, 0,
             "NI has injection work but is not on the active schedule");
    }
  }
}

}  // namespace puno::check
