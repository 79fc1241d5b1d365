#include "coherence/directory.hpp"

#include <cassert>

#include "trace/recorder.hpp"

namespace puno::coherence {

Directory::Directory(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
                     SendFn send)
    : kernel_(kernel),
      cfg_(cfg),
      node_(node),
      send_(std::move(send)),
      sharer_params_(sharer_params(cfg)),
      l2_(cfg.cache.l2_size_bytes / cfg.effective_l2_banks(),
          cfg.cache.l2_assoc, cfg.cache.block_bytes),
      requests_(kernel.stats().counter("dir.requests")),
      tx_getx_services_(kernel.stats().counter("dir.txgetx_services")),
      unicast_forwards_(kernel.stats().counter("dir.unicast_forwards")),
      multicast_invs_(kernel.stats().counter("dir.multicast_invs")),
      l2_misses_(kernel.stats().counter("dir.l2_misses")),
      wb_stales_(kernel.stats().counter("dir.wb_stales")),
      tx_getx_blocked_cycles_(
          kernel.stats().scalar("dir.txgetx_blocked_cycles")),
      mp_feedbacks_(kernel.stats().counter("dir.mp_feedbacks")) {}

const Directory::Entry* Directory::peek(BlockAddr addr) const {
  const auto it = entries_.find(addr);
  return it == entries_.end() ? nullptr : &it->second;
}

Directory::Entry& Directory::entry_at(BlockAddr addr) {
  const auto [it, fresh] = entries_.try_emplace(addr);
  if (fresh) it->second.sharers = SharerSet(sharer_params_);
  return it->second;
}

Cycle Directory::data_latency(BlockAddr addr) {
  if (l2_.find(addr) != nullptr) return cfg_.cache.l2_latency;
  l2_misses_.add();
  fill_l2(addr);
  return cfg_.cache.memory_latency;
}

void Directory::fill_l2(BlockAddr addr) {
  if (auto* line = l2_.find(addr)) {
    l2_.touch(*line);
    return;
  }
  auto& victim = l2_.victim(addr);
  // Directory state is memory-backed, so L2 victims leave silently; the
  // simulator carries no data values, only presence.
  l2_.fill(victim, addr);
}

void Directory::send_data(NodeId dst, BlockAddr addr, bool exclusive,
                          std::uint32_t expected_responses, bool sole,
                          bool payload, Cycle delay) {
  auto data = std::make_shared<Message>();
  data->type = MsgType::kData;
  data->addr = addr;
  data->sender = node_;
  data->requester = dst;
  data->exclusive = exclusive;
  data->expected_responses = expected_responses;
  data->sole = sole;
  data->has_payload = payload;
  kernel_.schedule(delay, [this, dst, data = std::move(data)] {
    send_(dst, data);
  });
}

void Directory::handle_message(const Message& msg) {
  auto shared = std::make_shared<Message>(msg);
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutX: {
      requests_.add();
      Entry& e = entry_at(msg.addr);
      if (e.busy) {
        e.pending.push_back(std::move(shared));
        return;
      }
      service(shared);
      return;
    }
    case MsgType::kWbData:
      // Dirty data accompanying an owner downgrade: lands in the L2 bank.
      fill_l2(msg.addr);
      return;
    case MsgType::kUnblock: {
      const auto it = entries_.find(msg.addr);
      assert(it != entries_.end() && it->second.busy &&
             "UNBLOCK for a line that is not being serviced");
      handle_unblock(it->second, msg);
      return;
    }
    default:
      assert(false && "message type not handled by the directory");
  }
}

void Directory::service(const std::shared_ptr<const Message>& msg) {
  Entry& e = entry_at(msg->addr);
  assert(!e.busy);

  if (msg->type == MsgType::kPutX) {
    handle_put_x(e, *msg);
    // A PutX never blocks the entry; requests queued behind it (it may have
    // been dequeued from the pending list) must still get serviced.
    maybe_service_next(msg->addr);
    return;
  }

  // PUNO Section III.B: the P-Buffer learns the latest {node, priority} pair
  // from every incoming transactional request.
  if (assist_ != nullptr && msg->transactional) {
    assist_->observe_request(msg->sender, msg->ts, msg->avg_txn_len);
  }

  e.busy = true;
  e.busy_since = kernel_.now();
  e.busy_requester = msg->requester;
  e.busy_tx_getx = msg->type == MsgType::kGetX && msg->transactional;
  ++busy_entries_;
  if (e.busy_tx_getx) tx_getx_services_.add();


  if (msg->type == MsgType::kGetS) {
    service_get_s(e, *msg);
  } else {
    service_get_x(e, *msg);
  }
}

void Directory::service_get_s(Entry& e, const Message& msg) {
  switch (e.state) {
    case DirState::kI: {
      e.kind = ServiceKind::kGetSIdle;
      // No sharers anywhere: grant exclusive (the E of MESI).
      send_data(msg.requester, msg.addr, /*exclusive=*/true, 0, /*sole=*/true,
                /*payload=*/true, data_latency(msg.addr));
      return;
    }
    case DirState::kS: {
      e.kind = ServiceKind::kGetSShared;
      send_data(msg.requester, msg.addr, /*exclusive=*/false, 0, /*sole=*/true,
                /*payload=*/true, data_latency(msg.addr));
      return;
    }
    case DirState::kEM: {
      e.kind = ServiceKind::kGetSOwned;
      auto fwd = std::make_shared<Message>();
      fwd->type = MsgType::kFwdGetS;
      fwd->addr = msg.addr;
      fwd->sender = node_;
      fwd->requester = msg.requester;
      fwd->transactional = msg.transactional;
      fwd->ts = msg.ts;
      fwd->sole = true;
      send_(e.owner, std::move(fwd));
      return;
    }
  }
}

void Directory::service_get_x(Entry& e, const Message& msg) {
  switch (e.state) {
    case DirState::kI: {
      e.kind = ServiceKind::kGetXIdle;
      send_data(msg.requester, msg.addr, /*exclusive=*/true, 0, /*sole=*/true,
                /*payload=*/true, data_latency(msg.addr));
      return;
    }
    case DirState::kS: {
      // Exact invalidation targets, derived by expanding the (possibly
      // lossy) sharer representation. Over-approximate representations add
      // spurious targets here; non-holders ack them like the stale-sharer
      // acks the protocol already tolerates.
      const SharerSet others = e.sharers.expand_excluding(msg.requester);
      const bool requester_is_sharer = e.sharers.contains(msg.requester);
      if (others.empty()) {
        // Upgrade with no other sharers: a pure permission grant.
        e.kind = ServiceKind::kGetXMulticast;
        e.inv_targets.clear();
        send_data(msg.requester, msg.addr, /*exclusive=*/true, 0,
                  /*sole=*/true, /*payload=*/!requester_is_sharer,
                  requester_is_sharer ? 1 : data_latency(msg.addr));
        return;
      }

      // PUNO: try to predict the one sharer whose NACK would resolve the
      // conflict, instead of disrupting every sharer (Section III.B).
      NodeId ud = kInvalidNode;
      Cycle extra = 0;
      if (assist_ != nullptr && msg.transactional) {
        extra = assist_->prediction_latency();
        ud = assist_->predict_unicast(others, msg.requester, msg.ts, e.ud);
      }
      if (ud != kInvalidNode) {
        assert(others.contains(ud));
        e.kind = ServiceKind::kGetXUnicast;
        e.inv_targets.clear();
        e.inv_targets.add(ud);
        unicast_forwards_.add();
        PUNO_TEV(kernel_, trace::Cat::kDir,
                 (trace::TraceEvent{
                     .cycle = kernel_.now(),
                     .addr = msg.addr,
                     .ts = msg.ts,
                     .a = msg.requester,
                     .b = others.count(),
                     .node = node_,
                     .peer = ud,
                     .kind = trace::EventKind::kGetxUnicast}));
        auto inv = std::make_shared<Message>();
        inv->type = MsgType::kInv;
        inv->addr = msg.addr;
        inv->sender = node_;
        inv->requester = msg.requester;
        inv->transactional = msg.transactional;
        inv->ts = msg.ts;
        inv->u_bit = true;  // Figure 7: the GETX/INV unicast bit.
        inv->sole = true;
        kernel_.schedule(extra, [this, ud, inv = std::move(inv)] {
          send_(ud, inv);
        });
        // Deliberately no data message: the unicast is nacked by design,
        // so the data would be wasted traffic.
        return;
      }

      e.kind = ServiceKind::kGetXMulticast;
      e.inv_targets = others;
      const std::uint32_t count = others.count();
      multicast_invs_.add(count);
      PUNO_TEV(kernel_, trace::Cat::kDir,
               (trace::TraceEvent{.cycle = kernel_.now(),
                                  .addr = msg.addr,
                                  .ts = msg.ts,
                                  .a = others.mask64(),
                                  .b = count,
                                  .node = node_,
                                  .peer = msg.requester,
                                  .kind = trace::EventKind::kGetxMulticast,
                                  .flags = msg.transactional
                                               ? std::uint8_t{1}
                                               : std::uint8_t{0}}));
      others.for_each([&](NodeId n) {
        auto inv = std::make_shared<Message>();
        inv->type = MsgType::kInv;
        inv->addr = msg.addr;
        inv->sender = node_;
        inv->requester = msg.requester;
        inv->transactional = msg.transactional;
        inv->ts = msg.ts;
        kernel_.schedule(extra, [this, n, inv = std::move(inv)] {
          send_(n, inv);
        });
      });
      send_data(msg.requester, msg.addr, /*exclusive=*/true, count,
                /*sole=*/false, /*payload=*/!requester_is_sharer,
                extra + (requester_is_sharer ? 1 : data_latency(msg.addr)));
      return;
    }
    case DirState::kEM: {
      e.kind = ServiceKind::kGetXOwned;
      e.inv_targets.clear();
      e.inv_targets.add(e.owner);
      auto inv = std::make_shared<Message>();
      inv->type = MsgType::kInv;
      inv->addr = msg.addr;
      inv->sender = node_;
      inv->requester = msg.requester;
      inv->transactional = msg.transactional;
      inv->ts = msg.ts;
      inv->sole = true;  // Owner's Data/Nack fully resolves the request.
      send_(e.owner, std::move(inv));
      return;
    }
  }
}

void Directory::handle_put_x(Entry& e, const Message& msg) {
  if (e.state == DirState::kEM && e.owner == msg.sender) {
    e.state = DirState::kI;
    e.owner = kInvalidNode;
    // The UD pointer must never outlive the sharers it was computed from: a
    // stale pointer on an idle line would be fed back to predict_unicast as
    // a hint the next time the line is shared (the exact class of mismatch
    // bug the invariant checker's UD invariant exists to catch).
    e.ud = kInvalidNode;
    fill_l2(msg.addr);  // dirty (or clean-E) data returns home
    send_(msg.sender, Message::make(MsgType::kWbAck, msg.addr, node_,
                                    msg.sender));
  } else {
    // The writeback crossed a forward: the (ex-)owner already serviced the
    // forward out of its writeback buffer, so the PutX is stale.
    wb_stales_.add();
    send_(msg.sender, Message::make(MsgType::kWbStale, msg.addr, node_,
                                    msg.sender));
  }
}

void Directory::handle_unblock(Entry& e, const Message& msg) {
  assert(msg.sender == e.busy_requester);
  finish_service(e, msg);
}

void Directory::finish_service(Entry& e, const Message& unblock) {
  const NodeId req = e.busy_requester;
  if (e.busy_tx_getx) {
    tx_getx_blocked_cycles_.sample(
        static_cast<double>(kernel_.now() - e.busy_since));
  }
  PUNO_TEV(kernel_, trace::Cat::kDir,
           (trace::TraceEvent{.cycle = e.busy_since,
                              .addr = unblock.addr,
                              .a = kernel_.now() - e.busy_since,
                              .node = node_,
                              .peer = req,
                              .kind = trace::EventKind::kDirBlock,
                              .flags = e.busy_tx_getx ? std::uint8_t{1}
                                                      : std::uint8_t{0}}));

  switch (e.kind) {
    case ServiceKind::kGetSIdle:
      // Exclusive (E) grant.
      e.state = DirState::kEM;
      e.owner = req;
      e.sharers.clear();
      break;
    case ServiceKind::kGetSShared:
      e.state = DirState::kS;
      e.sharers.add(req);
      break;
    case ServiceKind::kGetSOwned:
      if (unblock.success) {
        e.state = DirState::kS;
        e.sharers.clear();
        e.sharers.add(e.owner);
        e.sharers.add(req);
        e.owner = kInvalidNode;
      }
      break;
    case ServiceKind::kGetXIdle:
      e.state = DirState::kEM;
      e.owner = req;
      e.sharers.clear();
      break;
    case ServiceKind::kGetXMulticast:
      if (unblock.success) {
        e.state = DirState::kEM;
        e.owner = req;
        e.sharers.clear();
      } else {
        // Keep exactly the sharers that nacked (and the requester's own
        // copy if it was upgrading): the aborted sharers were invalidated.
        // The exact survivor set is then re-encoded into the configured
        // representation.
        SharerSet kept =
            SharerSet::intersect(e.inv_targets, unblock.surviving_sharers);
        if (e.sharers.contains(req)) kept.add(req);
        e.sharers.assign(kept);
        assert(!e.sharers.empty());
      }
      break;
    case ServiceKind::kGetXUnicast:
      if (unblock.success) {
        // Cannot happen: a U-bit forward is always nacked (predicted nack
        // or conservative misprediction nack).
        assert(false && "unicast GETX must not succeed");
      }
      // Nothing was invalidated; the sharer list is untouched. This is the
      // whole point of PUNO: the false aborts never happened.
      break;
    case ServiceKind::kGetXOwned:
      if (unblock.success) {
        e.state = DirState::kEM;
        e.owner = req;
        e.sharers.clear();
      }
      break;
  }

  // Misprediction feedback (Section III.C): invalidate the stale P-Buffer
  // priority that led the unicast astray.
  if (unblock.mp_bit && assist_ != nullptr) {
    mp_feedbacks_.add();
    ++tile_mp_feedbacks_;
    PUNO_TEV(kernel_, trace::Cat::kDir,
             (trace::TraceEvent{.cycle = kernel_.now(),
                                .addr = unblock.addr,
                                .node = node_,
                                .peer = unblock.mp_node,
                                .kind = trace::EventKind::kMpFeedback}));
    assist_->on_misprediction(unblock.mp_node);
  }

  // Off the critical path: refresh this entry's UD pointer from the P-Buffer
  if (assist_ != nullptr) {
    if (e.state == DirState::kS) {
      e.ud = assist_->recompute_ud(e.sharers);
    } else if (e.state == DirState::kEM) {
      SharerSet owner_only;
      owner_only.add(e.owner);
      e.ud = assist_->recompute_ud(owner_only);
    } else {
      e.ud = assist_->recompute_ud(SharerSet{});
    }
  }

  e.busy = false;
  e.busy_tx_getx = false;
  --busy_entries_;
  maybe_service_next(unblock.addr);
}

void Directory::maybe_service_next(BlockAddr addr) {
  Entry& e = entry_at(addr);
  if (e.busy || e.pending.empty()) return;
  auto next = std::move(e.pending.front());
  e.pending.pop_front();
  kernel_.schedule(1, [this, next = std::move(next)] {
    Entry& entry = entry_at(next->addr);
    if (entry.busy) {
      // A same-cycle race re-busied the line; requeue at the front.
      entry.pending.push_front(next);
      return;
    }
    service(next);
  });
}

}  // namespace puno::coherence
