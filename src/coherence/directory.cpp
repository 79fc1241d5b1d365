#include "coherence/directory.hpp"

#include <bit>
#include <cassert>

#include "trace/recorder.hpp"

namespace puno::coherence {

namespace {

/// index_'s size at construction; a power of two.
constexpr std::size_t kInitialIndexSlots = 16;
/// 2^64 / golden ratio. One home's blocks are num_nodes x block_bytes apart,
/// so the low address bits are the same for all of them; a multiplicative
/// hash taking the product's top bits spreads any such stride.
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;

}  // namespace

Directory::Directory(sim::Kernel& kernel, const SystemConfig& cfg, NodeId node,
                     SendFn send)
    : kernel_(kernel),
      cfg_(cfg),
      node_(node),
      send_(std::move(send)),
      index_(kInitialIndexSlots, kNoLine),
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

std::size_t Directory::probe(BlockAddr addr) const {
  const std::size_t mask = index_.size() - 1;
  const int bits = std::countr_zero(index_.size());
  auto i = static_cast<std::size_t>((addr * kHashMultiplier) >> (64 - bits));
  while (index_[i] != kNoLine && lines_[index_[i]].block != addr) {
    i = (i + 1) & mask;
  }
  return i;
}

std::uint32_t Directory::find(BlockAddr addr) const {
  return index_[probe(addr)];
}

std::uint32_t Directory::find_or_insert(BlockAddr addr) {
  const std::size_t i = probe(addr);
  if (index_[i] != kNoLine) return index_[i];
  const auto line = static_cast<std::uint32_t>(lines_.size());
  lines_.push_back(Line{addr, Entry{}});
  index_[i] = line;
  // Grow at half load, so a probe sequence stays short.
  if (lines_.size() * 2 > index_.size()) {
    index_.assign(index_.size() * 2, kNoLine);
    for (std::uint32_t l = 0; l < lines_.size(); ++l) {
      index_[probe(lines_[l].block)] = l;
    }
  }
  return line;
}

const Directory::Entry* Directory::peek(BlockAddr addr) const {
  const std::uint32_t line = find(addr);
  return line == kNoLine ? nullptr : &lines_[line].entry;
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
  auto data = make_message(MsgType::kData, addr, node_, dst);
  data->exclusive = exclusive;
  data->expected_responses = expected_responses;
  data->sole = sole;
  data->has_payload = payload;
  kernel_.schedule(delay, [this, dst, data = std::move(data)] {
    send_(dst, data);
  });
}

void Directory::handle_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kPutX: {
      requests_.add();
      const std::uint32_t line = find_or_insert(msg.addr);
      const Entry& e = lines_[line].entry;
      if (e.busy) {
        // Only a queued request outlives this call, so only it is copied.
        service_of(e).queue.push_back(std::make_shared<const Message>(msg));
        return;
      }
      service(line, msg);
      return;
    }
    case MsgType::kWbData:
      // Dirty data accompanying an owner downgrade: lands in the L2 bank.
      fill_l2(msg.addr);
      return;
    case MsgType::kUnblock: {
      const std::uint32_t line = find(msg.addr);
      assert(line != kNoLine && lines_[line].entry.busy &&
             "UNBLOCK for a line that is not being serviced");
      finish_service(line, msg);
      return;
    }
    default:
      assert(false && "message type not handled by the directory");
  }
}

void Directory::service(std::uint32_t line, const Message& msg) {
  Entry& e = lines_[line].entry;
  assert(!e.busy);

  if (msg.type == MsgType::kPutX) {
    handle_put_x(e, msg);
    // A PutX never blocks the entry; requests queued behind it (it may have
    // been dequeued from the pending list) must still get serviced.
    maybe_service_next(line);
    return;
  }

  // PUNO Section III.B: the P-Buffer learns the latest {node, priority} pair
  // from every incoming transactional request.
  if (assist_ != nullptr && msg.transactional) {
    assist_->observe_request(msg.sender, msg.ts, msg.avg_txn_len);
  }

  if (e.service == kNoService) {
    if (free_services_.empty()) {
      e.service = static_cast<std::uint32_t>(services_.size());
      services_.emplace_back();
    } else {
      e.service = free_services_.back();
      free_services_.pop_back();
    }
  }
  Service& s = service_of(e);
  e.busy = true;
  s.since = kernel_.now();
  s.requester = msg.requester;
  s.tx_getx = msg.type == MsgType::kGetX && msg.transactional;
  ++busy_entries_;
  if (s.tx_getx) tx_getx_services_.add();

  if (msg.type == MsgType::kGetS) {
    service_get_s(e, s, msg);
  } else {
    service_get_x(e, s, msg);
  }
}

void Directory::service_get_s(Entry& e, Service& s, const Message& msg) {
  switch (e.state) {
    case DirState::kI: {
      s.kind = ServiceKind::kGetSIdle;
      // No sharers anywhere: grant exclusive (the E of MESI).
      send_data(msg.requester, msg.addr, /*exclusive=*/true, 0, /*sole=*/true,
                /*payload=*/true, data_latency(msg.addr));
      return;
    }
    case DirState::kS: {
      s.kind = ServiceKind::kGetSShared;
      send_data(msg.requester, msg.addr, /*exclusive=*/false, 0, /*sole=*/true,
                /*payload=*/true, data_latency(msg.addr));
      return;
    }
    case DirState::kEM: {
      s.kind = ServiceKind::kGetSOwned;
      auto fwd = forward_of(msg, MsgType::kFwdGetS, node_);
      fwd->sole = true;
      send_(e.owner, std::move(fwd));
      return;
    }
  }
}

void Directory::service_get_x(Entry& e, Service& s, const Message& msg) {
  switch (e.state) {
    case DirState::kI: {
      s.kind = ServiceKind::kGetXIdle;
      send_data(msg.requester, msg.addr, /*exclusive=*/true, 0, /*sole=*/true,
                /*payload=*/true, data_latency(msg.addr));
      return;
    }
    case DirState::kS: {
      // Invalidation targets: every listed sharer but the requester. A
      // lossy encoding's spurious members are targets too; non-holders ack
      // them like the stale-sharer acks the protocol already tolerates.
      SharerSet others = e.sharers;
      others.remove(msg.requester);
      const bool requester_is_sharer = e.sharers.contains(msg.requester);
      if (others.empty()) {
        // Upgrade with no other sharers: a pure permission grant.
        s.kind = ServiceKind::kGetXMulticast;
        s.inv_targets.clear();
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
        s.kind = ServiceKind::kGetXUnicast;
        s.inv_targets.clear();
        s.inv_targets.add(ud);
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
        auto inv = forward_of(msg, MsgType::kInv, node_);
        inv->u_bit = true;  // Figure 7: the GETX/INV unicast bit.
        inv->sole = true;
        kernel_.schedule(extra, [this, ud, inv = std::move(inv)] {
          send_(ud, inv);
        });
        // Deliberately no data message: the unicast is nacked by design,
        // so the data would be wasted traffic.
        return;
      }

      s.kind = ServiceKind::kGetXMulticast;
      s.inv_targets = others;
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
        auto inv = forward_of(msg, MsgType::kInv, node_);
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
      s.kind = ServiceKind::kGetXOwned;
      s.inv_targets.clear();
      s.inv_targets.add(e.owner);
      auto inv = forward_of(msg, MsgType::kInv, node_);
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
    send_(msg.sender,
          make_message(MsgType::kWbAck, msg.addr, node_, msg.sender));
  } else {
    // The writeback crossed a forward: the (ex-)owner already serviced the
    // forward out of its writeback buffer, so the PutX is stale.
    wb_stales_.add();
    send_(msg.sender,
          make_message(MsgType::kWbStale, msg.addr, node_, msg.sender));
  }
}

void Directory::finish_service(std::uint32_t line, const Message& unblock) {
  Entry& e = lines_[line].entry;
  Service& s = service_of(e);
  const NodeId req = s.requester;
  assert(unblock.sender == req);
  if (s.tx_getx) {
    tx_getx_blocked_cycles_.sample(
        static_cast<double>(kernel_.now() - s.since));
  }
  PUNO_TEV(kernel_, trace::Cat::kDir,
           (trace::TraceEvent{.cycle = s.since,
                              .addr = unblock.addr,
                              .a = kernel_.now() - s.since,
                              .node = node_,
                              .peer = req,
                              .kind = trace::EventKind::kDirBlock,
                              .flags = s.tx_getx ? std::uint8_t{1}
                                                 : std::uint8_t{0}}));

  switch (s.kind) {
    case ServiceKind::kGetSIdle:
      // Exclusive (E) grant.
      e.state = DirState::kEM;
      e.owner = req;
      e.sharers.clear();
      break;
    case ServiceKind::kGetSShared:
      e.state = DirState::kS;
      sharer_params_.add(e.sharers, req);
      break;
    case ServiceKind::kGetSOwned:
      if (unblock.success) {
        e.state = DirState::kS;
        e.sharers.clear();
        sharer_params_.add(e.sharers, e.owner);
        sharer_params_.add(e.sharers, req);
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
        // The list is rebuilt from those survivors in the configured
        // encoding.
        SharerSet kept =
            SharerSet::intersect(s.inv_targets, unblock.surviving_sharers);
        if (e.sharers.contains(req)) kept.add(req);
        e.sharers.clear();
        kept.for_each([&](NodeId n) { sharer_params_.add(e.sharers, n); });
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
  --busy_entries_;
  maybe_service_next(line);
}

void Directory::maybe_service_next(std::uint32_t line) {
  Entry& e = lines_[line].entry;
  if (e.busy || e.service == kNoService) return;
  Service& s = service_of(e);
  if (s.head < s.queue.size()) {
    auto next = std::move(s.queue[s.head++]);
    kernel_.schedule(1, [this, line, next = std::move(next)] {
      const Entry& entry = lines_[line].entry;
      if (entry.busy) {
        // A same-cycle race re-busied the line; requeue at the front.
        Service& rs = service_of(entry);
        rs.queue.insert(rs.queue.begin() + rs.head, next);
        return;
      }
      service(line, *next);
    });
  }
  if (s.head == s.queue.size()) {
    // Idle with nothing queued: the record goes back to the pool, keeping
    // its queue's capacity for the next line that takes it.
    s.queue.clear();
    s.head = 0;
    free_services_.push_back(e.service);
    e.service = kNoService;
  }
}

}  // namespace puno::coherence
