#include "coherence/l1_controller.hpp"

#include <cassert>

#include "trace/recorder.hpp"

namespace puno::coherence {

L1Controller::L1Controller(sim::Kernel& kernel, const SystemConfig& cfg,
                           NodeId node, TxnHooks& hooks, SendFn send)
    : kernel_(kernel),
      cfg_(cfg),
      node_(node),
      hooks_(hooks),
      send_(std::move(send)),
      cache_(cfg.cache.l1_size_bytes, cfg.cache.l1_assoc,
             cfg.cache.block_bytes),
      loads_(kernel.stats().counter("l1.loads")),
      stores_(kernel.stats().counter("l1.stores")),
      hits_(kernel.stats().counter("l1.hits")),
      misses_(kernel.stats().counter("l1.misses")),
      tx_getx_issued_(kernel.stats().counter("l1.tx_getx_issued")),
      tx_getx_nacked_(kernel.stats().counter("l1.tx_getx_nacked")),
      retries_stat_(kernel.stats().counter("l1.request_retries")),
      overflow_aborts_(kernel.stats().counter("l1.overflow_aborts")),
      evictions_(kernel.stats().counter("l1.evictions")),
      contended_acquire_latency_(
          kernel.stats().scalar("l1.contended_acquire_latency")),
      retries_per_contended_acquire_(
          kernel.stats().scalar("l1.retries_per_contended_acquire")),
      hint_wakeups_(kernel.stats().counter("l1.hint_wakeups")) {}

std::optional<L1Controller::LineState> L1Controller::line_state(
    BlockAddr addr) const {
  const auto* line = cache_.find(addr);
  if (line == nullptr) return std::nullopt;
  return line->state.state;
}

void L1Controller::send_reply(std::shared_ptr<const Message> reply) {
  const NodeId dst = reply->requester;
  send_(dst, std::move(reply));
}

void L1Controller::load(Addr addr, bool transactional, bool exclusive_hint) {
  loads_.add();
  const BlockAddr block = cfg_.block_of(addr);
  if (auto* line = cache_.find(block)) {
    cache_.touch(*line);
    hits_.add();
    // The hit completes after the access latency — and must be re-validated
    // then: an invalidation arriving inside the window would otherwise let
    // the load slip past conflict detection (the cache port orders incoming
    // probes ahead of in-flight hits).
    kernel_.schedule(cfg_.cache.l1_latency,
                     [this, block, transactional, exclusive_hint] {
                       if (cache_.find(block) != nullptr) {
                         complete_(true);
                         return;
                       }
                       misses_.add();
                       start_miss(block, /*is_store=*/false, exclusive_hint,
                                  transactional);
                     });
    return;
  }
  misses_.add();
  start_miss(block, /*is_store=*/false, /*exclusive=*/exclusive_hint,
             transactional);
}

void L1Controller::store(Addr addr, bool transactional) {
  stores_.add();
  const BlockAddr block = cfg_.block_of(addr);
  if (auto* line = cache_.find(block)) {
    if (line->state.state != LineState::kS) {
      cache_.touch(*line);
      hits_.add();
      // Same re-validation as loads: the line may be invalidated (or
      // downgraded to S by a forwarded read) while the hit is in flight.
      kernel_.schedule(cfg_.cache.l1_latency, [this, block, transactional] {
        auto* l = cache_.find(block);
        if (l != nullptr && l->state.state != LineState::kS) {
          l->state.state = LineState::kM;  // E upgrades to M silently
          complete_(true);
          return;
        }
        misses_.add();
        start_miss(block, /*is_store=*/true, /*exclusive=*/true,
                   transactional);
      });
      return;
    }
    // S needs exclusive permission: upgrade GETX.
  }
  misses_.add();
  start_miss(block, /*is_store=*/true, /*exclusive=*/true, transactional);
}

void L1Controller::start_miss(Addr addr, bool is_store, bool exclusive,
                              bool transactional) {
  assert(!mshr_.has_value() && "core must issue one operation at a time");
  if (wb_buffer_.contains(addr)) {
    // The block's writeback is still in flight; defer until it resolves so
    // the directory never sees a request racing our own PutX.
    assert(!deferred_.has_value());
    deferred_ = DeferredOp{is_store, transactional, exclusive, addr};
    return;
  }
  Mshr m;
  m.addr = addr;
  m.is_store = is_store;
  m.exclusive = exclusive || is_store;
  m.transactional = transactional;
  m.first_issue = kernel_.now();
  mshr_ = std::move(m);
  issue_request();
}

void L1Controller::issue_request() {
  Mshr& m = *mshr_;
  m.data_received = false;
  m.data_exclusive = false;
  m.expected_known = false;
  m.expected = 0;
  m.responses = 0;
  m.nacks = 0;
  m.aborted_acks = 0;
  m.nackers.clear();
  m.best_notification = 0;
  m.mp_seen = false;
  m.mp_node = kInvalidNode;
  m.in_backoff = false;

  auto req = make_message(m.exclusive ? MsgType::kGetX : MsgType::kGetS,
                          m.addr, node_, node_);
  req->transactional = m.transactional;
  req->ts = hooks_.current_ts();
  req->avg_txn_len = hooks_.avg_txn_len();
  if (m.transactional && m.exclusive) tx_getx_issued_.add();
  send_(home(m.addr), std::move(req));
}

void L1Controller::handle_message(const Message& msg) {
  switch (msg.type) {
    case MsgType::kData:
    case MsgType::kAck:
    case MsgType::kNack:
      handle_response(msg);
      return;
    case MsgType::kInv:
      handle_inv(msg);
      return;
    case MsgType::kFwdGetS:
      handle_fwd_gets(msg);
      return;
    case MsgType::kWbAck:
    case MsgType::kWbStale:
      handle_wb_reply(msg);
      return;
    case MsgType::kRetryHint:
      handle_retry_hint(msg);
      return;
    default:
      assert(false && "message type not handled by the L1");
  }
}

void L1Controller::handle_response(const Message& msg) {
  // Responses can only belong to the single outstanding miss.
  if (!mshr_.has_value() || mshr_->addr != msg.addr || mshr_->in_backoff) {
    assert(false && "response without a matching MSHR");
    return;
  }
  Mshr& m = *mshr_;
  switch (msg.type) {
    case MsgType::kData:
      m.data_received = true;
      m.data_exclusive = msg.exclusive;
      if (msg.sole) {
        m.expected_known = true;
        m.expected = 0;
        m.responses = 0;
      } else if (!m.expected_known) {
        m.expected_known = true;
        m.expected = msg.expected_responses;
      }
      break;
    case MsgType::kAck:
      ++m.responses;
      if (msg.responder_aborted) ++m.aborted_acks;
      break;
    case MsgType::kNack:
      ++m.responses;
      ++m.nacks;
      ++tile_nacks_received_;
      m.nackers.add(msg.sender);
      if (msg.notification > m.best_notification) {
        m.best_notification = msg.notification;
      }
      if (msg.mp_bit) {
        m.mp_seen = true;
        m.mp_node = msg.sender;
      }
      if (msg.sole) {
        // A sole NACK (owner forward or PUNO unicast) fully resolves the
        // request: no data or further responses will come.
        m.data_received = false;
        m.expected_known = true;
        m.expected = 1;
      }
      break;
    default:
      assert(false);
  }
  check_completion();
}

void L1Controller::check_completion() {
  Mshr& m = *mshr_;
  if (m.nacks > 0) {
    // Failure completes once every expected response has arrived (the data
    // message may still be in flight for the multicast case; it carries the
    // expected count, so it must be seen before we can be sure).
    if (m.expected_known && m.responses >= m.expected &&
        (m.data_received || m.expected == 1)) {
      complete_failure();
    }
    return;
  }
  if (m.data_received && m.expected_known && m.responses >= m.expected) {
    complete_success();
  }
}

void L1Controller::complete_success() {
  Mshr& m = *mshr_;
  LineState target;
  if (m.is_store) {
    target = LineState::kM;
  } else if (m.exclusive || m.data_exclusive) {
    target = LineState::kE;
  } else {
    target = LineState::kS;
  }
  if (auto* line = cache_.find(m.addr)) {
    line->state.state = target;
    cache_.touch(*line);
  } else {
    install(m.addr, target);
  }

  auto unblock = make_message(MsgType::kUnblock, m.addr, node_, node_);
  unblock->success = true;
  send_(home(m.addr), std::move(unblock));

  if (m.transactional && m.exclusive) {
    hooks_.on_getx_outcome(m.addr, /*success=*/true, m.nacks, m.aborted_acks);
  }
  if (m.retries > 0) {
    // An acquisition that was nacked at least once: the handoff latency the
    // backoff policy governs.
    contended_acquire_latency_.sample(
        static_cast<double>(kernel_.now() - m.first_issue));
    retries_per_contended_acquire_.sample(static_cast<double>(m.retries));
  }
  finalize(true);
}

void L1Controller::complete_failure() {
  Mshr& m = *mshr_;
  if (m.transactional && m.exclusive) tx_getx_nacked_.add();

  auto unblock = make_message(MsgType::kUnblock, m.addr, node_, node_);
  unblock->success = false;
  unblock->surviving_sharers = m.nackers;
  if (m.mp_seen) {
    // Misprediction feedback rides the UNBLOCK to the directory (Fig. 7).
    unblock->mp_bit = true;
    unblock->mp_node = m.mp_node;
  }
  send_(home(m.addr), std::move(unblock));

  if (m.transactional && m.exclusive) {
    hooks_.on_getx_outcome(m.addr, /*success=*/false, m.nacks,
                           m.aborted_acks);
  }

  if (m.cancel) {
    // The local transaction aborted while this request was in flight; the
    // operation dies with it.
    finalize(false);
    return;
  }

  // Retry after backoff ("polling the sharers", Section II.C). PUNO's
  // notification makes this wait long enough for the nacker to finish.
  const Cycle backoff = hooks_.retry_backoff(m.best_notification, m.retries);
  PUNO_TEV(kernel_, trace::Cat::kConflict,
           (trace::TraceEvent{.cycle = kernel_.now(),
                              .addr = m.addr,
                              .ts = m.best_notification,
                              .a = backoff,
                              .b = m.retries,
                              .node = node_,
                              .kind = trace::EventKind::kBackoffWindow,
                              .flags = m.best_notification > 0
                                           ? std::uint8_t{1}
                                           : std::uint8_t{0}}));
  ++m.retries;
  retries_stat_.add();
  m.in_backoff = true;
  ++m.backoff_epoch;
  kernel_.schedule(backoff, [this, addr = m.addr, epoch = m.backoff_epoch] {
    if (!mshr_.has_value() || mshr_->addr != addr || !mshr_->in_backoff ||
        mshr_->backoff_epoch != epoch) {
      return;  // stale wakeup: a retry hint (or a newer backoff) beat us
    }
    if (mshr_->cancel) {
      finalize(false);
      return;
    }
    issue_request();
  });
}

void L1Controller::handle_retry_hint(const Message& msg) {
  // Commit-hint extension: the transaction that nacked us has finished, so
  // the (possibly overestimated) notification wait can be cut short.
  if (!mshr_.has_value() || mshr_->addr != msg.addr || !mshr_->in_backoff) {
    return;  // nothing waiting on this line (hint raced the retry)
  }
  if (mshr_->cancel) {
    finalize(false);
    return;
  }
  hint_wakeups_.add();
  ++mshr_->backoff_epoch;  // invalidate the scheduled wakeup
  issue_request();
}

void L1Controller::finalize(bool success) {
  mshr_.reset();
  complete_(success);
}

void L1Controller::on_local_abort() {
  if (mshr_.has_value() && mshr_->transactional) mshr_->cancel = true;
}

void L1Controller::handle_inv(const Message& msg) {
  // Writeback races: we are no longer the real holder, but the directory's
  // forward crossed our PutX. Serve it from the writeback buffer.
  if (wb_buffer_.contains(msg.addr)) {
    assert(!hooks_.is_txn_line(msg.addr));
    if (msg.sole && !msg.u_bit) {
      // Ownership transfer: supply the line from the buffer.
      auto data = reply_to(msg, MsgType::kData, node_);
      data->exclusive = true;
      data->sole = true;
      send_reply(std::move(data));
    } else {
      if (msg.u_bit) ++tile_nacks_sent_;
      auto resp =
          reply_to(msg, msg.u_bit ? MsgType::kNack : MsgType::kAck, node_);
      resp->sole = msg.sole;
      resp->mp_bit = msg.u_bit;  // not a nacker transaction: misprediction
      send_reply(std::move(resp));
    }
    return;
  }

  auto* line = cache_.find(msg.addr);
  const ConflictVerdict verdict = hooks_.on_remote_request(
      msg.addr, /*write=*/true, msg.ts, msg.requester, msg.u_bit);

  if (msg.u_bit) {
    // PUNO unicast forwards never invalidate and never abort: either the
    // prediction was right (NACK with notification) or it was wrong (NACK
    // with the MP-bit, Section III.C).
    assert(verdict.decision == ConflictDecision::kNack);
    ++tile_nacks_sent_;
    auto nack = reply_to(msg, MsgType::kNack, node_);
    nack->sole = true;
    nack->notification = verdict.notification;
    nack->mp_bit = verdict.mispredicted;
    send_reply(std::move(nack));
    return;
  }

  if (verdict.decision == ConflictDecision::kNack) {
    ++tile_nacks_sent_;
    auto nack = reply_to(msg, MsgType::kNack, node_);
    nack->sole = msg.sole;
    nack->notification = verdict.notification;
    send_reply(std::move(nack));
    return;
  }

  const bool aborted = verdict.decision == ConflictDecision::kGrantAfterAbort;
  const Cycle delay = aborted ? cfg_.htm.abort_recovery_latency : 0;
  const bool owner_transfer =
      msg.sole && line != nullptr && line->state.state != LineState::kS;

  if (line != nullptr) cache_.invalidate(*line);

  // An owner hands the line over with its data; a sharer invalidation (or
  // a stale-sharer ack for a silently evicted line) gets an Ack.
  auto reply =
      reply_to(msg, owner_transfer ? MsgType::kData : MsgType::kAck, node_);
  reply->exclusive = owner_transfer;
  reply->sole = msg.sole;
  reply->responder_aborted = aborted;
  kernel_.schedule(delay, [this, reply = std::move(reply)]() mutable {
    send_reply(std::move(reply));
  });
}

void L1Controller::handle_fwd_gets(const Message& msg) {
  if (wb_buffer_.contains(msg.addr)) {
    assert(!hooks_.is_txn_line(msg.addr));
    auto data = reply_to(msg, MsgType::kData, node_);
    data->sole = true;
    send_reply(std::move(data));
    send_(home(msg.addr),
          make_message(MsgType::kWbData, msg.addr, node_, node_));
    return;
  }

  auto* line = cache_.find(msg.addr);
  assert(line != nullptr && line->state.state != LineState::kS &&
         "FwdGetS must reach the exclusive owner");

  const ConflictVerdict verdict = hooks_.on_remote_request(
      msg.addr, /*write=*/false, msg.ts, msg.requester, /*u_bit=*/false);

  if (verdict.decision == ConflictDecision::kNack) {
    ++tile_nacks_sent_;
    auto nack = reply_to(msg, MsgType::kNack, node_);
    nack->sole = true;
    nack->notification = verdict.notification;
    send_reply(std::move(nack));
    return;
  }

  const bool aborted = verdict.decision == ConflictDecision::kGrantAfterAbort;
  const Cycle delay = aborted ? cfg_.htm.abort_recovery_latency : 0;

  line->state.state = LineState::kS;  // downgrade; requester gets a copy

  auto data = reply_to(msg, MsgType::kData, node_);
  data->sole = true;
  data->responder_aborted = aborted;
  kernel_.schedule(delay, [this, data = std::move(data)]() mutable {
    const BlockAddr block = data->addr;
    send_reply(std::move(data));
    send_(home(block), make_message(MsgType::kWbData, block, node_, node_));
  });
}

void L1Controller::handle_wb_reply(const Message& msg) {
  wb_buffer_.erase(msg.addr);
  if (deferred_.has_value() && cfg_.block_of(deferred_->addr) == msg.addr) {
    const DeferredOp op = *deferred_;
    deferred_.reset();
    start_miss(cfg_.block_of(op.addr), op.is_store,
               op.exclusive_hint || op.is_store, op.transactional);
  }
}

CacheLine<L1Controller::L1Meta>& L1Controller::install(BlockAddr addr,
                                                       LineState state) {
  auto pinned = [this](const CacheLine<L1Meta>& line) {
    return hooks_.is_txn_line(line.addr);
  };
  auto* victim = cache_.victim_excluding(addr, pinned);
  if (victim == nullptr) {
    // Every way in the set belongs to the running transaction's footprint:
    // bounded-HTM overflow. Abort the transaction, which unpins the lines.
    overflow_aborts_.add();
    hooks_.on_overflow_eviction(addr);
    victim = cache_.victim_excluding(addr, pinned);
    assert(victim != nullptr && "overflow abort must unpin the set");
  }
  if (victim->valid) evict(*victim);
  auto& line = cache_.fill(*victim, addr);
  line.state.state = state;
  return line;
}

void L1Controller::evict(CacheLine<L1Meta>& line) {
  evictions_.add();
  if (line.state.state == LineState::kS) {
    // Silent eviction; the directory's sharer list goes stale-inclusive and
    // a later invalidation gets a plain ack.
    return;
  }
  wb_buffer_.insert(line.addr);
  auto putx = make_message(MsgType::kPutX, line.addr, node_, node_);
  putx->has_payload = line.state.state == LineState::kM;
  send_(home(line.addr), std::move(putx));
}

}  // namespace puno::coherence
