#include "lb/rws.hpp"

#include "support/check.hpp"

namespace olb::lb {

RwsPeer::RwsPeer(RwsConfig config, std::unique_ptr<Work> initial_work)
    : FlatPeer(config.peer, config.fault_tolerant, config.lease_interval),
      config_(config), initial_work_(std::move(initial_work)) {}

void RwsPeer::on_start() {
  start_termination(initial_work_ != nullptr);
  if (initial_work_ != nullptr) {
    OLB_CHECK(acquire_work(std::move(initial_work_)));
    continue_processing();
  } else {
    became_idle();
  }
}

void RwsPeer::became_idle() {
  if (terminated_) return;
  emit_trace(trace::EventKind::kIdleBegin);
  maybe_detach();
  if (!terminated_) try_steal();
}

void RwsPeer::try_steal() {
  if (terminated_ || steal_outstanding_ || holds_work()) return;
  const int n = num_peers();
  if (n < 2) {
    // Nothing to steal from; the singleton initiator terminates on idle.
    return;
  }
  if (config_.fault_tolerant && crash_epoch_ >= n - 1) return;  // no live victim
  int victim;
  do {
    victim = static_cast<int>(rng().below(static_cast<std::uint64_t>(n)));
  } while (victim == id() || known_down(victim));
  steal_outstanding_ = true;
  emit_trace(trace::EventKind::kRequest, victim, kSteal);
  if (config_.fault_tolerant) {
    steal_victim_ = victim;
    // The sequence number travels in the request, is echoed by kStealFail
    // and voids both stale failure replies and stale timeout timers.
    send(victim, make_msg(kSteal, ++steal_seq_));
    set_timer(config_.request_timeout,
              kRwsStealTimeoutTimer | (steal_seq_ << kTimerTagShift));
  } else {
    send(victim, make_msg(kSteal));
  }
}

void RwsPeer::declare_termination() {
  terminated_ = true;
  done_time_ = now();
  for (int p = 0; p < num_peers(); ++p) {
    if (p != id() && !known_down(p)) send(p, make_msg(kTerminate));
  }
}

void RwsPeer::diffuse_bound() {
  // No overlay to diffuse along: bounds piggyback on steal traffic (field a
  // of every message), which in RWS is abundant.
}

void RwsPeer::on_peer_down(int peer) {
  if (!note_crash(peer)) return;
  if (steal_outstanding_ && steal_victim_ == peer) {
    // The request died with the victim; move on immediately.
    steal_outstanding_ = false;
    ++steal_seq_;
    try_steal();
  }
}

void RwsPeer::on_timer(std::int64_t tag) {
  switch (tag & kTimerTagMask) {
    case kRwsRetryTimer:
      if (!terminated_ && !holds_work() && !steal_outstanding_) try_steal();
      return;
    case kRwsStealTimeoutTimer:
      if (terminated_ || !steal_outstanding_) return;
      if ((tag >> kTimerTagShift) != steal_seq_) return;  // answered
      count_retry(steal_victim_, kSteal, steal_seq_);
      steal_outstanding_ = false;
      if (!holds_work()) try_steal();
      return;
    case kRwsTermPollTimer:
      on_poll_tick();
      return;
    default:
      OLB_CHECK_MSG(false, "unexpected timer tag for RwsPeer");
  }
}

void RwsPeer::on_message(sim::Message m) {
  if (m.type != kTerminate) note_bound(m.a);
  if (known_down(m.src) && m.type != kWork) {
    return;  // in-flight message of a dead peer (work still bounces back)
  }
  if (terminated_) {
    OLB_CHECK(m.type != kWork);
    if (config_.fault_tolerant && m.type != kTerminate) {
      // The sender missed the broadcast (dropped kTerminate); answer its
      // retransmitted request so it can stop too.
      send(m.src, make_msg(kTerminate));
    }
    return;
  }
  switch (m.type) {
    case kSteal: {
      if (holds_work()) {
        if (auto w = split_work(config_.steal_fraction)) {
          ds_.on_work_sent();
          ++work_sent_;
          emit_trace(trace::EventKind::kServe, m.src, kSteal,
                     trace::fraction_ppm(config_.steal_fraction),
                     static_cast<std::int64_t>(w->amount()));
          auto reply = make_msg(kWork);
          reply.payload = std::make_unique<WorkPayload>(std::move(w));
          send(m.src, std::move(reply));
          break;
        }
      }
      emit_trace(trace::EventKind::kNoServe, m.src, kSteal);
      send(m.src, make_msg(kStealFail, m.b));
      break;
    }
    case kStealFail: {
      if (config_.fault_tolerant && m.b != steal_seq_) break;  // stale/dup
      steal_outstanding_ = false;
      if (holds_work()) break;  // engaged meanwhile via another transfer
      if (config_.retry_delay > 0) {
        set_timer(config_.retry_delay, kRwsRetryTimer);
      } else {
        try_steal();
      }
      break;
    }
    case kWork: {
      steal_outstanding_ = false;
      ++work_recv_;
      if (config_.fault_tolerant) {
        ++steal_seq_;  // void any outstanding steal timeout
      }
      emit_trace(trace::EventKind::kIdleEnd, m.src, m.type);
      if (!config_.fault_tolerant && ds_.on_work_received(m.src)) {
        send(m.src, make_msg(kSignal));
      }
      auto* payload = static_cast<WorkPayload*>(m.payload.get());
      acquire_work(std::move(payload->work));
      continue_processing();
      break;
    }
    case kTerminate: {
      OLB_CHECK_MSG(!holds_work(), "terminate reached a peer still holding work");
      terminated_ = true;
      done_time_ = now();
      break;
    }
    default:
      if (!on_termination_message(m)) {
        OLB_CHECK_MSG(false, "unexpected message type for RwsPeer");
      }
  }
}

}  // namespace olb::lb
