#include "lb/ahmw.hpp"

#include <cmath>

#include "support/check.hpp"

namespace olb::lb {

AhmwPeer::AhmwPeer(std::shared_ptr<const overlay::TreeOverlay> tree,
                   AhmwConfig config, std::unique_ptr<Work> initial_work)
    : FlatPeer(config.peer, config.fault_tolerant, config.lease_interval),
      tree_(std::move(tree)), config_(config),
      initial_work_(std::move(initial_work)) {}

void AhmwPeer::on_start() {
  OLB_CHECK((initial_work_ != nullptr) == is_root());
  start_termination(is_root());
  if (is_master()) {
    const int my_level = tree_->depth(id());
    for (int p = 0; p < tree_->size(); ++p) {
      if (p != id() && !tree_->children(p).empty() && tree_->depth(p) == my_level) {
        level_peers_.push_back(p);
      }
    }
  }
  if (is_root()) {
    OLB_CHECK(acquire_work(std::move(initial_work_)));
    continue_processing();
  } else {
    became_idle();
  }
}

double AhmwPeer::grain_fraction() const {
  // A level-L master hands out absolute pieces of total/B^(L+1) work units,
  // converted here into a fraction of its current local amount.
  const double amount = work_ != nullptr ? work_->amount() : 0.0;
  if (amount <= 0.0) return 0.0;
  OLB_CHECK_MSG(config_.total_amount > 0.0, "AhmwConfig::total_amount unset");
  const double level = static_cast<double>(tree_->depth(id()));
  const double piece =
      config_.total_amount / std::pow(config_.decomposition_base, level + 1.0);
  return std::min(0.5, piece / amount);
}

void AhmwPeer::became_idle() {
  if (terminated_) return;
  emit_trace(trace::EventKind::kIdleBegin);
  maybe_detach();
  if (terminated_ || request_outstanding_) return;
  if (is_root()) return;  // the top master only waits for its subtree
  pull_from_parent();
}

void AhmwPeer::send_request(int target, int type) {
  request_outstanding_ = true;
  emit_trace(trace::EventKind::kRequest, target, type);
  if (config_.fault_tolerant) {
    request_target_ = target;
    // The sequence number travels in the request, is echoed by kStealFail
    // and voids both stale failure replies and stale timeout timers.
    send(target, make_msg(type, ++req_seq_));
    set_timer(config_.request_timeout,
              kAhmwRequestTimeoutTimer | (req_seq_ << kTimerTagShift));
  } else {
    send(target, make_msg(type));
  }
}

void AhmwPeer::pull_from_parent() {
  if (terminated_ || request_outstanding_ || holds_work()) return;
  send_request(tree_->parent(id()), kMWRequest);
}

void AhmwPeer::steal_from_sibling() {
  if (terminated_ || request_outstanding_ || holds_work()) return;
  if (level_peers_.empty()) {
    arm_retry();
    return;
  }
  const int target =
      level_peers_[rng().below(static_cast<std::uint64_t>(level_peers_.size()))];
  send_request(target, kSteal);
}

void AhmwPeer::arm_retry() {
  if (retry_armed_ || terminated_) return;
  retry_armed_ = true;
  set_timer(config_.retry_delay, kAhmwRetryTimer);
}

void AhmwPeer::on_timer(std::int64_t tag) {
  switch (tag & kTimerTagMask) {
    case kAhmwRetryTimer:
      retry_armed_ = false;
      if (terminated_ || holds_work() || request_outstanding_) return;
      if (!is_root()) pull_from_parent();
      return;
    case kAhmwRequestTimeoutTimer:
      if (terminated_ || !request_outstanding_) return;
      if ((tag >> kTimerTagShift) != req_seq_) return;  // answered
      count_retry(request_target_, kMWRequest, req_seq_);
      request_outstanding_ = false;
      if (!holds_work() && !is_root()) pull_from_parent();
      return;
    case kRwsTermPollTimer:
      on_poll_tick();
      return;
    default:
      OLB_CHECK_MSG(false, "unexpected timer tag for AhmwPeer");
  }
}

void AhmwPeer::declare_termination() {
  terminated_ = true;
  done_time_ = now();
  for (int c : tree_->children(id())) {
    if (!known_down(c)) send(c, make_msg(kTerminate));
  }
}

void AhmwPeer::diffuse_bound() {
  if (!is_root()) send(tree_->parent(id()), make_msg(kBound));
  for (int c : tree_->children(id())) {
    if (!known_down(c)) send(c, make_msg(kBound));
  }
}

void AhmwPeer::on_peer_down(int peer) {
  if (!note_crash(peer)) return;
  if (request_outstanding_ && request_target_ == peer) {
    // The pull died with its target; retry against the hierarchy.
    request_outstanding_ = false;
    ++req_seq_;
    if (!holds_work() && !is_root()) pull_from_parent();
  }
}

void AhmwPeer::on_message(sim::Message m) {
  if (m.type != kTerminate) note_bound(m.a);
  if (known_down(m.src) && m.type != kWork) {
    return;  // in-flight message of a dead peer (work still bounces back)
  }
  if (terminated_) {
    OLB_CHECK(m.type != kWork);
    if (m.type == kMWRequest || m.type == kSteal) {
      // Straggler pull from a peer the broadcast has not reached yet. Under
      // faults the sender may have *missed* the broadcast entirely, so tell
      // it to stop; fault-free it just gets a plain failure.
      send(m.src, make_msg(config_.fault_tolerant ? kTerminate : kStealFail,
                           config_.fault_tolerant ? 0 : m.b));
    } else if (config_.fault_tolerant && m.type == kTermProbe) {
      send(m.src, make_msg(kTerminate));
    }
    return;
  }
  switch (m.type) {
    case kMWRequest: {  // a child pulls a level-grain piece
      if (holds_work()) {
        const double fraction = grain_fraction();
        if (auto w = split_work(fraction)) {
          ds_.on_work_sent();
          ++work_sent_;
          emit_trace(trace::EventKind::kServe, m.src, kMWRequest,
                     trace::fraction_ppm(fraction),
                     static_cast<std::int64_t>(w->amount()));
          auto reply = make_msg(kWork);
          reply.payload = std::make_unique<WorkPayload>(std::move(w));
          send(m.src, std::move(reply));
          break;
        }
      }
      send(m.src, make_msg(kStealFail, m.b));
      break;
    }
    case kSteal: {  // an empty same-level master steals half
      if (holds_work()) {
        if (auto w = split_work(0.5)) {
          ds_.on_work_sent();
          ++work_sent_;
          emit_trace(trace::EventKind::kServe, m.src, kSteal,
                     trace::fraction_ppm(0.5),
                     static_cast<std::int64_t>(w->amount()));
          auto reply = make_msg(kWork);
          reply.payload = std::make_unique<WorkPayload>(std::move(w));
          send(m.src, std::move(reply));
          break;
        }
      }
      send(m.src, make_msg(kStealFail, m.b));
      break;
    }
    case kStealFail: {
      if (config_.fault_tolerant && m.b != req_seq_) break;  // stale/dup
      request_outstanding_ = false;
      if (holds_work()) break;
      // Parent dry: masters try a same-level peer before backing off.
      if (is_master() && m.src == tree_->parent(id())) {
        steal_from_sibling();
      } else {
        arm_retry();
      }
      break;
    }
    case kWork: {
      request_outstanding_ = false;
      ++work_recv_;
      if (config_.fault_tolerant) {
        ++req_seq_;  // void any outstanding request timeout
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
    case kBound:
      // Forward improvements along the hierarchy.
      if (bound_ < diffused_bound_) {
        diffused_bound_ = bound_;
        if (!is_root() && tree_->parent(id()) != m.src) {
          send(tree_->parent(id()), make_msg(kBound));
        }
        for (int c : tree_->children(id())) {
          if (c != m.src && !known_down(c)) send(c, make_msg(kBound));
        }
      }
      break;
    case kTerminate: {
      OLB_CHECK_MSG(!holds_work(), "terminate reached a peer still holding work");
      declare_termination();  // forwards down the hierarchy
      break;
    }
    default:
      if (!on_termination_message(m)) {
        OLB_CHECK_MSG(false, "unexpected message type for AhmwPeer");
      }
  }
}

}  // namespace olb::lb
