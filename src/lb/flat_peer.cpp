#include "lb/flat_peer.hpp"

#include "support/check.hpp"

namespace olb::lb {

void FlatPeer::start_termination(bool initiator) {
  if (fault_tolerant_) {
    peer_down_.assign(static_cast<std::size_t>(num_peers()), 0);
    if (initiator) set_timer(lease_interval_, kRwsTermPollTimer);
  }
  if (initiator) ds_.make_initiator();
}

void FlatPeer::maybe_detach() {
  // Under faults DS is abandoned entirely; the initiator's poll decides.
  if (fault_tolerant_ || !ds_.can_detach(passive())) return;
  const int parent = ds_.detach();
  if (parent >= 0) {
    send(parent, make_msg(kSignal));
  } else {
    declare_termination();
  }
}

void FlatPeer::on_poll_tick() {
  if (terminated_) return;  // no re-arm
  const int n = num_peers();
  ++poll_round_;
  poll_responded_.assign(static_cast<std::size_t>(n), 0);
  poll_missing_ = 0;
  poll_sent_ = 0;
  poll_recv_ = 0;
  poll_passive_ = true;
  for (int p = 0; p < n; ++p) {
    if (p == id() || known_down(p)) continue;
    ++poll_missing_;
    send(p, make_msg(kTermProbe, static_cast<std::int64_t>(poll_round_)));
  }
  if (poll_missing_ == 0) conclude_poll();  // sole survivor
  if (!terminated_) set_timer(lease_interval_, kRwsTermPollTimer);
}

void FlatPeer::conclude_poll() {
  const TerminationRule::Reading reading{poll_sent_ + work_sent_,
                                         poll_recv_ + work_recv_, crash_epoch_, 0};
  if (poll_rule_.offer(poll_passive_ && passive(), reading)) declare_termination();
}

bool FlatPeer::on_termination_message(const sim::Message& m) {
  switch (m.type) {
    case kSignal:
      ds_.on_signal();
      maybe_detach();
      return true;
    case kTermProbe:
      send(m.src, make_msg(kTermAck,
                           pack_term_ack_b(static_cast<std::uint64_t>(m.b), passive()),
                           pack_term_ack_c(work_sent_, work_recv_)));
      return true;
    case kTermAck: {
      // Stale-round and duplicate acks are ignored.
      const auto idx = static_cast<std::size_t>(m.src);
      if (term_ack_round(m.b) != poll_round_ || idx >= poll_responded_.size() ||
          poll_responded_[idx] != 0) {
        return true;
      }
      poll_responded_[idx] = 1;
      poll_passive_ = poll_passive_ && term_ack_passive(m.b);
      poll_sent_ += term_ack_sent(m.c);
      poll_recv_ += term_ack_recv(m.c);
      if (--poll_missing_ == 0) conclude_poll();
      return true;
    }
    default:
      return false;
  }
}

bool FlatPeer::note_crash(int peer) {
  OLB_CHECK(fault_tolerant_);
  const auto idx = static_cast<std::size_t>(peer);
  if (idx >= peer_down_.size() || peer_down_[idx] != 0) return false;
  peer_down_[idx] = 1;
  ++crash_epoch_;
  if (terminated_) return false;
  poll_rule_.reset();  // readings across a crash boundary don't compare
  return true;
}

}  // namespace olb::lb
