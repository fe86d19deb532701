// Termination machinery shared by the flat baselines (RWS and AHMW).
//
// Fault-free runs detect termination with Dijkstra–Scholten over the
// work-transfer graph (ds_termination.hpp), rooted at the peer the problem
// was pushed to — the paper's baselines use exactly that. DS is not
// fault-tolerant, though: a lost kSignal hangs the diffusing computation and
// a duplicated one underflows a deficit counter. Under fault injection the
// initiator instead runs a lease poll — Mattern's counter method over a
// star:
//
//   every lease interval the initiator sends kTermProbe(round) to every live
//   peer; each replies kTermAck carrying (passive?, cumulative work
//   transfers sent, cumulative work transfers received).
//
// A completed round, with the initiator's own state added, is one reading
// of the shared TerminationRule (termination.hpp): two consecutive
// all-passive rounds, one lease apart, that agree on the summed counters and
// the crash count prove termination. The lease exceeds the maximum
// one-message lifetime, so a transfer in flight during round k lands before
// round k+1 polls its receiver. Duplicate acks are absorbed per peer; a lost
// probe or ack leaves its round incomplete, superseded at the next tick.
//
// Each protocol keeps its own kTerminate broadcast (declare_termination).
#pragma once

#include <cstdint>
#include <vector>

#include "lb/ds_termination.hpp"
#include "lb/peer_base.hpp"
#include "lb/termination.hpp"

namespace olb::lb {

class FlatPeer : public PeerBase {
 public:
  bool protocol_terminated() const { return terminated_; }
  sim::Time done_time() const { return done_time_; }
  /// Number of crashed peers this peer has been notified about.
  int known_crashes() const { return crash_epoch_; }

 protected:
  FlatPeer(const PeerConfig& peer, bool fault_tolerant, sim::Time lease_interval)
      : PeerBase(peer), fault_tolerant_(fault_tolerant),
        lease_interval_(lease_interval) {}

  /// Sets up termination detection; call first thing in on_start().
  void start_termination(bool initiator);
  /// Sends kTerminate to everyone this protocol's broadcast reaches.
  virtual void declare_termination() = 0;

  bool passive() const { return !holds_work() && !computing(); }
  /// True when `peer` is known to have crashed (always false without FT).
  bool known_down(int peer) const {
    return fault_tolerant_ && peer >= 0 &&
           static_cast<std::size_t>(peer) < peer_down_.size() &&
           peer_down_[static_cast<std::size_t>(peer)] != 0;
  }
  /// Fault-free runs only: detaches from the DS tree (or, at the initiator,
  /// declares termination) once passive with a zero deficit.
  void maybe_detach();
  /// Handles kSignal, kTermProbe and kTermAck; false for any other type.
  bool on_termination_message(const sim::Message& m);
  /// The initiator's kRwsTermPollTimer: starts the next poll round.
  void on_poll_tick();
  /// Records a crash notice. True when it is news to a still-running peer,
  /// which then repairs its own protocol state.
  bool note_crash(int peer);

  sim::Message make_msg(int type, std::int64_t b = 0, std::int64_t c = 0) const {
    return sim::Message(type, bound_, b, c);
  }

  const bool fault_tolerant_;
  const sim::Time lease_interval_;
  DsTermination ds_;
  sim::Time done_time_ = -1;
  int crash_epoch_ = 0;
  std::uint64_t work_sent_ = 0;  ///< cumulative transfers: the poll and the
  std::uint64_t work_recv_ = 0;  ///< conformance state taps read them

 private:
  void conclude_poll();

  std::vector<char> peer_down_;  ///< FT only: peers known to have crashed

  // The initiator's current poll round (fault-tolerant runs only).
  std::uint64_t poll_round_ = 0;
  int poll_missing_ = 0;
  std::vector<char> poll_responded_;
  std::uint64_t poll_sent_ = 0;
  std::uint64_t poll_recv_ = 0;
  bool poll_passive_ = true;
  TerminationRule poll_rule_;
};

}  // namespace olb::lb
