// The one termination rule every protocol shares: Mattern's stability test.
//
// A detector repeatedly takes a *reading* of the system — summed
// work-transfer counters (sent, recv), the number of known crashes and the
// number of membership events — together with a verdict on whether every
// participant was quiet while it was taken. Termination is proven by two
// consecutive quiet readings that agree exactly:
//
//  * counters are monotone, so an unchanged (sent, recv) pair means no
//    transfer happened between the readings, and every transfer in flight
//    during the first one would have bumped a receive counter before the
//    second one polled its receiver (the detectors pace or order their
//    readings to guarantee that);
//  * while no crash is known the counters must also balance (sent == recv);
//    a crashed peer takes its contributions with it, so afterwards only
//    stability at an unchanged crash count is required;
//  * a join or leave between the readings changes the member-event sum and
//    forces another pair — its handover traffic may not have reached the
//    counters yet.
//
// Users: the overlay root's probe waves (global termination), the root's
// per-job accounting in service mode (one rule per job, quiet = the job's
// pieces are all merged and nobody holds any of it), and the flat
// baselines' lease poll under fault injection (lb/flat_peer.hpp).
#pragma once

#include <cstdint>

namespace olb::lb {

class TerminationRule {
 public:
  struct Reading {
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;
    int crashes = 0;
    std::uint64_t member_events = 0;

    bool operator==(const Reading&) const = default;
  };

  /// Feeds one reading; true when it confirms the pending one (termination).
  /// A non-quiet or (crash-free and) unbalanced reading voids the pending
  /// reading; any other reading that does not confirm becomes the pending
  /// one.
  bool offer(bool quiet, const Reading& reading) {
    if (!quiet || (reading.crashes == 0 && reading.sent != reading.recv)) {
      reset();
      return false;
    }
    if (armed_ && pending_ == reading) return true;
    pending_ = reading;
    armed_ = true;
    return false;
  }

  /// True while a clean reading waits for its confirmation.
  bool armed() const { return armed_; }

  /// Voids the pending reading (a crash was learned: readings across a
  /// crash boundary do not compare).
  void reset() { armed_ = false; }

 private:
  Reading pending_;
  bool armed_ = false;
};

}  // namespace olb::lb
