// Slab-backed binary min-heap of simulation events, plus the actor inboxes.
//
// std::priority_queue cannot hand back move-only elements, and we need a
// deterministic total order (time, then insertion sequence), so we keep a
// hand-rolled heap. Three layout decisions make it the engine's fastest
// component instead of its bottleneck, and keep it small at 10^5+ peers:
//
//  * Event bodies live in a slab (`slots_`) and are recycled through an
//    intrusive freelist — the heap itself holds 32-byte POD entries carrying
//    the ordering key (time, tie, seq) plus the slot index. Sift operations
//    therefore shuffle trivially-copyable entries instead of move-only
//    Events (whose Message member drags a unique_ptr along), and an Event's
//    bytes never move between its push and its consumption. The key lives
//    only in the entry; the slot holds the body.
//  * An arrival that must wait for its busy actor does not move either: its
//    slot leaves the heap and is linked into the actor's inbox (a SlotFifo,
//    two slot indices threaded through Event::next). The message is moved
//    out exactly once, when the actor services it, and the slot goes back
//    to the freelist. No per-actor buffer exists, so an idle actor's inbox
//    costs eight bytes however many messages it once held.
//  * Sifts use hole percolation (shift parents/children into the hole, place
//    the moving entry once) rather than std::swap chains — one copy per
//    level instead of three.
//
// The slab never shrinks: it holds as many slots as the high-water mark of
// queued plus parked events, which for the protocols here is small (events
// per actor are O(1)). Ordering is byte-for-byte the pre-slab order — the
// comparator reads the same (time, tie, seq) triple — so seeded runs
// reproduce exactly.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "simnet/message.hpp"
#include "simnet/time.hpp"

namespace olb::sim {

/// Slot index meaning "none" (end of a freelist or inbox chain).
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

struct Event {
  enum class Kind : std::uint8_t {
    kArrival,  ///< a message reaches its destination's inbox
    kWake,     ///< the destination actor should service its queues
    kCrash,    ///< fault injection: the destination peer fail-stops
    kStall,    ///< fault injection: the destination freezes for msg.a ns
  };

  int dst = -1;
  Kind kind = Kind::kWake;
  /// Chain link: the next free slot while this one is free, the next
  /// parked message while this one sits in an actor's inbox.
  std::uint32_t next = kNoSlot;
  Message msg;  ///< valid only for kArrival (kStall borrows msg.a)
};

/// An actor inbox: a FIFO of parked arrival slots, linked through
/// Event::next inside the owning EventQueue's slab.
struct SlotFifo {
  std::uint32_t head = kNoSlot;
  std::uint32_t tail = kNoSlot;

  bool empty() const { return head == kNoSlot; }
};

class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Constructs the event in its slab slot and returns a reference for the
  /// caller to finish (typically moving a Message into `.msg`). The
  /// reference is valid only until the next queue operation (emplace may
  /// grow or recycle the slab). `seq` is the global insertion counter that
  /// breaks time ties FIFO; `tie` is the random tie-break key, always 0
  /// unless schedule perturbation is active (see simnet/perturb.hpp) — then
  /// simultaneous events are ordered by it instead of insertion order,
  /// exploring a different interleaving per perturbation seed while staying
  /// fully deterministic.
  Event& emplace(Time time, std::uint64_t tie, std::uint64_t seq, int dst,
                 Event::Kind kind) {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = slots_[slot].next;
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Event& ev = slots_[slot];
    ev.dst = dst;
    ev.kind = kind;
    const Entry entry{time, tie, seq, slot};
    std::size_t i = heap_.size();
    heap_.push_back(entry);  // placeholder; sift_up writes the final position
    sift_up(entry, i);
    return slots_[slot];
  }

  /// Removes and returns the earliest event. Precondition: !empty().
  Event pop() {
    const std::uint32_t slot = heap_.front().slot;
    pop_entry();
    Event out = std::move(slots_[slot]);
    release(slot);
    return out;
  }

  /// The earliest event, mutable so callers can consume `.msg` in place
  /// before drop_top() — the zero-move alternative to pop(). Precondition:
  /// !empty().
  Event& top() { return slots_[heap_.front().slot]; }

  /// Discards the earliest event without moving it out; pair with top().
  /// Any reference from top()/emplace() is dead after this (the slot is
  /// recycled). Precondition: !empty().
  void drop_top() {
    const std::uint32_t slot = heap_.front().slot;
    pop_entry();
    release(slot);
  }

  /// Moves the earliest event out of the heap and onto the back of `fifo`,
  /// keeping its slot (and message) where it is. Precondition: !empty().
  void park_top(SlotFifo& fifo) {
    const std::uint32_t slot = heap_.front().slot;
    pop_entry();
    slots_[slot].next = kNoSlot;
    if (fifo.tail != kNoSlot) {
      slots_[fifo.tail].next = slot;
    } else {
      fifo.head = slot;
    }
    fifo.tail = slot;
  }

  /// The oldest parked message. Precondition: !fifo.empty().
  Message& front(const SlotFifo& fifo) { return slots_[fifo.head].msg; }

  /// Unlinks the oldest parked slot and recycles it; callers move front()
  /// out first. Precondition: !fifo.empty().
  void pop_front(SlotFifo& fifo) {
    const std::uint32_t slot = fifo.head;
    fifo.head = slots_[slot].next;
    if (fifo.head == kNoSlot) fifo.tail = kNoSlot;
    slots_[slot].msg.payload.reset();
    release(slot);
  }

  /// Calls fn(const Message&) on every parked message, oldest first, then
  /// destroys them (releasing their payloads) and recycles their slots.
  template <typename Fn>
  void clear(SlotFifo& fifo, Fn&& fn) {
    while (!fifo.empty()) {
      fn(static_cast<const Message&>(front(fifo)));
      pop_front(fifo);
    }
  }

  /// Timestamp of the earliest event. Precondition: !empty().
  Time peek_time() const { return heap_.front().time; }

  const Event& peek() const { return slots_[heap_.front().slot]; }

  /// Slots ever allocated: the high-water mark of queued plus parked events.
  std::size_t slab_high_water() const { return slots_.size(); }

  /// Bytes of heap storage behind the queue. Tracks the slab's high-water
  /// mark (the slab never shrinks) — the honest number for the
  /// bytes-per-peer accounting in docs/SCALING.md. Parked inbox messages
  /// live in the slab, so this covers the actor inboxes too.
  std::size_t memory_bytes() const {
    return heap_.capacity() * sizeof(Entry) + slots_.capacity() * sizeof(Event);
  }

 private:
  /// Heap entry: the deterministic ordering key plus the slab slot holding
  /// the Event body. Trivially copyable by design — sifts copy these.
  struct Entry {
    Time time;
    std::uint64_t tie;
    std::uint64_t seq;
    std::uint32_t slot;

    bool before(const Entry& other) const {
      if (time != other.time) return time < other.time;
      if (tie != other.tie) return tie < other.tie;
      return seq < other.seq;
    }
  };

  /// Removes the root entry and restores the heap (slot not freed here).
  void pop_entry() {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
  }

  /// Pushes a slot onto the freelist. Its moved-from or untouched message
  /// shell stays (payload null) until the slot is reused.
  void release(std::uint32_t slot) {
    slots_[slot].next = free_head_;
    free_head_ = slot;
  }

  /// Percolates `e` up from the hole at `i`.
  void sift_up(Entry e, std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!e.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Percolates `e` down from the hole at the root.
  void sift_down(Entry e) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (true) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
      if (!heap_[child].before(e)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
  std::vector<Event> slots_;          ///< slab of event bodies, slot-indexed
  std::uint32_t free_head_ = kNoSlot;  ///< freelist through Event::next
};

}  // namespace olb::sim
