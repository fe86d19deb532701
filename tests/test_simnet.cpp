// Unit tests for the discrete-event engine: ordering, busy-server queueing,
// compute/message interleaving, timers, latency model, determinism.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "simnet/engine.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/faults.hpp"

namespace olb::sim {
namespace {

// ------------------------------------------------------------ event queue ---

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  for (Time t : {50, 10, 30, 20, 40}) {
    q.emplace(t, 0, static_cast<std::uint64_t>(t), 0, Event::Kind::kWake);
  }
  Time prev = -1;
  while (!q.empty()) {
    const Time t = q.peek_time();
    q.pop();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(EventQueue, TiesBreakBySequence) {
  EventQueue q;
  for (std::uint64_t s : {3u, 1u, 2u, 0u}) {
    q.emplace(7, 0, s, 0, Event::Kind::kArrival).msg.a =
        static_cast<std::int64_t>(s);
  }
  for (std::uint64_t expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(q.pop().msg.a, static_cast<std::int64_t>(expect));
  }
}

TEST(EventQueue, SingleElementPopKeepsMessageIntact) {
  // Regression: at heap size 1 front and back alias, and the old pop
  // self-move-assigned the element — undefined for the Message's
  // unique_ptr payload (in practice it nulled it).
  EventQueue q;
  Event& e = q.emplace(5, 0, 1, 0, Event::Kind::kArrival);
  e.msg = Message(7, 42);
  e.msg.payload = std::make_unique<MsgPayload>();
  EXPECT_EQ(q.peek_time(), 5);
  const Event out = q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(out.msg.type, 7);
  EXPECT_EQ(out.msg.a, 42);
  EXPECT_NE(out.msg.payload, nullptr);
}

TEST(EventQueue, SlabReuseNeverAliasesLiveEvent) {
  // Arena canary: pop() moves an Event out and recycles its slot; later
  // emplace() calls reuse that slot. Messages popped earlier must stay
  // intact — each carries a heap payload, so any aliasing write through a
  // recycled slot is an ASan-visible use-after-move/overwrite, and the
  // canary values below catch it in plain builds too.
  EventQueue q;
  for (std::uint64_t i = 0; i < 64; ++i) {
    Event& e = q.emplace(static_cast<Time>(i), 0, i, 0, Event::Kind::kArrival);
    e.msg = Message(static_cast<int>(i), static_cast<std::int64_t>(i) * 1000);
    e.msg.payload = std::make_unique<MsgPayload>();
    e.msg.b = static_cast<std::int64_t>(i);
  }
  std::vector<Message> held;
  for (std::uint64_t i = 0; i < 32; ++i) held.push_back(q.pop().msg);
  // Refill through the freelist: these land in the 32 just-recycled slots.
  for (std::uint64_t i = 64; i < 96; ++i) {
    Event& e = q.emplace(static_cast<Time>(i), 0, i, 0, Event::Kind::kArrival);
    e.msg = Message(static_cast<int>(i), static_cast<std::int64_t>(i) * 1000);
    e.msg.payload = std::make_unique<MsgPayload>();
    e.msg.b = static_cast<std::int64_t>(i);
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(held[i].type, static_cast<int>(i));
    EXPECT_EQ(held[i].a, static_cast<std::int64_t>(i) * 1000);
    ASSERT_NE(held[i].payload, nullptr);
    EXPECT_EQ(held[i].b, static_cast<std::int64_t>(i));
  }
  // Drain the rest: ordering and payloads must line up despite recycling.
  for (std::uint64_t i = 32; i < 96; ++i) {
    const Event e = q.pop();
    ASSERT_NE(e.msg.payload, nullptr);
    EXPECT_EQ(e.msg.b, static_cast<std::int64_t>(i));
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TopDropTopMatchesPop) {
  // The engine's in-place consumption path: top() + drop_top() must see the
  // same event pop() would return, and drop_top() must recycle the slot.
  EventQueue q;
  for (Time t : {30, 10, 20}) {
    Event& e = q.emplace(t, 0, static_cast<std::uint64_t>(t), 0,
                         Event::Kind::kWake);
    e.msg = Message(static_cast<int>(t), t);
  }
  EXPECT_EQ(q.peek_time(), 10);
  {
    Event& top = q.top();
    EXPECT_EQ(top.msg.a, 10);
    q.drop_top();
  }
  EXPECT_EQ(q.peek_time(), 20);
  const Event e = q.pop();
  EXPECT_EQ(e.msg.a, 20);
  EXPECT_EQ(q.peek_time(), 30);
  EXPECT_EQ(q.top().msg.a, 30);
  q.drop_top();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StressAgainstSortedReference) {
  Xoshiro256 rng(5);
  EventQueue q;
  std::vector<std::pair<Time, std::uint64_t>> ref;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const auto t = static_cast<Time>(rng.below(1000));
    ref.emplace_back(t, i);
    q.emplace(t, 0, i, 0, Event::Kind::kWake).msg.a = static_cast<std::int64_t>(i);
  }
  std::sort(ref.begin(), ref.end());
  for (const auto& [t, s] : ref) {
    EXPECT_EQ(q.peek_time(), t);
    EXPECT_EQ(q.pop().msg.a, static_cast<std::int64_t>(s));
  }
}

// ----------------------------------------------------------------- actors ---

/// Records every delivery with its timestamp.
class Recorder : public Actor {
 public:
  struct Delivery {
    Time at;
    int type;
    std::int64_t a;
    int src;
  };
  std::vector<Delivery> deliveries;
  Time compute_on_type = -1;   ///< start_compute(a) when receiving this type
  int reply_to_type = -1;      ///< send a type-99 reply on this type
  std::vector<Time> compute_done_at;

 protected:
  void on_message(Message m) override {
    deliveries.push_back({now(), m.type, m.a, m.src});
    if (m.type == compute_on_type) start_compute(m.a);
    if (m.type == reply_to_type) send(m.src, Message(99));
  }
  void on_compute_done() override { compute_done_at.push_back(now()); }
  void on_timer(std::int64_t tag) override {
    deliveries.push_back({now(), kTimerMsgType, tag, id()});
  }
  friend class Starter;
};

/// Sends a scripted list of (delay-ignored) messages from on_start.
class Starter : public Actor {
 public:
  std::vector<Message> to_send;
  int dst = 1;

 protected:
  void on_start() override {
    for (auto& m : to_send) send(dst, std::move(m));
    to_send.clear();
  }
  void on_message(Message) override {}
};

NetworkConfig zero_jitter() {
  NetworkConfig net;
  net.latency_jitter = 0;
  net.intra_latency = microseconds(10);
  net.msg_handling_cost = microseconds(3);
  return net;
}

TEST(Engine, MessageLatencyAndHandlingCost) {
  // The first message lands after the link latency; handling it keeps the
  // receiver busy for msg_handling_cost, so a back-to-back second message
  // is handled exactly that much later.
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(5);
  s->to_send.emplace_back(6);
  auto r = std::make_unique<Recorder>();
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  const auto result = engine.run();
  EXPECT_TRUE(result.quiesced);
  ASSERT_EQ(recorder->deliveries.size(), 2u);
  EXPECT_EQ(recorder->deliveries[0].type, 5);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(10));
  EXPECT_EQ(recorder->deliveries[1].type, 6);
  EXPECT_EQ(recorder->deliveries[1].at - recorder->deliveries[0].at,
            microseconds(3));
}

TEST(Engine, BusyServerSerialisesDeliveries) {
  // Two messages arrive (almost) together; the second is delivered only
  // after the first's handling cost has elapsed.
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(5);
  s->to_send.emplace_back(5);
  auto r = std::make_unique<Recorder>();
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(recorder->deliveries.size(), 2u);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(10));
  EXPECT_EQ(recorder->deliveries[1].at, microseconds(13));  // +handling cost
}

TEST(Engine, MessagesServicedAtComputeBoundary) {
  // The recorder starts a long compute on message type 1; a later message
  // must wait until the span ends, and on_compute_done fires after it.
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  Message first(1);
  first.a = microseconds(100);  // compute duration
  s->to_send.push_back(std::move(first));
  s->to_send.emplace_back(2);
  auto r = std::make_unique<Recorder>();
  r->compute_on_type = 1;
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(recorder->deliveries.size(), 2u);
  // First message at t=10us, handled for 3us, then computes 100us.
  // Second message arrived ~t=10us but waits until 113us.
  EXPECT_EQ(recorder->deliveries[1].at, microseconds(113));
  ASSERT_EQ(recorder->compute_done_at.size(), 1u);
  // compute_done only after the queued message was serviced (message priority
  // at chunk boundaries).
  EXPECT_EQ(recorder->compute_done_at[0], microseconds(116));
}

TEST(Engine, TimerFiresAtRequestedDelay) {
  class TimerActor : public Actor {
   public:
    Time fired_at = -1;

   protected:
    void on_start() override { set_timer(microseconds(250), 7); }
    void on_message(Message) override {}
    void on_timer(std::int64_t tag) override {
      EXPECT_EQ(tag, 7);
      fired_at = now();
    }
  };
  Engine engine(zero_jitter(), 1);
  auto t = std::make_unique<TimerActor>();
  auto* timer = t.get();
  engine.add_actor(std::move(t));
  engine.run();
  EXPECT_EQ(timer->fired_at, microseconds(250));
}

TEST(Engine, RequestReplyRoundTrip) {
  class Pinger : public Recorder {
   protected:
    void on_start() override { send(1, Message(4)); }
  };
  Engine engine(zero_jitter(), 1);
  auto p = std::make_unique<Pinger>();
  auto* pinger = p.get();
  auto r = std::make_unique<Recorder>();
  r->reply_to_type = 4;
  engine.add_actor(std::move(p));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(pinger->deliveries.size(), 1u);
  EXPECT_EQ(pinger->deliveries[0].type, 99);  // the reply
  EXPECT_EQ(pinger->deliveries[0].src, 1);
  EXPECT_EQ(engine.stats(1).msgs_sent, 1u);
}

TEST(Engine, InterClusterLatencyApplies) {
  NetworkConfig net = zero_jitter();
  net.cluster_capacity = 1;  // every peer its own cluster
  net.inter_latency = microseconds(500);
  Engine engine(net, 1);
  auto s = std::make_unique<Starter>();
  s->to_send.emplace_back(5);
  auto r = std::make_unique<Recorder>();
  auto* recorder = r.get();
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  ASSERT_EQ(recorder->deliveries.size(), 1u);
  EXPECT_EQ(recorder->deliveries[0].at, microseconds(500));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine engine(NetworkConfig{}, 99);  // jitter enabled
    auto s = std::make_unique<Starter>();
    for (int i = 0; i < 20; ++i) s->to_send.emplace_back(5);
    auto r = std::make_unique<Recorder>();
    auto* recorder = r.get();
    engine.add_actor(std::move(s));
    engine.add_actor(std::move(r));
    engine.run();
    std::vector<Time> times;
    for (const auto& d : recorder->deliveries) times.push_back(d.at);
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, EventLimitStopsRun) {
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  for (int i = 0; i < 50; ++i) s->to_send.emplace_back(5);
  engine.add_actor(std::move(s));
  engine.add_actor(std::make_unique<Recorder>());
  const auto result = engine.run(kTimeMax, 10);
  EXPECT_FALSE(result.quiesced);
  EXPECT_EQ(result.events, 10u);
}

/// One scripted cast exercising every way an arrival meets its actor: two
/// messages landing on one free actor in the same nanosecond, a same-instant
/// arrival for a second actor, a zero-delay timer set when a compute span
/// ends, a lone arrival at a free actor, and an arrival at an actor still
/// busy handling its previous message. Every hook logs (time, actor, what).
class Scripted : public Actor {
 public:
  struct Entry {
    Time at;
    int actor;
    char what;  ///< 's'tart, 'm'essage, 't'imer, 'c'ompute done
    std::int64_t value;
    bool operator==(const Entry&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Entry& e) {
      return os << e.at << "ns actor " << e.actor << ' ' << e.what << e.value;
    }
  };
  std::vector<Entry>* log = nullptr;

 protected:
  void on_start() override {
    log->push_back({now(), id(), 's', 0});
    if (id() == 0) {
      set_timer(microseconds(20), 0);
      set_timer(microseconds(48), 1);
    } else if (id() == 1) {
      set_timer(microseconds(49), 2);
    }
  }
  void on_message(Message m) override {
    log->push_back({now(), id(), 'm', m.type});
    if (m.type == 3) start_compute(microseconds(5));
  }
  void on_timer(std::int64_t tag) override {
    log->push_back({now(), id(), 't', tag});
    if (tag == 0) {
      send(1, Message(1));  // all three land at 30 us
      send(1, Message(2));
      send(2, Message(3));
    } else if (tag == 1 || tag == 2) {
      send(3, Message(static_cast<int>(3 + tag)));  // at 58 us, then 59 us
    }
  }
  void on_compute_done() override {
    log->push_back({now(), id(), 'c', 0});
    set_timer(0, 7);
  }
};

TEST(Engine, InPlaceDispatchKeepsTheTwoEventOrder) {
  // An arrival at a free actor, with nothing else due at that instant, is
  // served without a separate wake event. The handling order, the times
  // and the event count pinned here are those of the engine that always
  // queued the wake: in-place dispatch must not move any of them.
  std::vector<Scripted::Entry> log;
  Engine engine(zero_jitter(), 1);
  for (int i = 0; i < 4; ++i) {
    auto s = std::make_unique<Scripted>();
    s->log = &log;
    engine.add_actor(std::move(s));
  }
  const auto result = engine.run();
  ASSERT_TRUE(result.quiesced);
  const std::vector<Scripted::Entry> expected = {
      {0, 0, 's', 0},
      {0, 1, 's', 0},
      {0, 2, 's', 0},
      {0, 3, 's', 0},
      {microseconds(20), 0, 't', 0},
      {microseconds(30), 1, 'm', 1},  // same-nanosecond pair at actor 1
      {microseconds(30), 2, 'm', 3},  // same-instant arrival at actor 2
      {microseconds(33), 1, 'm', 2},
      {microseconds(38), 2, 'c', 0},
      {microseconds(38), 2, 't', 7},  // zero-delay timer
      {microseconds(48), 0, 't', 1},
      {microseconds(49), 1, 't', 2},
      {microseconds(58), 3, 'm', 4},
      {microseconds(61), 3, 'm', 5},  // arrived at 59 us, actor busy
  };
  EXPECT_EQ(log, expected);
  EXPECT_EQ(result.events, 23u);
  EXPECT_EQ(result.end_time, microseconds(61));
}

TEST(Engine, TimeLimitStopsRun) {
  class SlowTicker : public Actor {
   protected:
    void on_start() override { set_timer(seconds(1.0), 0); }
    void on_message(Message) override {}
    void on_timer(std::int64_t) override { set_timer(seconds(1.0), 0); }
  };
  Engine engine(zero_jitter(), 1);
  engine.add_actor(std::make_unique<SlowTicker>());
  const auto result = engine.run(seconds(5.5));
  EXPECT_FALSE(result.quiesced);
  EXPECT_LE(result.end_time, seconds(5.5));
}

TEST(Engine, BusyHistogramAccumulatesComputeTime) {
  Engine engine(zero_jitter(), 1);
  auto s = std::make_unique<Starter>();
  Message m(1);
  m.a = milliseconds(3);
  s->to_send.push_back(std::move(m));
  auto r = std::make_unique<Recorder>();
  r->compute_on_type = 1;
  engine.add_actor(std::move(s));
  engine.add_actor(std::move(r));
  engine.run();
  Time total = 0;
  for (Time t : engine.busy_histogram()) total += t;
  EXPECT_EQ(total, milliseconds(3));
}

// ---------------------------------------------------------------- inboxes ---

/// Starts one long compute span on its first message and records every
/// later delivery, so everything that arrives meanwhile parks in its inbox.
class BusyRecorder : public Actor {
 public:
  std::vector<std::pair<int, std::int64_t>> served;  ///< (src, a)
  Time busy_for = milliseconds(1);

 protected:
  void on_message(Message m) override {
    if (m.type == 1) {
      start_compute(busy_for);
      return;
    }
    served.emplace_back(m.src, m.a);
  }
};

/// Sends to every receiver at staggered instants: sender k's i-th message
/// leaves at 3i + k microseconds, so arrivals from different senders (and
/// for different receivers) alternate in the event slab.
class StaggeredSender : public Actor {
 public:
  std::vector<int> receivers;
  int first_sender = 0;  ///< id of sender k = 0
  int count = 10;

 protected:
  void on_start() override {
    for (int i = 0; i < count; ++i) {
      set_timer(microseconds(3 * i + id() - first_sender), i);
    }
  }
  void on_message(Message) override {}
  void on_timer(std::int64_t i) override {
    for (int r : receivers) send(r, Message(2, 3 * i + id() - first_sender));
  }
};

TEST(Inbox, BusyActorsServeInterleavedSendersInArrivalOrder) {
  Engine engine(zero_jitter(), 1);
  std::vector<BusyRecorder*> busy;
  for (int r = 0; r < 2; ++r) {
    auto b = std::make_unique<BusyRecorder>();
    busy.push_back(b.get());
    engine.add_actor(std::move(b));
  }
  // Actors 2 and 3 kick the receivers into their compute spans first.
  for (int r = 0; r < 2; ++r) {
    auto kick = std::make_unique<Starter>();
    kick->to_send.emplace_back(1);
    kick->dst = r;
    engine.add_actor(std::move(kick));
  }
  for (int k = 0; k < 3; ++k) {
    auto s = std::make_unique<StaggeredSender>();
    s->receivers = {0, 1};
    s->first_sender = 4;
    engine.add_actor(std::move(s));
  }
  const auto result = engine.run();
  ASSERT_TRUE(result.quiesced);
  for (const BusyRecorder* b : busy) {
    ASSERT_EQ(b->served.size(), 30u);
    // Every message arrived while the receiver computed; the send instants
    // are distinct, so arrival order is exactly increasing `a`, and the
    // sender is recoverable from it.
    for (std::size_t i = 0; i < b->served.size(); ++i) {
      EXPECT_EQ(b->served[i].second, static_cast<std::int64_t>(i));
      EXPECT_EQ(b->served[i].first, 4 + static_cast<int>(i % 3));
    }
  }
}

/// A payload worth a fixed number of application units.
struct Units : MsgPayload {
  double units;
  explicit Units(double u) : units(u) {}
  double amount() const override { return units; }
};

/// Cycle c (at c * 2 ms): make receiver 1 + c busy, then park `burst`
/// payload messages in its inbox. The fault plan crashes it mid-span.
class BurstSender : public Actor {
 public:
  int cycles = 5;
  int burst = 8;

 protected:
  void on_start() override {
    for (int c = 0; c < cycles; ++c) set_timer(milliseconds(2) * c, c);
  }
  void on_message(Message) override {}
  void on_timer(std::int64_t c) override {
    const int dst = 1 + static_cast<int>(c);
    send(dst, Message(1));
    for (int i = 0; i < burst; ++i) {
      Message m(2, i);
      m.payload = std::make_unique<Units>(1.5);
      send(dst, std::move(m));
    }
  }
};

TEST(Inbox, CrashReleasesParkedSlotsAndChargesTheirPayloads) {
  constexpr int kCycles = 5;
  Engine engine(zero_jitter(), 1);
  engine.add_actor(std::make_unique<BurstSender>());
  for (int c = 0; c < kCycles; ++c) engine.add_actor(std::make_unique<BusyRecorder>());
  FaultPlan plan;
  for (int c = 0; c < kCycles; ++c) {
    plan.add_crash(1 + c, milliseconds(2) * c + microseconds(500));
  }
  engine.set_faults(plan);
  // First cycle: burst parked, receiver crashed, detector notices served.
  engine.run(milliseconds(2) - 1);
  EXPECT_EQ(engine.crashes_applied(), 1);
  EXPECT_DOUBLE_EQ(engine.work_lost_units(), 8 * 1.5);
  const std::size_t high_water = engine.event_slab_high_water();
  const auto result = engine.run();
  ASSERT_TRUE(result.quiesced);
  EXPECT_EQ(engine.crashes_applied(), kCycles);
  // Each crash destroyed a full parked burst, charged exactly once...
  EXPECT_DOUBLE_EQ(engine.work_lost_units(), kCycles * 8 * 1.5);
  // ...and handed its slots back: later cycles reuse them instead of
  // growing the slab.
  EXPECT_EQ(engine.event_slab_high_water(), high_water);
  for (int c = 0; c < kCycles; ++c) {
    EXPECT_TRUE(static_cast<BusyRecorder&>(engine.actor(1 + c)).served.empty());
  }
}

TEST(Network, ClusterAssignmentIsBlockwise) {
  NetworkConfig net;
  net.cluster_capacity = 4;
  Network network(net, 1);
  EXPECT_EQ(network.cluster_of(0), 0);
  EXPECT_EQ(network.cluster_of(3), 0);
  EXPECT_EQ(network.cluster_of(4), 1);
  EXPECT_EQ(network.cluster_of(9), 2);
}

TEST(Network, JitterStaysWithinBound) {
  NetworkConfig net;
  net.intra_latency = microseconds(20);
  net.latency_jitter = microseconds(4);
  Network network(net, 3);
  for (int i = 0; i < 1000; ++i) {
    const Time l = network.latency(0, 1);
    ASSERT_GE(l, microseconds(20));
    ASSERT_LT(l, microseconds(24));
  }
}

}  // namespace
}  // namespace olb::sim
