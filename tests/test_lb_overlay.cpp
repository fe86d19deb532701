// Protocol tests for the overlay-centric load balancer (TD / TR / BTD):
// exactness, termination (never early, never hung), cooperation invariants.
// Parameterised sweeps hammer the termination logic across tree shapes,
// scales and seeds — the bug magnet called out in DESIGN.md.
#include <gtest/gtest.h>

#include <tuple>

#include "bb/bb_work.hpp"
#include "lb/driver.hpp"
#include "lb/messages.hpp"
#include "lb/termination.hpp"
#include "simnet/faults.hpp"
#include "test_util.hpp"
#include "trace/trace.hpp"
#include "uts/uts_work.hpp"

namespace olb {
namespace {

using test_util::base_config;
using test_util::uts_params;

// ------------------------------------------------------- termination rule ---

using Reading = lb::TerminationRule::Reading;

TEST(TerminationRule, SecondAgreeingQuietReadingTerminates) {
  lb::TerminationRule rule;
  EXPECT_FALSE(rule.offer(true, {4, 4, 0, 0}));
  EXPECT_TRUE(rule.armed());
  EXPECT_TRUE(rule.offer(true, {4, 4, 0, 0}));
}

TEST(TerminationRule, CountersMustBalanceOnlyWhileCrashFree) {
  lb::TerminationRule clean;
  EXPECT_FALSE(clean.offer(true, {5, 4, 0, 0}));  // a transfer in flight
  EXPECT_FALSE(clean.armed());
  EXPECT_FALSE(clean.offer(true, {5, 4, 0, 0}));
  EXPECT_FALSE(clean.armed()) << "unbalanced crash-free readings never pair";

  // A crashed peer takes its counter contributions with it: after a crash
  // stability alone carries the argument.
  lb::TerminationRule crashed;
  EXPECT_FALSE(crashed.offer(true, {5, 4, 1, 0}));
  EXPECT_TRUE(crashed.armed());
  EXPECT_TRUE(crashed.offer(true, {5, 4, 1, 0}));
}

TEST(TerminationRule, ResetAfterCrashVoidsThePendingReading) {
  lb::TerminationRule rule;
  EXPECT_FALSE(rule.offer(true, {3, 2, 1, 0}));
  rule.reset();  // a second crash was learned between the readings
  EXPECT_FALSE(rule.armed());
  EXPECT_FALSE(rule.offer(true, {3, 2, 1, 0})) << "a reset pair must restart";
  EXPECT_TRUE(rule.offer(true, {3, 2, 1, 0}));
}

TEST(TerminationRule, DisagreeingReadingsRestartThePair) {
  lb::TerminationRule rule;
  EXPECT_FALSE(rule.offer(true, {2, 2, 0, 0}));
  // A join or leave between the waves: the member-event sum moved.
  EXPECT_FALSE(rule.offer(true, {2, 2, 0, 1}));
  EXPECT_TRUE(rule.armed());  // the new reading is the pending one now
  EXPECT_TRUE(rule.offer(true, {2, 2, 0, 1}));

  // Moved counters or a moved crash count restart the pair the same way.
  lb::TerminationRule moved;
  EXPECT_FALSE(moved.offer(true, {2, 2, 1, 0}));
  EXPECT_FALSE(moved.offer(true, {3, 3, 1, 0}));
  EXPECT_FALSE(moved.offer(true, {3, 3, 2, 0}));
  EXPECT_TRUE(moved.offer(true, {3, 3, 2, 0}));
}

TEST(TerminationRule, NonQuietReadingRestartsThePair) {
  lb::TerminationRule rule;
  EXPECT_FALSE(rule.offer(true, {1, 1, 0, 0}));
  EXPECT_FALSE(rule.offer(false, {1, 1, 0, 0}));  // someone was busy
  EXPECT_FALSE(rule.armed());
  EXPECT_FALSE(rule.offer(true, {1, 1, 0, 0}));
  EXPECT_TRUE(rule.offer(true, {1, 1, 0, 0}));
}

// --------------------------------------------------- parameterised sweeps ---

// (strategy, peers, dmax, seed)
using SweepParam = std::tuple<lb::Strategy, int, int, std::uint64_t>;

class OverlaySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OverlaySweep, UtsCompletesExactly) {
  const auto [strategy, n, dmax, seed] = GetParam();
  const auto params = uts_params(static_cast<std::uint32_t>(seed * 7 + 1));
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics = lb::run_distributed(workload, base_config(strategy, n, dmax, seed));
  ASSERT_TRUE(metrics.ok) << "n=" << n << " dmax=" << dmax << " seed=" << seed;
  EXPECT_EQ(metrics.total_units, expected);
}

TEST_P(OverlaySweep, FlowshopFindsOptimum) {
  const auto [strategy, n, dmax, seed] = GetParam();
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(
      static_cast<int>(seed % 10), 9, 5);
  const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
  bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
  const auto metrics = lb::run_distributed(workload, base_config(strategy, n, dmax, seed));
  ASSERT_TRUE(metrics.ok) << "n=" << n << " dmax=" << dmax << " seed=" << seed;
  EXPECT_EQ(workload.best().makespan(), reference.optimum);
  EXPECT_EQ(metrics.best_bound, reference.optimum);
}

INSTANTIATE_TEST_SUITE_P(
    TreesAndScales, OverlaySweep,
    ::testing::Combine(
        ::testing::Values(lb::Strategy::kOverlayTD, lb::Strategy::kOverlayTR,
                          lb::Strategy::kOverlayBTD),
        ::testing::Values(2, 5, 17, 60),
        ::testing::Values(1, 2, 10),
        ::testing::Values<std::uint64_t>(1, 2)),
    [](const ::testing::TestParamInfo<SweepParam>& p) {
      return std::string(lb::strategy_name(std::get<0>(p.param))) + "_n" +
             std::to_string(std::get<1>(p.param)) + "_d" +
             std::to_string(std::get<2>(p.param)) + "_s" +
             std::to_string(std::get<3>(p.param));
    });

// ------------------------------------------------------------- edge cases ---

TEST(OverlayLb, SinglePeerTD) {
  const auto params = uts_params(3);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 1, 2, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, SinglePeerBTDSkipsBridges) {
  const auto params = uts_params(4);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayBTD, 1, 2, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kReqBridge], 0u);
}

TEST(OverlayLb, ChainOverlayCompletes) {
  // dmax=1 degenerates the tree into a chain — the worst diameter.
  const auto params = uts_params(5);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 12, 1, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, StarOverlayCompletes) {
  // dmax >= n-1 makes the root a master-like hub.
  const auto params = uts_params(6);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 16, 15, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, TrivialWorkloadTerminates) {
  // A tree with almost no work: most peers never receive anything, yet the
  // protocol must still detect termination (the empty-system case).
  const auto params = uts_params(7, 2, 0.05);
  const auto expected = uts::count_tree(params).nodes;
  for (auto strategy : {lb::Strategy::kOverlayTD, lb::Strategy::kOverlayBTD}) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    const auto metrics =
        lb::run_distributed(workload, base_config(strategy, 30, 3, 2));
    ASSERT_TRUE(metrics.ok) << lb::strategy_name(strategy);
    EXPECT_EQ(metrics.total_units, expected);
  }
}

// ------------------------------------------------------ protocol behaviour ---

TEST(OverlayLb, ConvergecastRunsExactlyOncePerEdge) {
  const auto params = uts_params(8);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const int n = 40;
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, n, 3, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kSizeUp], static_cast<std::uint64_t>(n - 1));
  EXPECT_EQ(metrics.sent_by_type[lb::kSizeDown], static_cast<std::uint64_t>(n - 1));
}

TEST(OverlayLb, TerminationBroadcastReachesEveryPeer) {
  const auto params = uts_params(9);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const int n = 31;
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, n, 4, 1));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kTerminate], static_cast<std::uint64_t>(n - 1));
}

TEST(OverlayLb, PureTreeModeSendsNoBridgeOrProbeTraffic) {
  const auto params = uts_params(10);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayTD, 25, 5, 3));
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.sent_by_type[lb::kReqBridge], 0u);
  EXPECT_EQ(metrics.sent_by_type[lb::kProbe], 0u);
  EXPECT_EQ(metrics.sent_by_type[lb::kProbeAck], 0u);
}

TEST(OverlayLb, BridgeModeUsesBridges) {
  const auto params = uts_params(11);
  uts::UtsWorkload workload(params, uts::CostModel{});
  const auto metrics =
      lb::run_distributed(workload, base_config(lb::Strategy::kOverlayBTD, 25, 5, 3));
  ASSERT_TRUE(metrics.ok);
  EXPECT_GT(metrics.sent_by_type[lb::kReqBridge], 0u);
  // Bridge mode must confirm termination with at least two probe waves.
  EXPECT_GE(metrics.sent_by_type[lb::kProbe], 2u * 5u);
}

TEST(OverlayLb, FixedUnitPoliciesAlsoExact) {
  // steal-1 and steal-2 (the granularities analysed by Dinan et al. and
  // discussed in the paper's §I) still complete exactly — just slowly.
  const auto params = uts_params(18);
  const auto expected = uts::count_tree(params).nodes;
  for (std::uint64_t k : {1u, 2u}) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    auto config = base_config(lb::Strategy::kOverlayTD, 12, 3, 1);
    config.overlay.split = lb::SplitPolicy::kFixedUnits;
    config.overlay.split_fixed_units = k;
    config.min_split_amount = 1;
    const auto metrics = lb::run_distributed(workload, config);
    ASSERT_TRUE(metrics.ok) << "steal-" << k;
    EXPECT_EQ(metrics.total_units, expected) << "steal-" << k;
  }
}

TEST(OverlayLb, TinyGrainsCauseMoreTransfers) {
  const auto params = uts_params(19, 300, 0.47);
  auto transfers_with = [&](lb::SplitPolicy split, std::uint64_t k) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    auto config = base_config(lb::Strategy::kOverlayTD, 16, 4, 1);
    config.overlay.split = split;
    config.overlay.split_fixed_units = k;
    config.min_split_amount = 1;
    const auto metrics = lb::run_distributed(workload, config);
    EXPECT_TRUE(metrics.ok);
    return metrics.work_transfers;
  };
  EXPECT_GT(transfers_with(lb::SplitPolicy::kFixedUnits, 1),
            transfers_with(lb::SplitPolicy::kSubtreeProportional, 0));
}

TEST(OverlayLb, StealHalfPolicyAlsoExact) {
  const auto params = uts_params(12);
  const auto expected = uts::count_tree(params).nodes;
  uts::UtsWorkload workload(params, uts::CostModel{});
  auto config = base_config(lb::Strategy::kOverlayTD, 20, 10, 1);
  config.overlay.split = lb::SplitPolicy::kHalf;
  const auto metrics = lb::run_distributed(workload, config);
  ASSERT_TRUE(metrics.ok);
  EXPECT_EQ(metrics.total_units, expected);
}

TEST(OverlayLb, DeterministicGivenSeed) {
  const auto params = uts_params(13);
  auto run_once = [&] {
    uts::UtsWorkload workload(params, uts::CostModel{});
    return lb::run_distributed(workload,
                               base_config(lb::Strategy::kOverlayBTD, 20, 4, 42));
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_TRUE(a.ok);
  EXPECT_EQ(a.exec_seconds, b.exec_seconds);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.msgs_per_peer, b.msgs_per_peer);
}

TEST(OverlayLb, SeedsChangeSchedule) {
  const auto params = uts_params(14);
  auto run_with = [&](std::uint64_t seed) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    return lb::run_distributed(workload,
                               base_config(lb::Strategy::kOverlayBTD, 20, 4, seed));
  };
  EXPECT_NE(run_with(1).total_messages, run_with(2).total_messages);
}

TEST(OverlayLb, BoundDiffusionReducesExploredNodes) {
  // With diffusion disabled every peer prunes only with locally-found
  // bounds, so the cluster must explore at least as many B&B nodes.
  const auto inst = bb::FlowshopInstance::ta20x20_scaled(0, 10, 6);
  auto run_with = [&](bool diffuse) {
    bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
    auto config = base_config(lb::Strategy::kOverlayTD, 30, 5, 3);
    config.diffuse_bounds = diffuse;
    const auto metrics = lb::run_distributed(workload, config);
    EXPECT_TRUE(metrics.ok);
    EXPECT_EQ(workload.best().makespan(),
              bb::solve_sequential(inst, bb::BoundKind::kOneMachine).optimum);
    return metrics.total_units;
  };
  EXPECT_LE(run_with(true), run_with(false));
}

TEST(OverlayLb, UtsNodeCountInvariantAcrossTopologies) {
  // The counted total is a pure function of the UTS instance, whatever the
  // overlay shape or seed.
  const auto params = uts_params(15);
  const auto expected = uts::count_tree(params).nodes;
  for (int dmax : {1, 3, 8}) {
    for (std::uint64_t seed : {5u, 9u}) {
      uts::UtsWorkload workload(params, uts::CostModel{});
      const auto metrics = lb::run_distributed(
          workload, base_config(lb::Strategy::kOverlayBTD, 22, dmax, seed));
      ASSERT_TRUE(metrics.ok);
      EXPECT_EQ(metrics.total_units, expected);
    }
  }
}

TEST(OverlayLb, SplitFractionsStayWellFormedUnderCrashes) {
  // Regression for unclamped split fractions: after crash re-parenting the
  // subtree aggregates feeding fraction_for_parent/child/bridge can be
  // stale (e.g. my_size_ exceeding a not-yet-refreshed parent_size_, which
  // wrapped to a huge positive fraction in the old uint64 arithmetic).
  // Every out-of-range share must be clamped — traced as kSplitClamp with
  // a replacement in (0, 1] — and the run must still complete.
  for (auto strategy : {lb::Strategy::kOverlayTD, lb::Strategy::kOverlayBTD}) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      const auto params = uts_params(static_cast<std::uint32_t>(seed * 3 + 2));
      uts::UtsWorkload workload(params, uts::CostModel{});
      auto config = base_config(strategy, 16, 3, seed);
      config.faults = sim::make_random_crashes(2, 16, sim::microseconds(500),
                                               sim::milliseconds(4), seed);
      trace::VectorTracer tracer;
      config.tracer = &tracer;
      const auto metrics = lb::run_distributed(workload, config);
      ASSERT_TRUE(metrics.ok) << lb::strategy_name(strategy) << " seed=" << seed;
      for (const auto& e : tracer.events()) {
        if (e.kind != trace::EventKind::kSplitClamp) continue;
        EXPECT_TRUE(e.a <= 0 || e.a > 1'000'000)
            << "clamp fired on an in-range fraction (raw ppm " << e.a << ")";
        EXPECT_GT(e.b, 0) << "clamped share must be positive";
        EXPECT_LE(e.b, 1'000'000) << "clamped share must be <= 1";
      }
    }
  }
}

TEST(OverlayLb, LargerDegreeNoSlowerOnBalancedLoad) {
  // Table I's qualitative claim at moderate scale: dmax=10 beats dmax=2.
  const auto params = uts_params(16, 400, 0.493);
  auto time_with = [&](int dmax) {
    uts::UtsWorkload workload(params, uts::CostModel{});
    const auto metrics = lb::run_distributed(
        workload, base_config(lb::Strategy::kOverlayTD, 64, dmax, 1));
    EXPECT_TRUE(metrics.ok);
    return metrics.exec_seconds;
  };
  EXPECT_LT(time_with(10), time_with(2));
}

// ------------------------------------------------------- idle retry timer ---

bool is_retry_fire(const trace::TraceEvent& e) {
  return e.kind == trace::EventKind::kTimerFire &&
         (e.a & lb::kTimerTagMask) == lb::kOverlayRetryTimer;
}

bool is_request(const trace::TraceEvent& e, int type) {
  return e.kind == trace::EventKind::kRequest && e.type == type;
}

TEST(OverlayIdleTimer, BTDRetryTimerFiresOnlyToAct) {
  // A BTD peer with every child pending and its bridge request parked has
  // nothing to do until that request falls due, so its retry timer sleeps
  // until then instead of ticking every retry_delay. Each firing therefore
  // re-samples a bridge, polls a child, or belongs to an idle episode that
  // ended before it fired (plus the odd superseded timer).
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const int n = 64;
    auto config = base_config(lb::Strategy::kOverlayBTD, n, 3, seed);
    trace::VectorTracer tracer;
    config.tracer = &tracer;
    test_util::check_uts_run(
        config, uts_params(static_cast<std::uint32_t>(seed + 40), 400, 0.49));
    std::uint64_t fires = 0, bridges = 0, downs = 0, episodes = 0;
    for (const auto& e : tracer.events()) {
      fires += is_retry_fire(e) ? 1 : 0;
      bridges += is_request(e, lb::kReqBridge) ? 1 : 0;
      downs += is_request(e, lb::kReqDown) ? 1 : 0;
      episodes += e.kind == trace::EventKind::kIdleBegin ? 1 : 0;
    }
    EXPECT_GE(fires, 1u) << "seed " << seed;
    EXPECT_LE(fires, bridges + downs + episodes + 16) << "seed " << seed;
  }
}

TEST(OverlayIdleTimer, CrashedBridgeTargetIsResampledWithinRetryDelay) {
  // A sleeping retry timer waits for the parked bridge request to fall due.
  // When the failure detector reports that request's target crashed, the
  // peer re-arms the timer for retry_delay, superseding the later one, and
  // re-samples at that tick instead of waiting out bridge_patience. So an
  // idle peer whose bridge is parked at the victim must re-sample (or get
  // work some other way) within retry_delay of the report. Patience is set
  // far above retry_delay so the two outcomes are apart.
  const sim::Time retry = sim::microseconds(100);
  const sim::NetworkConfig net = lb::paper_network(16);
  // An idle peer may be awaiting a child's answer when the report lands; it
  // re-arms once that downward round trip is over.
  const sim::Time round_trip =
      2 * (net.intra_latency + net.latency_jitter + net.msg_handling_cost);
  const sim::Time crash_at = sim::microseconds(1500);
  const sim::Time detection = sim::microseconds(200);
  const sim::Time heard = crash_at + detection;
  int resampled = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (int victim : {5, 9, 13}) {
      auto config = base_config(lb::Strategy::kOverlayBTD, 16, 3, seed);
      config.overlay.retry_delay = retry;
      config.overlay.bridge_patience = sim::milliseconds(2);
      config.faults.crashes.push_back({victim, crash_at});
      config.faults.detection_delay = detection;
      trace::VectorTracer tracer;
      config.tracer = &tracer;
      test_util::check_uts_run(
          config, uts_params(static_cast<std::uint32_t>(seed + 60), 400, 0.49));
      for (int p = 0; p < 16; ++p) {
        if (p == victim) continue;
        int target = -1;    // the last bridge target before the report
        bool idle = false;  // idle when the report landed
        const trace::TraceEvent* first = nullptr;  // re-sample or work after it
        for (const auto& e : tracer.events()) {
          if (e.actor != p) continue;
          const bool bridge = is_request(e, lb::kReqBridge);
          const bool work = e.kind == trace::EventKind::kIdleEnd;
          if (e.time < heard) {
            if (bridge) target = e.peer;
            if (e.kind == trace::EventKind::kIdleBegin) idle = true;
            if (work) idle = false;
          } else if (bridge || work) {
            first = &e;
            break;
          }
        }
        if (target != victim || !idle) continue;
        ASSERT_NE(first, nullptr) << "seed " << seed << " peer " << p;
        EXPECT_LE(first->time, heard + retry + round_trip)
            << "seed " << seed << " victim " << victim << " peer " << p
            << " still parked at the crashed peer";
        if (first->kind == trace::EventKind::kRequest) ++resampled;
      }
    }
  }
  EXPECT_GE(resampled, 1) << "no idle peer had its bridge parked at a victim";
}

// ------------------------------------------------------ regression anchors ---

TEST(OverlayRegression, StaleUpwardReportsDoNotWedgeBTDTermination) {
  // Latency jitter can swap two upward requests a peer sends at the same
  // simulated instant. These BTD schedules (instance index, peers, seed)
  // once let the older report overwrite the newer (sent, recv) aggregates
  // at the parent; the root's counters then never balanced, no termination
  // wave launched, and the run spun on bridge retries until the watchdog.
  const std::tuple<int, int, std::uint64_t> cases[] = {
      {2, 128, 5}, {0, 128, 48}, {3, 128, 37}, {2, 400, 20}};
  for (const auto& [index, n, seed] : cases) {
    const auto inst = bb::FlowshopInstance::ta20x20_scaled(index, 10, 6);
    const auto reference = bb::solve_sequential(inst, bb::BoundKind::kOneMachine);
    bb::BBWorkload workload(inst, bb::BoundKind::kOneMachine, bb::CostModel{});
    const auto metrics = lb::run_distributed(
        workload, base_config(lb::Strategy::kOverlayBTD, n, 10, seed, 2'000'000));
    ASSERT_TRUE(metrics.ok) << "instance " << index << " n=" << n << " seed=" << seed;
    EXPECT_EQ(metrics.best_bound, reference.optimum);
  }
}

}  // namespace
}  // namespace olb
