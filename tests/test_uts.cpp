// Tests for the UTS generator and its lb::Work adapter.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <memory>
#include <vector>

#include "lb/work.hpp"
#include "uts/uts.hpp"
#include "uts/uts_work.hpp"

namespace olb::uts {
namespace {

/// count_tree of bin_params(kFast, 19, 200, 0.49), pinned.
constexpr std::uint64_t kPinnedPingPongNodes = 6807;

Params bin_params(HashMode hash, std::uint32_t seed = 19, int b0 = 50,
                  double q = 0.47) {
  Params p;
  p.shape = TreeShape::kBinomial;
  p.hash = hash;
  p.b0 = b0;
  p.q = q;
  p.m = 2;
  p.root_seed = seed;
  return p;
}

TEST(Uts, RootHasB0Children) {
  const auto p = bin_params(HashMode::kFast);
  EXPECT_EQ(num_children(p, root_state(p), 0), 50);
}

TEST(Uts, ChildStatesAreDeterministicAndDistinct) {
  const auto p = bin_params(HashMode::kSha1);
  const auto root = root_state(p);
  const auto c0 = child_state(p, root, 0);
  const auto c0_again = child_state(p, root, 0);
  const auto c1 = child_state(p, root, 1);
  EXPECT_EQ(c0.bytes, c0_again.bytes);
  EXPECT_NE(c0.bytes, c1.bytes);
  EXPECT_NE(c0.bytes, root.bytes);
}

TEST(Uts, Sha1AndFastTreesDifferButBothCountExactly) {
  auto p_sha = bin_params(HashMode::kSha1);
  auto p_fast = bin_params(HashMode::kFast);
  const auto s1 = count_tree(p_sha);
  const auto s2 = count_tree(p_fast);
  EXPECT_GT(s1.nodes, 50u);
  EXPECT_GT(s2.nodes, 50u);
  // Same distribution family, different streams.
  EXPECT_NE(s1.nodes, s2.nodes);
}

TEST(Uts, CountIsSeedDeterministic) {
  const auto p = bin_params(HashMode::kFast);
  EXPECT_EQ(count_tree(p).nodes, count_tree(p).nodes);
  auto p2 = p;
  p2.root_seed = 20;
  EXPECT_NE(count_tree(p).nodes, count_tree(p2).nodes);
}

TEST(Uts, NodesEqualLeavesPlusInternals) {
  // In a BIN tree every non-root node has 0 or m children; with m=2:
  // nodes = 1 (root) + b0 + 2 * (#internal non-root nodes).
  const auto p = bin_params(HashMode::kFast);
  const auto s = count_tree(p);
  const std::uint64_t internal_nonroot = s.nodes - 1 - s.leaves;
  EXPECT_EQ(s.nodes, 1 + static_cast<std::uint64_t>(p.b0) + 2 * internal_nonroot);
}

TEST(Uts, GeometricShapeRespectsDepthCutoff) {
  Params p;
  p.shape = TreeShape::kGeometric;
  p.hash = HashMode::kFast;
  p.b0 = 4;
  p.gen_mx = 5;
  p.root_seed = 3;
  const auto s = count_tree(p);
  EXPECT_LE(s.max_depth, 5);
  EXPECT_GT(s.nodes, 1u);
}

TEST(Uts, ExpectedSizeFormula) {
  Params p = bin_params(HashMode::kFast, 1, 100, 0.25);  // m*q = 0.5
  EXPECT_DOUBLE_EQ(p.expected_size(), 100.0 / 0.5 + 1.0);
  p.q = 0.5;  // critical
  EXPECT_TRUE(std::isinf(p.expected_size()));
}

TEST(Uts, Random31Is31Bits) {
  const auto p = bin_params(HashMode::kSha1);
  auto state = root_state(p);
  for (std::uint32_t i = 0; i < 200; ++i) {
    state = child_state(p, state, i % 3);
    EXPECT_LT(state.random31(), 1u << 31);
  }
}

// ------------------------------------------------------------ work adapter ---

TEST(UtsWork, ProcessingWholeTreeMatchesSequentialCount) {
  const auto p = bin_params(HashMode::kFast);
  const auto expected = count_tree(p).nodes;
  auto work = UtsWork::whole_tree(p, CostModel{});
  std::uint64_t total = 0;
  while (!work->empty()) total += work->step(1000).units_done;
  EXPECT_EQ(total, expected);
  EXPECT_EQ(work->nodes_counted(), expected);
}

TEST(UtsWork, SplitConservesNodes) {
  const auto p = bin_params(HashMode::kFast);
  const auto expected = count_tree(p).nodes;
  auto work = UtsWork::whole_tree(p, CostModel{});
  std::uint64_t total = work->step(40).units_done;  // grow the deque
  auto half = work->split(0.5);
  ASSERT_NE(half, nullptr);
  while (!work->empty()) total += work->step(1000).units_done;
  while (!half->empty()) total += half->step(1000).units_done;
  EXPECT_EQ(total, expected);
}

TEST(UtsWork, SplitFractionsApproximateAmounts) {
  const auto p = bin_params(HashMode::kFast, 5, 400, 0.4);
  auto work = UtsWork::whole_tree(p, CostModel{});
  (void)work->step(1);  // expand root: deque = 400
  ASSERT_EQ(work->amount(), 400.0);
  auto quarter = work->split(0.25);
  ASSERT_NE(quarter, nullptr);
  EXPECT_EQ(quarter->amount(), 100.0);
  EXPECT_EQ(work->amount(), 300.0);
}

TEST(UtsWork, SingleNodeIsIndivisible) {
  const auto p = bin_params(HashMode::kFast);
  auto work = UtsWork::whole_tree(p, CostModel{});
  EXPECT_EQ(work->amount(), 1.0);
  EXPECT_EQ(work->split(0.5), nullptr);
}

TEST(UtsWork, MergeRejoinsStolenWork) {
  const auto p = bin_params(HashMode::kFast);
  const auto expected = count_tree(p).nodes;
  auto work = UtsWork::whole_tree(p, CostModel{});
  std::uint64_t total = work->step(30).units_done;
  auto piece = work->split(0.3);
  ASSERT_NE(piece, nullptr);
  work->merge(std::move(piece));
  while (!work->empty()) total += work->step(1 << 14).units_done;
  EXPECT_EQ(total, expected);
}

TEST(UtsWork, StepRespectsBudget) {
  const auto p = bin_params(HashMode::kFast, 7, 1000, 0.49);
  auto work = UtsWork::whole_tree(p, CostModel{});
  const auto r = work->step(17);
  EXPECT_LE(r.units_done, 17u);
}

TEST(UtsWork, CostModelCharged) {
  CostModel costs;
  costs.per_node = sim::microseconds(3);
  costs.per_child = sim::microseconds(2);
  const auto p = bin_params(HashMode::kFast, 9, 10, 0.0);  // root + 10 leaves
  auto work = UtsWork::whole_tree(p, costs);
  const auto r1 = work->step(1);  // root: 1 node + 10 children
  EXPECT_EQ(r1.sim_cost, sim::microseconds(3 + 2 * 10));
  const auto r2 = work->step(100);  // 10 leaves, no children
  EXPECT_EQ(r2.sim_cost, sim::microseconds(3 * 10));
  EXPECT_TRUE(work->empty());
}

TEST(UtsWork, StealsComeFromTheOldestEnd) {
  // After expanding the root of a 0-probability tree, the deque holds the
  // root's children in order; a split must take the front (oldest).
  const auto p = bin_params(HashMode::kFast, 11, 8, 0.0);
  auto work = UtsWork::whole_tree(p, CostModel{});
  (void)work->step(1);
  auto piece = work->split(0.25);  // 2 of 8
  ASSERT_NE(piece, nullptr);
  EXPECT_EQ(piece->amount(), 2.0);
  // Processing order of the remainder (LIFO from the back) must not contain
  // the two oldest; total still adds up.
  std::uint64_t rest = 0;
  while (!work->empty()) rest += work->step(100).units_done;
  EXPECT_EQ(rest, 6u);
}

/// Pending nodes front-to-back, as their first state word.
std::vector<std::uint32_t> front_to_back(const UtsWork& w) {
  std::vector<std::uint32_t> out;
  w.visit_pending([&](const NodeState& s, int) { out.push_back(s.random31()); });
  return out;
}

TEST(UtsWork, DrainedWorkHoldsNoNodeStorage) {
  const auto p = bin_params(HashMode::kFast);
  auto work = UtsWork::whole_tree(p, CostModel{});
  EXPECT_TRUE(work->holds_node_storage());
  while (!work->empty()) (void)work->step(1000);
  EXPECT_FALSE(work->holds_node_storage());
  EXPECT_EQ(work->pending_count(), 0u);
  EXPECT_EQ(work->amount(), 0.0);
  EXPECT_EQ(work->step(1000).units_done, 0u);
  EXPECT_EQ(work->split(0.5), nullptr);
  // Merging an empty piece keeps it drained.
  work->merge(std::make_unique<UtsWork>(p, CostModel{}));
  EXPECT_FALSE(work->holds_node_storage());
}

TEST(UtsWork, MergeIntoDrainedWorkKeepsFrontToBackOrder) {
  const auto p = bin_params(HashMode::kFast, 11, 8, 0.0);
  auto donor = UtsWork::whole_tree(p, CostModel{});
  (void)donor->step(1);  // the root's 8 children, in order
  auto piece = donor->split(0.5);
  ASSERT_NE(piece, nullptr);
  auto* uts_piece = static_cast<UtsWork*>(piece.get());
  const std::vector<std::uint32_t> piece_order = front_to_back(*uts_piece);
  const std::vector<std::uint32_t> donor_order = front_to_back(*donor);
  ASSERT_EQ(piece_order.size(), 4u);

  auto drained = UtsWork::whole_tree(bin_params(HashMode::kFast, 3, 2, 0.0),
                                     CostModel{});
  while (!drained->empty()) (void)drained->step(100);
  ASSERT_FALSE(drained->holds_node_storage());
  drained->merge(std::move(piece));
  EXPECT_EQ(front_to_back(*drained), piece_order);

  // Into a non-empty work the incoming nodes append behind the held ones.
  std::vector<std::uint32_t> both = donor_order;
  both.insert(both.end(), piece_order.begin(), piece_order.end());
  auto again = donor->split(0.5);
  ASSERT_NE(again, nullptr);
  const std::vector<std::uint32_t> again_order =
      front_to_back(static_cast<const UtsWork&>(*again));
  const std::vector<std::uint32_t> donor_rest = front_to_back(*donor);
  drained->merge(std::move(again));
  std::vector<std::uint32_t> expect = piece_order;
  expect.insert(expect.end(), again_order.begin(), again_order.end());
  EXPECT_EQ(front_to_back(*drained), expect);
  EXPECT_EQ(again_order.size() + donor_rest.size(), donor_order.size());
}

TEST(UtsWork, SplitMergePingPongCountsThePinnedTreeExactly) {
  // A fixed tree (pinned size) shuffled between three work objects by
  // splits and merges, with pieces drained and refilled along the way.
  const auto p = bin_params(HashMode::kFast, 19, 200, 0.49);
  const std::uint64_t expected = count_tree(p).nodes;
  ASSERT_EQ(expected, kPinnedPingPongNodes);
  std::vector<std::unique_ptr<lb::Work>> works;
  works.push_back(UtsWork::whole_tree(p, CostModel{}));
  works.push_back(std::make_unique<UtsWork>(p, CostModel{}));
  works.push_back(std::make_unique<UtsWork>(p, CostModel{}));
  Xoshiro256 rng(42);
  std::uint64_t total = 0;
  for (int round = 0; round < 100000; ++round) {
    bool any = false;
    for (auto& w : works) any = any || !w->empty();
    if (!any) break;
    const auto from = static_cast<std::size_t>(rng.below(3));
    const auto to = static_cast<std::size_t>(rng.below(3));
    total += works[from]->step(1 + rng.below(16)).units_done;
    if (from != to) {
      if (auto piece = works[from]->split(0.1 + 0.8 * rng.uniform01())) {
        works[to]->merge(std::move(piece));
      }
    }
  }
  for (auto& w : works) {
    while (!w->empty()) total += w->step(1000).units_done;
    EXPECT_FALSE(static_cast<const UtsWork&>(*w).holds_node_storage());
  }
  EXPECT_EQ(total, expected);
  std::uint64_t counted = 0;
  for (auto& w : works) counted += static_cast<const UtsWork&>(*w).nodes_counted();
  EXPECT_EQ(counted, expected);
}

}  // namespace
}  // namespace olb::uts
