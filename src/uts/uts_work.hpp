// UTS adapter for the generic lb::Work interface.
//
// Pending (generated but unexplored) tree nodes live in a deque: DFS
// processing pops from the back, stealing splits off the *front* — the
// oldest, shallowest entries, which statistically root the largest subtrees
// (the classic work-stealing convention). amount() is the deque length.
//
// The deque is owned through a pointer that is null whenever no node is
// pending: a drained work object (most peers of a large run, most of the
// time) holds no node storage, and merging into it adopts the incoming
// deque whole. A std::deque stays the container because its block-wise
// growth tracks the DFS stack's peak; a vector's doubled capacity would
// outlive it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "lb/work.hpp"
#include "simnet/time.hpp"
#include "uts/uts.hpp"

namespace olb::uts {

/// Simulated cost model for processing UTS nodes.
struct CostModel {
  sim::Time per_node = sim::microseconds(1);   ///< per node visited
  sim::Time per_child = sim::microseconds(1);  ///< per child state generated
};

class UtsWork final : public lb::Work {
 public:
  UtsWork(Params params, CostModel costs) : params_(params), costs_(costs) {}

  /// The whole tree as one pending node (the root).
  static std::unique_ptr<UtsWork> whole_tree(const Params& params,
                                             const CostModel& costs);

  double amount() const override { return static_cast<double>(pending_count()); }
  bool empty() const override { return pending_ == nullptr; }
  std::unique_ptr<lb::Work> split(double fraction) override;
  void merge(std::unique_ptr<lb::Work> other) override;
  lb::StepResult step(std::uint64_t max_units) override;

  std::uint64_t nodes_counted() const { return nodes_counted_; }
  /// True while a node deque is allocated — exactly while nodes are pending.
  bool holds_node_storage() const { return pending_ != nullptr; }

  // --- wire-serialisation access (runtime work codec) ---

  std::size_t pending_count() const {
    return pending_ != nullptr ? pending_->size() : 0;
  }
  /// Visits pending nodes front-to-back as fn(const NodeState&, int depth).
  template <typename Fn>
  void visit_pending(Fn&& fn) const {
    if (pending_ == nullptr) return;
    for (const Pending& p : *pending_) fn(p.state, p.depth);
  }
  /// Appends one pending node at the back (decode rebuilds in visit order).
  void push_pending(const NodeState& state, int depth) {
    nodes().push_back(Pending{state, depth});
  }
  void add_nodes_counted(std::uint64_t n) { nodes_counted_ += n; }

 private:
  struct Pending {
    NodeState state;
    int depth = 0;
  };
  using Nodes = std::deque<Pending>;

  /// The pending deque, allocated on first use.
  Nodes& nodes() {
    if (pending_ == nullptr) pending_ = std::make_unique<Nodes>();
    return *pending_;
  }

  Params params_;
  CostModel costs_;
  /// Null iff no node is pending (the drained state holds no storage).
  std::unique_ptr<Nodes> pending_;
  std::uint64_t nodes_counted_ = 0;
};

/// Workload wrapper used by experiment drivers.
class UtsWorkload final : public lb::Workload {
 public:
  UtsWorkload(Params params, CostModel costs) : params_(params), costs_(costs) {}

  std::unique_ptr<lb::Work> make_root_work() override {
    return UtsWork::whole_tree(params_, costs_);
  }
  const char* name() const override { return "UTS"; }

  const Params& params() const { return params_; }
  const CostModel& costs() const { return costs_; }

 private:
  Params params_;
  CostModel costs_;
};

}  // namespace olb::uts
