#include "uts/uts_work.hpp"

#include <cmath>

#include "support/check.hpp"

namespace olb::uts {

std::unique_ptr<UtsWork> UtsWork::whole_tree(const Params& params,
                                             const CostModel& costs) {
  auto work = std::make_unique<UtsWork>(params, costs);
  work->push_pending(root_state(params), 0);
  return work;
}

std::unique_ptr<lb::Work> UtsWork::split(double fraction) {
  OLB_CHECK(fraction > 0.0 && fraction < 1.0);
  const std::size_t size = pending_count();
  if (size < 2) return nullptr;  // a single node is indivisible
  auto take = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(size)));
  if (take == 0) take = 1;
  if (take >= size) take = size - 1;

  // take < size: the donor keeps at least one node, so never drains here.
  auto out = std::make_unique<UtsWork>(params_, costs_);
  Nodes& mine = *pending_;
  Nodes& theirs = out->nodes();
  for (std::size_t i = 0; i < take; ++i) {
    theirs.push_back(std::move(mine.front()));
    mine.pop_front();
  }
  return out;
}

void UtsWork::merge(std::unique_ptr<lb::Work> other) {
  auto* uts = dynamic_cast<UtsWork*>(other.get());
  OLB_CHECK_MSG(uts != nullptr, "cannot merge foreign work into UtsWork");
  if (pending_ == nullptr) {
    pending_ = std::move(uts->pending_);  // adopt: order is kept as is
  } else if (uts->pending_ != nullptr) {
    for (Pending& p : *uts->pending_) pending_->push_back(std::move(p));
    uts->pending_.reset();
  }
  nodes_counted_ += uts->nodes_counted_;
  uts->nodes_counted_ = 0;
}

lb::StepResult UtsWork::step(std::uint64_t max_units) {
  lb::StepResult result;
  if (pending_ == nullptr) return result;
  Nodes& pending = *pending_;
  while (result.units_done < max_units && !pending.empty()) {
    const Pending item = pending.back();
    pending.pop_back();
    ++result.units_done;
    ++nodes_counted_;
    result.sim_cost += costs_.per_node;
    const int kids = num_children(params_, item.state, item.depth);
    for (int i = 0; i < kids; ++i) {
      pending.push_back({child_state(params_, item.state, static_cast<std::uint32_t>(i)),
                         item.depth + 1});
      result.sim_cost += costs_.per_child;
    }
  }
  if (pending.empty()) pending_.reset();  // drained: release the node storage
  return result;
}

}  // namespace olb::uts
