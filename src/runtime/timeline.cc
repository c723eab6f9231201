#include "runtime/timeline.hh"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>


namespace hermes::runtime {

namespace {

/**
 * Tie-break priority between binding-constraint candidates: when two
 * predecessors finish at the same instant, walk the chain through the
 * compute side so exactly-shadowed transfers stay attributed to the
 * work that hides them.
 */
int
categoryPriority(CostCategory category)
{
    switch (category) {
      case CostCategory::Fc:
      case CostCategory::Attention:
        return 3;
      case CostCategory::Predictor:
      case CostCategory::Prefill:
        return 2;
      case CostCategory::Others:
        return 1;
      case CostCategory::Communication:
        return 0;
    }
    return 0;
}

} // namespace

Timeline::ResourceId
Timeline::addResource(std::string name)
{
    resources_.push_back(Resource{std::move(name), kNoNode, 0.0});
    return static_cast<ResourceId>(resources_.size() - 1);
}

const std::string &
Timeline::resourceName(ResourceId resource) const
{
    return resources_.at(resource).name;
}

Timeline::NodeId
Timeline::post(ResourceId resource, CostCategory category,
               Seconds duration, const std::vector<NodeId> &deps)
{
    if (resource >= resources_.size())
        throw std::runtime_error("Timeline::post: unknown resource " +
                                 std::to_string(resource));
    duration = std::max(duration, 0.0);

    Seconds start = 0.0;
    NodeId binding = kNoNode;
    auto consider = [&](NodeId candidate) {
        if (candidate == kNoNode)
            return;
        const Node &node = nodes_.at(candidate);
        if (node.end > start ||
            (binding != kNoNode && node.end == start &&
             categoryPriority(node.category) >
                 categoryPriority(nodes_[binding].category))) {
            start = std::max(start, node.end);
            binding = candidate;
        }
    };
    consider(resources_[resource].tail);
    for (const NodeId dep : deps)
        consider(dep);

    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(
        Node{resource, category, start, start + duration, binding});
    resources_[resource].tail = id;
    resources_[resource].busy += duration;
    makespan_ = std::max(makespan_, start + duration);
    return id;
}

Seconds
Timeline::startOf(NodeId node) const
{
    return nodes_.at(node).start;
}

Seconds
Timeline::endOf(NodeId node) const
{
    return nodes_.at(node).end;
}

CostCategory
Timeline::categoryOf(NodeId node) const
{
    return nodes_.at(node).category;
}

Seconds
Timeline::busy(ResourceId resource) const
{
    return resources_.at(resource).busy;
}

CategoryTimes
Timeline::criticalPath() const
{
    CategoryTimes times;
    if (nodes_.empty())
        return times;

    // Last-finishing node; ties prefer compute (same rationale as the
    // binding tie-break).
    NodeId current = 0;
    for (NodeId i = 1; i < nodes_.size(); ++i) {
        const Node &node = nodes_[i];
        const Node &best = nodes_[current];
        if (node.end > best.end ||
            (node.end == best.end &&
             categoryPriority(node.category) >
                 categoryPriority(best.category)))
            current = i;
    }

    while (current != kNoNode) {
        const Node &node = nodes_[current];
        times[node.category] += node.end - node.start;
        current = node.binding;
    }
    return times;
}

void
Timeline::clear()
{
    nodes_.clear();
    makespan_ = 0.0;
    for (Resource &resource : resources_) {
        resource.tail = kNoNode;
        resource.busy = 0.0;
    }
}

} // namespace hermes::runtime
