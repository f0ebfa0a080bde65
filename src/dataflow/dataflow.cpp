#include "dds/dataflow/dataflow.hpp"

#include <algorithm>
#include <deque>

namespace dds {
namespace {

/// Kahn's algorithm; returns empty vector when the graph has a cycle.
std::vector<PeId> kahnTopologicalOrder(
    const std::vector<std::vector<PeId>>& successors,
    const std::vector<std::vector<PeId>>& predecessors) {
  const std::size_t n = successors.size();
  std::vector<std::size_t> in_degree(n);
  std::deque<PeId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    in_degree[i] = predecessors[i].size();
    if (in_degree[i] == 0) {
      ready.push_back(PeId(static_cast<PeId::value_type>(i)));
    }
  }
  std::vector<PeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const PeId u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (PeId v : successors[u.value()]) {
      if (--in_degree[v.value()] == 0) ready.push_back(v);
    }
  }
  if (order.size() != n) order.clear();  // cycle detected
  return order;
}

std::vector<PeId> bfsOrder(const std::vector<PeId>& roots,
                           const std::vector<std::vector<PeId>>& adjacency,
                           std::size_t pe_count) {
  std::vector<bool> seen(pe_count, false);
  std::deque<PeId> queue;
  std::vector<PeId> order;
  order.reserve(pe_count);
  for (PeId r : roots) {
    seen[r.value()] = true;
    queue.push_back(r);
  }
  while (!queue.empty()) {
    const PeId u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (PeId v : adjacency[u.value()]) {
      if (!seen[v.value()]) {
        seen[v.value()] = true;
        queue.push_back(v);
      }
    }
  }
  return order;
}

}  // namespace

std::vector<PeId> Dataflow::forwardBfsFromInputs() const {
  return bfsOrder(inputs_, successors_, pes_.size());
}

std::size_t Dataflow::totalAlternateCount() const {
  std::size_t n = 0;
  for (const auto& pe : pes_) n += pe.alternateCount();
  return n;
}

DataflowBuilder::DataflowBuilder(std::string name) {
  DDS_REQUIRE(!name.empty(), "dataflow needs a name");
  df_.name_ = std::move(name);
}

PeId DataflowBuilder::addPe(const std::string& name,
                            std::vector<Alternate> alternates) {
  const PeId id(static_cast<PeId::value_type>(df_.pes_.size()));
  df_.pes_.emplace_back(id, name, std::move(alternates));
  df_.successors_.emplace_back();
  df_.predecessors_.emplace_back();
  return id;
}

void DataflowBuilder::addEdge(PeId from, PeId to) {
  DDS_REQUIRE(from.value() < df_.pes_.size(), "edge source does not exist");
  DDS_REQUIRE(to.value() < df_.pes_.size(), "edge sink does not exist");
  DDS_REQUIRE(from != to, "self-loops are not allowed");
  auto& succ = df_.successors_[from.value()];
  DDS_REQUIRE(std::find(succ.begin(), succ.end(), to) == succ.end(),
              "duplicate edge");
  succ.push_back(to);
  df_.predecessors_[to.value()].push_back(from);
  ++df_.edge_count_;
}

Dataflow DataflowBuilder::build() && {
  DDS_REQUIRE(!df_.pes_.empty(), "dataflow has no processing elements");

  df_.topo_order_ = kahnTopologicalOrder(df_.successors_, df_.predecessors_);
  DDS_REQUIRE(!df_.topo_order_.empty(), "dataflow contains a cycle");

  for (std::size_t i = 0; i < df_.pes_.size(); ++i) {
    const PeId id(static_cast<PeId::value_type>(i));
    if (df_.predecessors_[i].empty()) df_.inputs_.push_back(id);
    if (df_.successors_[i].empty()) df_.outputs_.push_back(id);
  }
  // A non-empty DAG always has at least one source and one sink, so the
  // Def. 1 requirements I != {} and O != {} hold by construction here.

  const auto reachable = df_.forwardBfsFromInputs();
  DDS_REQUIRE(reachable.size() == df_.pes_.size(),
              "every PE must be reachable from an input PE");

  return std::move(df_);
}

}  // namespace dds
