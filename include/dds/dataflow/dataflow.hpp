// The dynamic dataflow DAG (paper §3, Defs. 1-2).
//
// A Dataflow is an immutable directed acyclic graph of processing elements.
// Edges use and-split semantics on output ports (each successor receives a
// copy of every output message) and multi-merge on input ports (messages
// from all predecessors interleave) — the paper's simplifying assumption.
// Input PEs are exactly those with no predecessors; output PEs those with
// no successors.
//
// Construct via DataflowBuilder, which validates the graph on build().
#pragma once

#include <string>
#include <vector>

#include "dds/common/ids.hpp"
#include "dds/dataflow/processing_element.hpp"

namespace dds {

class DataflowBuilder;

/// An immutable, validated dynamic dataflow graph.
class Dataflow {
 public:
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t peCount() const { return pes_.size(); }

  [[nodiscard]] const ProcessingElement& pe(PeId id) const {
    DDS_REQUIRE(id.value() < pes_.size(), "PE id out of range");
    return pes_[id.value()];
  }

  [[nodiscard]] const std::vector<ProcessingElement>& pes() const {
    return pes_;
  }

  [[nodiscard]] const std::vector<PeId>& successors(PeId id) const {
    DDS_REQUIRE(id.value() < pes_.size(), "PE id out of range");
    return successors_[id.value()];
  }

  [[nodiscard]] const std::vector<PeId>& predecessors(PeId id) const {
    DDS_REQUIRE(id.value() < pes_.size(), "PE id out of range");
    return predecessors_[id.value()];
  }

  /// Input PEs (no predecessors); never empty.
  [[nodiscard]] const std::vector<PeId>& inputs() const { return inputs_; }

  /// Output PEs (no successors); never empty.
  [[nodiscard]] const std::vector<PeId>& outputs() const { return outputs_; }

  [[nodiscard]] bool isInput(PeId id) const {
    return predecessors(id).empty();
  }
  [[nodiscard]] bool isOutput(PeId id) const { return successors(id).empty(); }

  /// Total number of directed edges.
  [[nodiscard]] std::size_t edgeCount() const { return edge_count_; }

  /// PEs in a topological order (inputs first). Stable across calls.
  [[nodiscard]] const std::vector<PeId>& topologicalOrder() const {
    return topo_order_;
  }

  /// PEs in forward BFS order from the input PEs (paper's GetNextPE seed).
  [[nodiscard]] std::vector<PeId> forwardBfsFromInputs() const;

  /// Total number of alternates across all PEs.
  [[nodiscard]] std::size_t totalAlternateCount() const;

 private:
  friend class DataflowBuilder;
  Dataflow() = default;

  std::string name_;
  std::vector<ProcessingElement> pes_;
  std::vector<std::vector<PeId>> successors_;
  std::vector<std::vector<PeId>> predecessors_;
  std::vector<PeId> inputs_;
  std::vector<PeId> outputs_;
  std::vector<PeId> topo_order_;
  std::size_t edge_count_ = 0;
};

/// Incrementally assembles and validates a Dataflow.
///
///   DataflowBuilder b("example");
///   PeId src = b.addPe("source", {{"ingest", 1.0, 0.1, 1.0}});
///   PeId snk = b.addPe("sink", {{"emit", 1.0, 0.05, 1.0}});
///   b.addEdge(src, snk);
///   Dataflow df = std::move(b).build();
class DataflowBuilder {
 public:
  explicit DataflowBuilder(std::string name);

  /// Add a PE with its alternates; returns its id (dense, in add order).
  PeId addPe(const std::string& name, std::vector<Alternate> alternates);

  /// Add a directed edge. Both endpoints must already exist; self-loops and
  /// duplicate edges are rejected immediately.
  void addEdge(PeId from, PeId to);

  /// Validate and produce the immutable graph. Throws PreconditionError on:
  /// empty graph, cycles, or PEs unreachable from the input set.
  [[nodiscard]] Dataflow build() &&;

 private:
  Dataflow df_;
};

}  // namespace dds
