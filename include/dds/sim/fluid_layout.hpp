// Immutable structure-of-arrays image of a dataflow for the fluid
// simulator's interval kernel.
//
// Everything here is a pure function of the Dataflow: topological order,
// the in-edge CSR in the exact order Dataflow::predecessors lists them,
// the active-alternate coefficient tables (cost, selectivity, relative
// value) flattened per PE, and the output list. Because it never
// changes, `Substrate` shares one instance across every campaign job that
// runs the same graph — per-job mutable state (backlogs, coefficient
// caches, the ledger image) stays in the simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dds/dataflow/dataflow.hpp"

namespace dds {

struct FluidGraphLayout {
  std::uint32_t pe_count = 0;
  std::vector<std::uint32_t> topo;     ///< pe ids in topological order.
  std::vector<std::uint8_t> is_input;  ///< by pe id.
  /// In-edges of the PE at topo position p: global edge indices
  /// edge_offset[p] .. edge_offset[p+1], upstream pe id in edge_u. Edge
  /// order equals Dataflow::predecessors order, which fixes the canonical
  /// arrival-sum sequence.
  std::vector<std::uint32_t> edge_offset;
  std::vector<std::uint32_t> edge_u;
  /// Alternate tables, CSR by pe id: slot alt_offset[pe] + alternate id.
  std::vector<std::uint32_t> alt_offset;
  std::vector<double> alt_cost_core_sec;
  std::vector<double> alt_selectivity;
  std::vector<double> alt_relative_value;
  std::vector<std::uint32_t> outputs;  ///< pe ids, df.outputs() order.

  [[nodiscard]] std::size_t edgeCount() const { return edge_u.size(); }
};

/// Build the flat layout for `df`. Pure: same graph, same layout.
[[nodiscard]] std::shared_ptr<const FluidGraphLayout> buildFluidLayout(
    const Dataflow& df);

}  // namespace dds
