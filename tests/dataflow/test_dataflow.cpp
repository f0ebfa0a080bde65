#include "dds/dataflow/dataflow.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dds/common/error.hpp"

namespace dds {
namespace {

std::vector<Alternate> oneAlt(const std::string& name) {
  return {{name, 1.0, 0.1, 1.0}};
}

TEST(DataflowBuilder, BuildsLinearPipeline) {
  DataflowBuilder b("pipe");
  const PeId a = b.addPe("a", oneAlt("a0"));
  const PeId c = b.addPe("b", oneAlt("b0"));
  b.addEdge(a, c);
  const Dataflow df = std::move(b).build();
  EXPECT_EQ(df.name(), "pipe");
  EXPECT_EQ(df.peCount(), 2u);
  EXPECT_EQ(df.edgeCount(), 1u);
  ASSERT_EQ(df.inputs().size(), 1u);
  ASSERT_EQ(df.outputs().size(), 1u);
  EXPECT_EQ(df.inputs()[0], a);
  EXPECT_EQ(df.outputs()[0], c);
  EXPECT_TRUE(df.isInput(a));
  EXPECT_FALSE(df.isInput(c));
  EXPECT_TRUE(df.isOutput(c));
}

TEST(DataflowBuilder, AdjacencyIsConsistent) {
  DataflowBuilder b("fan");
  const PeId src = b.addPe("src", oneAlt("s"));
  const PeId l = b.addPe("l", oneAlt("l"));
  const PeId r = b.addPe("r", oneAlt("r"));
  b.addEdge(src, l);
  b.addEdge(src, r);
  const Dataflow df = std::move(b).build();
  EXPECT_EQ(df.successors(src).size(), 2u);
  EXPECT_EQ(df.predecessors(l).size(), 1u);
  EXPECT_EQ(df.predecessors(l)[0], src);
  EXPECT_EQ(df.predecessors(r)[0], src);
}

TEST(DataflowBuilder, RejectsEmptyGraph) {
  DataflowBuilder b("empty");
  EXPECT_THROW((void)std::move(b).build(), PreconditionError);
}

TEST(DataflowBuilder, RejectsSelfLoop) {
  DataflowBuilder b("loop");
  const PeId a = b.addPe("a", oneAlt("a"));
  EXPECT_THROW(b.addEdge(a, a), PreconditionError);
}

TEST(DataflowBuilder, RejectsDuplicateEdge) {
  DataflowBuilder b("dup");
  const PeId a = b.addPe("a", oneAlt("a"));
  const PeId c = b.addPe("b", oneAlt("b"));
  b.addEdge(a, c);
  EXPECT_THROW(b.addEdge(a, c), PreconditionError);
}

TEST(DataflowBuilder, RejectsUnknownEndpoints) {
  DataflowBuilder b("bad");
  const PeId a = b.addPe("a", oneAlt("a"));
  EXPECT_THROW(b.addEdge(a, PeId(9)), PreconditionError);
  EXPECT_THROW(b.addEdge(PeId(9), a), PreconditionError);
}

TEST(DataflowBuilder, RejectsCycle) {
  DataflowBuilder b("cycle");
  const PeId a = b.addPe("a", oneAlt("a"));
  const PeId c = b.addPe("b", oneAlt("b"));
  const PeId d = b.addPe("c", oneAlt("c"));
  b.addEdge(a, c);
  b.addEdge(c, d);
  b.addEdge(d, a);
  EXPECT_THROW((void)std::move(b).build(), PreconditionError);
}

TEST(DataflowBuilder, RejectsPeWithoutAlternates) {
  DataflowBuilder b("noalt");
  EXPECT_THROW(b.addPe("a", {}), PreconditionError);
}

TEST(DataflowBuilder, RejectsUnnamedDataflow) {
  EXPECT_THROW(DataflowBuilder(""), PreconditionError);
}

TEST(DataflowBuilder, DisconnectedComponentIsItsOwnSourceSoItBuilds) {
  // Two independent pipelines: both sources are input PEs, so every PE is
  // reachable from the input set and the build succeeds.
  DataflowBuilder b("two-islands");
  const PeId a = b.addPe("a", oneAlt("a"));
  const PeId c = b.addPe("b", oneAlt("b"));
  const PeId d = b.addPe("c", oneAlt("c"));
  const PeId e = b.addPe("d", oneAlt("d"));
  b.addEdge(a, c);
  b.addEdge(d, e);
  const Dataflow df = std::move(b).build();
  EXPECT_EQ(df.inputs().size(), 2u);
  EXPECT_EQ(df.outputs().size(), 2u);
}

TEST(Dataflow, TopologicalOrderRespectsEdges) {
  DataflowBuilder b("diamond");
  const PeId s = b.addPe("s", oneAlt("s"));
  const PeId l = b.addPe("l", oneAlt("l"));
  const PeId r = b.addPe("r", oneAlt("r"));
  const PeId t = b.addPe("t", oneAlt("t"));
  b.addEdge(s, l);
  b.addEdge(s, r);
  b.addEdge(l, t);
  b.addEdge(r, t);
  const Dataflow df = std::move(b).build();
  const auto& order = df.topologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&order](PeId id) {
    return std::distance(order.begin(),
                         std::find(order.begin(), order.end(), id));
  };
  EXPECT_LT(pos(s), pos(l));
  EXPECT_LT(pos(s), pos(r));
  EXPECT_LT(pos(l), pos(t));
  EXPECT_LT(pos(r), pos(t));
}

TEST(Dataflow, ForwardBfsStartsAtInputs) {
  DataflowBuilder b("bfs");
  const PeId s = b.addPe("s", oneAlt("s"));
  const PeId m = b.addPe("m", oneAlt("m"));
  const PeId t = b.addPe("t", oneAlt("t"));
  b.addEdge(s, m);
  b.addEdge(m, t);
  const Dataflow df = std::move(b).build();
  const auto order = df.forwardBfsFromInputs();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], s);
  EXPECT_EQ(order[1], m);
  EXPECT_EQ(order[2], t);
}

TEST(Dataflow, TotalAlternateCountSums) {
  DataflowBuilder b("alts");
  b.addPe("a", {{"a1", 1.0, 0.1, 1.0}, {"a2", 0.5, 0.05, 1.0}});
  b.addPe("b", oneAlt("b1"));
  const Dataflow df = std::move(b).build();
  EXPECT_EQ(df.totalAlternateCount(), 3u);
}

TEST(Dataflow, PeAccessOutOfRangeThrows) {
  DataflowBuilder b("one");
  b.addPe("a", oneAlt("a"));
  const Dataflow df = std::move(b).build();
  EXPECT_THROW((void)df.pe(PeId(5)), PreconditionError);
  EXPECT_THROW((void)df.successors(PeId(5)), PreconditionError);
  EXPECT_THROW((void)df.predecessors(PeId(5)), PreconditionError);
}

}  // namespace
}  // namespace dds
