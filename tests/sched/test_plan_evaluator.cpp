#include "dds/sched/plan_evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "dds/common/rng.hpp"
#include "dds/dataflow/standard_graphs.hpp"
#include "dds/sched/feasibility_memo.hpp"
#include "dds/sched/static_planning.hpp"

namespace dds {
namespace {

/// Reference Theta of the evaluator's current state, recomputed from
/// scratch through the pre-evaluator code path.
double referenceTheta(const Dataflow& df, const ResourceCatalog& catalog,
                      const PlanEvaluator& eval,
                      const PlanEvaluatorOptions& options) {
  Deployment dep(df);
  return referencePlanTheta(df, catalog, eval.alternates(), eval.vmCounts(),
                            options.input_rate, options.omega_target,
                            options.sigma, options.horizon_hours, dep,
                            nullptr);
}

PlanEvaluatorOptions defaultOptions() {
  PlanEvaluatorOptions options;
  options.input_rate = 8.0;
  options.omega_target = 0.9;
  options.sigma = 0.01;
  options.horizon_hours = 2.0;
  return options;
}

/// Drive the evaluator through a random move sequence, checking after
/// every move that the incremental Theta is bit-identical to the full
/// recompute. Exercises alternate flips, VM nudges and undo pairs.
void randomWalkCheck(const Dataflow& df, std::uint64_t seed,
                     std::size_t moves) {
  const ResourceCatalog catalog = awsCatalog2013();
  const PlanEvaluatorOptions options = defaultOptions();
  PlanEvaluator eval(df, catalog, options);

  Rng rng(seed);
  const std::size_t n_pes = df.peCount();
  const std::size_t n_classes = catalog.size();
  std::vector<int> counts(n_classes, 0);
  counts[catalog.largest().value()] =
      static_cast<int>(n_pes);  // usually feasible, not always
  eval.reset(eval.alternates(), counts);

  for (std::size_t step = 0; step < moves; ++step) {
    if (rng.chance(0.5)) {
      const auto pe = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(n_pes) - 1));
      const auto n_alts =
          df.pe(PeId(static_cast<PeId::value_type>(pe))).alternateCount();
      const auto alt = static_cast<AlternateId::value_type>(
          rng.uniformInt(0, static_cast<std::int64_t>(n_alts) - 1));
      eval.setAlternate(pe, AlternateId(alt));
    } else {
      const auto cls = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(n_classes) - 1));
      const int delta = rng.chance(0.5) ? 1 : -1;
      eval.setVmCount(cls,
                      std::max(0, eval.vmCounts()[cls] + delta));
    }
    const double incremental = eval.theta();
    const double reference = referenceTheta(df, catalog, eval, options);
    // Bitwise equality, including the -inf infeasible sentinel.
    EXPECT_EQ(incremental, reference) << "step " << step;
  }
}

TEST(PlanEvaluator, IncrementalThetaMatchesReferenceOnPaperGraph) {
  randomWalkCheck(makePaperDataflow(), 11, 300);
}

TEST(PlanEvaluator, IncrementalThetaMatchesReferenceOnLayeredGraphs) {
  Rng graph_rng(99);
  randomWalkCheck(makeLayeredDataflow(4, 3, 3, graph_rng), 12, 250);
  randomWalkCheck(makeLayeredDataflow(6, 4, 3, graph_rng), 13, 250);
}

TEST(PlanEvaluator, BatchedSetAlternatesMatchesSequential) {
  Rng graph_rng(5);
  const Dataflow df = makeLayeredDataflow(5, 3, 3, graph_rng);
  const ResourceCatalog catalog = awsCatalog2013();
  const PlanEvaluatorOptions options = defaultOptions();
  PlanEvaluator batched(df, catalog, options);
  PlanEvaluator sequential(df, catalog, options);

  Rng rng(21);
  const std::size_t n_pes = df.peCount();
  std::vector<AlternateId> combo(n_pes, AlternateId(0));
  for (int round = 0; round < 50; ++round) {
    for (std::size_t pe = 0; pe < n_pes; ++pe) {
      const auto n_alts =
          df.pe(PeId(static_cast<PeId::value_type>(pe))).alternateCount();
      if (rng.chance(0.4)) {
        combo[pe] = AlternateId(static_cast<AlternateId::value_type>(
            rng.uniformInt(0, static_cast<std::int64_t>(n_alts) - 1)));
      }
      sequential.setAlternate(pe, combo[pe]);
    }
    batched.setAlternates(combo);
    ASSERT_EQ(batched.demand().size(), sequential.demand().size());
    for (std::size_t i = 0; i < n_pes; ++i) {
      EXPECT_EQ(batched.demand()[i], sequential.demand()[i])
          << "round " << round << " pe " << i;
    }
    EXPECT_EQ(batched.gamma(), sequential.gamma());
  }
}

TEST(PlanEvaluator, ResetReproducesIncrementalState) {
  Rng graph_rng(7);
  const Dataflow df = makeLayeredDataflow(4, 4, 3, graph_rng);
  const ResourceCatalog catalog = awsCatalog2013();
  const PlanEvaluatorOptions options = defaultOptions();
  PlanEvaluator walked(df, catalog, options);

  Rng rng(3);
  for (int step = 0; step < 120; ++step) {
    const auto pe = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(df.peCount()) - 1));
    const auto n_alts =
        df.pe(PeId(static_cast<PeId::value_type>(pe))).alternateCount();
    walked.setAlternate(
        pe, AlternateId(static_cast<AlternateId::value_type>(
                rng.uniformInt(0, static_cast<std::int64_t>(n_alts) - 1))));
  }
  PlanEvaluator fresh(df, catalog, options);
  fresh.reset(walked.alternates(), walked.vmCounts());
  for (std::size_t i = 0; i < df.peCount(); ++i) {
    EXPECT_EQ(fresh.demand()[i], walked.demand()[i]) << "pe " << i;
  }
  EXPECT_EQ(fresh.theta(), walked.theta());
}

TEST(PlanEvaluator, CoreCountPrescreenMatchesReference) {
  const Dataflow df = makePaperDataflow();
  const ResourceCatalog catalog = awsCatalog2013();
  const PlanEvaluatorOptions options = defaultOptions();
  PlanEvaluator eval(df, catalog, options);
  // One single-core VM for four PEs: rejected by the integer prescreen.
  std::vector<int> counts(catalog.size(), 0);
  counts[0] = 1;
  eval.reset(eval.alternates(), counts);
  const double theta = eval.theta();
  EXPECT_EQ(theta, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(theta, referenceTheta(df, catalog, eval, options));
}

TEST(PlanEvaluator, MemoHitsOnRevisit) {
  const Dataflow df = makePaperDataflow();
  const ResourceCatalog catalog = awsCatalog2013();
  PlanEvaluator eval(df, catalog, defaultOptions());
  std::vector<int> counts(catalog.size(), 0);
  counts[catalog.largest().value()] = 4;
  eval.reset(eval.alternates(), counts);
  (void)eval.theta();
  const auto lookups_before = eval.memoLookups();
  const auto hits_before = eval.memoHits();
  (void)eval.theta();  // identical state: must hit
  EXPECT_EQ(eval.memoLookups(), lookups_before + 1);
  EXPECT_EQ(eval.memoHits(), hits_before + 1);
}

/// packingFeasible (including its bulk fast path for power-of-two core
/// speeds) must agree with tryAssign on every input, especially demands
/// sitting exactly on core-count boundaries where the kEps stop test is
/// decided by the last ulp.
void packingAgreementCheck(const ResourceCatalog& catalog,
                           std::uint64_t seed) {
  static_planning::PackScratch scratch(catalog);
  Rng rng(seed);
  const std::size_t n_classes = catalog.size();
  for (int round = 0; round < 400; ++round) {
    std::vector<int> counts(n_classes);
    for (auto& c : counts) {
      c = static_cast<int>(rng.uniformInt(0, 6));
    }
    const auto n_pes = static_cast<std::size_t>(rng.uniformInt(1, 8));
    std::vector<double> demand(n_pes);
    for (auto& d : demand) {
      switch (rng.uniformInt(0, 3)) {
        case 0:
          d = rng.uniform(0.0, 30.0);
          break;
        case 1: {
          // Exactly on a multiple of some class speed.
          const auto cls = static_cast<std::size_t>(
              rng.uniformInt(0, static_cast<std::int64_t>(n_classes) - 1));
          d = static_cast<double>(rng.uniformInt(0, 12)) *
              catalog.at(ResourceClassId(
                             static_cast<ResourceClassId::value_type>(cls)))
                  .core_speed;
          break;
        }
        case 2:
          // A hair off a speed multiple, straddling the kEps band.
          d = static_cast<double>(rng.uniformInt(1, 12)) +
              (rng.chance(0.5) ? 1e-12 : -1e-12);
          break;
        default:
          d = 0.0;
          break;
      }
    }
    const bool verdict =
        static_planning::packingFeasible(catalog, counts, demand, scratch);
    const bool reference =
        static_planning::tryAssign(catalog, counts, demand).has_value();
    EXPECT_EQ(verdict, reference) << "round " << round;
  }
}

TEST(PackingFeasible, AgreesWithTryAssignOnPowerOfTwoSpeeds) {
  packingAgreementCheck(awsCatalog2013(), 31);
}

TEST(PackingFeasible, AgreesWithTryAssignOnNonPowerOfTwoSpeeds) {
  // m3 cores run at 3.25: the bulk closed form is not provably exact, so
  // packingFeasible falls back to the scalar loop — verdicts still agree.
  packingAgreementCheck(awsCatalogSecondGen2013(), 32);
  packingAgreementCheck(awsCatalogMixed2013(), 33);
}

TEST(FeasibilityMemo, ExactKeysNeverConfuseVerdicts) {
  FeasibilityMemo memo;
  memo.init(/*key_words=*/2, /*capacity=*/4);  // tiny: constant eviction
  ASSERT_TRUE(memo.enabled());
  ASSERT_GE(memo.capacity(), 4u);  // clamped up to the probe window

  // Insert far more keys than slots; remember what each key got.
  std::map<std::pair<std::uint64_t, std::uint64_t>, bool> truth;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t key[2] = {i, i * 977};
    const bool verdict = (i % 3) == 0;
    truth[{key[0], key[1]}] = verdict;
    memo.insert(key, verdict);
  }
  // Every surviving entry must return its own verdict; evicted keys must
  // miss (nullopt), never return a colliding slot's verdict.
  int survivors = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t key[2] = {i, i * 977};
    const auto cached = memo.lookup(key);
    if (cached.has_value()) {
      ++survivors;
      const bool expected = truth[std::make_pair(key[0], key[1])];
      EXPECT_EQ(*cached, expected) << "key " << i;
    }
  }
  EXPECT_GT(survivors, 0);
  EXPECT_LE(survivors, static_cast<int>(memo.capacity()));

  // Keys differing only in the second word are distinct entries.
  memo.init(memo.keyWords(), memo.capacity());
  const std::uint64_t a[2] = {7, 1};
  const std::uint64_t b[2] = {7, 2};
  memo.insert(a, true);
  memo.insert(b, false);
  EXPECT_EQ(memo.lookup(a), std::optional<bool>(true));
  EXPECT_EQ(memo.lookup(b), std::optional<bool>(false));
}

TEST(FeasibilityMemo, ZeroCapacityDisables) {
  FeasibilityMemo memo;
  memo.init(1, 0);
  EXPECT_FALSE(memo.enabled());
  const std::uint64_t key[1] = {42};
  memo.insert(key, true);
  EXPECT_FALSE(memo.lookup(key).has_value());
}

}  // namespace
}  // namespace dds
