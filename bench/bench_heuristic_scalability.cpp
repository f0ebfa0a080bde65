// Heuristic decision-latency micro-benchmark (google-benchmark).
//
// The paper argues (§7) that "fast heuristics are better suited than slow
// optimal solutions" for continuous adaptation, and scales its graph "to
// 10's of alternates and 100's of VMs". This bench measures the wall time
// of the two decision procedures — initial deployment (Alg. 1) and one
// runtime adaptation step (Alg. 2) — as the dataflow grows, plus the
// brute-force search on the small graph for contrast, and one fluid
// simulator step on the product's kernel and on the reference walk.
// Invoking the binary with --planner-latency-json=PATH skips the
// google-benchmark harness and instead times the annealing planner's
// deploy() (default 20k iterations, graph sizes up to 10 layers x 8
// width) and writes the results as JSON. BENCH_planner_latency.json at
// the repo root records the incremental-vs-full comparison from when the
// planner still had its full-evaluation path.
// --adaptation-json=PATH [--commit=SHA] instead runs whole elastic-cloud
// jobs through SimulationEngine (paper graph and 4x4/6x6/8x8 layered
// graphs, `global` and `global-predictive`, fixed seeds) and writes the
// runtime-adaptation cost per interval — run wall time minus the
// simulator's step time — next to each job's Theta. BENCH_adaptation.json
// at the repo root pairs this output at a parent and a change commit:
// the Thetas must agree bit for bit, the microseconds show the cut.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_header.hpp"
#include "dds/dds.hpp"
#include "dds/oracle/reference_fluid_simulator.hpp"

namespace {

using namespace dds;

struct Env {
  explicit Env(Dataflow graph)
      : df(std::move(graph)), cloud(awsCatalog2013()),
        replayer(TraceReplayer::ideal()), mon(cloud, replayer) {}
  Dataflow df;
  CloudProvider cloud;
  TraceReplayer replayer;
  MonitoringService mon;

  SchedulerEnv schedEnv() {
    SchedulerEnv e;
    e.dataflow = &df;
    e.cloud = &cloud;
    e.monitor = &mon;
    e.omega_target = 0.7;
    e.epsilon = 0.05;
    // The planners score with sigma 0.01 over one hour (the default T);
    // seed 1 is the annealer's stock seed.
    e.sigma = 0.01;
    e.seed = 1;
    return e;
  }
};

Dataflow graphOfSize(int layers, int width) {
  Rng rng(99);
  return makeLayeredDataflow(static_cast<std::size_t>(layers),
                             static_cast<std::size_t>(width), 3, rng);
}

void BM_InitialDeployment(benchmark::State& state) {
  const auto layers = static_cast<int>(state.range(0));
  const auto width = static_cast<int>(state.range(1));
  const Dataflow df = graphOfSize(layers, width);
  for (auto _ : state) {
    Env env{graphOfSize(layers, width)};
    HeuristicScheduler sched(env.schedEnv(), Strategy::Global);
    benchmark::DoNotOptimize(sched.deploy(10.0));
  }
  state.SetLabel(std::to_string(df.peCount()) + " PEs, " +
                 std::to_string(df.totalAlternateCount()) + " alternates");
}
BENCHMARK(BM_InitialDeployment)
    ->Args({3, 2})
    ->Args({4, 4})
    ->Args({6, 6})
    ->Args({8, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_AdaptationStep(benchmark::State& state) {
  const auto layers = static_cast<int>(state.range(0));
  const auto width = static_cast<int>(state.range(1));
  Env env{graphOfSize(layers, width)};
  HeuristicScheduler sched(env.schedEnv(), Strategy::Global);
  Deployment dep = sched.deploy(10.0);
  DataflowSimulator sim(env.df, env.cloud, env.mon, {});
  IntervalMetrics last = sim.step(0, 10.0, dep);
  ObservedState st;
  st.interval = 2;
  st.now = 120.0;
  st.input_rate = 14.0;  // mild surge to trigger real work
  st.average_omega = 0.6;
  st.last_interval = &last;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.adapt(st, dep));
  }
  state.SetLabel(std::to_string(env.df.peCount()) + " PEs");
}
BENCHMARK(BM_AdaptationStep)
    ->Args({3, 2})
    ->Args({4, 4})
    ->Args({6, 6})
    ->Args({8, 8})
    ->Unit(benchmark::kMicrosecond);

void BM_AnnealingDeploy(benchmark::State& state) {
  const auto layers = static_cast<int>(state.range(0));
  const auto width = static_cast<int>(state.range(1));
  const Dataflow df = graphOfSize(layers, width);
  for (auto _ : state) {
    Env env{graphOfSize(layers, width)};
    AnnealingOptions opts;
    opts.iterations = 2'000;  // fast smoke-sized search; the full 20k
                              // sweep runs under --planner-latency-json
    AnnealingScheduler sched(env.schedEnv(), opts);
    benchmark::DoNotOptimize(sched.deploy(10.0));
  }
  state.SetLabel(std::to_string(df.peCount()) + " PEs, " +
                 std::to_string(df.totalAlternateCount()) + " alternates");
}
BENCHMARK(BM_AnnealingDeploy)
    ->Args({4, 4})
    ->Args({6, 4})
    ->Args({8, 6})
    ->Args({10, 8})
    ->Unit(benchmark::kMillisecond);

void BM_BruteForceSmallGraph(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  for (auto _ : state) {
    Env env{makePaperDataflow()};
    BruteForceScheduler sched(env.schedEnv());
    benchmark::DoNotOptimize(sched.deploy(rate));
  }
}
BENCHMARK(BM_BruteForceSmallGraph)
    ->Arg(2)
    ->Arg(3)
    ->Arg(5)  // higher rates exceed the search-space cap (paper: "takes
              // prohibitively long"), so the sweep stops here
    ->Unit(benchmark::kMillisecond);

/// One fluid step on an ideal-infrastructure layered graph, on the
/// product's cached kernel or on the reference per-object walk.
template <class Simulator>
void BM_SimulatorStep(benchmark::State& state) {
  const auto layers = static_cast<int>(state.range(0));
  Env env{graphOfSize(layers, layers)};
  HeuristicScheduler sched(env.schedEnv(), Strategy::Global);
  Deployment dep = sched.deploy(10.0);
  Simulator sim(env.df, env.cloud, env.mon, {});
  IntervalIndex i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step(i++, 10.0, dep));
  }
  state.SetLabel(std::to_string(env.df.peCount()) + " PEs");
}
BENCHMARK_TEMPLATE(BM_SimulatorStep, DataflowSimulator)
    ->Arg(3)
    ->Arg(5)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_TEMPLATE(BM_SimulatorStep, oracle::ReferenceFluidSimulator)
    ->Arg(3)
    ->Arg(5)  // at 8x8 one reference step takes seconds
    ->Unit(benchmark::kMicrosecond);

// --- planner-latency sweep (writes JSON) --------------------------------

/// One annealing deploy()'s wall time and performance counters.
struct SweepRun {
  double wall_ms = 0.0;
  double decisions_per_s = 0.0;
  std::uint64_t memo_lookups = 0;
  std::uint64_t memo_hits = 0;
};

SweepRun runAnnealingDeploy(int layers, int width) {
  Env env{graphOfSize(layers, width)};
  obs::MetricsRegistry metrics;
  SchedulerEnv se = env.schedEnv();
  se.metrics = &metrics;
  AnnealingScheduler sched(se, AnnealingOptions{});  // stock 20k, seed 1

  const auto t0 = std::chrono::steady_clock::now();
  (void)sched.deploy(10.0);
  const auto t1 = std::chrono::steady_clock::now();

  SweepRun run;
  run.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.decisions_per_s = metrics.gauge("sched.deploy_decisions_per_s").value();
  run.memo_lookups = metrics.counter("sched.evaluator_memo_lookups").value();
  run.memo_hits = metrics.counter("sched.evaluator_memo_hits").value();
  return run;
}

int plannerLatencySweep(const std::string& path) {
  struct Size {
    int layers;
    int width;
  };
  const std::vector<Size> sizes{{4, 4}, {6, 4}, {8, 6}, {10, 8}};

  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  out << std::setprecision(17);
  out << "{\n"
      << "  \"benchmark\": \"annealing_deploy\",\n"
      << "  \"iterations\": " << AnnealingOptions{}.iterations << ",\n"
      << "  \"input_rate\": 10.0,\n"
      << "  \"sigma\": 0.01,\n"
      << "  \"catalog\": \"awsCatalog2013\",\n"
      << "  \"rows\": [\n";

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto [layers, width] = sizes[i];
    const Dataflow df = graphOfSize(layers, width);
    std::cerr << "sweep " << layers << "x" << width << " ("
              << df.peCount() << " PEs)..." << std::flush;
    const SweepRun run = runAnnealingDeploy(layers, width);
    std::cerr << " " << run.wall_ms << " ms\n";

    const double hit_rate =
        run.memo_lookups == 0
            ? 0.0
            : static_cast<double>(run.memo_hits) /
                  static_cast<double>(run.memo_lookups);
    out << "    {\"layers\": " << layers << ", \"width\": " << width
        << ", \"pes\": " << df.peCount()
        << ", \"alternates\": " << df.totalAlternateCount()
        << ",\n     \"incremental_ms\": " << run.wall_ms
        << ", \"decisions_per_s\": " << run.decisions_per_s
        << ", \"memo_hit_rate\": " << hit_rate << "}"
        << (i + 1 < sizes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return 0;
}

// --- runtime-adaptation cost per interval (writes JSON) ----------------

/// The perfbench `elastic` shape: 2 h, a wave at `mean_rate`, ideal
/// hosts, provisioning delays, a half-spot mix with preemptions,
/// migration state and VM crashes, Holt-Winters forecasts.
ExperimentConfig adaptationConfig(std::uint64_t seed, double mean_rate) {
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.seed = seed;
  cfg.workload.mean_rate = mean_rate;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.forecast.model = ForecastModel::HoltWinters;
  cfg.elasticity.provisioning_delay_s = 60.0;
  cfg.elasticity.provisioning_delay_per_core_s = 15.0;
  cfg.elasticity.spot_discount = 0.7;
  cfg.elasticity.spot_fraction = 0.5;
  cfg.elasticity.spot_preemption_mtbf_h = 4.0;
  cfg.elasticity.spot_notice_s = 120.0;
  cfg.elasticity.pe_state_mb = 50.0;
  cfg.elasticity.migration_bandwidth_mbps = 100.0;
  cfg.faults.vm_mtbf_hours = 12.0;
  return cfg;
}

/// Core power the default alternates need per msg/s of input.
double demandPerUnitRate(const Dataflow& df) {
  double total = 0.0;
  for (const double r : requiredCorePower(df, Deployment(df), 1.0)) {
    total += r;
  }
  return total;
}

double gaugeValue(const obs::MetricsSnapshot& metrics,
                  const std::string& name) {
  for (const obs::MetricSample& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

int adaptationSweep(const std::string& path, const std::string& commit) {
  struct Graph {
    std::string name;
    Dataflow df;
  };
  std::vector<Graph> graphs;
  graphs.push_back({"paper", makePaperDataflow()});
  for (const int n : {4, 6, 8}) {
    graphs.push_back({"layered-" + std::to_string(n) + "x" + std::to_string(n),
                      graphOfSize(n, n)});
  }
  // Layered graphs multiply the rate by their fan-in at every layer, so
  // each graph's mean rate is scaled until its demand equals the paper
  // graph's at 10 msg/s: every row then runs a comparable cloud.
  const double reference_demand = 10.0 * demandPerUnitRate(graphs[0].df);
  const std::vector<std::string> policies = {"global", "global-predictive"};
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  constexpr int kReps = 20;  // best of twenty: the host is shared

  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  out << std::setprecision(17);
  out << "{\n"
      << "  \"header\": {" << bench::provenanceFields(commit) << ",\n"
      << "             \"horizon_h\": 2, \"demand_core_power\": "
      << reference_demand << ", \"reps\": " << kReps << "},\n"
      << "  \"rows\": [\n";

  bool first = true;
  for (const Graph& g : graphs) {
    const double rate = reference_demand / demandPerUnitRate(g.df);
    for (const std::string& policy : policies) {
      // Per seed: the best-of-reps run and step wall times; Theta must
      // repeat exactly across reps (the runs are deterministic).
      double adapt_s = 0.0;
      double step_s = 0.0;
      double intervals = 0.0;
      std::vector<double> thetas;
      for (const std::uint64_t seed : seeds) {
        const SimulationEngine engine(g.df, adaptationConfig(seed, rate));
        double best_adapt = std::numeric_limits<double>::infinity();
        double best_step = 0.0;
        double theta = 0.0;
        double n = 0.0;
        for (int rep = 0; rep < kReps; ++rep) {
          const auto t0 = std::chrono::steady_clock::now();
          const ExperimentResult r = engine.run(parseScheduler(policy));
          const double wall = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          n = static_cast<double>(r.run.intervals().size());
          const double ips = gaugeValue(r.metrics, "fluid.intervals_per_s");
          const double step = ips > 0.0 ? n / ips : 0.0;
          if (rep > 0 && r.theta != theta) {
            std::cerr << "THETA MOVED between reps on " << g.name << " "
                      << policy << "\n";
            return 1;
          }
          theta = r.theta;
          if (wall - step < best_adapt) {
            best_adapt = wall - step;
            best_step = step;
          }
        }
        adapt_s += best_adapt;
        step_s += best_step;
        intervals += n;
        thetas.push_back(theta);
      }
      std::cerr << g.name << " " << policy << ": "
                << adapt_s / intervals * 1e6 << " us adapt / interval\n";
      out << (first ? "" : ",\n") << "    {\"graph\": \"" << g.name
          << "\", \"pes\": " << g.df.peCount() << ", \"policy\": \""
          << policy << "\", \"mean_rate\": " << rate
          << ",\n     \"adapt_us_per_interval\": "
          << adapt_s / intervals * 1e6 << ", \"step_us_per_interval\": "
          << step_s / intervals * 1e6 << ",\n     \"theta\": [";
      for (std::size_t i = 0; i < thetas.size(); ++i) {
        out << (i ? ", " : "") << thetas[i];
      }
      out << "]}";
      first = false;
    }
  }
  out << "\n  ]\n}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kSweepFlag = "--planner-latency-json=";
  const std::string kAdaptFlag = "--adaptation-json=";
  const std::string kCommitFlag = "--commit=";
  std::string adaptation_path;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kSweepFlag, 0) == 0) {
      return plannerLatencySweep(arg.substr(kSweepFlag.size()));
    }
    if (arg.rfind(kAdaptFlag, 0) == 0) {
      adaptation_path = arg.substr(kAdaptFlag.size());
    } else if (arg.rfind(kCommitFlag, 0) == 0) {
      commit = arg.substr(kCommitFlag.size());
    }
  }
  if (!adaptation_path.empty()) return adaptationSweep(adaptation_path, commit);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
