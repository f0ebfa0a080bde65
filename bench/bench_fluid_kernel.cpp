// Interval-throughput bench for the fluid simulator: the product's cached
// SoA kernel against the per-interval-snapshot walk of the test-only
// oracle::ReferenceFluidSimulator, over a graph-size x rate-profile sweep.
//
// Each row times ONLY the step() loop (deployment held static, so the
// cached kernel amortizes its one rebuild across the whole run) and
// asserts that the two kernels produce bit-identical interval metrics —
// the cached kernel is a memoization, not an approximation, and a
// mismatch fails the bench (exit 1, which is how bench-smoke enforces
// identity in CI).
//
// `--json=PATH` writes the sweep as JSON (committed as
// BENCH_fluid_kernel.json at the repo root).
#include <chrono>
#include <fstream>
#include <iomanip>

#include "bench_util.hpp"
#include "dds/oracle/reference_fluid_simulator.hpp"

namespace {

using namespace dds;

constexpr IntervalIndex kIntervals = 1200;
constexpr double kIntervalS = 60.0;
constexpr int kReps = 3;

struct SweepCase {
  std::string graph;
  std::string profile;
  double rate = 0.0;
  /// futureGridLike replay (300 s coefficient windows) when true; ideal
  /// infrastructure (infinite windows) when false. Bounds the cached
  /// kernel's win: with finite windows the query savings cap at
  /// window / interval, with ideal infra only the rebuild cost remains.
  bool variability = true;
};

Dataflow graphByName(const std::string& name) {
  if (name == "paper") return makePaperDataflow();
  if (name == "chain8") return makeChainDataflow(8, 2);
  Rng rng(99);  // layered6x4
  return makeLayeredDataflow(6, 4, 2, rng);
}

std::unique_ptr<RateProfile> profileByName(const std::string& name,
                                           double rate) {
  const SimTime horizon = kIntervals * kIntervalS;
  if (name == "constant") return std::make_unique<ConstantRate>(rate);
  if (name == "wave") {
    return makeProfile(ProfileKind::PeriodicWave, rate, horizon, 7);
  }
  return makeProfile(ProfileKind::Spike, rate, horizon, 7);
}

/// Everything one run produces that the other kernel must reproduce
/// exactly. Compared with operator== on the raw doubles: any FP
/// divergence (reassociated sum, skipped query) shows up here.
struct RunOutput {
  std::vector<double> omegas;
  std::vector<double> costs;
  double final_backlog = 0.0;
  double wall_s = 0.0;
  std::uint64_t rebuilds = 0;

  [[nodiscard]] bool identicalTo(const RunOutput& o) const {
    return omegas == o.omegas && costs == o.costs &&
           final_backlog == o.final_backlog;
  }
};

/// One full step-loop run on a fresh environment; both kernels get the
/// same seeds and a static deployment, so any output difference is a
/// kernel bug. Only the step() loop is timed.
template <class Simulator>
RunOutput runKernel(const SweepCase& c) {
  const Dataflow df = graphByName(c.graph);
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = c.variability ? TraceReplayer::futureGridLike(2013)
                                         : TraceReplayer::ideal();
  MonitoringService mon(cloud, replayer);
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &mon;
  HeuristicScheduler sched(env, Strategy::Global, {});
  const Deployment dep = sched.deploy(c.rate);

  const std::unique_ptr<RateProfile> profile =
      profileByName(c.profile, c.rate);
  SimConfig cfg;
  cfg.interval_s = kIntervalS;
  Simulator sim(df, cloud, mon, cfg);

  RunOutput out;
  out.omegas.reserve(kIntervals);
  out.costs.reserve(kIntervals);
  const auto begin = std::chrono::steady_clock::now();
  for (IntervalIndex i = 0; i < kIntervals; ++i) {
    const IntervalMetrics m =
        sim.step(i, profile->rate(static_cast<double>(i) * kIntervalS), dep);
    out.omegas.push_back(m.omega);
    out.costs.push_back(m.cost_cumulative);
  }
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
                   .count();
  out.final_backlog = sim.totalBacklog();
  out.rebuilds = sim.kernelRebuilds();
  return out;
}

struct SweepRow {
  SweepCase c;
  double reference_s = 0.0;
  double cached_s = 0.0;
  std::uint64_t rebuilds = 0;
  bool identical = false;
};

SweepRow runCase(const SweepCase& c) {
  SweepRow row;
  row.c = c;
  std::cerr << c.graph << " / " << c.profile << " @ " << c.rate
            << " msg/s" << (c.variability ? "" : " (ideal infra)") << ":"
            << std::flush;
  // Best-of-reps per kernel; every rep rebuilds the whole environment so
  // the replayer draws the same sequence each time.
  RunOutput ref;
  RunOutput cached;
  for (int rep = 0; rep < kReps; ++rep) {
    const RunOutput r = runKernel<oracle::ReferenceFluidSimulator>(c);
    const RunOutput k = runKernel<DataflowSimulator>(c);
    if (rep == 0 || r.wall_s < ref.wall_s) ref = r;
    if (rep == 0 || k.wall_s < cached.wall_s) cached = k;
  }
  row.reference_s = ref.wall_s;
  row.cached_s = cached.wall_s;
  row.rebuilds = cached.rebuilds;
  row.identical = ref.identicalTo(cached);
  std::cerr << " ref " << ref.wall_s << " s, cached " << cached.wall_s
            << " s" << (row.identical ? "" : "  RESULT MISMATCH") << '\n';
  return row;
}

std::vector<SweepRow> runSweep() {
  const std::vector<SweepCase> cases{
      // Variable infrastructure (the paper's FutureGrid-like replay).
      {"paper", "constant", 10.0, true},
      {"paper", "wave", 10.0, true},
      {"paper", "spike", 10.0, true},
      {"chain8", "wave", 10.0, true},
      {"layered6x4", "constant", 10.0, true},
      {"layered6x4", "wave", 10.0, true},
      {"layered6x4", "spike", 10.0, true},
      // Ideal infrastructure (no variability -- half the paper's
      // figures): coefficient windows never expire, so the cached
      // kernel's only recurring cost is the interval arithmetic.
      {"paper", "wave", 10.0, false},
      {"chain8", "wave", 10.0, false},
      {"layered6x4", "wave", 10.0, false},
  };
  std::vector<SweepRow> rows;
  rows.reserve(cases.size());
  for (const SweepCase& c : cases) rows.push_back(runCase(c));
  return rows;
}

void printTable(const std::vector<SweepRow>& rows) {
  TextTable table({"graph", "profile", "rate", "infra", "ref-ival/s",
                   "cached-ival/s", "speedup", "rebuilds", "identical"});
  for (const SweepRow& r : rows) {
    table.addRow(
        {r.c.graph, r.c.profile, TextTable::num(r.c.rate),
         r.c.variability ? "futuregrid" : "ideal",
         TextTable::num(kIntervals / r.reference_s),
         TextTable::num(kIntervals / r.cached_s),
         TextTable::num(r.cached_s > 0.0 ? r.reference_s / r.cached_s : 0.0,
                        2),
         std::to_string(r.rebuilds), r.identical ? "yes" : "NO"});
  }
  std::cout << table.render() << '\n';
}

bool writeJson(const std::vector<SweepRow>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  out << std::setprecision(17);
  out << "{\n"
      << "  \"benchmark\": \"fluid_cached_vs_reference\",\n"
      << "  \"intervals\": " << kIntervals << ",\n"
      << "  \"interval_s\": " << kIntervalS << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"catalog\": \"awsCatalog2013\",\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    out << "    {\"graph\": \"" << r.c.graph << "\", \"profile\": \""
        << r.c.profile << "\", \"rate\": " << r.c.rate
        << ", \"variability\": " << (r.c.variability ? "true" : "false")
        << ",\n     \"reference_s\": " << r.reference_s
        << ", \"cached_s\": " << r.cached_s
        << ", \"speedup\": " << r.reference_s / r.cached_s
        << ",\n     \"reference_intervals_per_s\": "
        << kIntervals / r.reference_s
        << ", \"cached_intervals_per_s\": " << kIntervals / r.cached_s
        << ",\n     \"kernel_rebuilds\": " << r.rebuilds
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dds::bench;

  std::string json_path;
  const std::string kJsonFlag = "--json=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kJsonFlag, 0) == 0) json_path = arg.substr(kJsonFlag.size());
  }

  printHeader("Fluid kernel",
              "interval throughput, cached SoA kernel vs reference "
              "snapshot kernel (static deployment, 1200 intervals)");
  const std::vector<SweepRow> rows = runSweep();
  printTable(rows);

  bool ok = true;
  for (const SweepRow& r : rows) ok = ok && r.identical;
  if (!json_path.empty() && !writeJson(rows, json_path)) ok = false;
  if (!ok) {
    std::cerr << "fluid kernel bench FAILED (mismatch or write error)\n";
    return 1;
  }
  return 0;
}
