// Message-latency bench on the discrete-event simulator: the processing-
// latency QoS dimension the paper's introduction motivates ("the penalty
// of high processing latencies during the high data rate period").
// Compares end-to-end latency percentiles of the local and global
// adaptive heuristics, plus a fixed over/under-provisioned deployment,
// under a wave workload on the Fig. 1 dataflow.
//
// A second section measures raw event throughput (events drained per
// second of wall clock) of the product's cached simulator against the
// test-only oracle::ReferenceEventSimulator over a rate x graph-size
// sweep. Every row asserts that the two simulators' results are
// bit-identical: fixed-deployment rows compare fingerprint() of the
// stepped simulator, the adaptive row (driven by SimulationEngine, which
// owns the interval loop; oracle::runReference for the reference side)
// its run outputs.
// `--throughput-json=PATH [--commit=SHA]` writes that sweep as JSON under
// a provenance header (commit, build type, host cores, date).
// BENCH_eventsim_throughput.json at the repo root pairs this output at a
// parent and a change commit: events must repeat exactly, the cached_s
// columns show the change.
#include <fstream>
#include <iomanip>

#include "bench_header.hpp"
#include "bench_util.hpp"
#include "dds/oracle/reference_event_simulator.hpp"
#include "dds/oracle/run_reference.hpp"

namespace {

using namespace dds;

struct LatencyRow {
  std::string label;
  ExperimentResult result;
};

ExperimentResult runPolicy(const Dataflow& df, const SchedulerSpec& kind,
                           double rate, double queue_sla_s = 0.0) {
  ExperimentConfig cfg;
  cfg.horizon_s = 30.0 * kSecondsPerMinute;
  cfg.workload.mean_rate = rate;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 7;
  cfg.heuristic.max_queue_delay_s = queue_sla_s;
  cfg.backend = SimBackend::Event;
  return SimulationEngine(df, cfg).run(kind);
}

// --- cached-vs-reference throughput sweep ------------------------------

struct ThroughputCase {
  std::string graph;
  double rate = 0.0;
  bool adaptive = false;
};

struct ThroughputRow {
  ThroughputCase c;
  std::uint64_t events = 0;
  double reference_s = 0.0;
  double cached_s = 0.0;
  std::uint64_t route_refreshes = 0;
  std::uint64_t core_index_rebuilds = 0;
  bool identical = false;
};

/// What one sweep run produced: drain work, wall time in the event loop,
/// and a canonical string of every model-determined output.
struct SweepRun {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t route_refreshes = 0;
  std::uint64_t core_index_rebuilds = 0;
  std::string fingerprint;
};

constexpr SimTime kSweepHorizonS = 600.0;
constexpr SimTime kSweepIntervalS = 60.0;

Dataflow graphByName(const std::string& name) {
  if (name == "paper") return makePaperDataflow();
  if (name == "chain8") return makeChainDataflow(8, 2);
  Rng rng(99);  // layered6x4
  return makeLayeredDataflow(6, 4, 2, rng);
}

/// A fixed deployment, stepped interval by interval on a fresh
/// environment; both simulators get the same seeds, so any result
/// difference is a simulator bug.
template <class Simulator>
SweepRun runStaticSweep(const ThroughputCase& c) {
  const Dataflow df = graphByName(c.graph);
  CloudProvider cloud(awsCatalog2013());
  TraceReplayer replayer = TraceReplayer::futureGridLike(2013);
  MonitoringService mon(cloud, replayer);
  SchedulerEnv env;
  env.dataflow = &df;
  env.cloud = &cloud;
  env.monitor = &mon;
  HeuristicScheduler sched(env, Strategy::Global,
                           SchedulerSpec::Mode::Static);

  EventSimConfig cfg;
  cfg.interval_s = kSweepIntervalS;
  cfg.seed = 7;
  Simulator sim(df, cloud, mon, cfg);
  const Deployment dep = sched.deploy(c.rate);
  const IntervalClock clock(kSweepIntervalS, kSweepHorizonS);
  for (IntervalIndex i = 0; i < clock.intervalCount(); ++i) {
    (void)sim.step(i, c.rate, dep);
  }
  const EventSimResult& r = sim.result();
  return {r.counters.drained(), r.wall_seconds, r.counters.route_refreshes,
          r.counters.core_index_rebuilds, fingerprint(r)};
}

/// An adaptive run through SimulationEngine, which owns the interval loop.
SweepRun runAdaptiveSweep(const ThroughputCase& c, bool reference) {
  const Dataflow df = graphByName(c.graph);
  ExperimentConfig cfg;
  cfg.horizon_s = kSweepHorizonS;
  cfg.interval_s = kSweepIntervalS;
  cfg.workload.mean_rate = c.rate;
  cfg.workload.infra_variability = true;
  cfg.seed = 7;
  cfg.backend = SimBackend::Event;
  const SimulationEngine engine(df, cfg);
  const ExperimentResult r =
      reference ? oracle::runReference(engine, parseScheduler("global"))
                : engine.run(parseScheduler("global"));
  SweepRun out;
  double events_per_s = 0.0;
  std::ostringstream fp;
  fp << std::hexfloat << r.messages_delivered << ' ' << r.latency_mean_s
     << ' ' << r.latency_p95_s << ' ' << r.latency_p99_s << '\n';
  for (const obs::MetricSample& m : r.metrics) {
    const auto n = static_cast<std::uint64_t>(m.value);
    if (m.name == "eventsim.arrivals" || m.name == "eventsim.deliveries" ||
        m.name == "eventsim.completions") {
      out.events += n;
    } else if (m.name == "eventsim.route_refreshes") {
      out.route_refreshes = n;
    } else if (m.name == "eventsim.core_index_rebuilds") {
      out.core_index_rebuilds = n;
    } else if (m.name == "eventsim.events_per_s") {
      events_per_s = m.value;
    }
  }
  for (const IntervalMetrics& im : r.run.intervals()) {
    fp << im.omega << ' ' << im.gamma << ' ' << im.cost_cumulative << '\n';
    for (const PeIntervalStats& ps : im.pe_stats) {
      fp << ps.processed_rate << ' ' << ps.output_rate << ' '
         << ps.backlog_msgs << ' ' << ps.allocated_cores << '\n';
    }
  }
  out.wall_s = events_per_s > 0.0
                   ? static_cast<double>(out.events) / events_per_s
                   : 0.0;
  out.fingerprint = fp.str() + std::to_string(out.events);
  return out;
}

SweepRun runThroughput(const ThroughputCase& c, bool reference) {
  if (c.adaptive) return runAdaptiveSweep(c, reference);
  return reference ? runStaticSweep<oracle::ReferenceEventSimulator>(c)
                   : runStaticSweep<EventSimulator>(c);
}

std::vector<ThroughputRow> runThroughputSweep() {
  // Rates are capped per graph so the *reference* simulator finishes each
  // row in under a minute — layered6x4 deploys ~200 VMs at 50 msg/s and
  // the reference path is O(VMs) per event.
  const std::vector<ThroughputCase> cases{
      {"paper", 20.0, false},    {"paper", 100.0, false},
      {"paper", 400.0, false},   {"chain8", 100.0, false},
      {"chain8", 400.0, false},  {"layered6x4", 20.0, false},
      {"layered6x4", 50.0, false}, {"paper", 100.0, true},
  };
  std::vector<ThroughputRow> rows;
  for (const ThroughputCase& c : cases) {
    std::cerr << "throughput " << c.graph << " @ " << c.rate << " msg/s"
              << (c.adaptive ? " adaptive" : "") << ": reference..."
              << std::flush;
    const SweepRun ref = runThroughput(c, true);
    std::cerr << " " << ref.wall_s << " s, cached..." << std::flush;
    const SweepRun cach = runThroughput(c, false);
    std::cerr << " " << cach.wall_s << " s\n";

    ThroughputRow row;
    row.c = c;
    row.events = cach.events;
    row.reference_s = ref.wall_s;
    row.cached_s = cach.wall_s;
    row.route_refreshes = cach.route_refreshes;
    row.core_index_rebuilds = cach.core_index_rebuilds;
    // The cached simulator is a memoization, not an approximation: every
    // sample, counter and interval metric must match bit-for-bit.
    row.identical = ref.fingerprint == cach.fingerprint;
    if (!row.identical) {
      std::cerr << "RESULT MISMATCH at " << c.graph << " @ " << c.rate
                << " msg/s\n";
    }
    rows.push_back(row);
  }
  return rows;
}

void printThroughputTable(const std::vector<ThroughputRow>& rows) {
  TextTable table({"graph", "rate", "adaptive", "events", "ref-ev/s",
                   "cached-ev/s", "speedup", "identical"});
  for (const auto& r : rows) {
    const double ref_eps =
        r.reference_s > 0.0 ? static_cast<double>(r.events) / r.reference_s
                            : 0.0;
    const double cached_eps =
        r.cached_s > 0.0 ? static_cast<double>(r.events) / r.cached_s : 0.0;
    table.addRow({r.c.graph, TextTable::num(r.c.rate),
                  r.c.adaptive ? "yes" : "no", std::to_string(r.events),
                  TextTable::num(ref_eps), TextTable::num(cached_eps),
                  TextTable::num(r.cached_s > 0.0
                                     ? r.reference_s / r.cached_s
                                     : 0.0),
                  r.identical ? "yes" : "NO"});
  }
  std::cout << table.render() << '\n';
}

int throughputSweepJson(const std::string& path, const std::string& commit) {
  const std::vector<ThroughputRow> rows = runThroughputSweep();
  printThroughputTable(rows);

  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  out << std::setprecision(17);
  out << "{\n"
      << "  \"benchmark\": \"eventsim_cached_vs_reference\",\n"
      << "  \"header\": {" << bench::provenanceFields(commit) << "},\n"
      << "  \"horizon_s\": " << kSweepHorizonS << ",\n"
      << "  \"interval_s\": " << kSweepIntervalS << ",\n"
      << "  \"seed\": 7,\n"
      << "  \"catalog\": \"awsCatalog2013\",\n"
      << "  \"rows\": [\n";
  bool mismatch = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    if (!r.identical) mismatch = true;
    out << "    {\"graph\": \"" << r.c.graph << "\", \"rate\": " << r.c.rate
        << ", \"adaptive\": " << (r.c.adaptive ? "true" : "false")
        << ", \"events\": " << r.events
        << ",\n     \"reference_s\": " << r.reference_s
        << ", \"cached_s\": " << r.cached_s
        << ", \"speedup\": " << r.reference_s / r.cached_s
        << ",\n     \"reference_events_per_s\": "
        << static_cast<double>(r.events) / r.reference_s
        << ", \"cached_events_per_s\": "
        << static_cast<double>(r.events) / r.cached_s
        << ",\n     \"route_refreshes\": " << r.route_refreshes
        << ", \"core_index_rebuilds\": " << r.core_index_rebuilds
        << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return mismatch ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dds;
  using namespace dds::bench;

  const std::string kSweepFlag = "--throughput-json=";
  const std::string kCommitFlag = "--commit=";
  std::string sweep_path;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(kSweepFlag, 0) == 0) {
      sweep_path = arg.substr(kSweepFlag.size());
    } else if (arg.rfind(kCommitFlag, 0) == 0) {
      commit = arg.substr(kCommitFlag.size());
    }
  }
  if (!sweep_path.empty()) return throughputSweepJson(sweep_path, commit);

  printHeader("Latency",
              "end-to-end message latency (event-level simulation, "
              "10 msg/s wave, 30 min)");

  const Dataflow df = makePaperDataflow();
  const double rate = 10.0;
  std::vector<LatencyRow> rows;
  rows.push_back(
      {"global adaptive", runPolicy(df, parseScheduler("global"), rate)});
  rows.push_back(
      {"local adaptive", runPolicy(df, parseScheduler("local"), rate)});
  rows.push_back(
      {"global static", runPolicy(df, parseScheduler("global-static"), rate)});
  rows.push_back({"global + 60s SLA",
                  runPolicy(df, parseScheduler("global"), rate, 60.0)});

  TextTable table({"policy", "delivered", "omega", "lat-mean(s)",
                   "lat-p50(s)", "lat-p95(s)", "lat-p99(s)"});
  for (const auto& row : rows) {
    const auto& r = row.result;
    const bool sampled = r.messages_delivered > 0;
    table.addRow({row.label, std::to_string(r.messages_delivered),
                  TextTable::num(r.average_omega),
                  TextTable::num(r.latency_mean_s),
                  sampled ? TextTable::num(r.latency_p50_s) : "-",
                  sampled ? TextTable::num(r.latency_p95_s) : "-",
                  sampled ? TextTable::num(r.latency_p99_s) : "-"});
  }
  std::cout << table.render() << '\n';

  std::cout << "Reading: the adaptive policies keep the latency tail "
               "bounded through the wave\npeak by scaling ahead of the "
               "backlog; an under-provisioned static run shows\nthe "
               "queueing blow-up the paper's introduction warns about.\n\n";

  printHeader("Throughput",
              "event-loop throughput, cached engine vs reference "
              "(600 s horizon, constant rate)");
  printThroughputTable(runThroughputSweep());
  std::cout << "Reading: the cached engine drains the same event stream "
               "bit-identically\n(identical = yes on every row) while "
               "avoiding per-event ledger scans and\nmonitor queries; "
               "speedup grows with graph size and message rate.\n";
  return 0;
}
