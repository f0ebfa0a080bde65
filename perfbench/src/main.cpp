// perfbench: the campaign-service benchmark program.
//
//   perfbench --workload sweep|elastic|event --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--commit C] [--source-digest D]
//
// One process, one thread, one workload. The stream of v1 job specs is
// generated from --seed and fed through the serial serve path
// (parseJobSpec -> jobFromSpec -> runExperimentJob -> jobRecordJson) on a
// shared Substrate, exactly what serveCampaign does with one worker.
// Parallel scaling is deliberately not measured.
//
// Phases of one invocation:
//   1. set-up: a cold Substrate::arenasFor over every distinct (graph,
//      config) cell of the stream, repeated; the median is setup_s and the
//      last substrate stays warm for the stream;
//   2. timed passes over the whole stream until --seconds have elapsed
//      (end-to-end metrics, no tracing of ours);
//   3. a traced pass through SimulationEngine::run with a StampSink
//      (per-layer spans, correctness cross-checks);
//   4. with --trace 1, the per-layer side measurements; on elastic these
//      include the obs layer: each spec paired with and without its JSONL
//      trace (the ddsim --trace path).
// The last stdout line is the JSON result; the exit code is 1 when any
// correctness check failed.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dds/exp/campaign.hpp"
#include "dds/exp/job_spec.hpp"
#include "dds/exp/serve.hpp"
#include "dds/exp/substrate.hpp"
#include "dds/obs/trace_reader.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using perfbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  Workload workload = Workload::Sweep;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep|elastic|event "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--commit C] [--source-digest D]\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    args[argv[i]] = argv[i + 1];
  }
  auto take = [&](const std::string& key) -> std::optional<std::string> {
    auto it = args.find(key);
    if (it == args.end()) return std::nullopt;
    std::string v = it->second;
    args.erase(it);
    return v;
  };
  const auto workload = take("--workload");
  const auto seed = take("--seed");
  const auto seconds = take("--seconds");
  const auto trace = take("--trace");
  const auto out_dir = take("--out-dir");
  if (!workload || !seed || !seconds || !trace || !out_dir) {
    usage("--workload, --seed, --seconds, --trace and --out-dir are required");
  }
  const auto w = perfbench::parseWorkload(*workload);
  if (!w) usage("unknown workload '" + *workload + "'");
  o.workload = *w;
  try {
    std::size_t used = 0;
    o.seed = std::stoull(*seed, &used);
    if (used != seed->size()) throw std::invalid_argument("seed");
    o.seconds = std::stod(*seconds, &used);
    if (used != seconds->size() || !(o.seconds > 0.0)) {
      throw std::invalid_argument("seconds");
    }
  } catch (const std::exception&) {
    usage("--seed must be an unsigned integer and --seconds positive");
  }
  if (*trace != "0" && *trace != "1") usage("--trace must be 0 or 1");
  o.trace = *trace == "1";
  o.out_dir = *out_dir;
  if (auto c = take("--commit")) o.commit = *c;
  if (auto d = take("--source-digest")) o.source_digest = *d;
  if (!args.empty()) usage("unknown argument " + args.begin()->first);
  return o;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

double metricValue(const dds::obs::MetricsSnapshot& metrics,
                   const std::string& name) {
  for (const auto& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// One distinct (graph, config) cell of the stream, resolved outside any
/// timed region.
struct Cell {
  dds::JobSpec spec;
  dds::ExperimentConfig config;
};

std::vector<Cell> distinctCells(const std::vector<std::string>& lines) {
  std::vector<Cell> cells;
  for (const std::string& line : lines) {
    dds::JobSpec spec;
    dds::CliExperiment ex;
    try {
      spec = dds::parseJobSpec(line);
      ex = dds::experimentFromSpec(spec);
    } catch (const std::exception&) {
      continue;  // the timed passes count the rejection
    }
    const std::size_t chain = spec.graph == "chain" ? spec.chain_length : 0;
    const bool seen =
        std::any_of(cells.begin(), cells.end(), [&](const Cell& c) {
          return c.spec.graph == spec.graph &&
                 (c.spec.graph == "chain" ? c.spec.chain_length : 0) == chain &&
                 c.config == ex.config;
        });
    if (!seen) cells.push_back({spec, ex.config});
  }
  return cells;
}

/// Empty when the job passed the output gate, else why it failed.
std::string gateFailure(const dds::ExperimentJob& job,
                        const dds::JobOutcome& outcome) {
  if (!outcome.ok) return "job failed: " + outcome.error;
  const dds::ExperimentResult& r = outcome.result;
  if (!(r.average_omega >= 0.0 && r.average_omega <= 1.0)) {
    return "omega outside [0, 1]";
  }
  if (!(r.average_gamma >= 0.0 && r.average_gamma <= 1.0)) {
    return "gamma outside [0, 1]";
  }
  if (!(r.total_cost >= 0.0) || !std::isfinite(r.total_cost)) {
    return "negative or non-finite cost";
  }
  const double expected = job.config.horizon_s / job.config.interval_s;
  if (static_cast<double>(r.run.intervals().size()) != std::round(expected)) {
    return "interval count " + std::to_string(r.run.intervals().size()) +
           " != horizon / interval_s";
  }
  return "";
}

/// What a job produced, kept from the first timed pass.
struct JobFacts {
  std::string record;   ///< the jobRecordJson / specErrorJson line.
  std::string failure;  ///< empty when the job passed the gate.
  double theta = 0.0;
  bool slo_met = false;
};

/// One spec through the serial serve path; returns its facts.
JobFacts runSpec(const std::string& line, std::size_t index,
                 dds::Substrate& substrate, const std::string& trace_path) {
  JobFacts f;
  try {
    dds::ExperimentJob job =
        dds::jobFromSpec(dds::parseJobSpec(line), substrate);
    job.trace_path = trace_path;
    const dds::JobOutcome outcome =
        dds::runExperimentJob(job, index, &substrate);
    f.record = dds::jobRecordJson(outcome, index);
    f.failure = gateFailure(job, outcome);
    f.theta = outcome.result.theta;
    f.slo_met = outcome.result.constraint_met;
  } catch (const std::exception& e) {
    f.record = dds::specErrorJson(index, e.what());
    f.failure = std::string("spec rejected: ") + e.what();
  }
  return f;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed on the human-readable line only.
};

std::string utcNow() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is no use here: Linux carries it across fork and exec, so it
/// would report the launching Python process's footprint.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class Bench {
 public:
  explicit Bench(Options options)
      : o_(std::move(options)),
        lines_(perfbench::generateSpecs(o_.workload, o_.seed)),
        cells_(distinctCells(lines_)),
        jsonl_(o_.trace && o_.workload == Workload::Elastic),
        trace_dir_(o_.out_dir / "traces") {}

  int run() {
    fs::create_directories(trace_dir_);
    setup();
    timedPasses();
    const double rss_mb = peakRssMb();
    tracedPass();
    if (o_.trace) layerMeasurements();
    checkTraceFiles();
    return report(rss_mb);
  }

 private:
  void fail(const std::string& why) {
    if (failures_.size() < 20) failures_.push_back(why);
    correct_ = false;
  }

  std::string workloadName() const {
    return std::string(perfbench::workloadName(o_.workload));
  }

  /// Count one attempt of spec `i` outside the timed passes; its record
  /// must equal the first timed pass's.
  void checkRecord(std::size_t i, const std::string& record) {
    ++attempted_;
    if (i >= facts_.size() || record != facts_[i].record) {
      ++failed_;
      fail("job " + std::to_string(i) + ": record differs from the timed pass");
    }
  }

  std::string tracePath(std::size_t i) const {
    return (trace_dir_ / ("job-" + std::to_string(i) + ".jsonl")).string();
  }

  // 1. Cold arenas for every distinct cell, repeated at least 15 times and
  // for at least 0.25 s, so that a set-up of a few microseconds still gives
  // a steady median. The timed passes add more set-ups between passes.
  void setup() {
    const auto start = Clock::now();
    while (setup_samples_.size() < 15 ||
           (secondsSince(start) < 0.25 && setup_samples_.size() < 10000)) {
      coldSetup();
    }
  }

  /// One cold set-up on a fresh substrate, which then serves the stream.
  void coldSetup() {
    substrate_.reset();
    auto substrate = std::make_shared<dds::Substrate>();
    const auto t0 = Clock::now();
    for (const Cell& cell : cells_) {
      const dds::ExperimentJob job = dds::jobFromSpec(cell.spec, *substrate);
      (void)substrate->arenasFor(*job.dataflow, job.config);
    }
    setup_samples_.push_back(secondsSince(t0));
    substrate_ = std::move(substrate);
  }

  // 2. Whole passes over the stream. A pass starts only while it can still
  // end inside --seconds, judged by the previous pass; the first always runs.
  // After each pass come more cold set-ups, up to kSetupShare of the time
  // so far: the setup_s median then spans the whole run, not only its first
  // moments, and a slow spell of the host weighs on it less.
  void timedPasses() {
    constexpr double kSetupShare = 0.05;
    const auto start = Clock::now();
    double setup_seconds = 0.0;
    do {
      const auto pass_start = Clock::now();
      for (std::size_t i = 0; i < lines_.size(); ++i) {
        const auto t0 = Clock::now();
        JobFacts f = runSpec(lines_[i], i, *substrate_, "");
        job_ms_.push_back(secondsSince(t0) * 1e3);
        ++attempted_;
        if (pass_seconds_.empty()) {
          facts_.push_back(f);
        } else if (f.record != facts_[i].record) {
          f.failure = "record differs between passes";
        }
        if (!f.failure.empty()) {
          ++failed_;
          fail("job " + std::to_string(i) + ": " + f.failure);
        }
      }
      pass_seconds_.push_back(secondsSince(pass_start));
      const auto slice_start = Clock::now();
      while (setup_seconds + secondsSince(slice_start) <
                 kSetupShare * secondsSince(start) &&
             setup_samples_.size() < 100000) {
        coldSetup();
      }
      setup_seconds += secondsSince(slice_start);
    } while (secondsSince(start) + pass_seconds_.back() <= o_.seconds);
    if (facts_.size() != lines_.size()) fail("record count != spec count");
  }

  // 3. One pass through SimulationEngine::run with the stamp sink; the
  // records must equal the untraced ones byte for byte.
  void tracedPass() {
    std::size_t max_intervals = 0;
    for (const Cell& c : cells_) {
      max_intervals = std::max(
          max_intervals,
          static_cast<std::size_t>(c.config.horizon_s / c.config.interval_s));
    }
    const std::size_t reserve = lines_.size() * (max_intervals * 32 + 512);
    perfbench::StampSink stamps(reserve);
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (o_.trace) {
        // Overheads are measured against the same spec run just before,
        // so that a slow spell of the host hits both sides alike.
        auto t = Clock::now();
        checkRecord(i, runSpec(lines_[i], i, *substrate_, "").record);
        paired_untraced_seconds_ += secondsSince(t);
        if (jsonl_) {
          t = Clock::now();
          const std::string path = tracePath(i);
          checkRecord(i, runSpec(lines_[i], i, *substrate_, path).record);
          paired_jsonl_seconds_ += secondsSince(t);
        }
      }
      const auto t0 = Clock::now();
      dds::JobOutcome out;
      out.index = i;
      dds::ExperimentJob job;
      try {
        const dds::JobSpec spec = dds::parseJobSpec(lines_[i]);
        parse_us_.push_back(secondsSince(t0) * 1e6);
        job = dds::jobFromSpec(spec, *substrate_);
        out.label =
            job.label.empty() ? dds::schedulerName(job.kind) : job.label;
        out.tenant = job.tenant;
        out.kind = job.kind;
        out.seed = job.config.seed;
        const dds::SimulationEngine engine(
            *job.dataflow, job.config,
            substrate_->arenasFor(*job.dataflow, job.config));
        stamps.beginRun(static_cast<std::uint32_t>(i));
        try {
          out.result = engine.run(job.kind, &stamps);
          out.ok = true;
        } catch (const std::exception& e) {
          out.error = e.what();
        }
        stamps.endRun();
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      const std::string record = dds::jobRecordJson(out, i);
      traced_seconds_ += secondsSince(t0);
      checkRecord(i, record);
      accumulate(job, out);
    }
    if (stamps.grew()) fail("stamp buffer reserve too small");
    try {
      runs_ = perfbench::splitRuns(stamps.stamps());
    } catch (const std::exception& e) {
      fail(e.what());
    }
    if (runs_.size() != lines_.size()) fail("traced run count != spec count");
    writeSpans();
  }

  /// Per-job layer counters from the traced pass's metrics snapshot.
  void accumulate(const dds::ExperimentJob& job, const dds::JobOutcome& out) {
    const auto& m = out.result.metrics;
    LayerSums& s = sums_;
    s.scale_outs += metricValue(m, "sched.scale_outs");
    s.lookahead_plans += metricValue(m, "sched.lookahead_plans");
    s.preacquired_vms += metricValue(m, "sched.preacquired_vms");
    s.alternate_switches += metricValue(m, "sched.alternate_switches");
    s.kernel_rebuilds += metricValue(m, "fluid.kernel_rebuilds");
    s.predictions += metricValue(m, "forecast.predictions");
    s.vms_acquired += metricValue(m, "cloud.vms_acquired");
    s.preemptions += metricValue(m, "run.preemptions");
    s.vm_failures += metricValue(m, "run.vm_failures");
    const double ips = metricValue(m, "fluid.intervals_per_s");
    const double intervals =
        static_cast<double>(out.result.run.intervals().size());
    double step_s = 0.0;
    double esim_s = 0.0;
    if (ips > 0.0) step_s = intervals / ips;
    const double events = metricValue(m, "eventsim.arrivals") +
                          metricValue(m, "eventsim.deliveries") +
                          metricValue(m, "eventsim.completions");
    const double eps = metricValue(m, "eventsim.events_per_s");
    if (eps > 0.0) esim_s = events / eps;
    s.events += events;
    s.esim_s += esim_s;
    step_s_.push_back(step_s);
    esim_s_.push_back(esim_s);
    event_backend_.push_back(job.config.backend == dds::SimBackend::Event);
  }

  void writeSpans() const {
    std::ofstream out(o_.out_dir / ("spans-" + workloadName() + ".csv"));
    out << "job,wall_ns,setup_ns,deploy_ns,intervals_ns,remainder_ns,"
           "intervals,events\n";
    for (const auto& r : runs_) {
      out << r.job << ',' << r.wall << ',' << r.setup << ',' << r.deploy << ','
          << r.intervals << ',' << r.remainder << ',' << r.interval_count
          << ',' << r.events << '\n';
    }
  }

  // 4. Side measurements that only the per-layer report needs.
  void layerMeasurements() {
    // Pool sharing over one cold pass of the stream (what serveCampaign
    // with a fresh substrate would see).
    dds::Substrate cold;
    for (const std::string& line : lines_) {
      try {
        const dds::ExperimentJob job =
            dds::jobFromSpec(dds::parseJobSpec(line), cold);
        (void)cold.arenasFor(*job.dataflow, job.config);
      } catch (const std::exception&) {
      }
    }
    const dds::Substrate::Stats st = cold.stats();
    pools_built_ = static_cast<double>(st.pool_builds);
    const double lookups = static_cast<double>(st.pool_builds + st.pool_hits);
    pool_hit_share_ =
        lookups > 0.0 ? static_cast<double>(st.pool_hits) / lookups : 0.0;

    // Cold trace-pool generation, timed per seed.
    std::set<std::uint64_t> seeds;
    for (const Cell& c : cells_) {
      if (c.config.workload.infra_variability) seeds.insert(c.config.seed);
    }
    dds::Substrate pools;
    double total = 0.0;
    for (const std::uint64_t seed : seeds) {
      const auto t0 = Clock::now();
      (void)pools.tracePoolsFor(seed);
      total += secondsSince(t0);
    }
    pool_build_ms_ =
        seeds.empty() ? 0.0 : total * 1e3 / static_cast<double>(seeds.size());
  }

  /// Every JSONL trace (written through ExperimentJob::trace_path, the
  /// ddsim --trace path) must parse back to exactly the events the stamp
  /// sink saw for the same spec. The files are deleted afterwards.
  void checkTraceFiles() {
    if (!jsonl_) return;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      const fs::path path = tracePath(i);
      const std::string bytes = readFile(path);
      trace_bytes_ += static_cast<double>(bytes.size());
      std::istringstream in(bytes);
      try {
        const auto events = dds::obs::readTraceJsonl(in);
        if (i >= runs_.size() || runs_[i].events != events.size()) {
          fail("job " + std::to_string(i) + ": trace has " +
               std::to_string(events.size()) +
               " events, the stamp sink saw another count");
        }
      } catch (const std::exception& e) {
        fail("job " + std::to_string(i) + ": unreadable trace: " + e.what());
      }
      fs::remove(path);
    }
  }

  /// Each spec's best time over the timed passes, in ms. The best of
  /// several passes is what the host delivers when nothing else contends
  /// for it; on a shared host it is far steadier than any single pass.
  std::vector<double> bestJobMs() const {
    const std::size_t n = lines_.size();
    std::vector<double> best(job_ms_.begin(),
                             job_ms_.begin() + static_cast<std::ptrdiff_t>(n));
    for (std::size_t k = n; k < job_ms_.size(); ++k) {
      best[k % n] = std::min(best[k % n], job_ms_[k]);
    }
    return best;
  }

  std::vector<Metric> endToEnd(double rss_mb) const {
    double theta = 0.0;
    double slo = 0.0;
    for (const JobFacts& f : facts_) {
      theta += f.theta;
      slo += f.slo_met ? 1.0 : 0.0;
    }
    const double jobs =
        static_cast<double>(std::max<std::size_t>(facts_.size(), 1));
    const std::vector<double> best = bestJobMs();
    double stream_s = 0.0;  // one pass at each spec's best time
    for (const double ms : best) stream_s += ms / 1e3;
    const std::string passes = std::to_string(pass_seconds_.size()) + " passes";
    const std::string n = "Harrell-Davis, n=" + std::to_string(best.size()) +
                          " specs, best of " + passes;
    auto nearest = [&](unsigned pct) {
      return "; nearest rank " + jsonNumber(perfbench::percentile(best, pct));
    };
    return {
        {"setup_s", perfbench::median(setup_samples_), "s",
         "median of " + std::to_string(setup_samples_.size()) +
             " cold set-ups of " + std::to_string(cells_.size()) + " cells"},
        {"jobs_per_s", static_cast<double>(lines_.size()) / stream_s, "jobs/s",
         passes + " of " + std::to_string(lines_.size()) + " specs"},
        {"job_ms_p50", perfbench::harrellDavis(best, 50), "ms",
         n + nearest(50)},
        {"job_ms_p90", perfbench::harrellDavis(best, 90), "ms",
         n + ", " + std::to_string(perfbench::samplesBeyond(best.size(), 90)) +
             " beyond" + nearest(90)},
        {"peak_rss_mb", rss_mb, "MB", "after set-up and timed passes"},
        {"ok_share",
         1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_),
         "ratio",
         std::to_string(failed_) + " of " + std::to_string(attempted_) +
             " attempts failed"},
        {"theta_mean", theta / jobs, "theta", "simulated"},
        {"slo_met_share", slo / jobs, "ratio", "simulated"},
    };
  }

  std::vector<Metric> perLayer() const {
    const double jobs =
        static_cast<double>(std::max<std::size_t>(runs_.size(), 1));
    double setup = 0, deploy = 0, wall = 0, remainder = 0, events = 0;
    double fluid_intervals = 0, fluid_span = 0, fluid_step = 0;
    for (std::size_t k = 0; k < runs_.size(); ++k) {
      const auto& r = runs_[k];
      const std::size_t j = r.job;
      setup += static_cast<double>(r.setup);
      // The event backend simulates between the header and its post-hoc
      // interval records; take that simulation time out of deploy.
      deploy += static_cast<double>(r.deploy) -
                (j < esim_s_.size() ? esim_s_[j] * 1e9 : 0.0);
      wall += static_cast<double>(r.wall);
      remainder += static_cast<double>(r.remainder);
      events += static_cast<double>(r.events);
      if (j < event_backend_.size() && !event_backend_[j]) {
        fluid_intervals += static_cast<double>(r.interval_count);
        fluid_span += static_cast<double>(r.intervals);
        fluid_step += step_s_[j] * 1e9;
      }
    }
    auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double js = static_cast<double>(lines_.size());
    const double parse_us =
        parse_us_.empty() ? 0.0 : perfbench::median(parse_us_);
    return {
        {"exp.spec_parse_us", parse_us, "us", ""},
        {"exp.pool_hit_share", pool_hit_share_, "ratio", ""},
        {"trace.pools_built", pools_built_, "count", ""},
        {"trace.pool_build_ms", pool_build_ms_, "ms", ""},
        {"core.run_setup_us", setup / jobs / 1e3, "us", ""},
        {"core.unattributed_share", per(remainder, wall), "ratio", ""},
        {"sched.deploy_us", deploy / jobs / 1e3, "us", ""},
        {"sched.adapt_us_per_interval",
         per(fluid_span - fluid_step, fluid_intervals) / 1e3, "us", ""},
        {"sched.scale_outs_per_job", sums_.scale_outs / js, "count", ""},
        {"sched.lookahead_plans_per_job", sums_.lookahead_plans / js, "count",
         ""},
        {"sched.preacquired_vms_per_job", sums_.preacquired_vms / js, "count",
         ""},
        {"sched.alternate_switches_per_job", sums_.alternate_switches / js,
         "count", ""},
        {"sim.step_us_per_interval", per(fluid_step, fluid_intervals) / 1e3,
         "us", ""},
        {"sim.kernel_rebuilds_per_job", sums_.kernel_rebuilds / js, "count",
         ""},
        {"eventsim.ns_per_event", per(sums_.esim_s * 1e9, sums_.events), "ns",
         ""},
        {"eventsim.events_per_job", sums_.events / js, "count", ""},
        {"forecast.predictions_per_job", sums_.predictions / js, "count", ""},
        {"cloud.vms_acquired_per_job", sums_.vms_acquired / js, "count", ""},
        {"faults.preemptions_per_job", sums_.preemptions / js, "count", ""},
        {"faults.vm_failures_per_job", sums_.vm_failures / js, "count", ""},
        {"obs.events_per_job", events / jobs, "count", ""},
        {"obs.trace_bytes_per_job", trace_bytes_ / js, "bytes", ""},
        {"obs.jsonl_share",
         jsonl_ ? 1.0 - per(paired_untraced_seconds_, paired_jsonl_seconds_)
                : 0.0,
         "ratio", ""},
        {"bench.span_overhead_pct",
         100.0 * (per(traced_seconds_, paired_untraced_seconds_) - 1.0), "%",
         ""},
    };
  }

  std::string header() const {
    std::ostringstream h;
    h << "{\"workload\":" << jsonString(workloadName())
      << ",\"seed\":" << o_.seed << ",\"commit\":" << jsonString(o_.commit)
      << ",\"source_digest\":" << jsonString(o_.source_digest)
      << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
      << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
      << ",\"date\":" << jsonString(utcNow()) << ",\"workers\":1"
      << ",\"specs\":" << lines_.size() << ",\"cells\":" << cells_.size()
      << ",\"note\":\"one process, one thread: no parallel scaling is "
         "measured\"}";
    return h.str();
  }

  int report(double rss_mb) {
    if (!perfbench::percentileSupported(lines_.size(), 90)) {
      fail("too few job samples for p90");
    }
    std::string body = "{";
    std::ostringstream lines;
    try {
      const std::vector<Metric> metrics =
          o_.trace ? perLayer() : endToEnd(rss_mb);
      for (const Metric& m : metrics) {
        const std::string value = jsonNumber(m.value);
        if (body.size() > 1) body += ", ";
        body += jsonString(m.name) + ": {\"value\": " + value +
                ", \"unit\": " + jsonString(m.unit) + "}";
        lines << "  " << m.name << " = " << value << " " << m.unit;
        if (!m.note.empty()) lines << "  (" << m.note << ")";
        lines << "\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 1;
    }
    body += "}";
    for (const std::string& f : failures_) {
      std::cerr << "perfbench: FAIL " << f << "\n";
    }

    const std::string head = header();
    std::ofstream out(o_.out_dir / ("result-" + workloadName() + ".json"));
    out << "{\"header\": " << head << ", \"trace\": " << (o_.trace ? 1 : 0)
        << ", \"pass_seconds\": [";
    for (std::size_t i = 0; i < pass_seconds_.size(); ++i) {
      out << (i > 0 ? ", " : "") << jsonNumber(pass_seconds_[i]);
    }
    out << "], \"metrics\": " << body
        << ", \"correct\": " << (correct_ ? "true" : "false") << "}\n";

    std::cout << "perfbench header " << head << "\n" << lines.str();
    std::cout << "{\"correct\": " << (correct_ ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": " << body << "}"
              << std::endl;
    return correct_ ? 0 : 1;
  }

  struct LayerSums {
    double scale_outs = 0, lookahead_plans = 0, preacquired_vms = 0,
           alternate_switches = 0, kernel_rebuilds = 0, predictions = 0,
           vms_acquired = 0, preemptions = 0, vm_failures = 0, events = 0,
           esim_s = 0;
  };

  Options o_;
  std::vector<std::string> lines_;
  std::vector<Cell> cells_;
  bool jsonl_;  ///< measure the obs layer (elastic with --trace 1).
  fs::path trace_dir_;
  std::shared_ptr<dds::Substrate> substrate_;

  bool correct_ = true;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;

  std::vector<double> setup_samples_;
  std::vector<double> job_ms_;
  std::vector<double> pass_seconds_;
  std::vector<JobFacts> facts_;

  double traced_seconds_ = 0.0;
  double paired_untraced_seconds_ = 0.0;
  double paired_jsonl_seconds_ = 0.0;
  std::vector<double> parse_us_;
  std::vector<double> step_s_;
  std::vector<double> esim_s_;
  std::vector<bool> event_backend_;
  std::vector<perfbench::RunSpans> runs_;
  LayerSums sums_;

  double pools_built_ = 0.0;
  double pool_hit_share_ = 0.0;
  double pool_build_ms_ = 0.0;
  double trace_bytes_ = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseArgs(argc, argv);
  try {
    Bench bench(options);
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
