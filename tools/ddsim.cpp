// ddsim — run dynamic-dataflow experiments from a config file, a batch
// of JSON job specs, or a streaming spec service.
//
//   ddsim [options] experiment.conf      # config mode
//   ddsim --specs FILE [--jsonl OUT]     # batch spec mode
//   ddsim --serve [--queue N]            # service mode (specs on stdin)
//
// Options:
//   --jobs N      run on N worker threads (default: all hardware
//                 threads; 1 = serial). Results are identical at any
//                 job count — only the wall clock changes.
//   --json FILE   write the campaign results as a JSON document.
//   --jsonl FILE  write one compact JSON record per job (the serve-mode
//                 record format; timing-free, byte-stable).
//   --trace FILE  stream each run's event trace as JSONL (one file per
//                 scheduler when the config runs several); inspect the
//                 files with the ddtrace tool.
//   --specs FILE  read v1 JSON job specs, one per line; with --serve
//                 they stream, without it they run as one campaign.
//   --serve       read specs from stdin (or --specs FILE) and stream a
//                 result record per spec to stdout as each finishes.
//   --queue N     serve-mode backpressure: at most N jobs in flight
//                 (default 2x workers).
//   --help        print usage and exit.
//
// Serve/batch records are byte-identical for the same specs at any
// --jobs, which is what the CI smoke job diffs.
//
// The config format is documented in dds/config/config_file.hpp; see
// tools/example.conf for a ready-made experiment. Prints a summary row
// per scheduler and, when `output_csv` is set, writes the per-interval
// series of each run as `<output_csv>.<scheduler>.csv`.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dds/exp/serve.hpp"

#include "dds/config/config_file.hpp"
#include "dds/core/report.hpp"
#include "dds/dds.hpp"

namespace {

using namespace dds;

struct CliOptions {
  std::string config_path;
  std::string json_path;
  std::string jsonl_path;
  std::string trace_path;
  std::string specs_path;
  std::size_t jobs = 0;   ///< 0 = hardware concurrency.
  std::size_t queue = 0;  ///< 0 = serve default (2x workers).
  bool serve = false;
  bool help = false;
};

void printUsage(std::ostream& out) {
  out << "usage: ddsim [options] <config-file>\n"
         "       ddsim --specs FILE [--jsonl OUT]   batch job specs\n"
         "       ddsim --serve [--queue N]          spec service on stdin\n"
         "  --jobs N      worker threads for the scheduler runs\n"
         "                (default: all hardware threads; 1 = serial)\n"
         "  --json FILE   write campaign results as JSON\n"
         "  --jsonl FILE  write one compact record per job (timing-free)\n"
         "  --trace FILE  stream each run's event trace as JSONL\n"
         "                (per-scheduler files FILE.<label> when the\n"
         "                config runs several; inspect with ddtrace)\n"
         "  --specs FILE  v1 JSON job specs, one per line\n"
         "  --serve       stream one result record per spec, in order\n"
         "  --queue N     serve backpressure window (default 2x workers)\n"
         "  --help        show this message\n"
         "schedulers (config `scheduler = ...`):";
  // The list is generated from the registry so --help can never drift
  // from the policies the binary actually knows.
  for (const SchedulerSpec& spec : allSchedulers()) {
    out << ' ' << schedulerName(spec);
  }
  out << "\nrate profiles (config `workload.profile = ...`):";
  for (const ProfileKind kind : allProfileKinds()) {
    out << ' ' << profileName(kind);
  }
  out << "\nforecast models (config `forecast.model = ...`):";
  for (const ForecastModel model : allForecastModels()) {
    out << ' ' << forecastModelName(model);
  }
  out << "\nbackends (config `backend = ...`): fluid event\n"
         "config families: workload.* fault.* elasticity.* resilience.*\n"
         "forecast.* (nested keys only; an unknown key is an error)\n"
         "see tools/example.conf for the config format\n";
}

/// Parses argv; throws ConfigError on malformed flags.
CliOptions parseArgs(int argc, char** argv) {
  CliOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) throw ConfigError("--jobs requires a count");
      const std::string v = argv[++i];
      try {
        const long n = std::stol(v);
        if (n < 1) throw ConfigError("--jobs must be >= 1, got '" + v + "'");
        opts.jobs = static_cast<std::size_t>(n);
      } catch (const std::logic_error&) {
        throw ConfigError("--jobs is not a number: '" + v + "'");
      }
    } else if (arg == "--json") {
      if (i + 1 >= argc) throw ConfigError("--json requires a file path");
      opts.json_path = argv[++i];
    } else if (arg == "--jsonl") {
      if (i + 1 >= argc) throw ConfigError("--jsonl requires a file path");
      opts.jsonl_path = argv[++i];
    } else if (arg == "--specs") {
      if (i + 1 >= argc) throw ConfigError("--specs requires a file path");
      opts.specs_path = argv[++i];
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--queue") {
      if (i + 1 >= argc) throw ConfigError("--queue requires a count");
      const std::string v = argv[++i];
      try {
        const long n = std::stol(v);
        if (n < 1) throw ConfigError("--queue must be >= 1, got '" + v + "'");
        opts.queue = static_cast<std::size_t>(n);
      } catch (const std::logic_error&) {
        throw ConfigError("--queue is not a number: '" + v + "'");
      }
    } else if (arg == "--trace") {
      if (i + 1 >= argc) throw ConfigError("--trace requires a file path");
      opts.trace_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      throw ConfigError("unknown option: '" + arg + "'");
    } else if (opts.config_path.empty()) {
      opts.config_path = arg;
    } else {
      throw ConfigError("more than one config file given");
    }
  }
  return opts;
}

bool blankLine(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

/// Serve mode: stream records as jobs finish, bounded in-flight window.
int runServe(const CliOptions& opts) {
  std::ifstream file_in;
  std::istream* in = &std::cin;
  if (!opts.specs_path.empty()) {
    file_in.open(opts.specs_path);
    if (!file_in) throw IoError("cannot open spec file: " + opts.specs_path);
    in = &file_in;
  }
  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (!opts.jsonl_path.empty()) {
    file_out.open(opts.jsonl_path);
    if (!file_out) {
      throw IoError("cannot open for writing: " + opts.jsonl_path);
    }
    out = &file_out;
  }
  ServeOptions serve;
  serve.jobs = opts.jobs;
  serve.queue = opts.queue;
  const ServeStats stats = serveCampaign(*in, *out, serve);
  std::cerr << "ddsim: served " << stats.specs << " specs (" << stats.ok
            << " ok, " << stats.failed << " failed, " << stats.rejected
            << " rejected)\n";
  return 0;
}

/// Batch spec mode: same records as serve, produced via Campaign +
/// runCampaign — the reference the serve path is diffed against.
int runSpecBatch(const CliOptions& opts) {
  std::ifstream in(opts.specs_path);
  if (!in) throw IoError("cannot open spec file: " + opts.specs_path);

  Campaign campaign;
  // Per non-blank line: the campaign job index, or -1 with the rejection
  // message (a bad line still gets its record, like in serve mode).
  std::vector<long> line_job;
  std::vector<std::string> line_error;
  std::string line;
  while (std::getline(in, line)) {
    if (blankLine(line)) continue;
    try {
      const std::size_t job = campaign.addSpec(parseJobSpec(line));
      line_job.push_back(static_cast<long>(job));
      line_error.emplace_back();
    } catch (const ConfigError& e) {
      line_job.push_back(-1);
      line_error.emplace_back(e.what());
    }
  }

  RunnerOptions runner;
  runner.jobs = opts.jobs;
  const CampaignResult res = runCampaign(campaign, runner);

  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (!opts.jsonl_path.empty()) {
    file_out.open(opts.jsonl_path);
    if (!file_out) {
      throw IoError("cannot open for writing: " + opts.jsonl_path);
    }
    out = &file_out;
  }
  for (std::size_t i = 0; i < line_job.size(); ++i) {
    if (line_job[i] < 0) {
      *out << specErrorJson(i, line_error[i]) << '\n';
    } else {
      *out << jobRecordJson(
                  res.outcomes[static_cast<std::size_t>(line_job[i])], i)
           << '\n';
    }
  }
  if (!opts.json_path.empty()) {
    saveCampaignJson(opts.json_path, res, "specs");
  }
  std::cerr << "ddsim: ran " << res.outcomes.size() << " spec jobs ("
            << res.failureCount() << " failed, "
            << (line_job.size() - res.outcomes.size()) << " rejected) on "
            << res.jobs_used << (res.jobs_used == 1 ? " thread" : " threads")
            << ", " << campaign.distinctConfigCount()
            << " distinct configs\n";
  return 0;
}

Dataflow buildGraph(const CliExperiment& ex) {
  if (ex.graph == "paper") return makePaperDataflow();
  if (ex.graph == "diamond") return makeDiamondDataflow();
  return makeChainDataflow(ex.chain_length, 2);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliOptions opts = parseArgs(argc, argv);
    if (opts.help) {
      printUsage(std::cout);
      return 0;
    }
    if (opts.serve || !opts.specs_path.empty()) {
      if (!opts.config_path.empty()) {
        // A mode conflict is a usage error, not a config error.
        std::cerr << "ddsim: spec modes (--serve/--specs) do not take a "
                     "config file\n";
        return 2;
      }
      return opts.serve ? runServe(opts) : runSpecBatch(opts);
    }
    if (opts.config_path.empty()) {
      printUsage(std::cerr);
      return 2;
    }

    const auto kv = dds::KeyValueConfig::load(opts.config_path);
    const auto ex = dds::experimentFromConfig(kv);
    const dds::Dataflow df = buildGraph(ex);

    std::cout << "dataflow '" << df.name() << "': " << df.peCount()
              << " PEs, " << df.totalAlternateCount() << " alternates; "
              << "rate " << ex.config.workload.mean_rate << " msg/s ("
              << dds::profileName(ex.config.workload.profile) << "), horizon "
              << ex.config.horizon_s / dds::kSecondsPerHour << " h, sigma "
              << dds::SimulationEngine(df, ex.config).sigma() << "\n\n";

    dds::Campaign campaign;
    campaign.addPolicySweep(df, ex.config, ex.schedulers);
    if (!opts.trace_path.empty()) {
      campaign.setTracePaths(opts.trace_path);
    }
    dds::RunnerOptions runner;
    runner.jobs = opts.jobs;
    const dds::CampaignResult res = dds::runCampaign(campaign, runner);
    res.throwIfAnyFailed();

    std::vector<dds::ExperimentResult> results;
    results.reserve(res.outcomes.size());
    for (const auto& outcome : res.outcomes) {
      results.push_back(outcome.result);
      if (!ex.output_csv.empty()) {
        const std::string path =
            ex.output_csv + "." + outcome.result.scheduler_name + ".csv";
        dds::saveCsv(path, dds::intervalSeriesCsv(outcome.result.run));
        std::cout << "wrote " << path << '\n';
      }
    }
    std::cout << dds::summaryTable(results).render();
    std::cout << "\n(" << res.outcomes.size() << " runs on "
              << res.jobs_used << (res.jobs_used == 1 ? " thread, " : " threads, ")
              << res.wall_s << " s)\n";

    if (!opts.json_path.empty()) {
      dds::saveCampaignJson(opts.json_path, res, df.name());
      std::cout << "wrote " << opts.json_path << '\n';
    }
    if (!opts.jsonl_path.empty()) {
      std::ofstream jsonl(opts.jsonl_path);
      if (!jsonl) throw dds::IoError("cannot open for writing: " + opts.jsonl_path);
      jsonl << dds::campaignJsonl(res);
      std::cout << "wrote " << opts.jsonl_path << '\n';
    }
    if (!opts.trace_path.empty()) {
      for (const auto& job : campaign.jobs()) {
        std::cout << "wrote " << job.trace_path << '\n';
      }
    }
    return 0;
  } catch (const dds::ConfigError& e) {
    // A user mistake in the config file: one clean line, no source noise.
    std::cerr << "ddsim: config error: " << e.what() << '\n';
    return 1;
  } catch (const dds::IoError& e) {
    std::cerr << "ddsim: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "ddsim: error: " << e.what() << '\n';
    return 1;
  } catch (...) {
    std::cerr << "ddsim: unknown error\n";
    return 1;
  }
}
