#include "dds/exp/campaign.hpp"

#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <utility>

#include "dds/common/json.hpp"
#include "dds/common/thread_pool.hpp"
#include "dds/exp/substrate.hpp"
#include "dds/obs/jsonl_sink.hpp"

namespace dds {
namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

JobOutcome runExperimentJob(const ExperimentJob& job, std::size_t index,
                            Substrate* substrate) {
  JobOutcome out;
  out.index = index;
  out.label = job.label.empty() ? schedulerName(job.kind) : job.label;
  out.tenant = job.tenant;
  out.kind = job.kind;
  out.seed = job.config.seed;
  const auto start = Clock::now();
  try {
    const SimulationEngine engine(
        *job.dataflow, job.config,
        substrate == nullptr
            ? EngineArenas{}
            : substrate->arenasFor(*job.dataflow, job.config));
    if (job.trace_path.empty()) {
      out.result = engine.run(job.kind);
    } else {
      obs::JsonlTraceSink sink(job.trace_path);
      out.result = engine.run(job.kind, &sink);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_s = secondsSince(start);
  return out;
}

ExperimentJob jobFromSpec(const JobSpec& spec, Substrate& substrate) {
  const CliExperiment ex = experimentFromSpec(spec);
  if (ex.schedulers.size() != 1) {
    throw ConfigError("a job spec must name exactly one scheduler, got '" +
                      spec.scheduler + "'");
  }
  // The substrate cache owns the graph; it outlives any job built here
  // as long as the substrate itself is kept alive by the caller.
  const std::shared_ptr<const Dataflow> df =
      substrate.graphFor(ex.graph, ex.chain_length);
  ExperimentJob job;
  job.dataflow = df.get();
  job.config = ex.config;
  job.kind = ex.schedulers.front();
  job.label = spec.label;
  job.tenant = spec.tenant;
  return job;
}

Campaign::Campaign() : substrate_(std::make_shared<Substrate>()) {}

std::size_t Campaign::add(ExperimentJob job) {
  DDS_REQUIRE(job.dataflow != nullptr, "campaign job needs a dataflow");
  job.config.validate();

  Entry entry;
  entry.dataflow = job.dataflow;
  entry.seed = job.config.seed;
  entry.kind = job.kind;
  entry.label = std::move(job.label);
  entry.trace_path = std::move(job.trace_path);
  entry.tenant = std::move(job.tenant);

  // Intern the config with the seed factored out: a seed sweep collapses
  // to one shared base. Linear scan — distinct configs are few compared
  // to jobs, which is the whole point.
  ExperimentConfig base = std::move(job.config);
  base.seed = 0;
  for (const auto& interned : bases_) {
    if (*interned == base) {
      entry.base = interned;
      break;
    }
  }
  if (entry.base == nullptr) {
    entry.base = std::make_shared<const ExperimentConfig>(std::move(base));
    bases_.push_back(entry.base);
  }
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

std::size_t Campaign::addSpec(const JobSpec& spec) {
  return add(jobFromSpec(spec, *substrate_));
}

void Campaign::addPolicySweep(const Dataflow& dataflow,
                              const ExperimentConfig& base,
                              const std::vector<SchedulerSpec>& kinds) {
  for (const SchedulerSpec& kind : kinds) {
    add({.dataflow = &dataflow, .config = base, .kind = kind});
  }
}

void Campaign::addSeedSweep(const Dataflow& dataflow,
                            const ExperimentConfig& base,
                            const SchedulerSpec& kind, std::size_t runs) {
  DDS_REQUIRE(runs >= 1, "need at least one run");
  for (std::size_t i = 0; i < runs; ++i) {
    ExperimentConfig cfg = base;
    cfg.seed = base.seed + i;
    add({.dataflow = &dataflow, .config = cfg, .kind = kind});
  }
}

void Campaign::setTracePaths(const std::string& base) {
  DDS_REQUIRE(!base.empty(), "trace path base must be non-empty");
  if (entries_.size() == 1) {
    entries_.front().trace_path = base;
    return;
  }
  std::map<std::string, int> label_uses;
  for (const Entry& entry : entries_) {
    const std::string label =
        entry.label.empty() ? schedulerName(entry.kind) : entry.label;
    ++label_uses[label];
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    const std::string label =
        entry.label.empty() ? schedulerName(entry.kind) : entry.label;
    entry.trace_path = base + "." + label;
    if (label_uses[label] > 1) {
      entry.trace_path += '.';
      entry.trace_path += std::to_string(i);
    }
  }
}

void Campaign::setSubstrate(std::shared_ptr<Substrate> substrate) {
  DDS_REQUIRE(substrate != nullptr, "campaign substrate must be non-null");
  substrate_ = std::move(substrate);
}

ExperimentJob Campaign::job(std::size_t index) const {
  DDS_REQUIRE(index < entries_.size(), "job index out of range");
  const Entry& entry = entries_[index];
  ExperimentJob job;
  job.dataflow = entry.dataflow;
  job.config = *entry.base;
  job.config.seed = entry.seed;
  job.kind = entry.kind;
  job.label = entry.label;
  job.trace_path = entry.trace_path;
  job.tenant = entry.tenant;
  return job;
}

std::vector<ExperimentJob> Campaign::jobs() const {
  std::vector<ExperimentJob> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out.push_back(job(i));
  }
  return out;
}

std::size_t CampaignResult::failureCount() const {
  std::size_t n = 0;
  for (const JobOutcome& o : outcomes) {
    if (!o.ok) ++n;
  }
  return n;
}

void CampaignResult::throwIfAnyFailed() const {
  for (const JobOutcome& o : outcomes) {
    if (!o.ok) {
      throw PreconditionError("campaign job '" + o.label +
                              "' failed: " + o.error);
    }
  }
}

CampaignResult runCampaign(const Campaign& campaign,
                           const RunnerOptions& options) {
  const std::size_t workers =
      options.jobs == 0 ? ThreadPool::hardwareConcurrency() : options.jobs;
  Substrate* substrate = campaign.substrate().get();
  CampaignResult result;
  result.jobs_used = workers;
  result.outcomes.reserve(campaign.size());
  const auto start = Clock::now();

  if (workers <= 1 || campaign.size() <= 1) {
    // Serial reference path: no pool, same code path per job.
    for (std::size_t i = 0; i < campaign.size(); ++i) {
      result.outcomes.push_back(runExperimentJob(campaign.job(i), i, substrate));
    }
    result.jobs_used = 1;
    result.wall_s = secondsSince(start);
    return result;
  }

  ThreadPool pool(workers);
  std::vector<std::future<JobOutcome>> futures;
  futures.reserve(campaign.size());
  for (std::size_t i = 0; i < campaign.size(); ++i) {
    // Materialize inside the worker: peak config copies stay O(workers),
    // not O(jobs).
    futures.push_back(pool.submit([&campaign, substrate, i]() {
      return runExperimentJob(campaign.job(i), i, substrate);
    }));
  }
  // Collect in submission order — completion order never leaks into the
  // result, which is what makes parallel output bit-identical to serial.
  for (auto& future : futures) {
    result.outcomes.push_back(future.get());
  }
  result.wall_s = secondsSince(start);
  return result;
}

namespace {

/// The result keys a successful job reports, in both campaign documents.
void writeResultKeys(JsonWriter& w, const ExperimentResult& r) {
  w.key("omega").value(r.average_omega);
  w.key("gamma").value(r.average_gamma);
  w.key("cost").value(r.total_cost);
  w.key("theta").value(r.theta);
  w.key("constraint_met").value(r.constraint_met);
  w.key("peak_vms").value(r.peak_vms);
  w.key("peak_cores").value(r.peak_cores);
  w.key("intervals").value(r.run.intervals().size());
}

}  // namespace

std::string campaignJson(const CampaignResult& result,
                         const std::string& name,
                         const CampaignJsonOptions& options) {
  JsonWriter w;
  w.beginObject();
  w.key("name").value(name);
  w.key("jobs_used").value(result.jobs_used);
  if (options.include_timing) {
    w.key("wall_s").value(result.wall_s);
  }
  w.key("job_count").value(result.outcomes.size());
  w.key("failures").value(result.failureCount());
  w.key("runs").beginArray();
  for (const JobOutcome& o : result.outcomes) {
    w.beginObject();
    w.key("index").value(o.index);
    w.key("label").value(o.label);
    if (!o.tenant.empty()) {
      w.key("tenant").value(o.tenant);
    }
    w.key("scheduler").value(schedulerName(o.kind));
    w.key("seed").value(o.seed);
    w.key("ok").value(o.ok);
    if (options.include_timing) {
      w.key("wall_s").value(o.wall_s);
    }
    if (o.ok) {
      writeResultKeys(w, o.result);
      if (!o.result.metrics.empty()) {
        w.key("metrics").beginObject();
        for (const obs::MetricSample& m : o.result.metrics) {
          // *_per_s gauges are wall-clock measurements; a timing-free
          // document must not depend on them.
          if (!options.include_timing &&
              m.kind == obs::MetricSample::Kind::Gauge &&
              m.name.ends_with("_per_s")) {
            continue;
          }
          w.key(m.name).beginObject();
          switch (m.kind) {
            case obs::MetricSample::Kind::Counter:
              w.key("count").value(m.count);
              break;
            case obs::MetricSample::Kind::Gauge:
              w.key("value").value(m.value);
              break;
            case obs::MetricSample::Kind::Histogram:
              w.key("count").value(m.count);
              w.key("mean").value(m.mean);
              w.key("min").value(m.min);
              w.key("max").value(m.max);
              w.key("p50").value(m.p50);
              w.key("p95").value(m.p95);
              w.key("p99").value(m.p99);
              break;
          }
          w.endObject();
        }
        w.endObject();
      }
    } else {
      w.key("error").value(o.error);
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

void saveCampaignJson(const std::string& path, const CampaignResult& result,
                      const std::string& name) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path);
  out << campaignJson(result, name);
  if (!out) throw IoError("failed writing: " + path);
}

std::string jobRecordJson(const JobOutcome& o, std::size_t index) {
  JsonWriter w(JsonWriter::Options{JsonWriter::Style::Compact,
                                   JsonWriter::NonFinitePolicy::StringSentinel});
  w.beginObject();
  w.key("v").value(JobSpec::kVersion);
  w.key("index").value(static_cast<std::uint64_t>(index));
  w.key("tenant").value(o.tenant);
  w.key("label").value(o.label);
  w.key("scheduler").value(schedulerName(o.kind));
  w.key("seed").value(o.seed);
  w.key("ok").value(o.ok);
  if (o.ok) {
    writeResultKeys(w, o.result);
  } else {
    w.key("error").value(o.error);
  }
  w.endObject();
  return w.str();
}

std::string campaignJsonl(const CampaignResult& result) {
  std::string out;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    out += jobRecordJson(result.outcomes[i], i);
    out += '\n';
  }
  return out;
}

}  // namespace dds
