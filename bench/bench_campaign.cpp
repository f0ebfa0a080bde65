// Campaign-runner perf baseline: serial vs parallel wall-clock for the
// headline evaluation grid, plus the fluid simulator's per-interval cost
// (the quantity the interval-cache optimization targets).
//
//   bench_campaign [--commit=SHA]
//                  [output.json] [trace-overhead.json] [tenants] [jobs]
//   (defaults: BENCH_campaign.json, BENCH_trace_overhead.json, 10, 10)
//
// The grid is 4 policies x 4 seeds at 10 msg/s wave + infra variability
// over 2 h — 16 independent engine runs. Speedup scales with physical
// cores; on a single-core host serial and parallel wall-clocks coincide,
// so the JSON labels the speedup with the worker and core counts it was
// measured with, next to the shared provenance header (bench_header.hpp).
//
// A second section times the same headline run untraced (null sink —
// the hot path the observability layer must not touch), with a ring
// buffer, and streaming JSONL, and records the overhead of each in
// BENCH_trace_overhead.json (the null-sink overhead is the acceptance
// budget: < 2%).
//
// A third section measures the campaign-service substrate: a tenants x
// jobs spec grid (default 10 x 10; pass e.g. 100 100 for the full
// sweep) where every job needs a catalog and a planner closure and
// replays the shared FutureGrid trace corpus. Per-job cold arena builds are timed against shared
// substrate lookups, and the whole grid is run twice on one substrate
// (cold, then warm) — the amortization the multi-tenant redesign buys.
//
// A fourth section is the 10k-job scaling demo: a 1k/4k/10k seed-sweep
// ladder of short fluid jobs on one substrate (every job sharing the
// immutable SoA fluid layout), asserting the layout is built exactly
// once and recording how flat per-job cost stays as the grid grows.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_header.hpp"
#include "bench_util.hpp"
#include "dds/common/json.hpp"
#include "dds/common/thread_pool.hpp"
#include "dds/exp/substrate.hpp"
#include "dds/obs/jsonl_sink.hpp"

int main(int argc, char** argv) {
  using namespace dds;
  using namespace dds::bench;
  using clock = std::chrono::steady_clock;

  const std::string kCommitFlag = "--commit=";
  std::string commit = "unknown";
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with(kCommitFlag)) {
      commit = arg.substr(kCommitFlag.size());
    } else {
      args.push_back(arg);
    }
  }
  const std::string out_path =
      args.size() > 0 ? args[0] : std::string("BENCH_campaign.json");
  const std::string overhead_path =
      args.size() > 1 ? args[1] : std::string("BENCH_trace_overhead.json");
  const std::size_t sweep_tenants =
      args.size() > 2 ? static_cast<std::size_t>(std::stoul(args[2])) : 10;
  const std::size_t sweep_jobs =
      args.size() > 3 ? static_cast<std::size_t>(std::stoul(args[3])) : 10;

  printHeader("Campaign",
              "parallel campaign runner: serial vs all-cores wall-clock");

  const Dataflow df = makePaperDataflow();
  ExperimentConfig cfg;
  cfg.horizon_s = 2.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = ProfileKind::PeriodicWave;
  cfg.workload.infra_variability = true;
  cfg.seed = 2013;

  Campaign campaign;
  const std::vector<SchedulerSpec> kinds = {
      parseScheduler("global"), parseScheduler("local"),
      parseScheduler("global-nodyn"), parseScheduler("global-static")};
  for (const auto kind : kinds) {
    campaign.addSeedSweep(df, cfg, kind, 4);
  }

  const CampaignResult serial = runCampaign(campaign, {.jobs = 1});
  const CampaignResult parallel = runCampaign(campaign, {.jobs = 0});
  serial.throwIfAnyFailed();
  parallel.throwIfAnyFailed();

  // Results must agree bit-for-bit; abort the baseline if they ever don't.
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    DDS_REQUIRE(serial.outcomes[i].result.average_omega ==
                    parallel.outcomes[i].result.average_omega,
                "parallel campaign diverged from serial");
  }

  // Per-interval simulator cost: one timed engine run over the headline
  // config, divided by its interval count.
  const auto t0 = clock::now();
  const auto one = SimulationEngine(df, cfg).run(kinds[0]);
  const double one_run_s =
      std::chrono::duration<double>(clock::now() - t0).count();
  const auto intervals = one.run.intervals().size();
  const double per_interval_us =
      intervals == 0 ? 0.0 : one_run_s * 1.0e6 /
                                 static_cast<double>(intervals);

  const double speedup =
      parallel.wall_s > 0.0 ? serial.wall_s / parallel.wall_s : 1.0;
  const std::string speedup_note =
      "serial vs " + std::to_string(parallel.jobs_used) +
      " workers on a host with " +
      std::to_string(ThreadPool::hardwareConcurrency()) +
      " hardware threads";
  TextTable table({"metric", "value"});
  table.addRow({"jobs (serial)", "1"});
  table.addRow({"jobs (parallel)", std::to_string(parallel.jobs_used)});
  table.addRow({"grid size", std::to_string(campaign.size())});
  table.addRow({"serial wall (s)", TextTable::num(serial.wall_s, 3)});
  table.addRow({"parallel wall (s)", TextTable::num(parallel.wall_s, 3)});
  table.addRow({"speedup (" + speedup_note + ")",
                TextTable::num(speedup, 2)});
  table.addRow({"sim cost / interval (us)",
                TextTable::num(per_interval_us, 1)});
  std::cout << table.render() << '\n';

  // The campaign section, written first on its own and again below with
  // the tenant sweep and scale ladder appended.
  const auto writeCampaign = [&](JsonWriter& jw) {
    jw.key("name").value("campaign-runner-baseline");
    jw.key("header").beginObject();
    writeProvenance(jw, commit);
    jw.endObject();
    jw.key("grid").beginObject();
    jw.key("policies").value(kinds.size());
    jw.key("seeds_per_policy").value(std::size_t{4});
    jw.key("jobs_total").value(campaign.size());
    jw.key("horizon_s").value(cfg.horizon_s);
    jw.key("mean_rate").value(cfg.workload.mean_rate);
    jw.endObject();
    jw.key("host_hardware_concurrency")
        .value(ThreadPool::hardwareConcurrency());
    jw.key("serial_wall_s").value(serial.wall_s);
    jw.key("parallel_wall_s").value(parallel.wall_s);
    jw.key("parallel_jobs_used").value(parallel.jobs_used);
    jw.key("speedup").value(speedup);
    jw.key("speedup_measured_with").value(speedup_note);
    jw.key("intervals_per_run").value(intervals);
    jw.key("sim_cost_per_interval_us").value(per_interval_us);
    jw.key("results_bit_identical").value(true);
  };
  JsonWriter w;
  w.beginObject();
  writeCampaign(w);
  w.endObject();
  {
    // Scoped: the file is re-written (with the tenant sweep appended)
    // below, and a still-open handle would flush stale bytes over it.
    std::ofstream out(out_path);
    DDS_REQUIRE(out.good(), "cannot open bench output file");
    out << w.str();
  }
  std::cout << "wrote " << out_path << '\n';

  // --- Trace overhead: untraced vs ring buffer vs streaming JSONL. ---
  printHeader("Trace overhead",
              "null sink vs ring buffer vs streaming JSONL, same run");

  const SimulationEngine engine(df, cfg);
  const int reps = 5;
  // Best-of-reps: robust against scheduler noise, and the right statistic
  // for "how cheap can this path be".
  const auto bestOf = [&](auto&& body) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto start = clock::now();
      body();
      best = std::min(
          best, std::chrono::duration<double>(clock::now() - start).count());
    }
    return best;
  };

  std::uint64_t jsonl_events = 0;
  std::size_t jsonl_bytes = 0;
  const double untraced_s = bestOf([&] { (void)engine.run(kinds[0]); });
  const double ring_s = bestOf([&] {
    obs::RingBufferSink ring(4096);
    (void)engine.run(kinds[0], &ring);
  });
  const double jsonl_s = bestOf([&] {
    std::ostringstream sink_out;
    obs::JsonlTraceSink sink(sink_out);
    (void)engine.run(kinds[0], &sink);
    jsonl_events = sink.eventCount();
    jsonl_bytes = sink_out.str().size();
  });

  const auto pct = [&](double traced) {
    return untraced_s > 0.0 ? (traced - untraced_s) / untraced_s * 100.0
                            : 0.0;
  };
  TextTable overhead({"sink", "best wall (s)", "overhead (%)"});
  overhead.addRow({"none (null tracer)", TextTable::num(untraced_s, 4), "-"});
  overhead.addRow({"ring buffer (4096)", TextTable::num(ring_s, 4),
                   TextTable::num(pct(ring_s), 1)});
  overhead.addRow({"jsonl stream", TextTable::num(jsonl_s, 4),
                   TextTable::num(pct(jsonl_s), 1)});
  std::cout << overhead.render() << '\n'
            << "trace: " << jsonl_events << " events, " << jsonl_bytes
            << " bytes JSONL\n";

  JsonWriter ow;
  ow.beginObject();
  ow.key("name").value("trace-overhead-baseline");
  ow.key("reps_best_of").value(std::int64_t{reps});
  ow.key("horizon_s").value(cfg.horizon_s);
  ow.key("intervals_per_run").value(intervals);
  ow.key("untraced_wall_s").value(untraced_s);
  ow.key("ring_wall_s").value(ring_s);
  ow.key("ring_overhead_pct").value(pct(ring_s));
  ow.key("jsonl_wall_s").value(jsonl_s);
  ow.key("jsonl_overhead_pct").value(pct(jsonl_s));
  ow.key("jsonl_events").value(jsonl_events);
  ow.key("jsonl_bytes").value(jsonl_bytes);
  ow.endObject();
  std::ofstream oout(overhead_path);
  DDS_REQUIRE(oout.good(), "cannot open trace-overhead output file");
  oout << ow.str();
  std::cout << "wrote " << overhead_path << '\n';

  // --- Substrate amortization: tenants x jobs on shared arenas. ---
  printHeader("Campaign service",
              "tenants x jobs spec grid on a shared substrate");

  // Rates vary by tenant (modulo 8, so large sweeps also exercise
  // cross-tenant config interning), one seed per job — the substrate
  // should intern one catalog and one planner closure for all of them.
  Campaign grid;
  for (std::size_t t = 0; t < sweep_tenants; ++t) {
    for (std::size_t j = 0; j < sweep_jobs; ++j) {
      const std::string spec_line =
          "{\"v\": 1, \"tenant\": \"tenant-" + std::to_string(t) +
          "\", \"scheduler\": \"global\", \"config\": {\"seed\": " +
          std::to_string(j) + ", \"horizon_h\": 0.1, " +
          "\"workload.mean_rate\": " + std::to_string(4 + t % 8) +
          ", \"workload.profile\": \"wave\", " +
          "\"workload.infra_variability\": true}}";
      grid.addSpec(parseJobSpec(spec_line));
    }
  }
  const std::size_t grid_jobs = grid.size();

  // Per-job setup, cold: every job builds its own arenas from scratch
  // (what the engine did per run before the substrate existed).
  const auto cold0 = clock::now();
  for (std::size_t i = 0; i < grid_jobs; ++i) {
    Substrate fresh;
    const ExperimentJob job = grid.job(i);
    (void)fresh.arenasFor(*job.dataflow, job.config);
  }
  const double cold_s =
      std::chrono::duration<double>(clock::now() - cold0).count();

  // Per-job setup, shared: the same lookups against one substrate.
  Substrate shared;
  const auto warm0 = clock::now();
  for (std::size_t i = 0; i < grid_jobs; ++i) {
    const ExperimentJob job = grid.job(i);
    (void)shared.arenasFor(*job.dataflow, job.config);
  }
  const double shared_s =
      std::chrono::duration<double>(clock::now() - warm0).count();
  const Substrate::Stats sstats = shared.stats();

  // The full grid, twice on one substrate: the second pass runs with
  // every arena warm (steady-state service behaviour).
  const auto run0 = clock::now();
  const CampaignResult grid_cold = runCampaign(grid, {.jobs = 0});
  const double grid_cold_s =
      std::chrono::duration<double>(clock::now() - run0).count();
  grid_cold.throwIfAnyFailed();
  const auto run1 = clock::now();
  const CampaignResult grid_warm = runCampaign(grid, {.jobs = 0});
  const double grid_warm_s =
      std::chrono::duration<double>(clock::now() - run1).count();
  grid_warm.throwIfAnyFailed();
  DDS_REQUIRE(campaignJsonl(grid_cold) == campaignJsonl(grid_warm),
              "warm substrate changed campaign results");

  const auto jobs = static_cast<double>(grid_jobs);
  const double per_job_cold_ms = cold_s * 1.0e3 / jobs;
  const double per_job_shared_us = shared_s * 1.0e6 / jobs;
  TextTable sweep({"metric", "value"});
  sweep.addRow({"tenants", std::to_string(sweep_tenants)});
  sweep.addRow({"jobs/tenant", std::to_string(sweep_jobs)});
  sweep.addRow({"grid jobs", std::to_string(grid_jobs)});
  sweep.addRow({"distinct configs",
                std::to_string(grid.distinctConfigCount())});
  sweep.addRow({"arena setup, cold (ms/job)",
                TextTable::num(per_job_cold_ms, 3)});
  sweep.addRow({"arena setup, shared (us/job)",
                TextTable::num(per_job_shared_us, 3)});
  sweep.addRow({"setup amortization",
                TextTable::num(shared_s > 0.0 ? cold_s / shared_s : 0.0, 1) +
                    "x"});
  sweep.addRow({"grid wall, cold substrate (s)",
                TextTable::num(grid_cold_s, 3)});
  sweep.addRow({"grid wall, warm substrate (s)",
                TextTable::num(grid_warm_s, 3)});
  std::cout << sweep.render() << '\n';

  // --- Scale ladder: the 10k-job campaign demo. ---
  printHeader("Campaign scale",
              "10k-job seed sweep on one substrate: per-job cost must "
              "stay flat as the grid grows");

  // Short-horizon fluid jobs sharing every immutable arena, including
  // the SoA fluid layout (one build for the whole ladder). Ideal infra:
  // no trace replay, so the ladder isolates runner + substrate + kernel
  // scaling.
  ExperimentConfig scale_cfg;
  scale_cfg.horizon_s = 0.1 * kSecondsPerHour;
  scale_cfg.workload.mean_rate = 10.0;
  scale_cfg.workload.profile = ProfileKind::PeriodicWave;
  scale_cfg.seed = 1;

  struct ScaleRung {
    std::size_t jobs = 0;
    double wall_s = 0.0;
    double per_job_ms = 0.0;
    std::size_t distinct_configs = 0;
  };
  std::vector<ScaleRung> ladder;
  auto scale_substrate = std::make_shared<Substrate>();
  for (const std::size_t n : {std::size_t{1000}, std::size_t{4000},
                              std::size_t{10000}}) {
    Campaign scale;
    scale.setSubstrate(scale_substrate);
    scale.addSeedSweep(df, scale_cfg, parseScheduler("global"), n);
    const auto s0 = clock::now();
    const CampaignResult res = runCampaign(scale, {.jobs = 0});
    const double wall =
        std::chrono::duration<double>(clock::now() - s0).count();
    res.throwIfAnyFailed();
    ladder.push_back({n, wall, wall * 1.0e3 / static_cast<double>(n),
                      scale.distinctConfigCount()});
  }
  const Substrate::Stats scale_stats = scale_substrate->stats();
  DDS_REQUIRE(scale_stats.fluid_layout_builds == 1,
              "scale ladder rebuilt the shared fluid layout");
  // Near-linear scaling: per-job cost at 10k within 25% of the 1k rung
  // (substrate setup amortized, no superlinear term in the runner).
  const double scale_ratio =
      ladder.front().per_job_ms > 0.0
          ? ladder.back().per_job_ms / ladder.front().per_job_ms
          : 0.0;

  TextTable scale_table({"jobs", "wall (s)", "ms/job", "configs"});
  for (const ScaleRung& r : ladder) {
    scale_table.addRow({std::to_string(r.jobs), TextTable::num(r.wall_s, 3),
                        TextTable::num(r.per_job_ms, 3),
                        std::to_string(r.distinct_configs)});
  }
  std::cout << scale_table.render() << '\n'
            << "per-job cost ratio (10k vs 1k rung): "
            << TextTable::num(scale_ratio, 3) << " (1.0 = perfectly flat)\n"
            << "shared fluid layout builds: "
            << scale_stats.fluid_layout_builds << ", hits: "
            << scale_stats.fluid_layout_hits << '\n';

  // Re-write the campaign baseline with the sweep section appended.
  JsonWriter sw;
  sw.beginObject();
  writeCampaign(sw);
  sw.key("tenant_sweep").beginObject();
  sw.key("tenants").value(sweep_tenants);
  sw.key("jobs_per_tenant").value(sweep_jobs);
  sw.key("grid_jobs").value(grid_jobs);
  sw.key("distinct_configs").value(grid.distinctConfigCount());
  sw.key("arena_setup_cold_ms_per_job").value(per_job_cold_ms);
  sw.key("arena_setup_shared_us_per_job").value(per_job_shared_us);
  sw.key("setup_amortization_x")
      .value(shared_s > 0.0 ? cold_s / shared_s : 0.0);
  sw.key("catalog_builds").value(sstats.catalog_builds);
  sw.key("plan_builds").value(sstats.plan_builds);
  sw.key("grid_wall_cold_s").value(grid_cold_s);
  sw.key("grid_wall_warm_s").value(grid_warm_s);
  sw.key("warm_results_bit_identical").value(true);
  sw.endObject();
  sw.key("scale_ladder").beginObject();
  sw.key("scheduler").value("global-adaptive");
  sw.key("horizon_s").value(scale_cfg.horizon_s);
  sw.key("infra_variability").value(false);
  sw.key("rungs").beginArray();
  for (const ScaleRung& r : ladder) {
    sw.beginObject();
    sw.key("jobs").value(r.jobs);
    sw.key("wall_s").value(r.wall_s);
    sw.key("ms_per_job").value(r.per_job_ms);
    sw.key("distinct_configs").value(r.distinct_configs);
    sw.endObject();
  }
  sw.endArray();
  sw.key("per_job_ratio_10k_vs_1k").value(scale_ratio);
  sw.key("fluid_layout_builds").value(scale_stats.fluid_layout_builds);
  sw.key("fluid_layout_hits").value(scale_stats.fluid_layout_hits);
  sw.endObject();
  sw.endObject();
  std::ofstream sout(out_path);
  DDS_REQUIRE(sout.good(), "cannot re-open bench output file");
  sout << sw.str();
  std::cout << "wrote " << out_path << " (with tenant sweep)" << '\n';
  return 0;
}
