// Predictive-scheduling sweep: reactive vs forecast-driven policies
// under real provisioning delays.
//
//   bench_forecast [output.json]   (default: BENCH_forecast.json)
//
// A reactive policy only buys capacity after the rate has already risen,
// so with a 120 s (+15 s/core) provisioning delay every wave crest is
// served late. This sweep crosses the workload {wave, spike} with the
// forecast model {naive, ewma, holt-winters} and the lookahead horizon
// {3, 5, 10} intervals, and runs the reactive global policy against its
// predictive variant on each cell, reporting
// Theta, peak VMs, SLO-violation seconds and cost, plus the model's
// one-step MAPE. The JSON lands in BENCH_forecast.json as the committed
// baseline.
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "dds/common/json.hpp"

namespace {

using namespace dds;

ExperimentConfig forecastConfig(ProfileKind profile, ForecastModel model,
                                int horizon_intervals) {
  ExperimentConfig cfg;
  cfg.horizon_s = 1.0 * kSecondsPerHour;
  cfg.workload.mean_rate = 10.0;
  cfg.workload.profile = profile;
  cfg.seed = 2013;
  cfg.elasticity.provisioning_delay_s = 120.0;
  cfg.elasticity.provisioning_delay_per_core_s = 15.0;
  cfg.forecast.model = model;
  cfg.forecast.horizon_intervals = horizon_intervals;
  cfg.forecast.hw_season_intervals = 30;  // the wave period, in intervals
  return cfg;
}

struct Knob {
  ProfileKind profile;
  ForecastModel model;
  int horizon;
};

double metricValue(const ExperimentResult& r, const std::string& name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dds;
  using namespace dds::bench;

  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_forecast.json");

  printHeader("Forecast",
              "reactive vs predictive under a 120 s (+15 s/core) "
              "provisioning delay (10 msg/s, 1 h)");

  const Dataflow df = makePaperDataflow();
  const std::vector<ProfileKind> profiles = {ProfileKind::PeriodicWave,
                                             ProfileKind::Spike};
  const std::vector<ForecastModel> models = {ForecastModel::Naive,
                                             ForecastModel::Ewma,
                                             ForecastModel::HoltWinters};
  const std::vector<int> horizons = {3, 5, 10};
  const std::vector<SchedulerSpec> kinds = {
      parseScheduler("global"), parseScheduler("global-predictive")};

  std::vector<ExperimentConfig> rows;
  std::vector<Knob> knobs;
  for (const ProfileKind profile : profiles) {
    for (const ForecastModel model : models) {
      for (const int horizon : horizons) {
        rows.push_back(forecastConfig(profile, model, horizon));
        knobs.push_back({profile, model, horizon});
      }
    }
  }
  const auto outcomes = runGrid(df, rows, kinds);

  TextTable table({"profile", "model", "H", "policy", "omega", "met",
                   "theta", "peakVM", "preacq", "mape", "slo-viol(s)",
                   "cost$"});
  JsonWriter w;
  w.beginObject();
  w.key("name").value("forecast-predictive-sweep");
  w.key("horizon_s").value(rows.front().horizon_s);
  w.key("mean_rate").value(rows.front().workload.mean_rate);
  w.key("provisioning_delay_s")
      .value(rows.front().elasticity.provisioning_delay_s);
  w.key("provisioning_delay_per_core_s")
      .value(rows.front().elasticity.provisioning_delay_per_core_s);
  w.key("rows").beginArray();
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const auto& o = outcomes[i * kinds.size() + k];
      const auto& r = o.result;
      const auto [profile, model, horizon] = knobs[i];
      const double mape = metricValue(r, "forecast.mape");
      const double preacquired = metricValue(r, "sched.preacquired_vms");
      table.addRow({std::string(profileName(profile)),
                    std::string(forecastModelName(model)),
                    std::to_string(horizon), r.scheduler_name,
                    TextTable::num(r.average_omega), constraintMark(r),
                    TextTable::num(r.theta), std::to_string(r.peak_vms),
                    TextTable::num(preacquired, 0), TextTable::num(mape),
                    TextTable::num(r.recovery.slo_violation_s, 0),
                    TextTable::num(r.total_cost, 2)});
      w.beginObject();
      w.key("profile").value(std::string(profileName(profile)));
      w.key("forecast_model").value(std::string(forecastModelName(model)));
      w.key("horizon_intervals").value(horizon);
      w.key("scheduler").value(r.scheduler_name);
      w.key("average_omega").value(r.average_omega);
      w.key("constraint_met").value(r.constraint_met);
      w.key("theta").value(r.theta);
      w.key("peak_vms").value(r.peak_vms);
      w.key("preacquired_vms").value(preacquired);
      w.key("forecast_mape").value(mape);
      w.key("slo_violation_s").value(r.recovery.slo_violation_s);
      w.key("total_cost").value(r.total_cost);
      w.endObject();
    }
  }
  w.endArray();
  w.endObject();
  std::cout << table.render() << '\n';

  std::ofstream out(out_path);
  DDS_REQUIRE(out.good(), "cannot open bench output file");
  out << w.str();
  std::cout << "wrote " << out_path << '\n';

  std::cout << "Reading: on the learnable wave the seasonal model's "
               "pre-acquisition has\ncapacity online before each crest, "
               "cutting SLO-violation seconds versus\nthe reactive policy "
               "at the price of a larger peak fleet. The one-off\nspike is "
               "unforecastable from history: the predictive policy still "
               "lifts\nOmega through lookahead planning, but its extra "
               "capacity arrives for a\npeak that never repeats, so it "
               "pays more without cutting violations —\nforecasting only "
               "helps when the workload has structure to learn.\n";
  return 0;
}
