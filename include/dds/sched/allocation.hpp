// Core/VM allocation machinery shared by the deployment and runtime
// heuristics (paper §7, Alg. 1 resource-allocation stage, Table 1).
//
// The allocation problem is a variable-sized bin-packing: PEs demand
// normalized core power (rate * cost per message), VMs of different
// classes supply cores of different speeds at different prices. The
// toolkit provides:
//  * throughput projection — the steady-state Omega a candidate allocation
//    would deliver (used both as the stopping rule for incremental
//    allocation and as the safety check for scale-in);
//  * INCREMENTAL_ALLOCATION — one core per PE in forward-BFS order for
//    colocation, then cores to the worst bottleneck until the constraint
//    holds;
//  * scale-in, RepackPE and iterative free-VM repacking for the global
//    strategy;
//  * empty-VM release policies (immediate vs at the paid hour boundary).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "dds/cloud/cloud_provider.hpp"
#include "dds/common/error.hpp"
#include "dds/dataflow/dataflow.hpp"
#include "dds/monitor/monitoring.hpp"
#include "dds/sched/alternate_selection.hpp"
#include "dds/sched/resilience.hpp"
#include "dds/sched/scheduler.hpp"
#include "dds/sim/deployment.hpp"

namespace dds {

/// Per-core normalized power of a VM, either rated (deployment time) or
/// observed via monitoring (runtime).
using CorePowerFn = std::function<double(VmId)>;

[[nodiscard]] CorePowerFn ratedCorePowerFn(const CloudProvider& cloud);
[[nodiscard]] CorePowerFn observedCorePowerFn(const MonitoringService& mon,
                                              SimTime t);

/// Steady-state throughput a given power allocation would achieve.
struct ThroughputProjection {
  double omega = 1.0;                  ///< projected application Omega.
  std::vector<double> pe_omega;        ///< per-PE power / required-power.
  std::vector<double> required_power;  ///< demand vector, by PeId.
};

/// Project Omega for `pe_power` (normalized power per PE, by PeId) at the
/// given input rate and alternate choices. Pure function of its inputs.
[[nodiscard]] ThroughputProjection projectThroughput(
    const Dataflow& df, const Deployment& deployment, double input_rate,
    const std::vector<double>& pe_power);

/// Reusable projection engine behind projectThroughput(): bind() hoists
/// everything that depends only on (dataflow, alternates, input rate) —
/// the demand vector, the expected output rates and the active
/// alternates' cost/selectivity — so the scale-out/scale-in inner loops
/// can re-project candidate power vectors without redoing the graph
/// propagation or allocating. project() produces the same ThroughputProjection,
/// bit for bit, as the free function.
class ThroughputProjector {
 public:
  /// Capture the current alternate choices and input rate. Must be called
  /// again after any setActiveAlternate() before the next project().
  void bind(const Dataflow& df, const Deployment& deployment,
            double input_rate);

  /// Project Omega for `pe_power`. The returned reference is owned by the
  /// projector and overwritten by the next project() call.
  const ThroughputProjection& project(const std::vector<double>& pe_power);

 private:
  const Dataflow* df_ = nullptr;
  double input_rate_ = 0.0;
  std::vector<double> alt_cost_;  ///< active alternate cost, by PeId.
  std::vector<double> alt_sel_;   ///< active alternate selectivity.
  std::vector<double> expected_;  ///< expected output rates, by PeId.
  std::vector<double> out_;       ///< scratch: capacity-limited outputs.
  ThroughputProjection proj_;
};

/// Mutating allocation operations over one cloud provider.
class ResourceAllocator {
 public:
  /// When may an empty VM be shut down (§7.2)?
  enum class ReleasePolicy {
    Immediate,       ///< as soon as it empties (the local strategy).
    AtHourBoundary,  ///< only when its paid hour is about to lapse (global).
  };

  /// Which class a fresh VM acquisition picks.
  enum class AcquisitionPolicy {
    LargestFirst,   ///< Alg. 1's "VMClasses.First" — the biggest class.
    CheapestPower,  ///< best $/power-unit (ties: larger) — an improvement
                    ///< over the paper for menus mixing generations.
  };

  ResourceAllocator(const Dataflow& df, CloudProvider& cloud,
                    double omega_target,
                    AcquisitionPolicy acquisition =
                        AcquisitionPolicy::LargestFirst);

  /// Install the resilience knobs governing acquisition retry, class
  /// fallback and backoff (defaults: 3 attempts, 60 s base backoff).
  void setResilience(const ResilienceConfig& options) {
    requireValid(options, "resilience config");
    resilience_ = options;
  }

  /// Steer `fraction` of fresh acquisitions to the catalog's spot tier
  /// (when one exists): each acquisition decision hashes (seed, ordinal)
  /// so the spot/on-demand choice is pure in the run seed and the
  /// acquisition order. fraction == 0 keeps the allocator bit-identical
  /// to a spot-unaware one.
  void setSpotPreference(double fraction, std::uint64_t seed) {
    DDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                "spot fraction out of range");
    spot_fraction_ = fraction;
    spot_seed_ = seed;
  }

  /// Temporarily veto the spot tier (e.g. while replacing capacity lost
  /// to a preemption — the replacement must be reliable).
  void suppressSpot(bool suppressed) { spot_suppressed_ = suppressed; }

  /// Attach the run's tracer and metrics; the allocator then emits a
  /// CoreAllocEvent per core it (de)allocates on the scale-out/in paths
  /// and bumps alloc.cores_allocated / alloc.cores_released. Repacking
  /// moves are net-zero and are not traced.
  void setObservability(obs::Tracer tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Whether a recent unmet acquisition need put the allocator in backoff
  /// at `now` (no fresh VM will be requested until the window lapses).
  [[nodiscard]] bool acquisitionBackoffActive(SimTime now) const {
    return now < acquisition_retry_after_;
  }

  /// Acquisition attempts this allocator saw rejected.
  [[nodiscard]] int acquisitionRejections() const { return rejections_; }

  /// Normalized power currently allocated to each PE, by PeId.
  [[nodiscard]] std::vector<double> allocatedPower(
      const CorePowerFn& power) const;

  /// Give every PE at least one core, walking PEs in forward BFS order and
  /// filling the most recent VM first so dataflow neighbours colocate
  /// (Alg. 1 lines 13-20). Acquires largest-class VMs on demand.
  void ensureMinimumCores(SimTime now);

  /// Incrementally add cores to the current bottleneck until the
  /// projection meets the target (Alg. 1 lines 21-25). Local scope demands
  /// every PE's own relative throughput reach the target; Global scope
  /// stops as soon as the *application* Omega does — fewer cores, but it
  /// requires graph-wide information. `target` defaults to the
  /// constructor's omega target; initial deployment passes 1.0 (provision
  /// for the full estimated demand, since the estimate is all it has).
  /// `measured_arrivals`, when given, replaces the graph-propagated
  /// expected arrival rates as the per-PE demand basis (msgs/s, by PeId).
  /// The *local* strategy passes the last interval's measurements — it
  /// only has local information, so upstream changes reach its view of
  /// downstream PEs one interval late (the paper's cascade penalty). The
  /// global strategy predicts arrivals through the graph instead.
  void scaleOut(const Deployment& deployment, double input_rate,
                const CorePowerFn& power, SimTime now, Strategy scope,
                double target = -1.0,
                const std::vector<double>* measured_arrivals = nullptr);

  /// Remove surplus cores while the projection stays at or above
  /// `floor_omega`; never leaves a PE without a core. Returns migration
  /// events for PEs that lost their last core on some VM (their buffered
  /// messages move over the network, §5).
  /// `now` only timestamps trace events (the release itself is billed by
  /// releaseEmptyVms); callers without a tracer may omit it.
  [[nodiscard]] std::vector<MigrationEvent> scaleIn(
      const Deployment& deployment, double input_rate,
      const CorePowerFn& power, Strategy scope, double floor_omega,
      const std::vector<double>* measured_arrivals = nullptr,
      SimTime now = 0.0);

  /// RepackPE (Table 1): move each sole-tenant PE from an oversized VM to
  /// the cheapest class that still covers its demand.
  void repackPes(const Deployment& deployment, double input_rate,
                 const CorePowerFn& power, SimTime now);

  /// Iterative repacking (Table 1): repeatedly try to empty the least
  /// loaded VM by relocating its cores onto free cores of equal or faster
  /// speed elsewhere; stop when no VM can be emptied.
  /// Feasibility is decided on rated core speeds.
  void repackFreeVms();

  /// Shut down VMs with no allocated cores according to `policy`; returns
  /// how many were released. `interval_s` is the adaptation interval (the
  /// boundary-release lookahead window).
  int releaseEmptyVms(ReleasePolicy policy, SimTime now, SimTime interval_s);

 private:
  /// The class the acquisition policy prefers for a fresh VM.
  [[nodiscard]] ResourceClassId preferredClass() const;

  /// Acquire a fresh VM: try the policy-preferred class, then fall back
  /// through cheaper classes, up to the resilience retry budget. Returns
  /// nullopt when every attempt is rejected (or the allocator is backing
  /// off after a recent unmet need), arming exponential backoff.
  std::optional<VmId> acquireNew(SimTime now);

  /// One more core for `pe`: prefer VMs already hosting it, then VMs
  /// hosting a graph neighbour, then any free core, then a fresh
  /// largest-class VM (when `allow_acquire`). Returns the VM that granted
  /// the core (possibly a fresh acquisition), nullopt when none could.
  std::optional<VmId> allocateCoreForPe(PeId pe, SimTime now,
                                        bool allow_acquire);

  /// Trace one core (de)allocation and bump the matching counter.
  void traceCoreAlloc(VmId vm, PeId pe, std::int64_t delta, SimTime now);

  const Dataflow* df_;
  CloudProvider* cloud_;
  double omega_target_;
  AcquisitionPolicy acquisition_;
  ResilienceConfig resilience_;
  double spot_fraction_ = 0.0;
  std::uint64_t spot_seed_ = 0;
  std::uint64_t spot_ordinal_ = 0;  ///< acquisitions decided so far.
  bool spot_suppressed_ = false;
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  SimTime acquisition_retry_after_ = 0.0;
  int consecutive_unmet_ = 0;
  int rejections_ = 0;
  /// Per-call view of the ledger behind scaleOut()/scaleIn(): each PE's
  /// hosts (VM id ascending, cores it owns there) and allocated power,
  /// plus each VM's per-core power memoized by VmId — the power function
  /// is pure in (VM, now) while one call runs. After a one-core change only
  /// the touched PE's row is updated and its power entry re-summed in the
  /// ledger's VM-then-core order, so the vector stays bitwise equal to a
  /// full recompute (a +/- per-core delta would not round the same way).
  class ScaleView {
   public:
    struct Host {
      VmId vm;
      int cores;
    };

    /// Rebuild the table from the active ledger of `cloud`.
    void reset(const CloudProvider& cloud, const CorePowerFn& power,
               std::size_t pe_count);

    /// Record that `pe` gained (+1) or lost (-1) one core on `vm`.
    void changeCore(PeId pe, VmId vm, int delta);

    /// Per-core power of `vm`, asking the power function once per call.
    double corePower(VmId vm);

    [[nodiscard]] const std::vector<Host>& hosts(PeId pe) const {
      return hosts_[pe.value()];
    }

    /// Allocated power by PeId. Callers may perturb an entry to test a
    /// candidate but must restore it before the next changeCore().
    [[nodiscard]] std::vector<double>& power() { return pe_power_; }

   private:
    void resum(PeId pe);

    const CorePowerFn* power_fn_ = nullptr;
    std::vector<std::vector<Host>> hosts_;
    std::vector<double> pe_power_;
    std::vector<double> vm_power_;  ///< NaN until first asked.
  };

  // Scale-loop scratch, reused across iterations (and adaptation
  // intervals) so the steady-state hot paths stay allocation-free.
  ThroughputProjector projector_;
  ScaleView view_;
  std::vector<double> deficit_scratch_;
};

}  // namespace dds
