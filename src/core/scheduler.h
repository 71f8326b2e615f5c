#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "gpusim/gpu.h"
#include "graph/cost_model.h"
#include "graph/hooks.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "sim/environment.h"
#include "sim/random.h"
#include "sim/sync.h"

namespace olympian::core {

// Olympian's scheduler — the implementation of the paper's Algorithm 2.
//
// The scheduler maintains a single *token*: the job currently granted
// exclusive (temporal) GPU access. Every thread of every job passes through
// `Yield` before computing a node and suspends on a condition variable
// while its job does not hold the token — cooperative gang scheduling.
// After each GPU node completes, `OnNodeComputed` accrues the node's
// *profiled* cost into the job's gang-shared `cumulated_cost`; when it
// crosses the job's threshold T_j = Q * C_j / D_j, one quantum has elapsed
// and the token rotates per the active policy.
//
// Threads that already launched a kernel are not interrupted: they finish
// their node after the token moves (the paper's "overflow", Figures 10/15),
// and the overflow cost is still charged to the original job because
// OnNodeComputed runs on the job's own thread.
//
// `Options::use_wall_clock` replaces cost-based accounting with a plain CPU
// timer — the failed strawman of the paper's Figure 19 — kept for ablation.
class Scheduler : public graph::SchedulingHooks {
 public:
  struct Options {
    bool use_wall_clock = false;
    sim::Duration wall_quantum = sim::Duration::Millis(2);
    // OS wake-up latency paid by a gang's threads when their job regains
    // the token (futex wake + run-queue delay). This is the dominant
    // per-switch cost and gives the Overhead-Q curve its shape (Figure 8):
    // smaller quanta amortize it over less GPU time.
    sim::Duration resume_latency = sim::Duration::Micros(40);
    // Charge the cost of nodes that finish after their job lost the token
    // to that job (the paper's Figure 15 design). Disabling this is an
    // ablation (bench_ablation_overflow): uncharged overflow systematically
    // inflates the GPU share of overflow-heavy jobs.
    bool charge_overflow = true;
    std::uint64_t seed = 99;
    // Optional: record token tenures as spans on Tracer::kSchedulerTrack.
    metrics::Tracer* tracer = nullptr;
  };

  // Multiplicative jitter on each resume_latency wake-up.
  static constexpr double kResumeJitter = 0.3;

  // One observed scheduling interval (token tenure) of a job; every tenure
  // is logged (Figures 12/14/16).
  struct QuantumRecord {
    gpusim::JobId job = gpusim::kNoJob;
    sim::TimePoint start;
    sim::TimePoint end;
    // GPU duration the job accumulated during this tenure (Figure 14).
    sim::Duration gpu_duration;
    // Number of registered jobs when the quantum ended.
    std::size_t active_jobs = 0;
  };

  Scheduler(sim::Environment& env, gpusim::Gpu& gpu,
            std::unique_ptr<SchedulingPolicy> policy, Options options);
  // Default options.
  Scheduler(sim::Environment& env, gpusim::Gpu& gpu,
            std::unique_ptr<SchedulingPolicy> policy);

  // Install the offline profile for a model key ("inception-v4@100"):
  // per-node costs plus the quantum threshold T_j. Every job registered
  // with that key uses them. `profile` must outlive the scheduler.
  void SetProfile(const std::string& model_key,
                  const graph::CostProfile* profile, double threshold);

  // --- graph::SchedulingHooks (Algorithm 2) -----------------------------
  void RegisterRun(graph::JobContext& ctx) override;
  void DeregisterRun(graph::JobContext& ctx) override;
  bool NeedsYield(const graph::JobContext& ctx) const override {
    return token_ != ctx.job;
  }
  sim::Task Yield(graph::JobContext& ctx) override;
  void OnNodeComputed(graph::JobContext& ctx, const graph::Node& node) override;
  // Cancellation path (deadline / fault): deregisters the job, rotates the
  // token to a live job if the cancelled gang held it, and wakes the gang's
  // suspended threads so they observe the cancellation and drain rather
  // than holding pool threads forever. Idempotent.
  void CancelRun(graph::JobContext& ctx) override;
  // Failover path: the device went down (every in-flight run already went
  // through CancelRun). Clears leftover registrations, parks the token, and
  // wakes every suspended gang so nothing waits on a grant that will never
  // come. OnDeviceUp re-arms the wall timer; registration state rebuilds
  // itself as re-admitted runs arrive.
  void OnDeviceDown() override;
  void OnDeviceUp() override;
  // Observability tick: publishes token occupancy (holder, active jobs) and
  // cumulative switch/quantum counters into `registry`, labeled with the
  // sampled device so per-GPU schedulers feeding one registry stay
  // distinct. Handles are cached per (registry, device), so steady-state
  // ticks do no map lookups. Read-only.
  void OnSample(metrics::MetricRegistry& registry, sim::TimePoint now,
                std::size_t device) override;

  // --- introspection -----------------------------------------------------
  gpusim::JobId token() const { return token_; }
  std::uint64_t switches() const { return switches_; }
  std::uint64_t cancellations() const { return cancellations_; }
  std::uint64_t detaches() const { return detaches_; }
  std::uint64_t attaches() const { return attaches_; }
  std::uint64_t quanta_completed() const { return quanta_completed_; }
  const std::vector<QuantumRecord>& quantum_log() const { return quantum_log_; }
  const SchedulingPolicy& policy() const { return *policy_; }

 private:
  struct ProfileInfo {
    const graph::CostProfile* profile = nullptr;
    double threshold = 0.0;
  };

  void Rotate(gpusim::JobId leaving);
  void GrantTo(gpusim::JobId next);
  void ArmWallTimer();
  static void WallTimerTrampoline(void* ctx, std::uint64_t epoch);

  sim::Environment& env_;
  gpusim::Gpu& gpu_;
  std::unique_ptr<SchedulingPolicy> policy_;
  Options options_;
  sim::Rng rng_{1};

  sim::CondVar& JobCv(gpusim::JobId job);

  // Labeled metric handles resolved on the first OnSample tick (and again
  // only if the registry or device changes), so the sampler's steady state
  // never touches the registry's map.
  struct SampleHandles {
    metrics::MetricRegistry* registry = nullptr;
    std::size_t device = 0;
    metrics::MetricRegistry::TimeSeries* token = nullptr;
    metrics::MetricRegistry::TimeSeries* active_jobs = nullptr;
    metrics::MetricRegistry::TimeSeries* token_held = nullptr;
    metrics::MetricRegistry::Counter* switches = nullptr;
    metrics::MetricRegistry::Counter* quanta = nullptr;
  };
  SampleHandles sample_;

  std::unordered_map<std::string, ProfileInfo> profiles_;
  std::vector<JobEntry> jobs_;  // registration order
  gpusim::JobId token_ = gpusim::kNoJob;
  // One condition variable per job: a token grant wakes only the granted
  // job's gang, not every suspended thread in the server.
  std::unordered_map<gpusim::JobId, std::unique_ptr<sim::CondVar>> job_cvs_;
  std::uint64_t token_epoch_ = 0;  // guards stale wall-clock timers

  sim::TimePoint tenure_start_;
  sim::Duration tenure_gpu_start_;

  std::uint64_t switches_ = 0;
  std::uint64_t cancellations_ = 0;
  std::uint64_t detaches_ = 0;
  std::uint64_t attaches_ = 0;
  std::uint64_t quanta_completed_ = 0;
  std::vector<QuantumRecord> quantum_log_;
};

}  // namespace olympian::core
