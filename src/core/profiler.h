#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/cost_model.h"
#include "serving/server.h"
#include "sim/time.h"

namespace olympian::core {

// The offline profile of one (model, batch) pair, plus its Overhead-Q curve
// (paper Figure 8) once computed.
struct ModelProfile {
  std::string model;
  int batch = 0;
  std::string key;  // models::ModelKey(model, batch)
  graph::CostProfile cost;

  // (quantum Q, measured overhead) points, ascending in Q.
  std::vector<std::pair<sim::Duration, double>> overhead_q;

  double TotalCost() const { return cost.TotalCost(); }
  sim::Duration GpuDuration() const { return cost.gpu_duration; }
  double CostAccumulationRate() const { return cost.CostAccumulationRate(); }
};

// Quantum sweep for the Overhead-Q curves.
inline constexpr std::array<sim::Duration, 8> kQSweep = {
    sim::Duration::Micros(300),  sim::Duration::Micros(500),
    sim::Duration::Micros(800),  sim::Duration::Micros(1200),
    sim::Duration::Micros(1600), sim::Duration::Micros(2400),
    sim::Duration::Micros(3600), sim::Duration::Micros(5000)};
// Batches per client in the two-instance overhead measurements.
inline constexpr int kCurveNumBatches = 3;

struct ProfilerOptions {
  // Solo runs averaged into one profile (DNN execution is predictable, so a
  // few suffice — paper §4.4 measures ~2% run-to-run stddev).
  int profile_runs = 3;
  std::uint64_t seed = 7;
  // Server configuration profiles are taken under. Profiling runs offline —
  // in their own private simulation with an idle GPU — mirroring the paper.
  serving::ServerOptions server;
};

// Olympian's offline profiler (paper §3.2, Figure 7).
//
// For each model it measures, with exclusive GPU access:
//   * per-node costs (Tensorflow cost-model equivalent), summing to C_j,
//   * the GPU duration D_j (Figure 5 union),
// and derives the cost-accumulation rate C_j / D_j. Given a desired quantum
// Q, the scheduler threshold is T_j = Q * C_j / D_j. The Overhead-Q curve
// is measured by running two instances of the model under Olympian's fair
// scheduler vs. stock TF-Serving and comparing finish times.
class Profiler {
 public:
  explicit Profiler(ProfilerOptions options = {});

  // Solo profiling of (model, batch). Deterministic given options.seed.
  ModelProfile ProfileModel(const std::string& model, int batch) const;

  // Fills `profile.overhead_q` by measurement (one pair of experiments per
  // sweep point).
  void ComputeOverheadQCurve(ModelProfile& profile) const;

  // The operator-facing knob (paper §3.2 "Determining Q"): smallest Q whose
  // measured overhead is within `tolerance` for *every* profile (i.e. the
  // max over models of each model's smallest acceptable Q). Curves must
  // have been computed. Falls back to the largest swept Q.
  static sim::Duration SelectQ(const std::vector<const ModelProfile*>& profiles,
                               double tolerance);

  // Scheduler threshold T_j for a chosen quantum.
  static double ThresholdFor(const ModelProfile& profile, sim::Duration q);

  // Cross-batch linear regression (paper Figure 20): synthesize a profile
  // for `target_batch` from two measured profiles of the same model.
  static ModelProfile Interpolate(const ModelProfile& a, const ModelProfile& b,
                                  int target_batch);

  const ProfilerOptions& options() const { return options_; }

 private:
  double MeasureOverheadAt(const ModelProfile& profile, sim::Duration q) const;

  ProfilerOptions options_;
};

}  // namespace olympian::core
