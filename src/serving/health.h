#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/gpu.h"
#include "metrics/counters.h"
#include "metrics/trace.h"
#include "serving/health_tracker.h"
#include "sim/environment.h"
#include "sim/task.h"
#include "sim/time.h"

namespace olympian::serving {

// Callbacks the monitor raises towards the serving layer. `OnDeviceDown`
// fires synchronously inside the device signal that killed it — before any
// failed kernel's waiter resumes — so the observer can cancel in-flight
// runs with a failover reason that wins the sticky cancel-token race.
class HealthObserver {
 public:
  virtual ~HealthObserver() = default;
  virtual void OnDeviceDown(std::size_t gpu) = 0;
  // Recovery finished; the device is healthy and may take traffic again.
  virtual void OnDeviceReadmitted(std::size_t gpu) = 0;
  // Virtual time to reload the parameters resident on `gpu` (charged during
  // the recovery pipeline, after driver re-init).
  virtual sim::Duration ParamsReloadCost(std::size_t gpu) const = 0;
};

// The recovery pipeline after a reset outage ends: driver re-init, then
// parameter reload over PCIe, then a warm-up before traffic resumes.
// Instantiating a replica costs kWarmup plus the reload of its parameters.
inline constexpr sim::Duration kDriverReinit = sim::Duration::Millis(20);
// Host-to-device bandwidth that prices parameter reloads.
inline constexpr double kPcieGbps = 12.0;
inline constexpr sim::Duration kWarmup = sim::Duration::Millis(5);

// Time to stream `mb` of parameters host-to-device
// (mb / 1024 / kPcieGbps seconds); zero when `mb` is non-positive.
inline sim::Duration TransferCost(double mb) {
  if (mb <= 0.0) return sim::Duration::Zero();
  return sim::Duration::Seconds(mb / 1024.0 / kPcieGbps);
}

struct HealthMonitorOptions {
  // Heartbeat cadence per device; zero disables the probe loop (the
  // listener signals alone still classify, but warm-up probes and liveness
  // checks stop).
  sim::Duration probe_interval = sim::Duration::Millis(5);
  // Work of the one-block heartbeat kernel (microseconds: tiny).
  sim::Duration probe_work = sim::Duration::Micros(20);
  // Heartbeat probes that must succeed during warm-up before readmission.
  int warmup_probes = 2;
  // A hang outliving this budget escalates kDegraded -> kDown, triggering
  // failover even though the driver will eventually un-wedge. Zero keeps
  // hung devices merely degraded.
  sim::Duration hang_down_after = sim::Duration::Millis(10);
  // Gray-failure detection: continuous per-device health scoring from probe
  // kernel RTTs. A fractional-capacity fault has no listener signal — it
  // stretches kernels silently — so it can only be noticed by measuring the
  // heartbeat. When enabled, hysteresis thresholds add a score-driven
  // healthy <-> degraded path alongside the push-style listener edges
  // (which stay authoritative for hangs/alloc faults); while the score
  // holds a device degraded, the listener clear edges are deferred until
  // the score recovers. Off by default: zero behavior change.
  HealthScoreOptions score;
};

// Per-device health state machine on the virtual clock.
//
// Wired to each gpusim::Gpu as its GpuHealthListener: hang/reset/alloc
// signals drive transitions push-style, a per-device heartbeat loop probes
// liveness pull-style, and after an outage a recovery pipeline (driver
// re-init delay -> parameter reload -> warm-up probes) gates readmission.
// All state changes land in a transition log, the serving counters, and the
// tracer's health track, so failover behaviour is observable and testable.
class HealthMonitor : public HealthObserver {
 public:
  struct DeviceStats {
    std::uint64_t down_events = 0;
    std::uint64_t readmissions = 0;
    // One entry per completed recovery (down -> readmitted), in episode
    // order, so consumers can build a distribution (histogram / p95)
    // instead of one average.
    std::vector<sim::Duration> mttr_incidents;
  };

  HealthMonitor(sim::Environment& env, std::vector<gpusim::Gpu*> gpus,
                HealthMonitorOptions options, HealthObserver* observer,
                metrics::ServingCounters* counters = nullptr,
                metrics::Tracer* tracer = nullptr);
  ~HealthMonitor() override;

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Attach listeners and spawn the probe loops. Call once, before traffic.
  void Start();
  // Stop probing (pending recovery pipelines still run to completion, and
  // listeners stay attached). Called when the workload finishes so the
  // event queue can drain.
  void Stop();

  std::size_t num_devices() const { return devices_.size(); }
  // Per-device state, transition log, MTTR and score (targets are gpus).
  const HealthTracker& tracker() const { return tracker_; }
  Health health(std::size_t gpu) const { return tracker_.health(gpu); }
  // Routable: healthy or degraded (down/recovering devices take no traffic).
  bool Usable(std::size_t gpu) const { return tracker_.Usable(gpu); }
  DeviceStats stats(std::size_t gpu) const;
  const std::vector<HealthTransition>& transitions() const {
    return tracker_.transitions();
  }
  // Mean time to repair: down -> readmitted, averaged over completed
  // recoveries of `gpu`. Zero when the device never went down.
  sim::Duration Mttr(std::size_t gpu) const { return tracker_.Mttr(gpu); }

  // Gray-failure scoring (all trivial when scoring is disabled).
  bool scoring() const { return tracker_.scoring(); }
  // Continuous health score of `gpu` (1.0 when scoring is disabled).
  double score(std::size_t gpu) const { return tracker_.score(gpu); }

  // HealthObserver default self-wiring (used when no external observer is
  // installed; the serving layer normally passes itself instead).
  void OnDeviceDown(std::size_t gpu) override { (void)gpu; }
  void OnDeviceReadmitted(std::size_t gpu) override { (void)gpu; }
  sim::Duration ParamsReloadCost(std::size_t gpu) const override {
    (void)gpu;
    return sim::Duration::Zero();
  }

 private:
  // Fans one device's GpuHealthListener callbacks into the monitor.
  struct Listener final : gpusim::GpuHealthListener {
    HealthMonitor* monitor = nullptr;
    std::size_t index = 0;
    void OnHangBegin(sim::TimePoint until) override {
      monitor->HandleHangBegin(index, until);
    }
    void OnHangEnd() override { monitor->HandleHangEnd(index); }
    void OnResetBegin(sim::Duration outage) override {
      monitor->HandleResetBegin(index, outage);
    }
    void OnResetComplete() override { monitor->HandleResetComplete(index); }
    void OnAllocFaultWindow(sim::TimePoint until) override {
      monitor->HandleAllocFaultWindow(index, until);
    }
  };

  struct Device {
    gpusim::Gpu* gpu = nullptr;
    gpusim::StreamId probe_stream = -1;
    // Bumped on every down / readmission edge; stale timers and recovery
    // pipelines from an earlier episode check it and bail.
    std::uint64_t generation = 0;
    // Bumped when a hang ends (or the device goes down); disarms the
    // pending degraded -> down escalation timer of that hang.
    std::uint64_t hang_epoch = 0;
    // True when the current kDown came from hang escalation (no reset): the
    // recovery pipeline then skips driver re-init and parameter reload.
    bool down_from_hang = false;
    Listener listener;
  };

  // Thread blocks of one heartbeat kernel.
  static constexpr std::int64_t kProbeBlocks = 1;

  void Transition(std::size_t gpu, Health to);
  void GoDown(std::size_t gpu, bool from_hang);
  void Readmit(std::size_t gpu);
  sim::Task RecoveryProc(std::size_t gpu, std::uint64_t generation,
                         bool full_reinit);
  sim::Task ProbeLoop(std::size_t gpu);

  void HandleHangBegin(std::size_t gpu, sim::TimePoint until);
  void HandleHangEnd(std::size_t gpu);
  void HandleResetBegin(std::size_t gpu, sim::Duration outage);
  void HandleResetComplete(std::size_t gpu);
  void HandleAllocFaultWindow(std::size_t gpu, sim::TimePoint until);

  // args pack (gpu << 32) | generation-low-bits; see Pack/Unpack in the .cc.
  static void HangEscalateTrampoline(void* ctx, std::uint64_t arg);
  static void AllocClearTrampoline(void* ctx, std::uint64_t arg);

  sim::Environment& env_;
  HealthMonitorOptions options_;
  HealthObserver* observer_;  // never null (defaults to this)
  metrics::ServingCounters* counters_;
  metrics::Tracer* tracer_;
  std::vector<std::unique_ptr<Device>> devices_;
  HealthTracker tracker_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace olympian::serving
