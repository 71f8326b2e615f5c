#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/policy.h"
#include "core/scheduler.h"
#include "fault/fault.h"
#include "metrics/incident.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "models/model_zoo.h"
#include "serving/cluster.h"
#include "serving/server.h"

namespace perfbench {

namespace core = olympian::core;
namespace metrics = olympian::metrics;
namespace models = olympian::models;
namespace serving = olympian::serving;
namespace sim = olympian::sim;
using serving::RequestStatus;

namespace {

// Observability cadence and buffer sizes of the traced repetition.
constexpr auto kSampleInterval = sim::Duration::Millis(10);
constexpr std::size_t kTracerEventsServer = 200000;
constexpr std::size_t kTracerEventsClusterServer = 20000;

void Fold(std::uint32_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint32_t>(v & 0xffu);
    h *= 16777619u;
    v >>= 8;
  }
}

// Folds one client's (or stream's) results into the trajectory: finish
// time, then every request's status and latency bits, as bench_cluster_scale
// fingerprints a run. Checks every request has exactly one terminal status.
template <typename Result>
void AddResult(const Result& r, std::size_t expected, const std::string& who,
               Rep& rep) {
  Trajectory& t = rep.trajectory;
  Fold(t.digest, static_cast<std::uint64_t>(r.finish_time.nanos()));
  if (r.request_status.size() != expected ||
      r.request_latency_ms.size() != expected) {
    rep.violations.push_back(who + ": " +
                             std::to_string(r.request_status.size()) +
                             " statuses and " +
                             std::to_string(r.request_latency_ms.size()) +
                             " latencies for " + std::to_string(expected) +
                             " requests");
  }
  for (std::size_t i = 0; i < r.request_status.size(); ++i) {
    const RequestStatus s = r.request_status[i];
    if (s > RequestStatus::kFailed) {
      rep.violations.push_back(who + ": request " + std::to_string(i) +
                               " has no terminal status");
    }
    const double ms =
        i < r.request_latency_ms.size() ? r.request_latency_ms[i] : 0.0;
    if (!(ms >= 0.0)) {
      rep.violations.push_back(who + ": request " + std::to_string(i) +
                               " has latency " + std::to_string(ms));
    }
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(ms));
    std::memcpy(&bits, &ms, sizeof(bits));
    Fold(t.digest, static_cast<std::uint64_t>(s));
    Fold(t.digest, bits);
    t.status.push_back(s);
    t.latency_ms.push_back(ms);
  }
}

std::uint64_t CountStatus(const Trajectory& t, RequestStatus s) {
  return static_cast<std::uint64_t>(
      std::count(t.status.begin(), t.status.end(), s));
}

void Expect(Rep& rep, bool ok, const std::string& what) {
  if (!ok) rep.violations.push_back(what);
}

// Per-layer counters of one server's devices, executors and pool, summed
// into `layer` across the servers of a cluster. `makespan` is the run's
// virtual length, for utilization.
void AddServerLayers(serving::Experiment& exp, sim::Duration makespan,
                     Rep& rep) {
  auto& l = rep.layer;
  for (std::size_t g = 0; g < exp.num_gpus(); ++g) {
    const auto& gpu = exp.gpu(g);
    l["gpusim.kernels"] += static_cast<double>(gpu.kernels_completed());
    l["gpusim.kernels_failed"] += static_cast<double>(gpu.kernels_failed());
    l["gpusim.waves"] += static_cast<double>(gpu.waves_dispatched());
    l["gpusim.waves_coalesced"] += static_cast<double>(gpu.waves_coalesced());
    l["gpusim.queue_wait_ns"] +=
        static_cast<double>(gpu.TotalQueueWait().nanos());
    l["gpusim.kernels_dequeued"] += static_cast<double>(gpu.kernels_dequeued());
    l["gpusim.busy_s"] += gpu.TotalBusy().seconds();
    l["gpusim.devices"] += 1.0;
    Expect(rep, gpu.live_job_meters() == 0,
           "live_job_meters() == " + std::to_string(gpu.live_job_meters()) +
               " after the run");
    const auto& ex = exp.executor(g);
    l["graph.nodes"] += static_cast<double>(ex.nodes_executed());
    l["graph.nodes_cancelled"] += static_cast<double>(ex.nodes_cancelled());
    l["graph.runs"] += static_cast<double>(ex.runs_completed());
  }
  l["graph.pool_peak_busy"] =
      std::max(l["graph.pool_peak_busy"],
               static_cast<double>(exp.pool().peak_busy_workers()));
  const metrics::ServingCounters& c = exp.counters();
  l["serving.requests"] += static_cast<double>(c.requests_total());
  l["serving.retries"] += static_cast<double>(c.retries);
  l["serving.failed_over"] += static_cast<double>(c.requests_failed_over);
  l["serving.hedges"] += static_cast<double>(c.hedges_launched);
  l["makespan_s"] = makespan.seconds();
}

// Turns the summed raw counters into the reported ratios.
void FinishLayers(Rep& rep) {
  auto& l = rep.layer;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  l["sim.events"] = static_cast<double>(rep.trajectory.events);
  l["gpusim.waves_coalesced_share"] =
      ratio(l["gpusim.waves_coalesced"], l["gpusim.waves"]);
  l["gpusim.queue_wait_ms_per_kernel"] =
      ratio(l["gpusim.queue_wait_ns"] * 1e-6, l["gpusim.kernels_dequeued"]);
  l["gpusim.util"] =
      ratio(l["gpusim.busy_s"], l["gpusim.devices"] * l["makespan_s"]);
  l["graph.nodes_cancelled_share"] =
      ratio(l["graph.nodes_cancelled"],
            l["graph.nodes"] + l["graph.nodes_cancelled"]);
  for (const char* k : {"gpusim.waves_coalesced", "gpusim.queue_wait_ns",
                        "gpusim.kernels_dequeued", "gpusim.busy_s",
                        "gpusim.devices", "graph.nodes_cancelled",
                        "makespan_s"}) {
    l.erase(k);
  }
}

// Mean virtual milliseconds per request of every phase.
void AddPhaseLayers(const metrics::PhaseCollector& phases, std::size_t total,
                    Rep& rep) {
  Expect(rep, phases.mismatches() == 0,
         "phase_sum_mismatches == " + std::to_string(phases.mismatches()));
  Expect(rep, phases.requests() == total,
         "phase collector saw " + std::to_string(phases.requests()) +
             " requests of " + std::to_string(total));
  std::array<std::int64_t, metrics::kPhaseCount> ns{};
  for (const auto& [key, row] : phases.rows()) {
    for (std::size_t p = 0; p < ns.size(); ++p) ns[p] += row.total_ns[p];
  }
  // Router-side phases belong to the router layer, the rest to serving.
  const double n = std::max<double>(1.0, static_cast<double>(total));
  for (int p = 0; p < metrics::kPhaseCount; ++p) {
    const auto phase = static_cast<metrics::Phase>(p);
    const bool router = phase == metrics::Phase::kRouterHop ||
                        phase == metrics::Phase::kRouterQueue ||
                        phase == metrics::Phase::kResponseHop;
    rep.layer[std::string(router ? "router" : "serving") + ".phase." +
              metrics::PhaseName(phase) + "_ms"] =
        static_cast<double>(ns[static_cast<std::size_t>(p)]) * 1e-6 / n;
  }
}

// Builds every graph the workload serves, as the models layer's own cost.
// The serving objects build their own copies; this one is only timed.
void BuildModels(const std::vector<std::string>& names, SpanLog& spans,
                 Rep& rep) {
  const std::int64_t t0 = NowNs();
  ScopedSpan span(spans, "models.build");
  std::size_t nodes = 0;
  for (const std::string& name : names) {
    nodes += models::BuildModel(models::GetModel(name)).size();
  }
  Expect(rep, nodes > 0, "model zoo built empty graphs");
  rep.layer["models.build_s"] = SecondsSince(t0);
}

// --- fig16-mix ---------------------------------------------------------

// The paper's Fig. 16: one server, one GPU, 14 closed-loop clients (two per
// zoo model at its paper batch) under Olympian's fair policy, with Q chosen
// by the profiler at 2% tolerance.
class Fig16Mix final : public Workload {
 public:
  static constexpr int kBatchesPerClient = 10;

  Rep RunRep(const RepOptions& opts, SpanLog& spans) override {
    Rep rep;
    const std::int64_t t0 = NowNs();
    rep.full_setup = opts.full_setup || profiles_.empty();
    if (rep.full_setup) OfflineSetup(spans, rep);

    std::vector<serving::ClientSpec> clients;
    for (const models::ModelSpec& spec : models::AllModels()) {
      for (int k = 0; k < 2; ++k) {
        clients.push_back({.model = spec.name,
                           .batch = spec.paper_batch,
                           .num_batches = kBatchesPerClient});
      }
    }

    // Observability the traced repetition switches on; unused otherwise.
    metrics::MetricRegistry registry;
    metrics::PhaseCollector phases(
        metrics::PhaseCollector::Options{.registry = &registry});
    std::unique_ptr<metrics::Tracer> tracer;

    serving::ServerOptions so;
    so.seed = opts.seed;
    core::Scheduler::Options sopts;
    if (opts.traced) {
      tracer = std::make_unique<metrics::Tracer>(kTracerEventsServer);
      so.observability = {.registry = &registry,
                          .sample_interval = kSampleInterval,
                          .phases = &phases};
      so.executor.tracer = tracer.get();
      sopts.tracer = tracer.get();
    }

    const std::int64_t c0 = NowNs();
    const int setup_span = spans.Begin("serving.setup");
    auto exp = std::make_unique<serving::Experiment>(so);
    core::Scheduler sched(exp->env(), exp->gpu(), core::MakePolicy("fair"),
                          sopts);
    for (const auto& p : profiles_) {
      sched.SetProfile(p->key, &p->cost, core::Profiler::ThresholdFor(*p, q_));
    }
    std::unique_ptr<TimedHooks> timed;
    if (opts.traced) {
      timed = std::make_unique<TimedHooks>(sched, exp->env(), spans, -1);
      exp->SetHooks(timed.get());
    } else {
      exp->SetHooks(&sched);
    }
    spans.End(setup_span);
    rep.layer["cluster.setup_s"] = SecondsSince(c0);
    rep.setup_s = SecondsSince(t0);
    if (opts.setup_only) return rep;

    const int run_span = spans.Begin("serving.run");
    if (timed) timed->set_parent(run_span);
    const std::int64_t r0 = NowNs();
    const auto results = exp->Run(clients);
    rep.run_s = SecondsSince(r0);
    spans.End(run_span);

    rep.trajectory.events = exp->env().events_executed();
    for (std::size_t i = 0; i < results.size(); ++i) {
      AddResult(results[i], kBatchesPerClient, "client " + std::to_string(i),
                rep);
    }
    const Trajectory& t = rep.trajectory;
    const metrics::ServingCounters& c = exp->counters();
    Expect(rep, c.requests_total() == t.status.size(),
           "ServingCounters::requests_total() " +
               std::to_string(c.requests_total()) + " != " +
               std::to_string(t.status.size()) + " requests");
    Expect(rep,
           c.requests_ok == CountStatus(t, RequestStatus::kOk) &&
               c.requests_retried_ok ==
                   CountStatus(t, RequestStatus::kFailedRetried) &&
               c.requests_timed_out == CountStatus(t, RequestStatus::kTimedOut) &&
               c.requests_rejected == CountStatus(t, RequestStatus::kRejected) &&
               c.requests_failed == CountStatus(t, RequestStatus::kFailed),
           "ServingCounters disagree with the per-request statuses");

    AddServerLayers(*exp, exp->makespan(), rep);
    auto& l = rep.layer;
    l["core.switches"] = static_cast<double>(sched.switches());
    l["core.quanta"] = static_cast<double>(sched.quanta_completed());
    if (timed) {
      l["core.hook_calls"] = static_cast<double>(timed->calls());
      l["core.hook_host_s"] = timed->host_s();
      l["core.yield_suspends"] = static_cast<double>(timed->yield_suspends());
      l["core.token_wait_s"] = timed->token_wait_s();
      AddPhaseLayers(phases, t.status.size(), rep);
      l["metrics.tracer_events"] = static_cast<double>(tracer->size());
    }
    FinishLayers(rep);
    return rep;
  }

 private:
  // Graph build, solo profiles, Overhead-Q curves and Q selection: the
  // offline part of Olympian's set-up (paper §3.2).
  void OfflineSetup(SpanLog& spans, Rep& rep) {
    std::vector<std::string> names;
    for (const auto& spec : models::AllModels()) names.push_back(spec.name);
    BuildModels(names, spans, rep);

    const core::Profiler profiler;
    profiles_.clear();
    std::int64_t t = NowNs();
    for (const auto& spec : models::AllModels()) {
      ScopedSpan span(spans, "core.profile");
      profiles_.push_back(std::make_unique<core::ModelProfile>(
          profiler.ProfileModel(spec.name, spec.paper_batch)));
    }
    rep.layer["core.profile_s"] = SecondsSince(t);

    t = NowNs();
    for (auto& p : profiles_) {
      ScopedSpan span(spans, "core.overhead_q");
      profiler.ComputeOverheadQCurve(*p);
    }
    rep.layer["core.overhead_q_s"] = SecondsSince(t);

    t = NowNs();
    {
      ScopedSpan span(spans, "core.select_q");
      std::vector<const core::ModelProfile*> all;
      for (const auto& p : profiles_) all.push_back(p.get());
      q_ = core::Profiler::SelectQ(all, 0.020);
    }
    rep.layer["core.select_q_s"] = SecondsSince(t);
    Expect(rep, q_ > sim::Duration::Zero(), "SelectQ chose a zero quantum");
  }

  std::vector<std::unique_ptr<core::ModelProfile>> profiles_;
  sim::Duration q_;
};

// --- cluster workloads -------------------------------------------------

sim::TimePoint At(double ms) {
  return sim::TimePoint() + sim::Duration::Millis(ms);
}

class ClusterWorkload : public Workload {
 public:
  Rep RunRep(const RepOptions& opts, SpanLog& spans) override {
    Rep rep;
    const std::int64_t t0 = NowNs();
    BuildModels({"googlenet"}, spans, rep);

    metrics::MetricRegistry registry;
    metrics::MetricRegistry engine_registry;
    metrics::PhaseCollector phases(
        metrics::PhaseCollector::Options{.registry = &registry});
    metrics::IncidentLog incidents;
    std::unique_ptr<metrics::Tracer> tracer;

    serving::ClusterOptions co = Options();
    co.seed = opts.seed;
    co.shards = opts.shards;
    // The engine measures its shards' busy and barrier-wait wall time on
    // every run; the registry only receives the export after the run.
    co.engine_registry = &engine_registry;
    if (opts.traced) {
      tracer = std::make_unique<metrics::Tracer>(kTracerEventsClusterServer);
      co.server.executor.tracer = tracer.get();
      co.server.observability.registry = &registry;
      co.server.observability.sample_interval = kSampleInterval;
      co.registry = &registry;
      co.phases = &phases;
      co.incidents = &incidents;
    }

    const std::int64_t c0 = NowNs();
    std::unique_ptr<serving::Cluster> cluster;
    {
      ScopedSpan span(spans, "cluster.setup");
      cluster = std::make_unique<serving::Cluster>(co);
    }
    rep.layer["cluster.setup_s"] = SecondsSince(c0);
    rep.setup_s = SecondsSince(t0);
    if (opts.setup_only) return rep;

    const std::size_t expected = Execute(*cluster, spans, rep);
    const Trajectory& t = rep.trajectory;
    Expect(rep, t.status.size() == expected,
           std::to_string(t.status.size()) + " results for " +
               std::to_string(expected) + " requests");

    const metrics::RouterCounters& rc = cluster->counters();
    Expect(rep,
           rc.requests_total() + rc.requests_shed_brownout == t.status.size(),
           "RouterCounters::requests_total() " +
               std::to_string(rc.requests_total()) + " != " +
               std::to_string(t.status.size()) + " requests");
    Expect(rep,
           rc.requests_ok == CountStatus(t, RequestStatus::kOk) +
                                 CountStatus(t, RequestStatus::kFailedRetried) &&
               rc.requests_timed_out ==
                   CountStatus(t, RequestStatus::kTimedOut),
           "RouterCounters disagree with the per-request statuses");

    for (std::size_t s = 0; s < cluster->num_servers(); ++s) {
      AddServerLayers(cluster->server(s), cluster->makespan(), rep);
    }
    // Every forward leg that reached its server was served there once.
    auto& l = rep.layer;
    Expect(rep,
           l["serving.requests"] ==
               static_cast<double>(rc.requests_routed -
                                   rc.requests_lost_to_server),
           "servers saw " + std::to_string(l["serving.requests"]) +
               " requests but the router delivered " +
               std::to_string(rc.requests_routed - rc.requests_lost_to_server));

    const auto& eng = cluster->engine();
    l["router.routed"] = static_cast<double>(rc.requests_routed);
    l["router.legs_per_request"] =
        static_cast<double>(rc.requests_routed) /
        std::max<double>(1.0, static_cast<double>(t.status.size()));
    l["router.probes"] = static_cast<double>(rc.probes_sent);
    l["router.failed_over"] = static_cast<double>(rc.requests_failed_over);
    l["router.retries"] = static_cast<double>(rc.retries);
    l["shard.sync_windows"] = static_cast<double>(eng.sync_windows());
    l["shard.hub_instants"] = static_cast<double>(eng.hub_instants());
    l["shard.boundary_events"] = static_cast<double>(eng.boundary_events());
    l["shard.worker_wakeups"] = static_cast<double>(eng.worker_wakeups());
    std::uint64_t worst = 0, sum = 0;
    for (std::size_t k = 0; k < eng.shards(); ++k) {
      worst = std::max(worst, eng.shard_events(k));
      sum += eng.shard_events(k);
    }
    l["shard.imbalance"] =
        sum > 0 ? static_cast<double>(worst) * eng.shards() / sum : 1.0;
    {
      double busy = 0, wait = 0;
      for (std::size_t k = 0; k < eng.shards(); ++k) {
        const metrics::Labels shard = {{"shard", std::to_string(k)}};
        busy += static_cast<double>(
            engine_registry.GetCounter("olympian_engine_shard_busy_wall_ns",
                                       shard)
                .value());
        wait += static_cast<double>(
            engine_registry
                .GetCounter("olympian_engine_shard_barrier_wait_wall_ns", shard)
                .value());
      }
      l["shard.barrier_wait_share"] = busy + wait > 0 ? wait / (busy + wait)
                                                      : 0.0;
    }
    if (opts.traced) {
      AddPhaseLayers(phases, t.status.size(), rep);
      l["metrics.tracer_events"] = static_cast<double>(tracer->size());
    }
    FinishLayers(rep);
    return rep;
  }

 protected:
  virtual serving::ClusterOptions Options() const = 0;
  // Runs the traffic, fills rep.run_s and the trajectory, and returns the
  // number of requests the workload sends.
  virtual std::size_t Execute(serving::Cluster& cluster, SpanLog& spans,
                              Rep& rep) const = 0;

  static serving::ClientSpec Googlenet() {
    return {.model = "googlenet", .batch = 10};
  }
};

// 16 single-GPU servers under crash and partition chaos, 32 open-loop
// Poisson clients: router probes, health, failover and the single-queue
// event loop carry the work; the Olympian core is not used.
class Chaos16 final : public ClusterWorkload {
 public:
  static constexpr std::size_t kServers = 16;
  static constexpr int kRequestsPerClient = 6;

 protected:
  serving::ClusterOptions Options() const override {
    serving::ClusterOptions co;
    co.num_servers = kServers;
    co.server.num_gpus = 1;
    co.server.pool_threads = 100;
    co.faults.Crash(At(150), sim::Duration::Millis(400), /*server=*/0);
    co.faults.Partition(At(450), sim::Duration::Millis(350),
                        /*server=*/kServers - 1,
                        olympian::fault::PartitionDirection::kToServer);
    co.faults.Crash(At(900), sim::Duration::Millis(300), /*server=*/7);
    return co;
  }

  std::size_t Execute(serving::Cluster& cluster, SpanLog& spans,
                      Rep& rep) const override {
    serving::ClusterClientSpec c;
    c.request = Googlenet();
    c.request.num_batches = kRequestsPerClient;
    c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
    c.arrivals.rate_rps = 120.0;
    const std::vector<serving::ClusterClientSpec> clients(2 * kServers, c);

    const int span = spans.Begin("serving.run");
    const std::int64_t r0 = NowNs();
    const auto results = cluster.Run(clients);
    rep.run_s = SecondsSince(r0);
    spans.End(span);

    rep.trajectory.events = cluster.engine().events_executed();
    for (std::size_t i = 0; i < results.size(); ++i) {
      AddResult(results[i], kRequestsPerClient, "client " + std::to_string(i),
                rep);
    }
    return clients.size() * kRequestsPerClient;
  }
};

// 4 servers behind one aggregate Poisson stream modelling 1M clients at
// about ten times capacity: deep queues, no faults, and the only workload
// on the sharded engine.
class Stream1M final : public ClusterWorkload {
 public:
  static constexpr int kRequests = 300;
  std::size_t check_shards() const override { return 2; }

 protected:
  serving::ClusterOptions Options() const override {
    serving::ClusterOptions co;
    co.num_servers = 4;
    co.server.num_gpus = 1;
    co.server.pool_threads = 100;
    return co;
  }

  std::size_t Execute(serving::Cluster& cluster, SpanLog& spans,
                      Rep& rep) const override {
    serving::ClusterStreamSpec s;
    s.request = Googlenet();
    s.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
    s.arrivals.rate_rps = 400.0;
    s.modeled_clients = 1'000'000;
    s.num_requests = kRequests;

    const int span = spans.Begin("serving.run");
    const std::int64_t r0 = NowNs();
    const auto results = cluster.RunStreams({s});
    rep.run_s = SecondsSince(r0);
    spans.End(span);

    rep.trajectory.events = cluster.engine().events_executed();
    for (const auto& r : results) AddResult(r, kRequests, "stream", rep);
    return kRequests;
  }
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fig16-mix", "chaos-16",
                                                 "stream-1m"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fig16-mix") return std::make_unique<Fig16Mix>();
  if (name == "chaos-16") return std::make_unique<Chaos16>();
  if (name == "stream-1m") return std::make_unique<Stream1M>();
  return nullptr;
}

}  // namespace perfbench
