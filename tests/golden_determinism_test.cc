// Golden determinism regression test: the Fig-11 workload (homogeneous
// Inception clients, stock TF-Serving and Olympian fair sharing) replayed
// with a fixed seed must produce bit-identical per-client finish times,
// events_executed, and scheduler counters — both run-to-run within one build
// and against golden values recorded before the event-queue/allocator
// rewrite. This is the gate that lets the simulation kernel be optimized
// freely: any reordering of same-instant events or change in stochastic
// stream consumption shows up here as an exact mismatch.
//
// Runs in both CI jobs (Release and OLYMPIAN_SANITIZE=ON); sanitizers do not
// perturb virtual-clock arithmetic, so the same constants hold.
//
// To regenerate after an *intentional* semantic change, run with
// OLYMPIAN_GOLDEN_PRINT=1 and paste the emitted block below.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/profiler.h"
#include "core/scheduler.h"
#include "fault/fault.h"
#include "metrics/counters.h"
#include "metrics/phase_account.h"
#include "metrics/registry.h"
#include "metrics/trace.h"
#include "serving/cluster.h"
#include "serving/server.h"

namespace olympian {
namespace {

struct GoldenRun {
  std::vector<std::int64_t> finish_ns;   // per-client finish times
  std::vector<std::int64_t> gpu_ns;      // per-client GPU durations
  std::vector<int> batches;              // per-client completed batches
  std::uint64_t events = 0;              // Environment::events_executed()
  std::uint64_t switches = 0;            // Olympian-only
  std::uint64_t quanta = 0;              // Olympian-only

  bool operator==(const GoldenRun&) const = default;
};

constexpr int kClients = 10;
constexpr int kBatches = 2;
constexpr std::uint64_t kSeed = 5;

GoldenRun RunWorkload(bool olympian, bool observed = false) {
  std::vector<serving::ClientSpec> clients(
      kClients, serving::ClientSpec{.model = "inception-v4",
                                    .batch = 100,
                                    .num_batches = kBatches});
  serving::ServerOptions opts;
  opts.seed = kSeed;
  // Full observability: tracer on the executor, registry + sampler on the
  // serving layer. The sampler adds its own timer events (so
  // events_executed differs) but is strictly read-only and draws no
  // randomness — every simulation outcome must stay bit-identical.
  metrics::Tracer tracer(100000);
  metrics::MetricRegistry registry;
  if (observed) {
    opts.executor.tracer = &tracer;
    opts.observability.registry = &registry;
    opts.observability.sample_interval = sim::Duration::Millis(10);
  }
  serving::Experiment exp(opts);

  std::unique_ptr<core::Scheduler> sched;
  core::ModelProfile profile;
  if (olympian) {
    core::Profiler profiler;
    profile = profiler.ProfileModel("inception-v4", 100);
    const auto q = sim::Duration::Micros(1600);
    sched = std::make_unique<core::Scheduler>(
        exp.env(), exp.gpu(), std::make_unique<core::FairPolicy>());
    sched->SetProfile(profile.key, &profile.cost,
                      core::Profiler::ThresholdFor(profile, q));
    exp.SetHooks(sched.get());
  }

  const auto results = exp.Run(clients);
  GoldenRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.gpu_ns.push_back(r.gpu_duration.nanos());
    out.batches.push_back(r.batches_completed);
  }
  out.events = exp.env().events_executed();
  if (sched) {
    out.switches = sched->switches();
    out.quanta = sched->quanta_completed();
  }
  return out;
}

void PrintGolden(const char* name, const GoldenRun& g) {
  std::printf("const GoldenRun %s{\n    {", name);
  for (auto v : g.finish_ns) std::printf("%lldLL, ", static_cast<long long>(v));
  std::printf("},\n    {");
  for (auto v : g.gpu_ns) std::printf("%lldLL, ", static_cast<long long>(v));
  std::printf("},\n    {");
  for (auto v : g.batches) std::printf("%d, ", v);
  std::printf("},\n    %lluULL, %lluULL, %lluULL};\n",
              static_cast<unsigned long long>(g.events),
              static_cast<unsigned long long>(g.switches),
              static_cast<unsigned long long>(g.quanta));
}

// Golden values recorded from the pre-rewrite simulation kernel
// (std::priority_queue event loop), seed 5, 10 clients x 2 batches.
const GoldenRun kGoldenBaseline{
    {9068776858LL, 10960558313LL, 11354049113LL, 10220972098LL, 8912229488LL,
     10659668123LL, 9711286909LL, 8228638535LL, 9828060530LL, 11338222049LL},
    {1134996471LL, 1134886510LL, 1135164404LL, 1134937902LL, 1134936901LL,
     1134930888LL, 1134938968LL, 1134993954LL, 1134789945LL, 1134941801LL},
    {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
    1111150ULL, 0ULL, 0ULL};

const GoldenRun kGoldenOlympian{
    {11535181119LL, 11535835619LL, 11536476308LL, 11537126770LL,
     11537792406LL, 11538439502LL, 11539101135LL, 11539751847LL,
     11540391545LL, 11541038440LL},
    {1135041533LL, 1134626034LL, 1134901641LL, 1134560874LL, 1135277897LL,
     1134812960LL, 1135173941LL, 1134996082LL, 1135156183LL, 1135204132LL},
    {2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
    1156570ULL, 6781ULL, 6760ULL};

bool PrintRequested() {
  const char* v = std::getenv("OLYMPIAN_GOLDEN_PRINT");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

TEST(GoldenDeterminismTest, BaselineMatchesGoldenAndReplays) {
  const GoldenRun a = RunWorkload(/*olympian=*/false);
  const GoldenRun b = RunWorkload(/*olympian=*/false);
  EXPECT_EQ(a, b) << "same-seed replay diverged within one build";
  if (PrintRequested()) {
    PrintGolden("kGoldenBaseline", a);
    return;
  }
  EXPECT_EQ(a, kGoldenBaseline) << "baseline run diverged from golden values";
}

TEST(GoldenDeterminismTest, OlympianMatchesGoldenAndReplays) {
  const GoldenRun a = RunWorkload(/*olympian=*/true);
  const GoldenRun b = RunWorkload(/*olympian=*/true);
  EXPECT_EQ(a, b) << "same-seed replay diverged within one build";
  if (PrintRequested()) {
    PrintGolden("kGoldenOlympian", a);
    return;
  }
  EXPECT_EQ(a, kGoldenOlympian) << "Olympian run diverged from golden values";
}

// Observability must be invisible to the virtual clock: with the tracer,
// registry, and sampler all live, every simulation outcome — finish times,
// GPU durations, batch counts, scheduler switch/quantum counts — is
// bit-identical to the unobserved run. Only events_executed may differ
// (the sampler's own timer ticks are events), so it is excluded here.
TEST(GoldenDeterminismTest, ObservabilityLeavesOutcomesBitIdentical) {
  for (const bool olympian : {false, true}) {
    const GoldenRun plain = RunWorkload(olympian, /*observed=*/false);
    const GoldenRun observed = RunWorkload(olympian, /*observed=*/true);
    EXPECT_EQ(observed.finish_ns, plain.finish_ns) << "olympian=" << olympian;
    EXPECT_EQ(observed.gpu_ns, plain.gpu_ns) << "olympian=" << olympian;
    EXPECT_EQ(observed.batches, plain.batches) << "olympian=" << olympian;
    EXPECT_EQ(observed.switches, plain.switches) << "olympian=" << olympian;
    EXPECT_EQ(observed.quanta, plain.quanta) << "olympian=" << olympian;
    EXPECT_GT(observed.events, plain.events)
        << "sampler ticks should add events";
  }
}

// ---------------------------------------------------------------------------
// Cluster-ON golden: the full cluster stack (router, probes, open-loop
// Poisson arrivals, a crash with failover) pinned the same way. The
// single-server goldens above run with the cluster disabled and must stay
// untouched by cluster work; this one pins the cluster trajectory itself.

struct GoldenClusterRun {
  std::vector<std::int64_t> finish_ns;  // per-client
  std::vector<int> completed;           // per-client served requests
  std::uint64_t events = 0;
  std::uint64_t routed = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t transitions = 0;
  // Every RouterCounters field in Fields() order (sharded workload only;
  // the pinned kGoldenCluster leaves it empty).
  std::vector<std::uint64_t> router;

  bool operator==(const GoldenClusterRun&) const = default;
};

GoldenClusterRun RunClusterWorkload() {
  serving::ClusterOptions opts;
  opts.num_servers = 2;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 7;
  opts.faults.Crash(sim::TimePoint() + sim::Duration::Millis(100),
                    sim::Duration::Millis(400), /*server=*/0);
  serving::Cluster cluster(opts);
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 6;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 150.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(4, c));
  GoldenClusterRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.completed.push_back(r.requests_completed);
  }
  out.events = cluster.env().events_executed();
  out.routed = cluster.counters().requests_routed;
  out.ok = cluster.counters().requests_ok;
  out.failed_over = cluster.counters().requests_failed_over;
  out.transitions = cluster.counters().server_transitions;
  return out;
}

void PrintGoldenCluster(const char* name, const GoldenClusterRun& g) {
  std::printf("const GoldenClusterRun %s{\n    {", name);
  for (auto v : g.finish_ns) std::printf("%lldLL, ", static_cast<long long>(v));
  std::printf("},\n    {");
  for (auto v : g.completed) std::printf("%d, ", v);
  std::printf("},\n    %lluULL, %lluULL, %lluULL, %lluULL, %lluULL};\n",
              static_cast<unsigned long long>(g.events),
              static_cast<unsigned long long>(g.routed),
              static_cast<unsigned long long>(g.ok),
              static_cast<unsigned long long>(g.failed_over),
              static_cast<unsigned long long>(g.transitions));
}

const GoldenClusterRun kGoldenCluster{
    {1169439626LL, 1055583791LL, 1173012036LL, 1053536204LL},
    {6, 6, 6, 6},
    3201689ULL, 26ULL, 24ULL, 2ULL, 4ULL};

TEST(GoldenDeterminismTest, ClusterMatchesGoldenAndReplays) {
  const GoldenClusterRun a = RunClusterWorkload();
  const GoldenClusterRun b = RunClusterWorkload();
  EXPECT_EQ(a, b) << "same-seed cluster replay diverged within one build";
  if (PrintRequested()) {
    PrintGoldenCluster("kGoldenCluster", a);
    return;
  }
  EXPECT_EQ(a, kGoldenCluster) << "cluster run diverged from golden values";
}

// ---------------------------------------------------------------------------
// Sharded engine: partitioning the cluster across worker threads is a pure
// execution-strategy change — the virtual-time trajectory must be BIT-
// IDENTICAL to the single-queue run, for any shard count, on any host
// (thread scheduling must not leak into outcomes). A 4-server workload with
// a crash plus an asymmetric partition exercises hub instants (faults,
// probes, routing) interleaved with parallel windows (serving) and
// cross-shard failover. The partition direction picks the lost leg: the
// default kToServer drops requests on the way in; kFromServer drops
// responses, which re-execute at-least-once under failover and spend retry
// budget without it. `events` counts per environment; summed across shards
// it must match the unsharded count (same events, merely executed on
// different queues).

GoldenClusterRun RunShardedClusterWorkload(
    std::size_t shards,
    fault::PartitionDirection partition = fault::PartitionDirection::kToServer,
    bool failover = true) {
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 11;
  opts.shards = shards;
  opts.router.failover = failover;
  opts.faults.Crash(sim::TimePoint() + sim::Duration::Millis(100),
                    sim::Duration::Millis(400), /*server=*/0);
  opts.faults.Partition(sim::TimePoint() + sim::Duration::Millis(300),
                        sim::Duration::Millis(300), /*server=*/2, partition);
  serving::Cluster cluster(opts);
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 5;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 120.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(8, c));
  GoldenClusterRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.completed.push_back(r.requests_completed);
  }
  out.events = cluster.engine().events_executed();
  out.routed = cluster.counters().requests_routed;
  out.ok = cluster.counters().requests_ok;
  out.failed_over = cluster.counters().requests_failed_over;
  out.transitions = cluster.counters().server_transitions;
  for (const metrics::RouterCounters::Field& f :
       metrics::RouterCounters::Fields()) {
    out.router.push_back(cluster.counters().*f.member);
  }
  return out;
}

// The value of the RouterCounters field `name` recorded in `run`.
std::uint64_t RouterField(const GoldenClusterRun& run, std::string_view name) {
  const auto fields = metrics::RouterCounters::Fields();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (name == fields[i].name) return run.router.at(i);
  }
  ADD_FAILURE() << "no RouterCounters field " << name;
  return 0;
}

TEST(GoldenDeterminismTest, ShardedClusterBitIdenticalToUnsharded) {
  const GoldenClusterRun seq = RunShardedClusterWorkload(1);
  const GoldenClusterRun par = RunShardedClusterWorkload(4);
  const GoldenClusterRun par2 = RunShardedClusterWorkload(4);
  if (PrintRequested()) {
    PrintGoldenCluster("kGoldenShardedCluster(seq)", seq);
    PrintGoldenCluster("kGoldenShardedCluster(par)", par);
    return;
  }
  EXPECT_EQ(par, par2)
      << "same-seed 4-shard replay diverged: thread scheduling leaked into "
         "the trajectory";
  EXPECT_EQ(par, seq)
      << "4-shard run diverged from the single-queue run (same seed)";
}

TEST(GoldenDeterminismTest, ShardedClusterWithTwoShardsMatchesToo) {
  // A shard count that does not divide the server count: servers 0 and 2
  // share shard 0, servers 1 and 3 share shard 1.
  const GoldenClusterRun seq = RunShardedClusterWorkload(1);
  const GoldenClusterRun par = RunShardedClusterWorkload(2);
  EXPECT_EQ(par, seq);
}

// The single-queue trajectory of one lost-legs scenario: per-client finish
// times and every RouterCounters field in Fields() order.
struct GoldenLostLegs {
  std::vector<std::int64_t> finish_ns;
  std::vector<std::uint64_t> router;
};

// Recorded at the commit before the request paths' phase accounts became
// unconditional; one entry per scenario below, in order.
const GoldenLostLegs kGoldenLostLegs[] = {
    {{939886929LL, 823968487LL, 1014371028LL, 838297368LL, 1066314053LL,
      819253831LL, 1116691957LL, 839891368LL},
     {1ULL, 0ULL, 1ULL, 0ULL, 0ULL, 46ULL, 40ULL, 0ULL, 0ULL, 0ULL, 6ULL, 0ULL,
      0ULL, 4ULL, 206ULL, 24ULL, 8ULL, 2ULL, 2ULL, 5ULL, 0ULL, 0ULL, 0ULL, 0ULL,
      0ULL}},
    {{230800187LL, 691715372LL, 1010923637LL, 733307371LL, 230800267LL,
      693513868LL, 1009387973LL, 733191152LL},
     {1ULL, 0ULL, 1ULL, 0ULL, 0ULL, 64ULL, 30ULL, 10ULL, 0ULL, 0ULL, 0ULL,
      24ULL, 0ULL, 4ULL, 184ULL, 24ULL, 8ULL, 2ULL, 2ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 0ULL}},
    {{230800187LL, 691715372LL, 509375448LL, 733307371LL, 230800267LL,
      693513868LL, 509909840LL, 733191152LL},
     {1ULL, 0ULL, 1ULL, 0ULL, 0ULL, 68ULL, 26ULL, 14ULL, 0ULL, 0ULL, 0ULL,
      28ULL, 12ULL, 0ULL, 130ULL, 24ULL, 8ULL, 2ULL, 2ULL, 0ULL, 0ULL, 0ULL,
      0ULL, 0ULL, 0ULL}},
};

TEST(GoldenDeterminismTest, ShardedLostLegsAndBudgetedRetriesMatchUnsharded) {
  // The lost-response branch (kFromServer: the work ran, the answer is
  // dropped) and the budgeted-retry branches taken with failover off — after
  // a lost request, a lost response, or a crashed server's rejection — must
  // replay the single-queue trajectory at every shard count, and that
  // trajectory is pinned. (With failover off every leg is pinned to its
  // racked home tenant, so the tenant-instantiation failure branch cannot
  // fire here; the cluster_test alloc-fault case covers it.)
  using fault::PartitionDirection;
  struct Scenario {
    PartitionDirection partition;
    bool failover;
  };
  const Scenario scenarios[] = {
      Scenario{PartitionDirection::kFromServer, true},
      Scenario{PartitionDirection::kFromServer, false},
      Scenario{PartitionDirection::kToServer, false}};
  static_assert(std::size(scenarios) == std::size(kGoldenLostLegs));
  for (std::size_t i = 0; i < std::size(scenarios); ++i) {
    const Scenario sc = scenarios[i];
    SCOPED_TRACE(std::string(sc.partition == PartitionDirection::kFromServer
                                 ? "kFromServer"
                                 : "kToServer") +
                 (sc.failover ? " failover" : " no-failover"));
    const auto run = [&](std::size_t shards) {
      return RunShardedClusterWorkload(shards, sc.partition, sc.failover);
    };
    const GoldenClusterRun seq = run(1);
    if (PrintRequested()) {
      std::printf("    {{");
      for (auto v : seq.finish_ns) {
        std::printf("%lldLL, ", static_cast<long long>(v));
      }
      std::printf("},\n     {");
      for (auto v : seq.router) {
        std::printf("%lluULL, ", static_cast<unsigned long long>(v));
      }
      std::printf("}},\n");
      continue;
    }
    EXPECT_EQ(seq.finish_ns, kGoldenLostLegs[i].finish_ns);
    EXPECT_EQ(seq.router, kGoldenLostLegs[i].router);
    // The scenario must actually take the branch it claims to cover.
    if (sc.partition == PartitionDirection::kFromServer) {
      EXPECT_GT(RouterField(seq, "responses_lost_from_server"), 0u);
    } else {
      EXPECT_GT(RouterField(seq, "requests_lost_to_server"), 0u);
    }
    if (sc.failover) {
      EXPECT_GT(RouterField(seq, "requests_failed_over"), 0u);
    } else {
      EXPECT_EQ(RouterField(seq, "requests_failed_over"), 0u);
      EXPECT_GT(RouterField(seq, "retries"), 0u);
      EXPECT_GT(RouterField(seq, "requests_failed"), 0u);
    }
    EXPECT_EQ(run(2), seq) << "2-shard run diverged from the single queue";
    EXPECT_EQ(run(4), seq) << "4-shard run diverged from the single queue";
  }
}

// Sharded observability: a cluster run with a server-side tracer AND a
// server-side registry (both banned in sharded mode before the private-
// accumulator merge) must export byte-identical artifacts at any shard
// count. Compares the full Chrome trace JSON, Prometheus exposition, and
// JSON timeline strings.
struct GoldenObservabilityRun {
  GoldenClusterRun run;
  std::string chrome_trace;
  std::string prometheus;
  std::string timeline;

  bool operator==(const GoldenObservabilityRun&) const = default;
};

GoldenObservabilityRun RunShardedObservabilityWorkload(std::size_t shards) {
  metrics::Tracer tracer(200000);
  metrics::MetricRegistry server_registry;
  metrics::MetricRegistry cluster_registry;
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 11;
  opts.shards = shards;
  opts.server.executor.tracer = &tracer;
  opts.server.observability.registry = &server_registry;
  opts.registry = &cluster_registry;
  opts.faults.Crash(sim::TimePoint() + sim::Duration::Millis(100),
                    sim::Duration::Millis(400), /*server=*/0);
  opts.faults.Partition(sim::TimePoint() + sim::Duration::Millis(300),
                        sim::Duration::Millis(300), /*server=*/2,
                        fault::PartitionDirection::kToServer);
  // Alloc faults so the lifted per-request failure path runs under
  // observability too.
  opts.server.faults.AllocFault(
      sim::TimePoint() + sim::Duration::Millis(80),
      sim::Duration::Millis(250));
  serving::Cluster cluster(opts);
  serving::ClusterClientSpec c;
  c.request.model = "googlenet";
  c.request.batch = 10;
  c.request.num_batches = 5;
  c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
  c.arrivals.rate_rps = 120.0;
  const auto results =
      cluster.Run(std::vector<serving::ClusterClientSpec>(8, c));
  GoldenObservabilityRun out;
  for (const auto& r : results) {
    out.run.finish_ns.push_back(r.finish_time.nanos());
    out.run.completed.push_back(r.requests_completed);
  }
  out.run.events = cluster.engine().events_executed();
  out.run.routed = cluster.counters().requests_routed;
  out.run.ok = cluster.counters().requests_ok;
  out.run.failed_over = cluster.counters().requests_failed_over;
  out.run.transitions = cluster.counters().server_transitions;
  {
    std::ostringstream os;
    tracer.WriteChromeTrace(os);
    out.chrome_trace = os.str();
  }
  {
    std::ostringstream os;
    server_registry.WritePrometheus(os);
    os << "--- cluster ---\n";
    cluster_registry.WritePrometheus(os);
    out.prometheus = os.str();
  }
  {
    std::ostringstream os;
    server_registry.WriteJsonTimeline(os);
    cluster_registry.WriteJsonTimeline(os);
    out.timeline = os.str();
  }
  return out;
}

TEST(GoldenDeterminismTest, ShardedObservabilityExportsBitIdentical) {
  const GoldenObservabilityRun seq = RunShardedObservabilityWorkload(1);
  const GoldenObservabilityRun par = RunShardedObservabilityWorkload(4);
  EXPECT_GT(seq.chrome_trace.size(), 100u)
      << "trace export is vacuously empty";
  EXPECT_NE(seq.prometheus.find("server=\"1\""), std::string::npos)
      << "per-server counters missing from the merged registry export";
  EXPECT_EQ(par.run, seq.run);
  EXPECT_EQ(par.chrome_trace, seq.chrome_trace)
      << "sharded Chrome trace diverged from the unsharded export";
  EXPECT_EQ(par.prometheus, seq.prometheus)
      << "sharded Prometheus export diverged from the unsharded export";
  EXPECT_EQ(par.timeline, seq.timeline)
      << "sharded JSON timeline diverged from the unsharded export";
}

// ---------------------------------------------------------------------------
// Wave-train coalescing: collapsing k identical back-to-back waves into one
// timer event is a pure event-count optimization — it must never move a
// finish time. The serving workload above never triggers it (production
// batches saturate the device and run exclusive), so this exercises the
// coalesced path directly: a long backdrop kernel pins most of the device
// while short kernels stream multi-wave trains through the leftover slots.

namespace {

struct TrainRun {
  std::vector<std::int64_t> done_ns;
  std::uint64_t waves_dispatched = 0;
  std::uint64_t waves_coalesced = 0;
  std::uint64_t kernels_completed = 0;
};

sim::Task OneKernel(gpusim::Gpu& gpu, sim::Environment& env,
                    gpusim::StreamId s, gpusim::KernelDesc d,
                    std::vector<std::int64_t>& done_ns, std::size_t slot) {
  co_await gpu.Submit(s, d);
  done_ns[slot] = (env.Now() - sim::TimePoint()).nanos();
}

TrainRun RunWaveTrains(bool coalesce, bool hang_mid_train) {
  sim::Environment env;
  gpusim::Gpu::Options o;
  o.spec = gpusim::GpuSpec{.name = "train-test",
                           .num_sms = 8,
                           .max_blocks_per_sm = 1,
                           .clock_scale = 1.0,
                           .memory_mb = 1000};
  o.clock_noise_sigma = 0.0;
  o.seed = 11;
  o.coalesce_wave_trains = coalesce;
  gpusim::Gpu gpu(env, o);
  const auto backdrop = gpu.CreateStream();
  const auto train = gpu.CreateStream();
  constexpr int kTrains = 40;
  std::vector<std::int64_t> done(kTrains + 1, -1);
  // Holds 6 of 8 slots for a long time so the train kernels below see a
  // steady 2 free slots — the full-refill precondition for coalescing.
  env.Spawn(OneKernel(gpu, env, backdrop,
                      gpusim::KernelDesc{.job = 0, .thread_blocks = 6,
                                         .block_work = sim::Duration::Millis(40)},
                      done, 0));
  // Each kernel is 7 blocks through 2 slots: waves of 2/2/2/1, the first
  // issue qualifying as a coalescible 3-wave train.
  for (int i = 0; i < kTrains; ++i) {
    env.Spawn(OneKernel(gpu, env, train,
                        gpusim::KernelDesc{.job = 1, .thread_blocks = 7,
                                           .block_work = sim::Duration::Micros(5)},
                        done, static_cast<std::size_t>(i) + 1));
  }
  if (hang_mid_train) {
    // Lands mid-train for several kernels; coalesced trains must split so
    // un-issued waves stall exactly as they would uncoalesced.
    env.ScheduleCallbackAt(
        sim::TimePoint() + sim::Duration::Micros(203),
        [](void* ctx, std::uint64_t) {
          static_cast<gpusim::Gpu*>(ctx)->Hang(sim::Duration::Micros(90));
        },
        &gpu, 0);
  }
  env.Run();
  return TrainRun{.done_ns = std::move(done),
                  .waves_dispatched = gpu.waves_dispatched(),
                  .waves_coalesced = gpu.waves_coalesced(),
                  .kernels_completed = gpu.kernels_completed()};
}

}  // namespace

TEST(GoldenDeterminismTest, WaveTrainCoalescingPreservesFinishTimes) {
  const TrainRun on = RunWaveTrains(/*coalesce=*/true, /*hang_mid_train=*/false);
  const TrainRun off =
      RunWaveTrains(/*coalesce=*/false, /*hang_mid_train=*/false);
  EXPECT_GT(on.waves_coalesced, 0u) << "scenario failed to trigger coalescing";
  EXPECT_EQ(off.waves_coalesced, 0u);
  // Semantic wave/kernel counts match; only timer events are elided.
  EXPECT_EQ(on.waves_dispatched, off.waves_dispatched);
  EXPECT_EQ(on.kernels_completed, off.kernels_completed);
  ASSERT_EQ(on.done_ns.size(), off.done_ns.size());
  for (std::size_t i = 0; i < on.done_ns.size(); ++i) {
    EXPECT_EQ(on.done_ns[i], off.done_ns[i]) << "kernel " << i;
    EXPECT_GE(on.done_ns[i], 0) << "kernel " << i << " never finished";
  }
  // And the coalesced path replays bit-identically.
  const TrainRun replay =
      RunWaveTrains(/*coalesce=*/true, /*hang_mid_train=*/false);
  EXPECT_EQ(replay.done_ns, on.done_ns);
  EXPECT_EQ(replay.waves_coalesced, on.waves_coalesced);
}

TEST(GoldenDeterminismTest, HangSplitsTrainsWithoutMovingFinishTimes) {
  const TrainRun on = RunWaveTrains(/*coalesce=*/true, /*hang_mid_train=*/true);
  const TrainRun off =
      RunWaveTrains(/*coalesce=*/false, /*hang_mid_train=*/true);
  EXPECT_GT(on.waves_coalesced, 0u) << "scenario failed to trigger coalescing";
  EXPECT_EQ(on.kernels_completed, off.kernels_completed);
  ASSERT_EQ(on.done_ns.size(), off.done_ns.size());
  for (std::size_t i = 0; i < on.done_ns.size(); ++i) {
    EXPECT_EQ(on.done_ns[i], off.done_ns[i]) << "kernel " << i;
    EXPECT_GE(on.done_ns[i], 0) << "kernel " << i << " never finished";
  }
}

// A fractional-capacity window landing mid-train is the same exactness
// obligation as a hang: trains split at the window-open edge
// (ThrottleCapacity) and are capped at the window-close edge
// (CoalescibleWaves), so no train ever spans a capacity change — the
// coalesced run must finish every kernel at the uncoalesced instant.
TEST(GoldenDeterminismTest, CapacityWindowSplitsTrainsWithoutMovingTimes) {
  const auto run = [](bool coalesce) {
    sim::Environment env;
    gpusim::Gpu::Options o;
    o.spec = gpusim::GpuSpec{.name = "train-test",
                             .num_sms = 8,
                             .max_blocks_per_sm = 1,
                             .clock_scale = 1.0,
                             .memory_mb = 1000};
    o.clock_noise_sigma = 0.0;
    o.seed = 11;
    o.coalesce_wave_trains = coalesce;
    gpusim::Gpu gpu(env, o);
    const auto backdrop = gpu.CreateStream();
    const auto train = gpu.CreateStream();
    constexpr int kTrains = 40;
    std::vector<std::int64_t> done(kTrains + 1, -1);
    env.Spawn(OneKernel(
        gpu, env, backdrop,
        gpusim::KernelDesc{.job = 0, .thread_blocks = 6,
                           .block_work = sim::Duration::Millis(40)},
        done, 0));
    for (int i = 0; i < kTrains; ++i) {
      env.Spawn(OneKernel(
          gpu, env, train,
          gpusim::KernelDesc{.job = 1, .thread_blocks = 7,
                             .block_work = sim::Duration::Micros(5)},
          done, static_cast<std::size_t>(i) + 1));
    }
    // Opens mid-train for several kernels, closes mid-train again 90us on.
    env.ScheduleCallbackAt(
        sim::TimePoint() + sim::Duration::Micros(203),
        [](void* ctx, std::uint64_t) {
          static_cast<gpusim::Gpu*>(ctx)->ThrottleCapacity(
              0.5, sim::Duration::Micros(90));
        },
        &gpu, 0);
    env.Run();
    return TrainRun{.done_ns = std::move(done),
                    .waves_dispatched = gpu.waves_dispatched(),
                    .waves_coalesced = gpu.waves_coalesced(),
                    .kernels_completed = gpu.kernels_completed()};
  };
  const TrainRun on = run(/*coalesce=*/true);
  const TrainRun off = run(/*coalesce=*/false);
  EXPECT_GT(on.waves_coalesced, 0u) << "scenario failed to trigger coalescing";
  // waves_dispatched can legitimately differ: a split train returns its
  // un-run waves to the queue and they are counted again on re-dispatch
  // (same as the hang-split scenario above). Finish times are the
  // exactness obligation.
  EXPECT_EQ(on.kernels_completed, off.kernels_completed);
  ASSERT_EQ(on.done_ns.size(), off.done_ns.size());
  for (std::size_t i = 0; i < on.done_ns.size(); ++i) {
    EXPECT_EQ(on.done_ns[i], off.done_ns[i]) << "kernel " << i;
    EXPECT_GE(on.done_ns[i], 0) << "kernel " << i << " never finished";
  }
}

// ---------------------------------------------------------------------------
// Gray-failure golden: scoring, brownout, capacity losses, and jitter all
// ON — the new path pinned bit-exactly, at shards=1 and shards=4. The
// cluster goldens above run with scoring disabled and must stay untouched
// by this PR; this one pins the scored trajectory itself.

struct GoldenGrayRun {
  std::vector<std::int64_t> finish_ns;  // per-client
  std::vector<int> completed;           // per-client served requests
  std::uint64_t events = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;               // requests_shed_brownout
  std::uint64_t degrades = 0;           // score_degrade_events
  std::uint64_t recovers = 0;           // score_recover_events
  std::uint64_t brownouts = 0;          // brownout_entries
  std::int64_t detection_ns = 0;        // sum of detection latencies

  bool operator==(const GoldenGrayRun&) const = default;
};

GoldenGrayRun RunGrayClusterWorkload(std::size_t shards) {
  serving::ClusterOptions opts;
  opts.num_servers = 4;
  opts.server.num_gpus = 1;
  opts.server.pool_threads = 100;
  opts.seed = 17;
  opts.shards = shards;
  opts.router.score.enabled = true;
  opts.router.brownout.enabled = true;
  opts.router.brownout.enter_below = 0.80;
  opts.router.brownout.exit_above = 0.90;
  opts.faults.CapacityLoss(sim::TimePoint() + sim::Duration::Millis(100),
                           sim::Duration::Millis(250), /*server=*/0, 0.25);
  opts.faults.CapacityLoss(sim::TimePoint() + sim::Duration::Millis(120),
                           sim::Duration::Millis(250), /*server=*/1, 0.3);
  opts.faults.Jitter(sim::TimePoint() + sim::Duration::Millis(150),
                     sim::Duration::Millis(200), /*server=*/2, 5.0);
  serving::Cluster cluster(opts);
  std::vector<serving::ClusterClientSpec> clients;
  for (int i = 0; i < 8; ++i) {
    serving::ClusterClientSpec c;
    c.request.model = "googlenet";
    c.request.batch = 8;
    c.request.num_batches = 8;
    c.request.priority = i % 2;
    c.arrivals.kind = serving::ArrivalSpec::Kind::kPoisson;
    c.arrivals.rate_rps = 15.0;
    clients.push_back(c);
  }
  const auto results = cluster.Run(clients);
  GoldenGrayRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    out.completed.push_back(r.requests_completed);
  }
  out.events = cluster.engine().events_executed();
  out.ok = cluster.counters().requests_ok;
  out.shed = cluster.counters().requests_shed_brownout;
  out.degrades = cluster.counters().score_degrade_events;
  out.recovers = cluster.counters().score_recover_events;
  out.brownouts = cluster.counters().brownout_entries;
  for (const sim::Duration d : cluster.router().detection_latencies()) {
    out.detection_ns += d.nanos();
  }
  return out;
}

void PrintGoldenGray(const char* name, const GoldenGrayRun& g) {
  std::printf("const GoldenGrayRun %s{\n    {", name);
  for (auto v : g.finish_ns) std::printf("%lldLL, ", static_cast<long long>(v));
  std::printf("},\n    {");
  for (auto v : g.completed) std::printf("%d, ", v);
  std::printf("},\n    %lluULL, %lluULL, %lluULL, %lluULL, %lluULL, %lluULL, "
              "%lldLL};\n",
              static_cast<unsigned long long>(g.events),
              static_cast<unsigned long long>(g.ok),
              static_cast<unsigned long long>(g.shed),
              static_cast<unsigned long long>(g.degrades),
              static_cast<unsigned long long>(g.recovers),
              static_cast<unsigned long long>(g.brownouts),
              static_cast<long long>(g.detection_ns));
}

const GoldenGrayRun kGoldenGray{
    {885153784LL, 1279888020LL, 769712434LL, 1065424996LL, 912355800LL,
     1271921622LL, 471160639LL, 1064546099LL},
    {4, 8, 4, 8, 4, 8, 2, 8},
    3128821ULL, 46ULL, 18ULL, 3ULL, 3ULL, 1ULL, 137666666LL};

TEST(GoldenDeterminismTest, GrayClusterMatchesGoldenAndReplays) {
  const GoldenGrayRun a = RunGrayClusterWorkload(1);
  const GoldenGrayRun b = RunGrayClusterWorkload(1);
  EXPECT_EQ(a, b) << "same-seed gray-failure replay diverged within one build";
  if (PrintRequested()) {
    PrintGoldenGray("kGoldenGray", a);
    return;
  }
  EXPECT_EQ(a, kGoldenGray) << "gray-failure run diverged from golden values";
  // The scenario actually exercises the new machinery.
  EXPECT_GT(a.degrades, 0u);
  EXPECT_GT(a.brownouts, 0u);
  EXPECT_GT(a.detection_ns, 0);
}

TEST(GoldenDeterminismTest, GrayClusterShardedBitIdenticalToUnsharded) {
  const GoldenGrayRun seq = RunGrayClusterWorkload(1);
  const GoldenGrayRun par = RunGrayClusterWorkload(4);
  const GoldenGrayRun par2 = RunGrayClusterWorkload(4);
  EXPECT_EQ(par, par2)
      << "same-seed 4-shard gray replay diverged: thread scheduling leaked "
         "into the trajectory";
  EXPECT_EQ(par, seq)
      << "4-shard gray run diverged from the single-queue run (same seed)";
}


// ---------------------------------------------------------------------------
// Single-server failover golden: the server's own request path with every
// leg live — device failover, degraded-device hedging, a deadline, the
// circuit breaker, the admission watermark and retries — through a kernel
// failure, a hang, a reset with a down window and an alloc-fault window.
// The single-server goldens above are fault-free; this one pins the
// server's failover and hedge trajectory, down to every ServingCounters
// field and the latency-anatomy blame table.

struct GoldenServerFailoverRun {
  std::vector<std::int64_t> finish_ns;  // per-client
  // Per-client request statuses, one digit per request (RequestStatus).
  std::vector<std::string> statuses;
  // Every ServingCounters field in Fields() order.
  std::vector<std::uint64_t> counters;
  std::uint64_t events = 0;
  std::string blame;  // PhaseCollector::WriteBlameJson

  bool operator==(const GoldenServerFailoverRun&) const = default;
};

GoldenServerFailoverRun RunServerFailoverWorkload() {
  const auto at = [](int ms) {
    return sim::TimePoint() + sim::Duration::Millis(ms);
  };
  metrics::PhaseCollector phases(
      metrics::PhaseCollector::Options{.slo_ms = 150.0});
  serving::ServerOptions opts;
  opts.seed = 29;
  opts.num_gpus = 2;
  opts.pool_threads = 8;
  opts.failover.enabled = true;
  opts.failover.hedge_when_degraded = true;
  opts.failover.hedge_delay = sim::Duration::Millis(1);
  // The hang keeps the device degraded (not down) so the hedge fires.
  opts.failover.health.hang_down_after = sim::Duration::Seconds(10);
  opts.degradation.retry.base_backoff = sim::Duration::Millis(10);
  opts.degradation.breaker.failure_threshold = 2;
  opts.degradation.admission_watermark = 0.75;
  opts.observability.phases = &phases;
  opts.faults.KernelFailure(at(595), /*stream=*/1, /*gpu_index=*/0);
  opts.faults.DeviceHang(at(600), sim::Duration::Millis(300), /*gpu_index=*/0);
  opts.faults.DeviceReset(at(650), sim::Duration::Millis(200),
                          /*gpu_index=*/0);
  opts.faults.AllocFault(at(800), sim::Duration::Millis(60),
                         /*gpu_index=*/1);
  serving::Experiment exp(opts);
  const auto results = exp.Run(
      {serving::ClientSpec{
           .model = "resnet-152", .batch = 20, .num_batches = 12},
       serving::ClientSpec{.model = "googlenet",
                           .batch = 20,
                           .num_batches = 12,
                           .deadline = sim::Duration::Millis(400)},
       serving::ClientSpec{.model = "googlenet",
                           .batch = 10,
                           .num_batches = 20,
                           .mean_interarrival = sim::Duration::Millis(40),
                           .deadline = sim::Duration::Millis(250)},
       serving::ClientSpec{
           .model = "inception-v4", .batch = 10, .num_batches = 8}});
  GoldenServerFailoverRun out;
  for (const auto& r : results) {
    out.finish_ns.push_back(r.finish_time.nanos());
    std::string s;
    for (const serving::RequestStatus st : r.request_status) {
      s += static_cast<char>('0' + static_cast<int>(st));
    }
    out.statuses.push_back(std::move(s));
  }
  for (const metrics::ServingCounters::Field& f :
       metrics::ServingCounters::Fields()) {
    out.counters.push_back(exp.counters().*f.member);
  }
  out.events = exp.env().events_executed();
  std::ostringstream blame;
  phases.WriteBlameJson(blame);
  out.blame = blame.str();
  return out;
}

void PrintGoldenServerFailover(const char* name,
                               const GoldenServerFailoverRun& g) {
  std::printf("const GoldenServerFailoverRun %s{\n    {", name);
  for (auto v : g.finish_ns) std::printf("%lldLL, ", static_cast<long long>(v));
  std::printf("},\n    {");
  for (const auto& s : g.statuses) std::printf("\"%s\", ", s.c_str());
  std::printf("},\n    {");
  for (auto v : g.counters) {
    std::printf("%lluULL, ", static_cast<unsigned long long>(v));
  }
  std::printf("},\n    %lluULL,\n    R\"json(%s)json\"};\n",
              static_cast<unsigned long long>(g.events), g.blame.c_str());
}

// Recorded at the commit before the server request path was folded into
// one mechanism; seed 29.
const GoldenServerFailoverRun kGoldenServerFailover{
    {3141866731LL, 454806796LL, 1423955507LL, 794403131LL},
    {"023000000000", "002222222222", "02122022212222011111", "02220000"},
    {1ULL, 1ULL, 1ULL, 1ULL, 0ULL, 20ULL, 1ULL, 7ULL, 24ULL, 0ULL, 3ULL, 20ULL,
     4ULL, 1ULL, 2ULL, 1ULL, 7ULL, 6ULL, 1ULL, 1ULL, 1ULL, 2ULL, 1ULL, 0ULL,
     1ULL, 1ULL, 1ULL},
    1416674ULL,
    R"json({
  "slo_ms": 150,
  "requests": 52,
  "violations": 50,
  "phase_sum_mismatches": 0,
  "rows": [
    {"server": -1, "model": "googlenet", "requests": 32, "violations": 32, "dominant_phase": "admission", "phases_ns":{"admission":2252480821,"gpu_queue":194521088,"gpu_compute":1413721617,"backoff":132917302}, "violation_phases_ns":{"admission":2252480821,"gpu_queue":194521088,"gpu_compute":1413721617,"backoff":132917302}, "dominant_counts":{"admission":14,"gpu_compute":7,"backoff":11}},
    {"server": -1, "model": "inception-v4", "requests": 8, "violations": 6, "dominant_phase": "gpu_compute", "phases_ns":{"gpu_queue":55276964,"gpu_compute":724126167,"backoff":15000000}, "violation_phases_ns":{"gpu_queue":48300659,"gpu_compute":466726679,"backoff":15000000}, "dominant_counts":{"gpu_compute":3,"backoff":3}},
    {"server": -1, "model": "resnet-152", "requests": 12, "violations": 12, "dominant_phase": "gpu_compute", "phases_ns":{"gpu_queue":191771458,"gpu_compute":2664742729,"backoff":15266134,"hedge_overhead":270086410}, "violation_phases_ns":{"gpu_queue":191771458,"gpu_compute":2664742729,"backoff":15266134,"hedge_overhead":270086410}, "dominant_counts":{"gpu_compute":10,"backoff":1,"hedge_overhead":1}}
  ]
}
)json"};

TEST(GoldenDeterminismTest, ServerFailoverMatchesGoldenAndReplays) {
  const GoldenServerFailoverRun a = RunServerFailoverWorkload();
  const GoldenServerFailoverRun b = RunServerFailoverWorkload();
  EXPECT_EQ(a, b) << "same-seed server failover replay diverged";
  if (PrintRequested()) {
    PrintGoldenServerFailover("kGoldenServerFailover", a);
    return;
  }
  EXPECT_EQ(a.finish_ns, kGoldenServerFailover.finish_ns);
  EXPECT_EQ(a.statuses, kGoldenServerFailover.statuses);
  const auto fields = metrics::ServingCounters::Fields();
  ASSERT_EQ(a.counters.size(), fields.size());
  ASSERT_EQ(kGoldenServerFailover.counters.size(), fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(a.counters[i], kGoldenServerFailover.counters[i])
        << fields[i].name;
  }
  EXPECT_EQ(a.events, kGoldenServerFailover.events);
  EXPECT_EQ(a.blame, kGoldenServerFailover.blame);
  // The scenario actually exercises every leg it claims to pin.
  const auto field = [&](std::string_view name) {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (name == fields[i].name) return a.counters[i];
    }
    ADD_FAILURE() << "no ServingCounters field " << name;
    return std::uint64_t{0};
  };
  for (const char* name :
       {"requests_failed_over", "hedge_wins", "retries", "requests_shed",
        "breaker_rejections", "transient_alloc_failures",
        "deadline_cancellations", "replica_instantiations"}) {
    EXPECT_GT(field(name), 0u) << name;
  }
}

}  // namespace
}  // namespace olympian
