#include "serving/cluster.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

namespace olympian::serving {

int ClusterClientResult::CountStatus(RequestStatus s) const {
  int n = 0;
  for (const RequestStatus st : request_status) n += (st == s) ? 1 : 0;
  return n;
}

namespace {

// Served, possibly after retries: the outcomes that count as completed.
bool Succeeded(RequestStatus s) {
  return s == RequestStatus::kOk || s == RequestStatus::kFailedRetried;
}

// Validates a sharded configuration and returns the effective shard count
// (clamped to the server count; 0 means 1). Throws std::invalid_argument
// for the two remaining unpartitionable options; every other cluster
// configuration — alloc faults, server-side tracer, server-side registry —
// now shards (per-server private accumulators, merged hub-side).
std::size_t ValidatedShards(const ClusterOptions& o) {
  std::size_t shards = o.shards == 0 ? 1 : o.shards;
  shards = std::min(shards, o.num_servers);
  if (shards <= 1) return 1;
  if (o.router.net_delay <= sim::Duration::Zero()) {
    throw std::invalid_argument(
        "ClusterOptions::shards > 1 requires RouterOptions::net_delay > 0: "
        "the network delay is the engine lookahead that makes conservative "
        "windows non-empty; set router.net_delay to the modeled "
        "router<->server hop latency, or run with shards = 1");
  }
  for (const fault::FaultEvent& e : o.server.faults.events()) {
    if (e.kind == fault::FaultKind::kCapacityFault) {
      throw std::invalid_argument(
          "ClusterOptions::shards > 1 cannot run device-level "
          "FaultKind::kCapacityFault events: the router probe reads device "
          "capacity hub-side, which is only exact for capacity written "
          "during hub instants; schedule the equivalent server-wide window "
          "with ServerFaultPlan::CapacityLoss (hub-applied), or run with "
          "shards = 1");
    }
  }
  return shards;
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      engine_(ValidatedShards(options_), options_.router.net_delay,
              options_.num_servers),
      env_(engine_.hub()),
      tracer_(options_.server.executor.tracer) {
  if (options_.num_servers < 1) {
    throw std::invalid_argument("num_servers must be >= 1");
  }
  // Per-server private observability accumulators. Each server records into
  // its own buffer on its own shard (no cross-thread writes); FinishRun
  // merges them into the user-provided destinations in canonical order at
  // every shard count, so exports are byte-identical across shard counts.
  if (tracer_ != nullptr) {
    hub_tracer_ = std::make_unique<metrics::Tracer>(tracer_->max_events());
    server_tracers_.reserve(options_.num_servers);
    for (std::size_t s = 0; s < options_.num_servers; ++s) {
      server_tracers_.push_back(
          std::make_unique<metrics::Tracer>(tracer_->max_events()));
    }
  }
  if (options_.server.observability.registry != nullptr) {
    server_registries_.reserve(options_.num_servers);
    for (std::size_t s = 0; s < options_.num_servers; ++s) {
      server_registries_.push_back(
          std::make_unique<metrics::MetricRegistry>());
    }
  }
  // Derive decorrelated per-server seeds from the master seed; the
  // per-client request streams use a separate derivation (see Run), so
  // adding servers does not perturb client randomness ordering.
  sim::Rng master(options_.seed);
  servers_.reserve(options_.num_servers);
  for (std::size_t s = 0; s < options_.num_servers; ++s) {
    ServerOptions so = options_.server;
    so.seed = master.NextU64();
    // The cross-server contract needs the in-server placer: a server whose
    // devices are all down must reject promptly (kRejected + no usable
    // device), which is the signal the router converts into failover.
    so.failover.enabled = true;
    if (tracer_ != nullptr) so.executor.tracer = server_tracers_[s].get();
    if (!server_registries_.empty()) {
      so.observability.registry = server_registries_[s].get();
    }
    servers_.push_back(std::make_unique<Experiment>(
        std::move(so), engine_.lane_env(s)));
  }
  RouterTransport& transport = *this;  // private base: convert in-class
  router_ = std::make_unique<Router>(env_, transport, servers_.size(),
                                     options_.router, &counters_,
                                     options_.registry);
  router_->set_incident_log(options_.incidents);
  // Handing the cluster an incident log is the opt-in; feeding calls are
  // no-ops on a disabled log, so this keeps call sites unconditional.
  if (options_.incidents != nullptr) options_.incidents->Enable();
  crashed_until_.resize(servers_.size());
  hung_until_.resize(servers_.size());
  part_to_until_.resize(servers_.size());
  part_from_until_.resize(servers_.size());
  jitter_until_.resize(servers_.size());
  jitter_factor_.assign(servers_.size(), 1.0);
  tenant_of_.resize(servers_.size());
  tenant_instantiations_.resize(servers_.size());
}

Cluster::~Cluster() = default;

sim::Task Cluster::Probe(std::size_t server, bool& ok) {
  // Partitions drop the probe (or its reply); a crashed or hung process
  // never answers. All evaluated at send time: deterministic and cheap.
  const sim::TimePoint sent = env_.Now();
  const bool dropped =
      sent < part_to_until_[server] || sent < part_from_until_[server];
  const bool unresponsive =
      sent < crashed_until_[server] || sent < hung_until_[server];
  if (dropped || unresponsive) {
    co_await env_.Delay(kProbeTimeout);
    ok = false;
  } else {
    if (options_.router.net_delay > sim::Duration::Zero()) {
      // Jitter stretches the round trip (factor 1.0 outside any window —
      // an exact multiply, so jitter-free plans are bit-identical).
      co_await env_.Delay(options_.router.net_delay * 2.0 *
                          JitterFactor(server, sent));
    }
    if (options_.router.score.enabled) {
      // The probe exercises the serving path, so its service time runs at
      // the device's current speed: a fractional-capacity fault inflates
      // the measured RTT, which is the only way the router can see it.
      // Only charged under scoring — legacy probes are network-only.
      co_await env_.Delay(kProbeService * (1.0 / ServerCapacity(server)));
    }
    ok = true;
  }
}

double Cluster::ServerCapacity(std::size_t server) {
  double cap = 1.0;
  Experiment& srv = *servers_[server];
  for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
    cap = std::min(cap, srv.gpu(g).CapacityAt(env_.Now()));
  }
  return cap;
}

bool Cluster::HasUsableDevice(std::size_t server) const {
  return env_.Now() >= crashed_until_[server] &&
         servers_[server]->AnyUsableDevice();
}

void Cluster::ArmServerFaults() {
  const auto& events = options_.faults.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].server >= servers_.size()) {
      throw std::out_of_range("ServerFaultPlan targets server " +
                              std::to_string(events[i].server) + " but only " +
                              std::to_string(servers_.size()) + " exist");
    }
    if (events[i].at < env_.Now()) continue;  // already in the past
    env_.ScheduleCallbackAt(events[i].at, &Cluster::FaultTrampoline, this, i);
  }
}

void Cluster::FaultTrampoline(void* ctx, std::uint64_t index) {
  auto* self = static_cast<Cluster*>(ctx);
  self->ApplyServerFault(self->options_.faults.events()[index]);
}

void Cluster::ApplyServerFault(const fault::ServerFaultEvent& e) {
  const sim::TimePoint now = env_.Now();
  const sim::TimePoint until = now + e.duration;
  Experiment& srv = *servers_.at(e.server);
  if (options_.incidents != nullptr) {
    options_.incidents->Inject(static_cast<int>(e.server),
                               fault::ToString(e.kind), now, e.duration);
  }
  switch (e.kind) {
    case fault::ServerFaultKind::kCrash:
      // Process crash: every device resets at once and submissions fail
      // fast for the outage; restart hands each device to the server's own
      // recovery pipeline (re-init, reload, warm-up).
      crashed_until_[e.server] = std::max(crashed_until_[e.server], until);
      for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
        srv.gpu(g).Reset(e.duration);
      }
      ++counters_.server_crashes;
      break;
    case fault::ServerFaultKind::kHang:
      // Stop-the-world: the process stays up but stops answering; every
      // device wedges and router probes time out until it clears.
      hung_until_[e.server] = std::max(hung_until_[e.server], until);
      for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
        srv.gpu(g).Hang(e.duration);
      }
      ++counters_.server_hangs;
      break;
    case fault::ServerFaultKind::kPartition:
      if (e.direction != fault::PartitionDirection::kFromServer) {
        part_to_until_[e.server] = std::max(part_to_until_[e.server], until);
      }
      if (e.direction != fault::PartitionDirection::kToServer) {
        part_from_until_[e.server] =
            std::max(part_from_until_[e.server], until);
      }
      ++counters_.partitions;
      break;
    case fault::ServerFaultKind::kCapacityLoss:
      // Gray failure: every device throttles but the server stays up and
      // keeps answering probes. Nothing is push-announced — the router can
      // only detect this through measured probe RTT (scoring).
      for (std::size_t g = 0; g < srv.num_gpus(); ++g) {
        srv.gpu(g).ThrottleCapacity(e.capacity, e.duration);
      }
      ++counters_.capacity_losses;
      router_->NoteFaultOnset(e.server);
      break;
    case fault::ServerFaultKind::kJitter:
      // Overlapping jitter windows keep the worst factor and the furthest
      // end point.
      jitter_factor_[e.server] = now < jitter_until_[e.server]
                                     ? std::max(jitter_factor_[e.server],
                                                e.factor)
                                     : e.factor;
      jitter_until_[e.server] = std::max(jitter_until_[e.server], until);
      ++counters_.jitter_windows;
      router_->NoteFaultOnset(e.server);
      break;
  }
  if (hub_tracer_ != nullptr && !hub_tracer_->full()) {
    // Hub-side spans go into the hub's private buffer; FinishRun merges it
    // ahead of the per-server buffers so the export order is canonical.
    const char* name =
        hub_tracer_->Intern(std::string(fault::ToString(e.kind)) + "@server" +
                            std::to_string(e.server));
    hub_tracer_->AddSpan("fault", name, metrics::Tracer::kFaultTrack, now,
                         until);
  }
}

void Cluster::StopAll() {
  for (auto& s : servers_) s->StopServing();
  router_->Stop();
}

sim::Task Cluster::EnsureTenant(std::size_t server, std::size_t client,
                                const ClientSpec& spec, std::size_t& tenant,
                                bool& ok) {
  // Runs on the server's environment — the server's shard, whose worker
  // thread is the only one touching this server's tenant map during
  // windows; at shards=1 that is the hub itself.
  sim::Environment& senv = servers_[server]->env();
  std::map<std::size_t, std::size_t>& tenants = tenant_of_[server];
  ok = true;
  if (const auto it = tenants.find(client); it != tenants.end()) {
    tenant = it->second;
    co_return;
  }
  // First arrival of this client on a non-home server: parameters stream
  // over PCIe and the tenant warms up before taking traffic — the same
  // pricing as in-server lazy replica instantiation.
  const models::ModelSpec& mspec = models::GetModel(spec.model);
  co_await senv.Delay(kWarmup +
                      TransferCost(static_cast<double>(mspec.params_mb)));
  // A concurrent leg of the same client may have finished the setup while
  // we streamed; re-check before instantiating.
  if (const auto it = tenants.find(client); it != tenants.end()) {
    tenant = it->second;
    co_return;
  }
  try {
    tenant = servers_[server]->AddTenant(spec);
  } catch (const gpusim::TransientAllocFailure&) {
    ok = false;
    co_return;
  }
  tenants[client] = tenant;
  ++tenant_instantiations_[server];
}

sim::Task Cluster::DispatchRequest(std::size_t client, const ClientSpec& spec,
                                   std::size_t home, sim::Rng& rng,
                                   sim::TimePoint arrival,
                                   RequestStatus& status) {
  // Route, counters and router state are only ever touched hub-side. The
  // forward and response network legs are engine hops: the serve section
  // runs on the server's shard inside parallel windows, and with one shard
  // (where the server's environment IS the hub) each hop is a plain delay
  // on the one queue. Server-side reads — phase charges, the lost-response
  // check, the response leg's jitter — use the server's clock, so they land
  // at the same virtual instants at every shard count. (The phase account
  // is frame-local, so charging it from the server's shard is race-free.)
  const RouterOptions& ro = options_.router;
  // A zero network delay schedules no hop at all. Sharding requires
  // net_delay > 0, so this only ever skips at shards=1, where the hop would
  // be a bare yield through the queue.
  const bool hops = ro.net_delay > sim::Duration::Zero();
  metrics::IncidentLog* const ilog = options_.incidents;
  metrics::PhaseAccount pa;
  pa.Start(arrival);
  // An arrival that found its predecessor still in flight queued at the
  // front end; that wait is pre-routing time.
  pa.Charge(metrics::Phase::kRouterQueue, env_.Now());
  std::size_t served = home;  // the last server routed to
  // Brownout admission control sheds a class at the front door, before any
  // routing or network cost (load it cannot carry is exactly what the
  // cluster is shedding).
  const bool shed = router_->BrownoutSheds(spec.priority);
  // Tracks whether the leg about to start is a free failover re-admission;
  // its forward hop is then blamed on the failover, not on routine routing.
  bool failing_over = false;
  for (int attempt = 1;;) {
    const std::size_t s = shed ? Router::kNoServer : router_->Route(home);
    if (s == Router::kNoServer) {
      // Shed, or nothing routable anywhere: terminate promptly as a
      // rejection instead of spinning (mirrors requests_rejected_no_device).
      ++(shed ? counters_.requests_shed_brownout
              : counters_.requests_rejected_no_server);
      status = RequestStatus::kRejected;
      pa.Charge(metrics::Phase::kAdmission, env_.Now());
      co_await env_.Delay(kRejectBackoff);
      pa.Charge(metrics::Phase::kBackoff, env_.Now());
      break;
    }
    served = s;
    router_->OnRequestStart(s);
    sim::Environment& senv = servers_[s]->env();

    // Forward leg. A partition active at send time drops the request on the
    // wire: it never reaches the server, so the whole round — forward leg,
    // probe timeout, error bookkeeping — stays on the hub. Jitter stretches
    // the hop (factor 1.0 outside any window — an exact multiply, so
    // jitter-free plans are bit-identical); it is >= 1, so a jittered hop
    // never undercuts the engine lookahead.
    const bool lost_to = env_.Now() < part_to_until_[s];
    const sim::Duration forward = ro.net_delay * JitterFactor(s, env_.Now());
    if (hops && lost_to) co_await env_.Delay(forward);
    // Lane s is server s.
    if (hops && !lost_to) co_await engine_.HopToShard(s, forward);
    pa.Charge(failing_over ? metrics::Phase::kFailoverReadmit
                           : metrics::Phase::kRouterHop,
              lost_to ? env_.Now() : senv.Now());
    failing_over = false;

    // The leg's outcome; a lost message or a failed tenant instantiation
    // reads as kFailed. `server_fault` marks failures that are the server's
    // or the network's rather than the request's: those are re-admitted
    // without spending the retry budget (the cross-server failover
    // contract).
    RequestStatus leg = RequestStatus::kFailed;
    bool server_fault = false;
    if (lost_to) {
      // The router only learns from the missing ack after the probe timeout.
      ++counters_.requests_lost_to_server;
      co_await env_.Delay(kProbeTimeout);
      // Waiting out the missing ack is network blame, like the hop itself.
      pa.Charge(metrics::Phase::kRouterHop, env_.Now());
      router_->OnRequestEnd(s);
      router_->OnRequestError(s);
      server_fault = true;
    } else {
      std::size_t tenant = 0;
      bool tenant_ok = true;
      bool lost_from = false;
      std::exception_ptr err;
      try {
        // Admission: make sure this client has a tenant slot on the server.
        // First arrival on a non-home server streams parameters and warms
        // up.
        co_await EnsureTenant(s, client, spec, tenant, tenant_ok);
        pa.Charge(metrics::Phase::kReload, senv.Now());
        if (tenant_ok) {
          // Serve through the full in-server pipeline (admission control,
          // breaker, device placement, retries, device failover). The
          // original arrival anchors the deadline end-to-end across hops.
          leg = RequestStatus::kOk;
          co_await servers_[s]->ServeTenantRequest(tenant, rng, arrival, leg,
                                                   pa);
          // The window arrays are written only during hub instants, so
          // this read at the serve-completion instant is race-free and
          // exact.
          lost_from = senv.Now() < part_from_until_[s];
        }
      } catch (...) {
        // Carry server-side errors across the return hop: rethrowing on the
        // worker would resume the client's continuation on the wrong
        // thread.
        err = std::current_exception();
      }

      // Response leg, back onto the hub. A failed tenant instantiation pays
      // it too: the failure reply crosses the network like a served answer.
      // Its jitter is evaluated at the send instant, like lost_from.
      if (hops) {
        co_await engine_.HopToHub(s,
                                  ro.net_delay * JitterFactor(s, senv.Now()));
      }
      if (err != nullptr) std::rethrow_exception(err);
      pa.Charge(metrics::Phase::kResponseHop, env_.Now());
      router_->OnRequestEnd(s);
      if (lost_from) {
        // At-least-once: the work happened but the answer is gone.
        ++counters_.responses_lost_from_server;
        router_->OnRequestError(s);
        leg = RequestStatus::kFailed;
        server_fault = true;
      } else if (Succeeded(leg)) {
        router_->OnRequestSuccess(s);
        ++counters_.requests_ok;
        status = (attempt == 1 && leg == RequestStatus::kOk)
                     ? RequestStatus::kOk
                     : RequestStatus::kFailedRetried;
        break;
      } else if (leg == RequestStatus::kTimedOut) {
        status = RequestStatus::kTimedOut;
        ++counters_.requests_timed_out;
        break;
      } else if (leg == RequestStatus::kRejected && !HasUsableDevice(s)) {
        // The server lost every device (crash): that is a server failure,
        // not a request failure.
        router_->OnRequestError(s);
        server_fault = true;
      } else if (leg == RequestStatus::kFailed) {
        // Includes a failed tenant instantiation.
        router_->OnRequestError(s);
      }
    }

    if (server_fault && ro.failover) {
      ++counters_.requests_failed_over;
      failing_over = true;
      if (ilog != nullptr) {
        ilog->Mitigation(static_cast<int>(s), "failover", env_.Now());
      }
      continue;
    }
    if (attempt > kRouterMaxRetries) {
      // The budget is spent, whatever the last leg's status (a shed leg
      // reads kRejected): the request failed.
      status = RequestStatus::kFailed;
      ++counters_.requests_failed;
      break;
    }
    ++counters_.retries;
    ++attempt;
    co_await env_.Delay(kRejectBackoff);
    pa.Charge(metrics::Phase::kBackoff, env_.Now());
  }
  // Every exit from the loop lands here, on the hub, with `status` final.
  const bool ok = Succeeded(status);
  if (options_.phases != nullptr) {
    options_.phases->Record(static_cast<int>(served), spec.model, pa, ok,
                            env_.Now() - arrival);
  }
  if (ilog != nullptr) {
    ilog->RequestOutcome(static_cast<int>(served), env_.Now(), ok);
  }
}

sim::Task Cluster::ClientProc(std::size_t client,
                              const ClusterClientSpec& spec,
                              std::uint64_t seed, ClusterClientResult& out) {
  sim::Rng rng(seed);
  ArrivalProcess arrivals(spec.arrivals);
  metrics::MetricRegistry* const registry = options_.registry;
  metrics::MetricRegistry::Histogram* const latency_hist =
      registry == nullptr
          ? nullptr
          : &registry->GetHistogram("olympian_cluster_request_latency_ms",
                                    {{"model", spec.request.model}});
  sim::TimePoint arrival;  // request b's arrival instant (t=0 for b=0)
  for (int b = 0; b < spec.request.num_batches; ++b) {
    if (arrivals.open_loop()) {
      if (b > 0) arrival = arrivals.Next(rng);
      if (arrival > env_.Now()) co_await env_.Delay(arrival - env_.Now());
    } else {
      arrival = env_.Now();
    }
    RequestStatus status = RequestStatus::kOk;
    co_await DispatchRequest(client, spec.request, out.home_server, rng,
                             arrival, status);
    out.request_latency_ms.push_back((env_.Now() - arrival).millis());
    out.request_status.push_back(status);
    if (latency_hist != nullptr) {
      latency_hist->Observe(out.request_latency_ms.back());
    }
    if (Succeeded(status)) ++out.requests_completed;
  }
  out.finish_time = env_.Now() - sim::TimePoint();
  // Fold this client's meters into each server it ever ran on. Runs during
  // a hub instant (workers parked), so touching shard-resident servers is
  // safe; ascending server order matches the old flat-map iteration.
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    if (const auto it = tenant_of_[s].find(client); it != tenant_of_[s].end()) {
      servers_[s]->RetireTenant(it->second);
    }
  }
  if (--clients_running_ == 0) StopAll();
}

template <typename Spec>
void Cluster::StartRun(const std::vector<Spec>& specs) {
  std::vector<int> priorities;
  priorities.reserve(specs.size());
  for (const Spec& spec : specs) priorities.push_back(spec.request.priority);
  router_->SetPriorityClasses(std::move(priorities));
  for (auto& s : servers_) s->StartServing();
  router_->Start();
  ArmServerFaults();
}

template <typename Result>
void Cluster::AwaitTraffic(const std::vector<Result>& results,
                           const std::vector<sim::Process>& procs,
                           const char* stall_message) {
  engine_.Run();
  sim::Duration makespan;
  bool stalled = outstanding_requests_ != 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    makespan = std::max(makespan, results[i].finish_time);
    if (!procs[i].done()) stalled = true;
  }
  makespan_ = makespan;
  if (stalled) throw ServerStalled(stall_message);
}

std::vector<ClusterClientResult> Cluster::Run(
    const std::vector<ClusterClientSpec>& clients) {
  if (ran_) throw std::logic_error("Cluster::Run may only be called once");
  ran_ = true;
  for (const ClusterClientSpec& c : clients) {
    if (c.request.mean_interarrival > sim::Duration::Zero()) {
      throw std::invalid_argument(
          "cluster clients arrive by their `arrivals` generator: set "
          "arrivals instead of request.mean_interarrival");
    }
  }
  StartRun(clients);

  std::vector<ClusterClientResult> results(clients.size());
  std::vector<sim::Process> procs;
  procs.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::size_t home = i % servers_.size();
    // Home tenants are provisioned before traffic, like Run()'s per-client
    // setup loop (no PCIe charge: the cluster was racked with them loaded).
    const std::size_t tenant = servers_[home]->AddTenant(clients[i].request);
    tenant_of_[home][i] = tenant;

    ClusterClientResult& out = results[i];
    out.name = clients[i].request.model + "#" + std::to_string(i);
    out.model = clients[i].request.model;
    out.home_server = home;
    procs.push_back(env_.Spawn(
        ClientProc(i, clients[i], options_.seed * 104729 + i, out),
        "cluster/" + out.name));
  }
  clients_running_ = clients.size();

  AwaitTraffic(results, procs,
               "cluster workload stalled: unfinished clients with a drained "
               "event queue");
  FinishRun();
  return results;
}

sim::Task Cluster::StreamProc(std::size_t stream,
                              const ClusterStreamSpec& spec,
                              std::uint64_t seed, ClusterStreamResult& out) {
  sim::Rng rng(seed);
  AggregateArrivalProcess arrivals(spec.arrivals, spec.modeled_clients);
  for (int r = 0; r < spec.num_requests; ++r) {
    const sim::TimePoint arrival = arrivals.Next(rng);
    if (arrival > env_.Now()) co_await env_.Delay(arrival - env_.Now());
    // Each arrival belongs to one of the stream's modeled clients; the
    // drawn id picks the home server, then the request runs as its own
    // process with a forked rng — open loop, so generation never blocks on
    // serving and in-flight memory tracks concurrency, not population.
    const std::uint64_t cid = arrivals.NextClient(rng);
    const std::size_t home = static_cast<std::size_t>(cid % servers_.size());
    ++outstanding_requests_;
    env_.Spawn(StreamRequestProc(stream, spec, home, rng.Fork(), arrival, r,
                                 out));
  }
  if (--streams_running_ == 0 && outstanding_requests_ == 0) StopAll();
}

sim::Task Cluster::StreamRequestProc(std::size_t stream,
                                     const ClusterStreamSpec& spec,
                                     std::size_t home, sim::Rng rng,
                                     sim::TimePoint arrival, int index,
                                     ClusterStreamResult& out) {
  RequestStatus status = RequestStatus::kOk;
  co_await DispatchRequest(stream, spec.request, home, rng, arrival, status);
  // Slots are indexed by arrival order, so the result layout is identical
  // no matter which order responses land in.
  out.request_latency_ms[static_cast<std::size_t>(index)] =
      (env_.Now() - arrival).millis();
  out.request_status[static_cast<std::size_t>(index)] = status;
  if (Succeeded(status)) ++out.requests_completed;
  const sim::Duration finished = env_.Now() - sim::TimePoint();
  out.finish_time = std::max(out.finish_time, finished);
  if (--outstanding_requests_ == 0 && streams_running_ == 0) StopAll();
}

std::vector<ClusterStreamResult> Cluster::RunStreams(
    const std::vector<ClusterStreamSpec>& streams) {
  if (ran_) throw std::logic_error("Cluster::RunStreams may only be called once");
  ran_ = true;
  for (const ClusterStreamSpec& st : streams) {
    if (st.arrivals.kind == ArrivalSpec::Kind::kClosedLoop) {
      throw std::invalid_argument(
          "aggregate streams are open-loop: give each stream an arrival "
          "generator");
    }
  }
  StartRun(streams);

  std::vector<ClusterStreamResult> results(streams.size());
  std::vector<sim::Process> procs;
  procs.reserve(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    // The model is racked on every server up front: any drawn client id can
    // dispatch anywhere without a first-arrival PCIe charge, and EnsureTenant
    // degenerates to a map hit on every path.
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      tenant_of_[s][i] = servers_[s]->AddTenant(streams[i].request);
    }
    ClusterStreamResult& out = results[i];
    out.name = streams[i].request.model + "/stream" + std::to_string(i);
    out.model = streams[i].request.model;
    out.request_latency_ms.assign(
        static_cast<std::size_t>(streams[i].num_requests), 0.0);
    out.request_status.assign(
        static_cast<std::size_t>(streams[i].num_requests), RequestStatus::kOk);
    procs.push_back(env_.Spawn(
        StreamProc(i, streams[i], options_.seed * 15485863 + i, out),
        "cluster/" + out.name));
  }
  streams_running_ = streams.size();

  AwaitTraffic(results, procs,
               "cluster stream workload stalled: in-flight requests with a "
               "drained event queue");
  // Fold stream meters into their servers (every stream is racked on every
  // server) before FinishRun drains the pools.
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    for (const auto& [stream, tenant] : tenant_of_[s]) {
      (void)stream;
      servers_[s]->RetireTenant(tenant);
    }
  }
  FinishRun();
  return results;
}

void Cluster::FinishRun() {
  for (auto& s : servers_) s->ShutdownPool();
  engine_.Run();  // drain exiting workers
  for (const std::uint64_t n : tenant_instantiations_) {
    counters_.tenant_instantiations += n;
  }
  if (options_.incidents != nullptr) options_.incidents->Finalize();
  if (options_.engine_registry != nullptr) {
    ExportEngineIntrospection(*options_.engine_registry);
  }
  if (options_.registry != nullptr) {
    counters_.ExportTo(*options_.registry);
  }
  // Fold the private per-server accumulators into the user destinations in
  // canonical order — hub first, then servers 0..N-1. The same merge runs
  // at every shard count (including 1), so the exported bytes are a
  // function of the trajectory alone, never of the partitioning.
  if (tracer_ != nullptr) {
    tracer_->MergeFrom(*hub_tracer_);
    for (const auto& t : server_tracers_) tracer_->MergeFrom(*t);
  }
  if (metrics::MetricRegistry* const user_registry =
          options_.server.observability.registry;
      user_registry != nullptr) {
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      // The server's ServingCounters struct is its shard-private metrics
      // delta; bridge it into the private registry, then label every
      // instrument with its server before it lands in the shared export.
      servers_[s]->counters().ExportTo(*server_registries_[s]);
      user_registry->MergeFrom(*server_registries_[s],
                               {{"server", std::to_string(s)}});
    }
  }
}

void Cluster::ExportEngineIntrospection(metrics::MetricRegistry& reg) const {
  reg.GetCounter("olympian_engine_sync_windows").Set(engine_.sync_windows());
  reg.GetCounter("olympian_engine_hub_instants").Set(engine_.hub_instants());
  reg.GetCounter("olympian_engine_boundary_events")
      .Set(engine_.boundary_events());
  reg.GetCounter("olympian_engine_worker_wakeups")
      .Set(engine_.worker_wakeups());
  for (std::size_t k = 0; k < engine_.shards(); ++k) {
    const metrics::Labels labels = {{"shard", std::to_string(k)}};
    reg.GetCounter("olympian_engine_shard_events", labels)
        .Set(engine_.shard_events(k));
    reg.GetCounter("olympian_engine_shard_busy_wall_ns", labels)
        .Set(static_cast<std::uint64_t>(engine_.shard_busy_wall_ns(k)));
    reg.GetCounter("olympian_engine_shard_barrier_wait_wall_ns", labels)
        .Set(static_cast<std::uint64_t>(
            engine_.shard_barrier_wait_wall_ns(k)));
    reg.GetCounter("olympian_engine_shard_windows_run", labels)
        .Set(engine_.shard_windows_run(k));
  }
}

}  // namespace olympian::serving
