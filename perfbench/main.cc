// perfbench: one workload of the repository benchmark, run from a seed.
//
//   perfbench --workload <fig16-mix|chaos-16|stream-1m> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>]
//
// --trace 0 repeats the untraced run for about --seconds of run time and
// prints the end-to-end metrics as medians over the repetitions. --trace 1
// alternates untraced and traced repetitions (every observability option
// the library has, the hook decorator and spans) and prints the per-layer
// metrics. Both check the simulated outputs and exit 1 on any violation.
// The last line of stdout is one JSON object; the line before it is a JSON
// record of the digest, the tail percentile used and the host.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "probe.h"
#include "workloads.h"

namespace {

using perfbench::Rep;
using olympian::serving::RequestStatus;

// Full set-ups per untraced run; setup_s is their median.
constexpr int kFullSetups = 3;
// Fewest timed repetitions per run, whatever --seconds says.
constexpr int kMinReps = 3;
// A set-up whose median is below kCheapSetupSeconds is also sampled on its
// own until there are kCheapSetupSamples samples, to steady its median.
constexpr std::size_t kCheapSetupSamples = 11;
constexpr double kCheapSetupSeconds = 0.5;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

// Highest percentile of the ladder with at least 10 samples beyond it.
double TailPercentile(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

// Host seconds of a fixed CPU-bound loop (median of 5). Relates numbers
// taken on different hosts; no metric is rescaled by it.
double CalibrationSeconds() {
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = perfbench::NowNs();
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(r);
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile std::uint64_t sink = x;
    (void)sink;
    t.push_back(perfbench::SecondsSince(t0));
  }
  return Median(t);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string Hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>]\n";
  std::exit(2);
}

// Per-layer metrics in print order, with units. The value of each comes
// from the traced repetition's counters unless computed in main.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"shard.sync_windows", "count"},
      {"shard.hub_instants", "count"},
      {"shard.boundary_events", "count"},
      {"shard.worker_wakeups", "count"},
      {"shard.imbalance", "ratio"},
      {"shard.barrier_wait_share", "share"},
      {"shard.run_s", "s"},
      {"shard.speedup", "ratio"},
      {"gpusim.kernels", "count"},
      {"gpusim.waves", "count"},
      {"gpusim.waves_coalesced_share", "share"},
      {"gpusim.kernels_failed", "count"},
      {"gpusim.queue_wait_ms_per_kernel", "ms"},
      {"gpusim.util", "share"},
      {"graph.nodes", "count"},
      {"graph.runs", "count"},
      {"graph.nodes_cancelled_share", "share"},
      {"graph.pool_peak_busy", "count"},
      {"core.hook_calls", "count"},
      {"core.hook_host_s", "s"},
      {"core.hook_host_share", "share"},
      {"core.yield_suspends", "count"},
      {"core.token_wait_s", "s"},
      {"core.switches", "count"},
      {"core.quanta", "count"},
      {"core.profile_s", "s"},
      {"core.overhead_q_s", "s"},
      {"core.select_q_s", "s"},
      {"models.build_s", "s"},
      {"serving.requests", "count"},
      {"serving.retries", "count"},
      {"serving.failed_over", "count"},
      {"serving.hedges", "count"},
      {"serving.phase.admission_ms", "ms"},
      {"serving.phase.placer_decision_ms", "ms"},
      {"serving.phase.reload_ms", "ms"},
      {"serving.phase.batcher_wait_ms", "ms"},
      {"serving.phase.gpu_queue_ms", "ms"},
      {"serving.phase.gpu_compute_ms", "ms"},
      {"serving.phase.backoff_ms", "ms"},
      {"serving.phase.hedge_overhead_ms", "ms"},
      {"serving.phase.failover_readmit_ms", "ms"},
      {"serving.run_self_s", "s"},
      {"cluster.setup_s", "s"},
      {"router.routed", "count"},
      {"router.legs_per_request", "ratio"},
      {"router.probes", "count"},
      {"router.failed_over", "count"},
      {"router.retries", "count"},
      {"router.phase.router_queue_ms", "ms"},
      {"router.phase.router_hop_ms", "ms"},
      {"router.phase.response_hop_ms", "ms"},
      {"metrics.overhead_ratio", "ratio"},
      {"metrics.overhead_s", "s"},
      {"metrics.tracer_events", "count"},
      {"bench.trace_spans", "count"},
  };
  return m;
}

struct Args {
  std::string workload;
  std::string spans_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoll(v.c_str(), &end, 10);
      if (*end != '\0' || args.seed < 0) Usage("bad --seed " + v);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) Usage("bad --seconds " + v);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") Usage("bad --trace " + v);
      args.trace = v == "1";
    } else if (a == "--spans-out") {
      args.spans_out = v;
    } else {
      Usage("unknown argument " + a);
    }
  }
  if (args.seed < 0 || args.seconds < 0 || args.trace < 0) {
    Usage("missing arguments");
  }
  return args;
}

struct Reps {
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<double> setup_s;
  std::vector<double> run_s;  // untraced
};

// --trace 0: untraced repetitions, the first kFullSetups from scratch.
// --trace 1: traced/untraced pairs; the first traced one sets up from
// scratch and records `spans`, so the spans cover exactly one set-up and one
// traced run.
Reps RunRepetitions(perfbench::Workload& wl, const Args& args,
                    perfbench::SpanLog& spans) {
  perfbench::SpanLog no_spans(false);
  const auto seed = static_cast<std::uint64_t>(args.seed);
  Reps reps;
  double run_total = 0.0;
  for (int i = 0;; ++i) {
    const bool timed_enough = run_total >= args.seconds;
    if (!args.trace) {
      if (i >= kFullSetups && i >= kMinReps && timed_enough) break;
      reps.untraced.push_back(
          wl.RunRep({.seed = seed, .full_setup = i < kFullSetups}, no_spans));
    } else {
      if (i >= 2 && timed_enough) break;
      reps.traced.push_back(
          wl.RunRep({.seed = seed, .full_setup = i == 0, .traced = true},
                    i == 0 ? spans : no_spans));
      run_total += reps.traced.back().run_s;
      reps.untraced.push_back(
          wl.RunRep({.seed = seed, .full_setup = false}, no_spans));
    }
    run_total += reps.untraced.back().run_s;
  }
  for (const Rep& r : reps.untraced) {
    reps.run_s.push_back(r.run_s);
    if (r.full_setup) reps.setup_s.push_back(r.setup_s);
  }
  // Where set-up is cheap, take more samples of it alone.
  while (!args.trace && reps.setup_s.size() < kCheapSetupSamples &&
         Median(reps.setup_s) < kCheapSetupSeconds) {
    reps.setup_s.push_back(
        wl.RunRep({.seed = seed, .setup_only = true}, no_spans).setup_s);
  }
  return reps;
}

// Every repetition of a seed replays one trajectory, traced or not. The
// event count repeats within each mode; the traced one adds the
// observability sampler's events.
void CheckRepetitions(const Reps& reps, std::vector<std::string>& violations) {
  const Rep& ref = reps.untraced.front();
  for (const auto* mode : {&reps.untraced, &reps.traced}) {
    for (const Rep& r : *mode) {
      for (const std::string& v : r.violations) violations.push_back(v);
      const Rep& mode_ref = mode->front();
      if (r.trajectory.digest != ref.trajectory.digest ||
          r.trajectory.events != mode_ref.trajectory.events) {
        violations.push_back(
            "repetition digest " + Hex(r.trajectory.digest) + " (" +
            std::to_string(r.trajectory.events) + " events) != " +
            Hex(ref.trajectory.digest) + " (" +
            std::to_string(mode_ref.trajectory.events) + " events)");
      }
    }
  }
}

// The sharded engine must replay the shards=1 trajectory bit-exactly;
// checked once per run, outside the timed repetitions. Returns the shard
// layer's numbers: the replay's engine counters and host time.
std::map<std::string, double> CheckShardedReplay(
    perfbench::Workload& wl, const Args& args, const Reps& reps,
    std::vector<std::string>& violations) {
  std::map<std::string, double> layer;
  const std::size_t shards = wl.check_shards();
  if (shards <= 1) return layer;
  perfbench::SpanLog no_spans(false);
  const Rep sharded = wl.RunRep({.seed = static_cast<std::uint64_t>(args.seed),
                                 .full_setup = false,
                                 .shards = shards},
                                no_spans);
  for (const std::string& v : sharded.violations) violations.push_back(v);
  const std::uint32_t want = reps.untraced.front().trajectory.digest;
  if (sharded.trajectory.digest != want) {
    violations.push_back("shards=" + std::to_string(shards) + " digest " +
                         Hex(sharded.trajectory.digest) +
                         " != shards=1 digest " + Hex(want));
  }
  for (const auto& [name, value] : sharded.layer) {
    if (name.rfind("shard.", 0) == 0) layer[name] = value;
  }
  layer["shard.run_s"] = sharded.run_s;
  layer["shard.speedup"] = Median(reps.run_s) / sharded.run_s;
  std::cout << "shards=" << shards << " replay: run_s " << sharded.run_s
            << ", digest " << Hex(sharded.trajectory.digest) << "\n";
  return layer;
}

std::vector<Metric> EndToEndMetrics(const Reps& reps, std::size_t good,
                                    const std::vector<double>& sorted_ms,
                                    double tail_p) {
  const perfbench::Trajectory& t = reps.untraced.front().trajectory;
  const double run = Median(reps.run_s);
  return {
      {"setup_s", Median(reps.setup_s), "s"},
      {"run_s", run, "s"},
      {"sim_req_per_s", static_cast<double>(good) / run, "1/s"},
      {"sim_events_per_s", static_cast<double>(t.events) / run, "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"sim_p50_ms", Percentile(sorted_ms, 50.0), "ms"},
      {"sim_tail_ms", Percentile(sorted_ms, tail_p), "ms"},
      {"goodput",
       static_cast<double>(good) / static_cast<double>(t.status.size()),
       "share"},
  };
}

std::vector<Metric> PerLayerMetrics(const Reps& reps,
                                    const perfbench::SpanLog& spans,
                                    std::map<std::string, double> layer) {
  std::vector<double> traced_run, hook_s;
  for (const Rep& r : reps.traced) {
    traced_run.push_back(r.run_s);
    const auto it = r.layer.find("core.hook_host_s");
    hook_s.push_back(it == r.layer.end() ? 0.0 : it->second);
  }
  const double run = Median(reps.run_s);
  const double traced = Median(traced_run);
  const double hook = Median(hook_s);
  const auto events =
      static_cast<double>(reps.untraced.front().trajectory.events);
  for (const auto& [name, value] : reps.traced.front().layer) {
    layer.emplace(name, value);  // keeps the sharded replay's shard.*
  }
  layer["sim.events"] = events;
  layer["sim.ns_per_event"] = run * 1e9 / events;
  layer["core.hook_host_s"] = hook;
  layer["core.hook_host_share"] = hook / traced;
  layer["serving.run_self_s"] = traced - hook;
  layer["metrics.overhead_ratio"] = traced / run;
  layer["metrics.overhead_s"] = traced - run;
  layer["bench.trace_spans"] = static_cast<double>(spans.spans().size());
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetrics()) {
    // A layer the workload does not exercise reads 0 (1 for imbalance).
    const auto it = layer.find(name);
    const double dflt = name == "shard.imbalance" ? 1.0 : 0.0;
    out.push_back({name, it == layer.end() ? dflt : it->second, unit});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  auto wl = perfbench::MakeWorkload(args.workload);
  if (!wl) Usage("unknown workload " + args.workload);

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string cpu = CpuModel();
  const double calib_s = CalibrationSeconds();
  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "host nproc=" << nproc << " cpu=\"" << cpu
            << "\" calibration_s=" << calib_s << "\n";

  perfbench::SpanLog spans(true);
  std::vector<std::string> violations;
  Reps reps;
  std::map<std::string, double> shard_layer;
  try {
    reps = RunRepetitions(*wl, args, spans);
    CheckRepetitions(reps, violations);
    shard_layer = CheckShardedReplay(*wl, args, reps, violations);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const perfbench::Trajectory& traj = reps.untraced.front().trajectory;
  const std::size_t attempted = traj.status.size();
  std::size_t good = 0;
  for (RequestStatus s : traj.status) {
    good += s == RequestStatus::kOk || s == RequestStatus::kFailedRetried;
  }
  std::vector<double> lat = traj.latency_ms;
  std::sort(lat.begin(), lat.end());
  const double tail_p = TailPercentile(lat.size());
  if (attempted == 0 || traj.events == 0 || !(Median(reps.run_s) > 0)) {
    violations.push_back("the run simulated nothing");
  }
  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(reps, spans, shard_layer)
                 : EndToEndMetrics(reps, good, lat, tail_p);
  if (args.trace && !args.spans_out.empty()) {
    std::ofstream os(args.spans_out);
    spans.WriteJson(os);
    if (!os) violations.push_back("could not write " + args.spans_out);
  }

  std::cout << "digest " << Hex(traj.digest) << " requests=" << attempted
            << " events=" << traj.events << " reps=" << reps.untraced.size()
            << (args.trace
                    ? "+" + std::to_string(reps.traced.size()) + " traced"
                    : "")
            << "\nsim_tail_ms is p" << tail_p << " of " << lat.size()
            << " requests\nrun_s per repetition:";
  for (double r : reps.run_s) std::cout << " " << r;
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const std::string& v : violations) {
    std::cout << "VIOLATION: " << v << "\n";
  }

  std::ostringstream rec;
  rec.precision(17);
  rec << "{\"perfbench\":{\"workload\":\"" << args.workload
      << "\",\"seed\":" << args.seed << ",\"digest\":\"" << Hex(traj.digest)
      << "\",\"events\":" << traj.events << ",\"tail_percentile\":" << tail_p
      << ",\"reps\":" << reps.untraced.size()
      << ",\"traced_reps\":" << reps.traced.size()
      << ",\"host\":{\"nproc\":" << nproc << ",\"cpu\":\"" << JsonEscape(cpu)
      << "\",\"calibration_s\":" << calib_s << "}}}";
  std::cout << rec.str() << "\n";

  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (violations.empty() ? "true" : "false")
      << ", \"attempted\": " << attempted
      << ", \"failed\": " << attempted - good << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return violations.empty() ? 0 : 1;
}
