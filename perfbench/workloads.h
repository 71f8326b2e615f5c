#pragma once

// The benchmark's three workloads. Each repetition is one single-process
// run of the library, set up from scratch or from the offline profiles a
// previous repetition of the same process computed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/profiler.h"
#include "probe.h"
#include "serving/degradation.h"

namespace perfbench {

// Simulated outcome of one repetition. For a given workload and seed it is
// the same on every repetition, at every shard count and with or without
// observability; the digest pins that.
struct Trajectory {
  std::uint32_t digest = 2166136261u;  // FNV-1a offset basis
  std::vector<double> latency_ms;      // every request, in result order
  std::vector<olympian::serving::RequestStatus> status;
  std::uint64_t events = 0;
};

struct Rep {
  // Whether this repetition did the whole set-up; only those count toward
  // setup_s. The cluster workloads have no offline part and always do.
  bool full_setup = true;
  double setup_s = 0.0;  // host seconds before the first simulated event
  double run_s = 0.0;    // host seconds of Run / RunStreams
  Trajectory trajectory;
  // Correctness violations found after the run; empty when correct.
  std::vector<std::string> violations;
  // Per-layer counters read from public accessors after the run, and the
  // host-time splits measured by the traced repetition's probes.
  std::map<std::string, double> layer;
};

struct RepOptions {
  std::uint64_t seed = 1;
  // Redo the offline part of set-up (model graphs, profiles, Overhead-Q
  // curves, Q selection) instead of reusing the previous repetition's.
  bool full_setup = true;
  // Switch on every observability option the library has, wrap the
  // scheduler in TimedHooks and record spans into `spans`.
  bool traced = false;
  // Engine shards for the cluster workloads. Timed repetitions run on one
  // event queue; the replay check runs at check_shards().
  std::size_t shards = 1;
  // Only set up (cheap workloads take extra set-up samples this way).
  bool setup_only = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep RunRep(const RepOptions& opts, SpanLog& spans) = 0;
  // Shard count whose trajectory must replay the shards=1 one; 1 for
  // workloads without that check.
  virtual std::size_t check_shards() const { return 1; }
};

// Names: "fig16-mix", "chaos-16", "stream-1m". Returns null for others.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
