#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/gpu.h"
#include "graph/cost_model.h"
#include "graph/graph.h"
#include "graph/hooks.h"
#include "graph/thread_pool.h"
#include "metrics/trace.h"
#include "sim/environment.h"
#include "sim/random.h"
#include "sim/sync.h"

namespace olympian::graph {

// Kernel slowdown under ExecutorOptions::online_cost_profiler.
inline constexpr double kProfilerKernelSlowdown = 1.22;

struct ExecutorOptions {
  // Multiplicative jitter on per-node CPU time. This models OS-thread and
  // cache noise; it is the seed-controlled source of submission-order
  // variance that makes stock TF-Serving's finish times unpredictable
  // (paper Figure 3).
  double cpu_jitter = 0.15;

  // Multiplicative jitter on kernel execution time (clock/thermal noise).
  // Gives profiled costs and GPU durations their few-percent run-to-run
  // spread (paper §4.4 measures ~1.7-2.5% CVs).
  double gpu_jitter = 0.025;

  // When true, models Tensorflow's online cost profiler (CUPTI hooks): a
  // fixed CPU cost per node plus a kProfilerKernelSlowdown on instrumented
  // kernels, inflating end-to-end runtimes by 21-29% (paper Figure 6) — the
  // reason Olympian profiles offline.
  bool online_cost_profiler = false;
  sim::Duration profiler_overhead_per_node = sim::Duration::Micros(4);

  // Optional execution tracing: every node records a span on its job's
  // track (see metrics/trace.h). Must outlive the executor.
  metrics::Tracer* tracer = nullptr;
  // With a tracer set, also record one span per node execution. Node spans
  // dominate trace volume (graph-size events per inference); disabling them
  // keeps the request/attempt flow chains while leaving the buffer to
  // request-level events — what a cluster-scale drill wants.
  bool trace_node_spans = true;
};

// The dataflow-graph executor — the paper's Algorithm 1 (and, with a
// non-null SchedulingHooks, Algorithm 2).
//
// `RunOnce` executes one inference: a breadth-first traversal from the root
// in which synchronous (CPU) nodes run inline on the calling thread's local
// queue while each asynchronous (GPU) node is handed to a thread-pool
// worker that continues the traversal from that node. The set of simulated
// threads working for one job is the paper's "gang".
class Executor {
 public:
  Executor(sim::Environment& env, gpusim::Gpu& gpu, ThreadPool& pool,
           ExecutorOptions options, std::uint64_t seed,
           SchedulingHooks* hooks = nullptr);

  // Execute one inference run of `graph` at `ctx.batch`. Completes when
  // every node has executed. If `profile` is non-null, per-node costs
  // (observed execution times, ns) are recorded into it. Validates `ctx`
  // eagerly (throws std::invalid_argument before any execution).
  sim::Task RunOnce(JobContext& ctx, const Graph& graph,
                    CostProfile* profile = nullptr);

  sim::Environment& env() { return env_; }
  gpusim::Gpu& gpu() { return gpu_; }
  ThreadPool& pool() { return pool_; }
  SchedulingHooks* hooks() { return hooks_; }
  const ExecutorOptions& options() const { return options_; }

  std::uint64_t runs_completed() const { return runs_completed_; }
  std::uint64_t nodes_executed() const { return nodes_executed_; }
  // Nodes skipped because their run was cancelled (deadline / fault).
  std::uint64_t nodes_cancelled() const { return nodes_cancelled_; }

 private:
  // Per-run bookkeeping. Instances are pooled on the executor and recycled
  // across runs (Acquire/Release below): `pending` keeps its heap buffer,
  // so steady-state request admission allocates nothing.
  struct RunState {
    explicit RunState(sim::Environment& env) : all_done(env) {}
    void Reset(const Graph& g, CostProfile* prof);
    const Graph* graph = nullptr;
    CostProfile* profile = nullptr;
    std::vector<std::int32_t> pending;
    std::size_t remaining = 0;
    sim::CondVar all_done;
  };

  // BFS traversal scratch: a flat FIFO that keeps its buffer across runs.
  // One is held per live Process coroutine (gangs traverse concurrently),
  // pooled like RunState.
  struct BfsQueue {
    std::vector<NodeId> buf;
    std::size_t head = 0;
    bool empty() const { return head == buf.size(); }
    void push(NodeId n) { buf.push_back(n); }
    NodeId pop() { return buf[head++]; }
    void reset() {
      buf.clear();
      head = 0;
    }
  };

  RunState* AcquireRunState(const Graph& graph, CostProfile* profile);
  void ReleaseRunState(RunState* st);
  BfsQueue* AcquireBfs();
  void ReleaseBfs(BfsQueue* q);

  sim::Task RunOnceImpl(JobContext& ctx, const Graph& graph,
                        CostProfile* profile);
  sim::Task Process(JobContext& ctx, RunState& st, NodeId start);
  sim::Task Compute(JobContext& ctx, RunState& st, const Node& node);

  static bool IsCancelled(const JobContext& ctx) {
    return ctx.cancel != nullptr && ctx.cancel->cancelled;
  }
  // One-shot hook notification on the first observation of cancellation.
  void NotifyCancel(JobContext& ctx);

  sim::Environment& env_;
  gpusim::Gpu& gpu_;
  ThreadPool& pool_;
  ExecutorOptions options_;
  sim::Rng rng_;
  SchedulingHooks* hooks_;
  std::uint64_t runs_completed_ = 0;
  std::uint64_t nodes_executed_ = 0;
  std::uint64_t nodes_cancelled_ = 0;

  // Scratch pools (owning stores + freelists of recyclable instances).
  std::vector<std::unique_ptr<RunState>> runstate_store_;
  std::vector<RunState*> runstate_free_;
  std::vector<std::unique_ptr<BfsQueue>> bfs_store_;
  std::vector<BfsQueue*> bfs_free_;
};

}  // namespace olympian::graph
