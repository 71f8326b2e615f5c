#include "gpusim/gpu.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace olympian::gpusim {
namespace {
constexpr std::size_t kKernelChunk = 64;

std::uint64_t WaveArg(std::uint64_t slot, std::uint32_t gen) {
  return slot | (static_cast<std::uint64_t>(gen) << 32);
}
}  // namespace

Gpu::Gpu(sim::Environment& env, Options options)
    : env_(env),
      options_(std::move(options)),
      rng_(options_.seed),
      free_slots_(options_.spec.total_block_slots()) {
  if (options_.spec.total_block_slots() <= 0) {
    throw std::invalid_argument("GpuSpec must expose at least one block slot");
  }
  if (options_.clock_noise_sigma > 0.0) {
    options_.spec.clock_scale *=
        std::max(0.5, rng_.Normal(1.0, options_.clock_noise_sigma));
  }
}

Gpu::~Gpu() = default;

StreamId Gpu::CreateStream() {
  streams_.push_back(std::make_unique<Stream>());
  Stream& s = *streams_.back();
  s.id = static_cast<StreamId>(streams_.size()) - 1;
  s.arb_weight = options_.arbitration_bias_sigma > 0
                     ? rng_.LogNormal(0.0, options_.arbitration_bias_sigma)
                     : 1.0;
  return s.id;
}

Gpu::Kernel* Gpu::AllocKernel() {
  if (kernel_free_ == nullptr) {
    kernel_chunks_.push_back(std::make_unique<Kernel[]>(kKernelChunk));
    Kernel* base = kernel_chunks_.back().get();
    for (std::size_t i = 0; i < kKernelChunk; ++i) {
      base[i].next = kernel_free_;
      kernel_free_ = &base[i];
    }
  }
  Kernel* k = kernel_free_;
  kernel_free_ = k->next;
  k->next = nullptr;
  ++pending_kernels_;
  return k;
}

void Gpu::FreeKernel(Kernel* k) {
  --pending_kernels_;
  k->waiter = nullptr;
  k->failed_out = nullptr;
  k->next = kernel_free_;
  kernel_free_ = k;
}

void Gpu::Enqueue(StreamId stream, const KernelDesc& desc,
                  std::coroutine_handle<> waiter, bool* failed_out) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw std::out_of_range("Submit to unknown stream");
  }
  if (desc.thread_blocks < 1) {
    throw std::invalid_argument("kernel needs >= 1 thread block");
  }
  if (desc.block_work < sim::Duration::Zero()) {
    throw std::invalid_argument("kernel block work must be non-negative");
  }
  if (down_) {
    // The driver is gone for the rest of the outage: the launch returns an
    // error immediately instead of queueing (a cudaErrorDeviceUnavailable).
    // Without a failed_out flag there is no channel to report through, so
    // the rejection surfaces as a synchronous throw (see the contract on
    // the declaration) — never as a silent success.
    ++kernels_failed_;
    if (failed_out == nullptr) {
      throw KernelFailed("launch rejected: device " + options_.spec.name +
                         " is down (reset outage)");
    }
    *failed_out = true;
    if (waiter) env_.ScheduleNow(waiter);
    return;
  }
  Kernel* k = AllocKernel();
  k->desc = desc;
  k->blocks_left = desc.thread_blocks;
  k->in_flight = 0;
  k->exclusive = desc.thread_blocks >= options_.spec.total_block_slots();
  k->failed = false;
  k->enqueued = env_.Now();
  k->waiter = waiter;
  k->failed_out = failed_out;
  Stream& s = *streams_[static_cast<std::size_t>(stream)];
  s.queue.push(k);
  if (StreamReady(s)) MarkReady(stream);
  Dispatch();
}

bool Gpu::StreamReady(const Stream& s) const {
  if (s.active != nullptr) return s.active->blocks_left > 0;
  return !s.queue.empty();
}

void Gpu::MarkReady(StreamId id) {
  Stream& s = *streams_[static_cast<std::size_t>(id)];
  if (s.in_ready_list) return;
  s.in_ready_list = true;
  ready_.push_back(id);
}

std::uint64_t Gpu::AcquireWaveSlot() {
  if (!free_wave_slots_.empty()) {
    const std::uint64_t slot = free_wave_slots_.back();
    free_wave_slots_.pop_back();
    return slot;
  }
  waves_.push_back(Wave{});
  return waves_.size() - 1;
}

void Gpu::ReleaseWaveSlot(std::uint64_t slot) {
  waves_[slot].active = false;
  ++waves_[slot].gen;  // orphan any timer event still pointing here
  free_wave_slots_.push_back(slot);
}

std::int64_t Gpu::CoalescibleWaves(const Kernel* k, sim::Duration d,
                                   std::int64_t max_waves) const {
  if (!options_.coalesce_wave_trains || max_waves < 2) return 1;
  const std::int64_t dn = d.nanos();
  if (dn <= 0) return 1;  // zero-length waves: nothing to save
  // The train refills the whole free pool at every boundary, so no ready
  // stream can interleave; the only thing that can change the wave size is
  // another in-flight occupancy ending (or a wave of this kernel itself,
  // whose boundaries are staggered against ours). Cap the train strictly
  // before the earliest such event; the remainder re-dispatches there with
  // the exact uncoalesced semantics.
  std::int64_t m = max_waves;
  const sim::TimePoint now = env_.Now();
  if (now < capacity_until_) {
    // Every train wave must *start* while the capacity window is still
    // open: wave j begins at now + (j-1)*d, and a wave starting at or
    // after the window close would dispatch at full speed on the
    // uncoalesced path. (Trains never start *before* a window opens:
    // ThrottleCapacity splits active trains at the open edge.)
    const std::int64_t avail = (capacity_until_ - now).nanos();
    const std::int64_t limit = (avail - 1) / dn + 1;
    if (limit < m) m = limit;
    if (m < 2) return 1;
  }
  for (const Wave& w : waves_) {
    if (!w.active) continue;
    if (w.kernel == k) return 1;
    const std::int64_t avail = (w.end - now).nanos();
    if (avail <= dn) return 1;
    const std::int64_t limit = (avail - 1) / dn;  // largest m: m*dn < avail
    if (limit < m) m = limit;
    if (m < 2) return 1;
  }
  return m;
}

void Gpu::Dispatch() {
  if (dispatching_) return;  // re-entrancy guard (Enqueue during callbacks)
  if (hung_) return;         // wedged driver: issue nothing until the hang ends
  if (down_) return;         // reset outage: the driver is gone entirely
  dispatching_ = true;
  while (free_slots_ > 0) {
    Stream* cur =
        current_ >= 0 ? streams_[static_cast<std::size_t>(current_)].get()
                      : nullptr;
    // Finish issuing the in-flight kernel of the current stream first.
    if (cur != nullptr && cur->active != nullptr &&
        cur->active->blocks_left > 0) {
      // fallthrough to wave issue below
    } else {
      // Need to start (or switch to) a kernel.
      const bool current_usable =
          cur != nullptr && burst_left_ > 0 && StreamReady(*cur);
      if (!current_usable) {
        if (cur != nullptr && StreamReady(*cur)) MarkReady(current_);
        current_ = -1;
        // Job-blind arbitration: pick a ready stream at random, weighted by
        // its persistent channel bias. Stale entries (a stream re-listed at
        // kernel retirement that went straight back to being current, or
        // work failed by a fault) are dropped lazily in the same pass that
        // sums the weights. The drop order, the index-order floating-point
        // sum, and the always-taken RNG draw are all part of the pinned
        // deterministic trajectory (golden_determinism_test) — an
        // incrementally-maintained total rounds differently and silently
        // changes which stream a given draw lands on. Keep this one
        // sum-and-clean pass plus the early-exit prefix scan below; do not
        // "optimize" it into running state.
        while (!ready_.empty()) {
          double total_w = 0.0;
          for (std::size_t i = 0; i < ready_.size();) {
            Stream& rs = *streams_[static_cast<std::size_t>(ready_[i])];
            if (!StreamReady(rs)) {
              rs.in_ready_list = false;
              ready_[i] = ready_.back();
              ready_.pop_back();
              continue;
            }
            total_w += rs.arb_weight;
            ++i;
          }
          if (ready_.empty()) break;
          double pick = rng_.NextDouble() * total_w;
          std::size_t idx = 0;
          for (; idx + 1 < ready_.size(); ++idx) {
            pick -= streams_[static_cast<std::size_t>(ready_[idx])]->arb_weight;
            if (pick <= 0) break;
          }
          const StreamId id = ready_[idx];
          ready_[idx] = ready_.back();
          ready_.pop_back();
          streams_[static_cast<std::size_t>(id)]->in_ready_list = false;
          current_ = id;
          break;
        }
        if (current_ < 0) break;  // nothing issuable anywhere
        // Geometric-ish burst length: how many kernels this stream may start
        // before the driver re-arbitrates.
        const double u = rng_.NextDouble();
        burst_left_ = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   std::llround(-std::log(1.0 - u) * kMeanBurst)));
        cur = streams_[static_cast<std::size_t>(current_)].get();
      }
      if (cur->active == nullptr) {
        if (cur->queue.empty()) {
          current_ = -1;
          continue;
        }
        cur->active = cur->queue.pop();
        // Compute-start stamp: the kernel leaves the queue here (kernels
        // failed while still queued never start and are not counted).
        queue_wait_ns_ += (env_.Now() - cur->active->enqueued).nanos();
        ++kernels_dequeued_;
        --burst_left_;
      } else if (cur->active->blocks_left == 0) {
        // Active kernel fully issued but still draining; in-stream FIFO means
        // this stream cannot start another kernel yet.
        current_ = -1;
        continue;
      }
    }

    // Issue one wave (or a coalesced train) of the current stream's active
    // kernel.
    Stream& s = *streams_[static_cast<std::size_t>(current_)];
    Kernel* k = s.active;
    if (k->exclusive) {
      // A saturating kernel needs the whole device; head-of-line wait until
      // in-flight waves drain, then run all its waves as one occupancy.
      if (occupied_slots_ > 0) break;  // re-dispatched on wave completion
      const std::int64_t total = options_.spec.total_block_slots();
      const std::int64_t n_ex = k->blocks_left;
      const std::int64_t waves = (n_ex + total - 1) / total;
      k->blocks_left = 0;
      k->in_flight = n_ex;
      free_slots_ = 0;
      NoteOccupancyChange(total);
      const sim::TimePoint now = env_.Now();
      JobMeter(k->desc.job).OnBegin(now);
      busy_.OnBegin(now);
      ++waves_dispatched_;
      const std::uint64_t slot = AcquireWaveSlot();
      Wave& w = waves_[slot];
      const sim::Duration d = k->desc.block_work *
                              (static_cast<double>(waves) /
                               (options_.spec.clock_scale * CapacityAt(now)));
      w.kernel = k;
      w.stream = &s;
      w.blocks = n_ex;
      w.slots_held = total;
      w.waves = 1;  // one occupancy; exclusive trains are never split
      w.start = now;
      w.end = now + d;
      w.wave_d = d;
      w.active = true;
      env_.ScheduleCallbackAt(w.end, &Gpu::WaveTrampoline, this,
                              WaveArg(slot, w.gen));
      continue;
    }
    const std::int64_t n = std::min(k->blocks_left, free_slots_);
    const sim::Duration d =
        k->desc.block_work *
        (1.0 / (options_.spec.clock_scale * CapacityAt(env_.Now())));
    // Wave-train coalescing: if this wave takes every free slot and the
    // kernel has at least one more identical wave behind it, fold as many
    // back-to-back waves as provably run undisturbed into one completion
    // event. Finish times are unchanged — only event count drops.
    std::int64_t m = 1;
    if (n == free_slots_ && k->blocks_left >= 2 * n) {
      m = CoalescibleWaves(k, d, k->blocks_left / n);
    }
    const std::int64_t issued = n * m;
    k->blocks_left -= issued;
    k->in_flight += issued;
    free_slots_ -= n;
    NoteOccupancyChange(n);
    const sim::TimePoint now = env_.Now();
    JobMeter(k->desc.job).OnBegin(now);
    busy_.OnBegin(now);
    waves_dispatched_ += static_cast<std::uint64_t>(m);
    if (m > 1) waves_coalesced_ += static_cast<std::uint64_t>(m - 1);

    const std::uint64_t slot = AcquireWaveSlot();
    Wave& w = waves_[slot];
    w.kernel = k;
    w.stream = &s;
    w.blocks = issued;
    w.slots_held = n;
    w.waves = m;
    w.start = now;
    w.end = now + sim::Duration::Nanos(d.nanos() * m);
    w.wave_d = d;
    w.active = true;
    env_.ScheduleCallbackAt(w.end, &Gpu::WaveTrampoline, this,
                            WaveArg(slot, w.gen));
  }
  dispatching_ = false;
}

void Gpu::WaveTrampoline(void* ctx, std::uint64_t arg) {
  static_cast<Gpu*>(ctx)->OnWaveDone(arg);
}

void Gpu::OnWaveDone(std::uint64_t slot_and_gen) {
  const std::uint64_t slot = slot_and_gen & 0xffffffffULL;
  const std::uint32_t gen = static_cast<std::uint32_t>(slot_and_gen >> 32);
  if (!waves_[slot].active || waves_[slot].gen != gen) return;  // orphaned
  const Wave w = waves_[slot];
  ReleaseWaveSlot(slot);
  Kernel* k = w.kernel;
  k->in_flight -= w.blocks;
  free_slots_ += w.slots_held;
  NoteOccupancyChange(-w.slots_held);
  const sim::TimePoint now = env_.Now();
  JobMeter(k->desc.job).OnEnd(now);
  busy_.OnEnd(now);

  if (k->blocks_left == 0 && k->in_flight == 0) {
    RetireKernel(*w.stream);
  }
  Dispatch();
}

void Gpu::SplitTrain(std::uint64_t slot) {
  Wave& w = waves_[slot];
  const std::int64_t dn = w.wave_d.nanos();
  const std::int64_t elapsed = (env_.Now() - w.start).nanos();
  // Waves that already ran plus, unless we sit exactly on a boundary, the
  // one executing now. At an exact boundary the next wave has NOT issued
  // yet in the uncoalesced model (the fault event preempts the refill), so
  // only the completed waves stand; at the train start (elapsed == 0) the
  // first wave is in flight and must complete, as pre-split dispatch
  // already issued it.
  const std::int64_t done = elapsed / dn;
  const std::int64_t j = (done == 0 || elapsed % dn != 0) ? done + 1 : done;
  if (j >= w.waves) return;  // already in the final wave
  const std::int64_t trimmed = (w.waves - j) * w.slots_held;
  w.kernel->blocks_left += trimmed;
  w.kernel->in_flight -= trimmed;
  waves_coalesced_ -= static_cast<std::uint64_t>(w.waves - j);
  w.blocks -= trimmed;
  w.waves = j;
  w.end = w.start + sim::Duration::Nanos(dn * j);
  ++w.gen;  // orphan the old end-of-train event
  env_.ScheduleCallbackAt(w.end, &Gpu::WaveTrampoline, this,
                          WaveArg(slot, w.gen));
}

void Gpu::SplitActiveTrains() {
  for (std::uint64_t i = 0; i < waves_.size(); ++i) {
    if (waves_[i].active && waves_[i].waves > 1) SplitTrain(i);
  }
}

void Gpu::SplitTrainsOfStream(const Stream& s) {
  for (std::uint64_t i = 0; i < waves_.size(); ++i) {
    if (waves_[i].active && waves_[i].waves > 1 && waves_[i].stream == &s) {
      SplitTrain(i);
    }
  }
}

void Gpu::RetireKernel(Stream& s) {
  // Retire s.active: wake the submitting CPU thread, unblock the stream.
  Kernel* k = s.active;
  if (s.fail_next) {
    k->failed = true;
    s.fail_next = false;
  }
  if (k->failed) {
    ++kernels_failed_;
    if (k->failed_out != nullptr) *k->failed_out = true;
  } else {
    ++kernels_completed_;
  }
  const std::coroutine_handle<> waiter = k->waiter;
  s.active = nullptr;
  FreeKernel(k);
  if (!s.queue.empty()) MarkReady(s.id);
  if (waiter) env_.ScheduleNow(waiter);
}

void Gpu::InjectKernelFailure(StreamId stream) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw std::out_of_range("InjectKernelFailure on unknown stream");
  }
  streams_[static_cast<std::size_t>(stream)]->fail_next = true;
}

void Gpu::Hang(sim::Duration d) {
  // In-flight waves complete, but a coalesced train must stop refilling at
  // its next wave boundary — split it back to the wave executing now so
  // per-wave hang semantics are preserved exactly.
  SplitActiveTrains();
  const sim::TimePoint until = env_.Now() + d;
  if (until > hang_until_) hang_until_ = until;
  hung_ = true;
  if (listener_ != nullptr) listener_->OnHangBegin(hang_until_);
  env_.ScheduleCallbackAt(hang_until_, &Gpu::HangTrampoline, this, 0);
}

void Gpu::HangTrampoline(void* ctx, std::uint64_t arg) {
  (void)arg;
  auto* self = static_cast<Gpu*>(ctx);
  if (!self->hung_) return;
  if (self->env_.Now() < self->hang_until_) return;  // extended meanwhile
  self->hung_ = false;
  if (self->listener_ != nullptr) self->listener_->OnHangEnd();
  self->Dispatch();
}

void Gpu::FailQueued(Stream& s) {
  // Queued (never started) kernels fail immediately.
  while (!s.queue.empty()) {
    Kernel* k = s.queue.pop();
    ++kernels_failed_;
    if (k->failed_out != nullptr) *k->failed_out = true;
    if (k->waiter) env_.ScheduleNow(k->waiter);
    FreeKernel(k);
  }
}

void Gpu::Reset(sim::Duration outage) {
  ++resets_;
  hung_ = false;
  hang_until_ = env_.Now();
  // Trains stop refilling at the wave boundary the reset lands in.
  SplitActiveTrains();
  if (outage > sim::Duration::Zero()) {
    const sim::TimePoint until = env_.Now() + outage;
    if (until > down_until_) down_until_ = until;
    down_ = true;  // set before the listener runs: suppresses nested dispatch
    env_.ScheduleCallbackAt(down_until_, &Gpu::DownTrampoline, this, 0);
  }
  // Notify the listener before any failed kernel's waiter is scheduled: a
  // failover controller reacting here marks the device down (and cancels
  // in-flight runs with a failover reason) before the submitters observe
  // their KernelFailed.
  if (listener_ != nullptr) listener_->OnResetBegin(outage);
  for (auto& sp : streams_) {
    Stream& s = *sp;
    FailQueued(s);
    if (s.active != nullptr) {
      // An executing kernel issues no further waves and retires failed once
      // the waves already on the SMs drain (the reset does not rewind time
      // for work in flight).
      Kernel* k = s.active;
      k->failed = true;
      k->blocks_left = 0;
      if (k->in_flight == 0) RetireKernel(s);
    }
  }
  if (down_) return;  // dispatch resumes when the outage ends
  if (listener_ != nullptr) listener_->OnResetComplete();
  Dispatch();
}

void Gpu::DownTrampoline(void* ctx, std::uint64_t arg) {
  (void)arg;
  auto* self = static_cast<Gpu*>(ctx);
  if (!self->down_) return;
  if (self->env_.Now() < self->down_until_) return;  // extended meanwhile
  self->down_ = false;
  if (self->listener_ != nullptr) self->listener_->OnResetComplete();
  self->Dispatch();
}

void Gpu::AbortStream(StreamId stream) {
  if (stream < 0 || static_cast<std::size_t>(stream) >= streams_.size()) {
    throw std::out_of_range("AbortStream on unknown stream");
  }
  Stream& s = *streams_[static_cast<std::size_t>(stream)];
  SplitTrainsOfStream(s);
  FailQueued(s);
  if (s.active != nullptr) {
    Kernel* k = s.active;
    k->failed = true;
    k->blocks_left = 0;
    if (k->in_flight == 0) RetireKernel(s);
  }
  Dispatch();
}

void Gpu::ThrottleCapacity(double capacity, sim::Duration window) {
  if (!(capacity > 0.0) || capacity > 1.0) {
    throw std::invalid_argument("capacity multiplier must be in (0, 1]");
  }
  // Trains issued at full speed must stop refilling at the wave boundary
  // the throttle lands in; waves already on the SMs keep their
  // dispatch-time duration (work in flight is not rewound).
  SplitActiveTrains();
  const sim::TimePoint now = env_.Now();
  capacity_ =
      (now < capacity_until_) ? std::min(capacity_, capacity) : capacity;
  const sim::TimePoint until = now + window;
  if (until > capacity_until_) capacity_until_ = until;
}

void Gpu::InjectAllocFault(sim::Duration d) {
  const sim::TimePoint until = env_.Now() + d;
  if (until > alloc_fault_until_) alloc_fault_until_ = until;
  if (listener_ != nullptr) listener_->OnAllocFaultWindow(alloc_fault_until_);
}

bool Gpu::alloc_fault_active() const {
  return env_.Now() < alloc_fault_until_;
}

void Gpu::NoteOccupancyChange(std::int64_t delta) {
  const sim::TimePoint now = env_.Now();
  occupancy_integral_ += static_cast<double>(occupied_slots_) *
                         static_cast<double>((now - occupancy_last_).nanos());
  occupied_slots_ += delta;
  occupancy_last_ = now;
}

metrics::BusyMeter& Gpu::JobMeter(JobId job) {
  if (job < 0) return nojob_meter_;  // probes and other unattributed work
  if (static_cast<std::size_t>(job) >= job_slot_.size()) {
    job_slot_.resize(static_cast<std::size_t>(job) + 1, -1);
  }
  std::int32_t slot = job_slot_[static_cast<std::size_t>(job)];
  if (slot < 0) {
    if (!meter_free_.empty()) {
      slot = meter_free_.back();
      meter_free_.pop_back();
    } else {
      slot = static_cast<std::int32_t>(meter_slots_.size());
      meter_slots_.emplace_back();
    }
    meter_slots_[static_cast<std::size_t>(slot)].job = job;
    meter_slots_[static_cast<std::size_t>(slot)].meter = metrics::BusyMeter{};
    job_slot_[static_cast<std::size_t>(job)] = slot;
  }
  return meter_slots_[static_cast<std::size_t>(slot)].meter;
}

sim::Duration Gpu::JobGpuDuration(JobId job) const {
  if (job < 0) return nojob_meter_.Total(env_.Now());
  if (static_cast<std::size_t>(job) < job_slot_.size()) {
    const std::int32_t slot = job_slot_[static_cast<std::size_t>(job)];
    if (slot >= 0) {
      return meter_slots_[static_cast<std::size_t>(slot)].meter.Total(
          env_.Now());
    }
  }
  const auto it = job_retired_.find(job);
  if (it != job_retired_.end()) return it->second;
  return sim::Duration::Zero();
}

void Gpu::RetireJob(JobId job) {
  if (job < 0 || static_cast<std::size_t>(job) >= job_slot_.size()) return;
  const std::int32_t slot = job_slot_[static_cast<std::size_t>(job)];
  if (slot < 0) return;
  JobMeterSlot& ms = meter_slots_[static_cast<std::size_t>(slot)];
  if (ms.meter.busy()) return;  // kernels still resident; retire after drain
  job_retired_[job] += ms.meter.Total(env_.Now());
  ms.job = kNoJob;
  job_slot_[static_cast<std::size_t>(job)] = -1;
  meter_free_.push_back(slot);
}

sim::Duration Gpu::TotalBusy() const { return busy_.Total(env_.Now()); }

double Gpu::MeanSlotOccupancy() const {
  const sim::TimePoint now = env_.Now();
  const double integral =
      occupancy_integral_ + static_cast<double>(occupied_slots_) *
                                static_cast<double>((now - occupancy_last_).nanos());
  const double denom = static_cast<double>(options_.spec.total_block_slots()) *
                       static_cast<double>(now.nanos());
  return denom <= 0 ? 0.0 : integral / denom;
}

double Gpu::EnergyJoules() const {
  const sim::TimePoint now = env_.Now();
  const double elapsed_s = (now - sim::TimePoint()).seconds();
  const double busy_s = TotalBusy().seconds();
  const double occ_slot_s =
      MeanSlotOccupancy() * elapsed_s;  // occupancy-weighted seconds
  return options_.spec.idle_watts * elapsed_s +
         options_.spec.busy_extra_watts * busy_s +
         options_.spec.occupancy_watts * occ_slot_s;
}

double Gpu::MeanPowerWatts() const {
  const double elapsed_s = (env_.Now() - sim::TimePoint()).seconds();
  return elapsed_s <= 0 ? options_.spec.idle_watts
                        : EnergyJoules() / elapsed_s;
}

void Gpu::AllocateMemory(JobId job, std::int64_t mb) {
  if (alloc_fault_active()) {
    throw TransientAllocFailure("transient allocation failure: job " +
                                std::to_string(job) + " requested " +
                                std::to_string(mb) + " MB during a fault "
                                "window on " + options_.spec.name);
  }
  if (memory_used_mb_ + mb > options_.spec.memory_mb) {
    throw OutOfDeviceMemory("GPU out of memory: job " + std::to_string(job) +
                            " requested " + std::to_string(mb) + " MB, " +
                            std::to_string(options_.spec.memory_mb -
                                           memory_used_mb_) +
                            " MB free on " + options_.spec.name);
  }
  memory_used_mb_ += mb;
}

void Gpu::ReleaseMemory(JobId job, std::int64_t mb) {
  (void)job;
  memory_used_mb_ -= mb;
  if (memory_used_mb_ < 0) {
    throw std::logic_error("GPU memory release underflow");
  }
}

}  // namespace olympian::gpusim
