// Service-side operational metrics, rebased onto the obs::MetricsRegistry:
// every aggregate is a named counter/gauge/histogram recorded with relaxed
// atomics, so the registry's Prometheus exposition and the service's
// MetricsSnapshot read the same underlying values. Latencies are measured
// through util::Stopwatch — the same steady_clock helper the simulation
// engine uses for Fig. 13 — so the service's p50/p99 and the paper figure
// report the same quantity.
//
// Memory is bounded by construction: decision latencies land in a
// fixed-size log-bucketed histogram (service_decide_seconds) instead of the
// former one-double-per-bid vector, so a long-running daemon's metrics
// footprint is constant. Tradeoff: p50/p99 are now bucket-interpolated
// estimates with relative error bounded by one bucket width (~9% at the
// default 8 buckets/octave — see obs/registry.h); count and mean remain
// exact.
#pragma once

#include <cstddef>
#include <cstdint>

#include "lorasched/obs/registry.h"
#include "lorasched/service/subscriber.h"
#include "lorasched/types.h"
#include "lorasched/util/mutex.h"
#include "lorasched/util/thread_annotations.h"
#include "lorasched/util/timing.h"

namespace lorasched::service {

/// A point-in-time copy of the aggregates (safe to read off-thread).
struct MetricsSnapshot {
  std::uint64_t bids_ingested = 0;
  std::uint64_t bids_decided = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rejected_late = 0;
  /// Ingest-queue depth at the most recent drain (bids racing in mid-slot)
  /// and the largest depth any drain has observed.
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;
  std::size_t slots_processed = 0;
  /// Bids accepted into the ingest queue per wall-clock second, averaged
  /// between the first and last accepted submit (0 until two bids have
  /// arrived). Counts every queued bid — including ones later rejected by
  /// the policy or shed as late — so it measures offered load, not
  /// admissions.
  double ingest_rate = 0.0;
  /// Per-task decision latency in seconds (0 with no samples). p50/p99 are
  /// histogram estimates (~9% relative error); mean is exact.
  double decide_p50 = 0.0;
  double decide_p99 = 0.0;
  double decide_mean = 0.0;
};

class ServiceMetrics {
 public:
  ServiceMetrics();

  /// Producer side: one bid accepted into the queue. Thread-safe.
  void record_ingest() EXCLUDES(mutex_);

  /// Consumer side: one slot decided. `per_task_seconds` is the batch's
  /// policy time divided by the batch size (exactly the engine's
  /// TaskOutcome::decide_seconds), sampled `batch` times.
  void record_slot(const SlotReport& report, double per_task_seconds);

  void record_admitted();
  void record_rejected();
  void record_rejected_late();

  [[nodiscard]] MetricsSnapshot snapshot() const EXCLUDES(mutex_);

  /// The backing registry — for Prometheus exposition (lorasched_shard_serve
  /// --metrics-out) or merging additional metrics alongside the service's.
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const obs::MetricsRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  obs::MetricsRegistry registry_;  // must precede the metric references
  obs::Counter& ingested_;
  obs::Counter& decided_;
  obs::Counter& admitted_;
  obs::Counter& rejected_;
  obs::Counter& rejected_late_;
  obs::Counter& slots_;
  obs::Gauge& queue_depth_;
  obs::Gauge& max_queue_depth_;
  obs::Histogram& decide_seconds_;

  // First/last ingest timestamps for the offered-load rate; the only state
  // the registry's atomics cannot carry.
  mutable util::Mutex mutex_;
  bool saw_first_ingest_ GUARDED_BY(mutex_) = false;
  util::MonoClock::time_point first_ingest_ GUARDED_BY(mutex_) = {};
  util::MonoClock::time_point last_ingest_ GUARDED_BY(mutex_) = {};
};

}  // namespace lorasched::service
