// Shared fixtures for the lorasched test suite: small deterministic
// clusters, tasks, and instances that keep individual tests terse.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "lorasched/cluster/cluster.h"
#include "lorasched/cluster/energy.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/obs/trace.h"
#include "lorasched/shard/shard_runner.h"
#include "lorasched/sim/instance.h"
#include "lorasched/workload/task.h"
#include "lorasched/workload/vendor.h"

namespace lorasched::testing {

/// Two-node homogeneous mini cluster: 1000 samples/slot, 20 GB, r_b = 4 GB.
inline Cluster mini_cluster(int nodes = 2) {
  std::vector<GpuProfile> profiles;
  for (int i = 0; i < nodes; ++i) {
    profiles.push_back(GpuProfile{"mini", 1000.0, 20.0, 0.3, 1.2});
  }
  return Cluster(std::move(profiles), 4.0);
}

/// One fast + one slow node (heterogeneous classes).
inline Cluster hetero_cluster() {
  std::vector<GpuProfile> profiles{
      GpuProfile{"fast", 2000.0, 24.0, 0.4, 1.5},
      GpuProfile{"slow", 1000.0, 16.0, 0.3, 0.8},
  };
  return Cluster(std::move(profiles), 4.0);
}

/// Flat (time-invariant) energy prices simplify hand-computed expectations.
inline EnergyModel flat_energy() {
  EnergyModel::Config config;
  config.off_peak_multiplier = 1.0;
  config.peak_multiplier = 1.0;
  return EnergyModel(config);
}

/// A task with sensible defaults; callers override the fields under test.
inline Task make_task(TaskId id, Slot arrival, Slot deadline, double work,
                      double mem_gb = 2.0, double share = 0.5,
                      Money bid = 10.0) {
  Task task;
  task.id = id;
  task.arrival = arrival;
  task.deadline = deadline;
  task.dataset_samples = work;
  task.epochs = 1;
  task.work = work;
  task.mem_gb = mem_gb;
  task.compute_share = share;
  task.bid = bid;
  task.true_value = bid;
  return task;
}

/// A small end-to-end scenario that runs in well under a second.
inline ScenarioConfig small_scenario(std::uint64_t seed = 42) {
  ScenarioConfig config;
  config.nodes = 6;
  config.fleet = FleetKind::kHybrid;
  config.horizon = 48;
  config.arrival_rate = 2.0;
  config.vendors = 3;
  config.seed = seed;
  return config;
}

/// Wraps a shard policy factory so every policy it builds reports its
/// decisions to `sink` (borrowed; must outlive the service). The policies
/// must implement obs::Traceable.
inline shard::PolicyFactory with_trace_sink(shard::PolicyFactory factory,
                                            obs::DecisionTraceSink* sink) {
  return [factory = std::move(factory), sink](const Cluster& cluster,
                                              const EnergyModel& energy,
                                              Slot horizon) {
    std::unique_ptr<Policy> policy = factory(cluster, energy, horizon);
    dynamic_cast<obs::Traceable&>(*policy).set_trace_sink(sink);
    return policy;
  };
}

}  // namespace lorasched::testing
