// ShardPlanner — partitions the heterogeneous node fleet into K disjoint
// shards, each served by its own independent pdFTSP instance (DESIGN.md
// §10). The planner balances two things at once:
//
//  * capacity — total compute per slot is spread as evenly as the node
//    granularity allows (greedy least-loaded assignment, largest classes
//    first), so no shard becomes the structural bottleneck;
//  * GPU-type mix — nodes are assigned class by class, so every shard gets
//    its proportional share of each GPU type and the per-shard schedule DP
//    sees the same speed/memory trade-offs the global DP would.
//
// Within a shard, nodes keep their *global* ascending id order. That makes
// the K=1 plan the identity partition: the shard's sub-cluster is the
// original cluster node for node, which is what lets a 1-shard
// ShardedService reproduce the monolithic engine bit-identically
// (tests/test_service.cpp pins this).
#pragma once

#include <vector>

#include "lorasched/cluster/cluster.h"
#include "lorasched/types.h"

namespace lorasched::shard {

/// One partition of the fleet: shard s owns global nodes `nodes[s]`
/// (ascending, disjoint, covering every node exactly once).
struct ShardPlan {
  std::vector<std::vector<NodeId>> nodes;

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(nodes.size());
  }
};

/// Static per-shard capability summary the router prices bids against:
/// which GPU classes a shard owns and what one node of each class can do.
/// Classes are indexed by the *global* cluster's class ids, so price-board
/// summaries from different shards line up.
struct ShardTopology {
  struct ClassInfo {
    /// C_kp of one node of this class (samples per slot).
    double compute_per_slot = 0.0;
    /// C_km − r_b of one node of this class (GB available to adapters).
    double adapter_mem_gb = 0.0;
  };
  /// Per global class, the representative node's capabilities.
  std::vector<ClassInfo> classes;
  /// [shard][class] -> number of nodes of that class in the shard.
  std::vector<std::vector<int>> shard_class_nodes;

  [[nodiscard]] int class_count() const noexcept {
    return static_cast<int>(classes.size());
  }
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shard_class_nodes.size());
  }
};

class ShardPlanner {
 public:
  /// Partitions `cluster` into `shards` non-empty shards. Throws
  /// std::invalid_argument unless 1 <= shards <= node_count. Deterministic
  /// in the cluster alone (no RNG): class by class (largest node count
  /// first, ties by class id), each node goes to the shard with the least
  /// assigned compute (ties: fewer nodes, then lower shard id).
  [[nodiscard]] static ShardPlan plan(const Cluster& cluster, int shards);

  /// The sub-cluster a shard serves: the selected nodes' profiles in the
  /// given order (ascending global id for planner output), same shared
  /// base-model footprint. Local NodeId i maps to global `nodes[i]`.
  [[nodiscard]] static Cluster sub_cluster(const Cluster& cluster,
                                           const std::vector<NodeId>& nodes);

  /// Router-facing summary of a plan (global class ids).
  [[nodiscard]] static ShardTopology topology(const Cluster& cluster,
                                              const ShardPlan& plan);
};

}  // namespace lorasched::shard
