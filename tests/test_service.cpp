// The serving contract at K=1 (DESIGN.md §6): a single-shard ShardedService
// (ShardedConfig's default K) must reproduce the batch simulator bit for
// bit (decisions, payments, welfare, schedules), including after a kill +
// checkpoint/restore mid-horizon and an offline replay pumped through a
// tiny queue, while surviving multi-producer ingestion and enforcing
// backpressure and both late-bid modes. What K > 1 adds is pinned in
// test_shard.cpp.
#include "lorasched/shard/sharded_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lorasched/core/online_params.h"
#include "lorasched/core/pdftsp.h"
#include "lorasched/io/serialize.h"
#include "lorasched/obs/trace.h"
#include "lorasched/sim/engine.h"
#include "test_helpers.h"

namespace lorasched::shard {
namespace {

using service::SubmitResult;

/// Exact equality of everything a decision commits to (decide_seconds is
/// wall-clock noise and deliberately excluded).
void expect_same_outcomes(const std::vector<TaskOutcome>& a,
                          const std::vector<TaskOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].admitted, b[i].admitted);
    EXPECT_EQ(a[i].bid, b[i].bid);
    EXPECT_EQ(a[i].payment, b[i].payment);
    EXPECT_EQ(a[i].vendor, b[i].vendor);
    EXPECT_EQ(a[i].vendor_cost, b[i].vendor_cost);
    EXPECT_EQ(a[i].energy_cost, b[i].energy_cost);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].completion, b[i].completion);
    EXPECT_EQ(a[i].slots_used, b[i].slots_used);
    EXPECT_EQ(a[i].preemptions, b[i].preemptions);
  }
}

void expect_same_metrics(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.social_welfare, b.social_welfare);
  EXPECT_EQ(a.provider_utility, b.provider_utility);
  EXPECT_EQ(a.user_utility, b.user_utility);
  EXPECT_EQ(a.total_payments, b.total_payments);
  EXPECT_EQ(a.total_vendor_cost, b.total_vendor_cost);
  EXPECT_EQ(a.total_energy_cost, b.total_energy_cost);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.utilization, b.utilization);
}

/// The pdFTSP shard policy the tests serve with, priced for `instance`.
PolicyFactory pdftsp_factory(const Instance& instance) {
  return make_pdftsp_factory(pdftsp_config_for(instance));
}

/// Submits every instance task from `threads` producers, then steps the
/// service through its whole horizon.
void serve_instance(ShardedService& service, const Instance& instance,
                    int threads = 4) {
  std::vector<std::thread> producers;
  for (int p = 0; p < threads; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p);
           i < instance.tasks.size(); i += static_cast<std::size_t>(threads)) {
        ASSERT_EQ(service.submit(instance.tasks[i]), SubmitResult::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  while (!service.done()) service.step();
}

TEST(ServiceK1, MatchesBatchSimulatorExactly) {
  const Instance instance = make_instance(testing::small_scenario());
  Pdftsp sim_policy(pdftsp_config_for(instance), instance.cluster,
                    instance.energy, instance.horizon);
  const SimResult expected = run_simulation(instance, sim_policy);

  ShardedService service(instance, pdftsp_factory(instance));
  ASSERT_EQ(service.shard_count(), 1);
  serve_instance(service, instance);
  EXPECT_EQ(service.rerouted_bids(), 0u);  // one shard: nowhere else to go
  const SimResult actual = service.finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
  ASSERT_EQ(expected.schedules.size(), actual.schedules.size());
  for (std::size_t i = 0; i < expected.schedules.size(); ++i) {
    EXPECT_EQ(expected.schedules[i].run, actual.schedules[i].run);
  }
}

// Offline replay (lorasched_shard_serve --slot-ms 0) of a bid stream longer
// than the queue under block backpressure: pump() frees queue space without
// advancing the slot, so ingesting everything before the first decision
// cannot deadlock, and the result still matches the batch simulator bit for
// bit.
TEST(ServiceK1, PumpIngestsBeyondQueueCapacityWithoutDeadlock) {
  const Instance instance = make_instance(testing::small_scenario());
  Pdftsp sim_policy(pdftsp_config_for(instance), instance.cluster,
                    instance.energy, instance.horizon);
  const SimResult expected = run_simulation(instance, sim_policy);

  ShardedConfig config;
  config.queue_capacity = 2;  // far below the bid count
  config.backpressure = service::BackpressureMode::kBlock;
  ShardedService service(instance, pdftsp_factory(instance), config);
  ASSERT_GT(instance.tasks.size(), config.queue_capacity);

  std::thread feeder([&] {
    for (const Task& task : instance.tasks) {
      ASSERT_EQ(service.submit(task), SubmitResult::kAccepted);
    }
    service.close();
  });
  // The daemon's offline-replay loop: pump until the feeder is done (queue
  // closed) and the queue is empty, then decide every slot.
  while (!service.queue().closed() || service.queue().depth() != 0) {
    service.queue().wait_available();
    service.pump();
  }
  feeder.join();
  while (!service.done()) service.step();
  const SimResult actual = service.finish();

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

/// Submits every bid, serves `kill_at` slots, writes the checkpoint through
/// the io codec and "crashes"; then a fresh service built from the same
/// factory restores from the stream and serves the rest of the horizon.
SimResult serve_across_restart(const Instance& instance,
                               const PolicyFactory& factory, Slot kill_at) {
  std::stringstream persisted;
  {
    ShardedService service(instance, factory);
    for (const Task& task : instance.tasks) {
      EXPECT_EQ(service.submit(task), SubmitResult::kAccepted);
    }
    for (Slot t = 0; t < kill_at; ++t) service.step();
    io::write_sharded_checkpoint(persisted, service.checkpoint());
  }

  ShardedService revived(instance, factory);
  revived.restore(io::read_sharded_checkpoint(persisted));
  EXPECT_EQ(revived.current_slot(), kill_at);
  while (!revived.done()) revived.step();
  return revived.finish();
}

TEST(ServiceK1, CheckpointRestoreResumesBitIdentically) {
  const Instance instance = make_instance(testing::small_scenario(7));
  Pdftsp sim_policy(pdftsp_config_for(instance), instance.cluster,
                    instance.energy, instance.horizon);
  const SimResult expected = run_simulation(instance, sim_policy);

  const SimResult actual = serve_across_restart(
      instance, pdftsp_factory(instance), instance.horizon / 2);

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

// Any checkpointable policy the factory builds survives a kill + restore:
// the adaptive estimator's state rides in the shard's policy dump, and the
// resumed run still matches the batch simulator.
TEST(ServiceK1, AdaptivePolicyCheckpointsToo) {
  const Instance instance = make_instance(testing::small_scenario(11));
  const OnlineParamEstimator::Config est{};
  AdaptivePdftsp sim_policy(est, instance.cluster, instance.energy,
                            instance.horizon);
  const SimResult expected = run_simulation(instance, sim_policy);
  const PolicyFactory adaptive =
      [est](const Cluster& cluster, const EnergyModel& energy,
            Slot horizon) -> std::unique_ptr<Policy> {
    return std::make_unique<AdaptivePdftsp>(est, cluster, energy, horizon);
  };

  const SimResult actual =
      serve_across_restart(instance, adaptive, instance.horizon / 3);

  expect_same_outcomes(expected.outcomes, actual.outcomes);
  expect_same_metrics(expected.metrics, actual.metrics);
}

// restore() overwrites the whole service state, so it is only legal before
// the service holds any: a stepped or pumped service refuses it.
TEST(ServiceK1, RestoreRequiresFreshService) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedService service(instance, pdftsp_factory(instance));
  const ShardedCheckpoint cp = service.checkpoint();
  service.step();
  EXPECT_THROW(service.restore(cp), std::logic_error);

  ShardedService pumped(instance, pdftsp_factory(instance));
  ASSERT_EQ(pumped.submit(instance.tasks[0]), SubmitResult::kAccepted);
  pumped.pump();
  EXPECT_THROW(pumped.restore(cp), std::logic_error);

  ShardedService fresh(instance, pdftsp_factory(instance));
  fresh.restore(cp);
  EXPECT_EQ(fresh.current_slot(), 0);
}

class CountingSubscriber final : public service::DecisionSubscriber {
 public:
  void on_admitted(const TaskOutcome&, const Schedule&) override {
    ++admitted;
  }
  void on_rejected(const TaskOutcome&) override { ++rejected; }
  void on_payment(TaskId, Money payment) override {
    ++payments;
    total_paid += payment;
  }
  void on_slot_end(const service::SlotReport& report) override {
    ++slots;
    batched += report.batch;
  }

  int admitted = 0;
  int rejected = 0;
  int payments = 0;
  Money total_paid = 0.0;
  int slots = 0;
  std::size_t batched = 0;
};

TEST(ServiceK1, SubscribersSeeEveryDecisionAndPayment) {
  const Instance instance = make_instance(testing::small_scenario(3));
  ShardedService service(instance, pdftsp_factory(instance));
  CountingSubscriber subscriber;
  service.add_subscriber(&subscriber);

  serve_instance(service, instance, 2);
  const SimResult result = service.finish();

  EXPECT_EQ(subscriber.admitted, result.metrics.admitted);
  EXPECT_EQ(subscriber.rejected, result.metrics.rejected);
  EXPECT_EQ(subscriber.payments, result.metrics.admitted);
  EXPECT_EQ(subscriber.total_paid, result.metrics.total_payments);
  EXPECT_EQ(subscriber.slots, instance.horizon);
  EXPECT_EQ(subscriber.batched, instance.tasks.size());
}

TEST(ServiceK1, RejectBackpressureShedsWhenFull) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedConfig config;
  config.queue_capacity = 2;
  config.backpressure = service::BackpressureMode::kReject;
  ShardedService service(instance, pdftsp_factory(instance), config);

  ASSERT_GE(instance.tasks.size(), 3u);
  EXPECT_EQ(service.submit(instance.tasks[0]), SubmitResult::kAccepted);
  EXPECT_EQ(service.submit(instance.tasks[1]), SubmitResult::kAccepted);
  EXPECT_EQ(service.submit(instance.tasks[2]), SubmitResult::kRejectedFull);
  EXPECT_EQ(service.queue().rejected_full_total(), 1u);
  // Draining a slot frees the capacity again.
  service.step();
  EXPECT_EQ(service.submit(instance.tasks[2]), SubmitResult::kAccepted);
}

TEST(ServiceK1, LateBidsRejectedInRejectMode) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedService service(instance, pdftsp_factory(instance));  // kReject
  CountingSubscriber subscriber;
  service.add_subscriber(&subscriber);

  service.step();  // now at slot 1; anything with arrival 0 is late
  Task late = testing::make_task(9001, 0, 10, 400.0);
  ASSERT_EQ(service.submit(late), SubmitResult::kAccepted);
  service.step();

  EXPECT_EQ(service.metrics().rejected_late, 1u);
  EXPECT_EQ(subscriber.rejected, 1);
  EXPECT_EQ(subscriber.admitted, 0);
}

TEST(ServiceK1, LateBidsClampedToCurrentSlotInClampMode) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedConfig config;
  config.late_bids = service::LateBidMode::kClamp;
  ShardedService service(instance, pdftsp_factory(instance), config);

  service.step();
  service.step();  // now at slot 2
  Task late = testing::make_task(9002, 0, instance.horizon - 1, 400.0);
  ASSERT_EQ(service.submit(late), SubmitResult::kAccepted);
  service.step();

  EXPECT_EQ(service.metrics().rejected_late, 0u);
  EXPECT_EQ(service.metrics().bids_decided, 1u);
  while (!service.done()) service.step();
  const SimResult result = service.finish();
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_EQ(result.outcomes[0].arrival, 2);  // re-stamped to the drain slot
}

TEST(ServiceK1, ConcurrentProducersWithRunningSlotLoop) {
  ScenarioConfig scenario = testing::small_scenario(17);
  scenario.horizon = 96;
  scenario.arrival_rate = 4.0;
  const Instance instance = make_instance(scenario);
  ShardedConfig config;
  config.late_bids = service::LateBidMode::kClamp;  // producers may lag slots
  ShardedService service(instance, pdftsp_factory(instance), config);

  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p);
           i < instance.tasks.size();
           i += static_cast<std::size_t>(kProducers)) {
        ASSERT_EQ(service.submit(instance.tasks[i]), SubmitResult::kAccepted);
      }
    });
  }
  // Interleave slot processing with live ingestion, holding the final slot
  // until every producer finished so nothing is left undrained.
  for (Slot t = 0; t < instance.horizon - 1; ++t) {
    service.step();
    std::this_thread::yield();
  }
  for (auto& t : producers) t.join();
  service.close();
  service.step();  // final slot drains the stragglers

  const auto ops = service.metrics();
  const SimResult result = service.finish();  // ledger cross-check passes
  EXPECT_EQ(ops.bids_ingested, instance.tasks.size());
  EXPECT_EQ(ops.bids_decided + ops.rejected_late, instance.tasks.size());
  EXPECT_EQ(result.outcomes.size(), instance.tasks.size());
  std::set<TaskId> seen;
  for (const TaskOutcome& o : result.outcomes) {
    EXPECT_TRUE(seen.insert(o.task).second) << "duplicate decision";
  }
  EXPECT_GT(ops.slots_processed, 0u);
}

// Epoch-batched admission (PdftspConfig::admission_batch) must be
// trace-equal to one-at-a-time processing: same decisions, payments,
// schedules, and byte-identical DecisionTraceRecord streams — inline
// speculation and the pooled (batch_workers) variant alike.
TEST(ServiceK1, EpochBatchedAdmissionBitIdenticalToSequential) {
  const Instance instance = make_instance(testing::small_scenario(41));
  const PdftspConfig base = pdftsp_config_for(instance);
  auto replay = [&](int batch, int workers) {
    PdftspConfig config = base;
    config.admission_batch = batch;
    config.batch_workers = workers;
    std::ostringstream jsonl;
    obs::DecisionTracer tracer(&jsonl);
    ShardedService service(
        instance,
        testing::with_trace_sink(make_pdftsp_factory(config), &tracer));
    serve_instance(service, instance, /*threads=*/1);
    const SimResult result = service.finish();
    tracer.flush();
    return std::pair<SimResult, std::string>(result, jsonl.str());
  };

  const auto [seq, seq_trace] = replay(0, 0);
  ASSERT_FALSE(seq_trace.empty());
  struct BatchArm {
    int batch;
    int workers;
  };
  for (const BatchArm arm : {BatchArm{4, 0}, BatchArm{32, 0}, BatchArm{8, 3}}) {
    SCOPED_TRACE(arm.batch);
    SCOPED_TRACE(arm.workers);
    const auto [batched, batched_trace] = replay(arm.batch, arm.workers);
    expect_same_outcomes(seq.outcomes, batched.outcomes);
    expect_same_metrics(seq.metrics, batched.metrics);
    ASSERT_EQ(seq.schedules.size(), batched.schedules.size());
    for (std::size_t i = 0; i < seq.schedules.size(); ++i) {
      EXPECT_EQ(seq.schedules[i].run, batched.schedules[i].run);
    }
    EXPECT_EQ(seq_trace, batched_trace);
  }
}

TEST(ServiceK1, FinishRequiresCompletedHorizon) {
  const Instance instance = make_instance(testing::small_scenario());
  ShardedService service(instance, pdftsp_factory(instance));
  EXPECT_THROW((void)service.finish(), std::logic_error);
}

TEST(ServiceK1, RunDrivesToHorizon) {
  const Instance instance = make_instance(testing::small_scenario(5));
  ShardedService service(instance, pdftsp_factory(instance));
  for (const Task& task : instance.tasks) {
    ASSERT_EQ(service.submit(task), SubmitResult::kAccepted);
  }
  service.close();
  service.run(std::chrono::nanoseconds{0});
  EXPECT_TRUE(service.done());
  const SimResult result = service.finish();
  EXPECT_EQ(result.outcomes.size(), instance.tasks.size());
}

}  // namespace
}  // namespace lorasched::shard
