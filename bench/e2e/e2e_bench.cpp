// e2e_bench — one workload of the paced open-loop auction benchmark, run in
// a fresh process by bench/e2e/run.py (see bench/e2e/README.md).
//
// One generator thread sends slot t's bids at t·P on a shared
// service::SlotClock, whether or not the service keeps up (open loop). The
// main thread is the leader: it calls ShardedService::step() after each
// slot closes, as lorasched_shard_serve does, and once the slot's bids are
// all in (a stalled generator delays the step, it never loses a bid to
// clamping). Every layer is timed from the
// outside, around calls into its public functions; `--trace 1` additionally
// switches on the library's span profiler and writes a Chrome trace.
//
// Correctness: every bid is accounted by loadgen::SoakMetrics (no loss,
// duplicates, reordering or unknown ids), ShardedService::finish() runs its
// ledger cross-check, no bid may have been clamped as late, and the same
// stream replayed unpaced through a fresh in-process service must give
// outcomes with the same FNV-1a fingerprint.
//
//   e2e_bench --workload steady --seed 1 --seconds 18 [--trace 1]
//             [--trace-out build-e2e/trace-steady.json] [--smoke 1]
//
// Prints one JSON object on stdout and exits 1 when a check failed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "lorasched/core/pdftsp.h"
#include "lorasched/core/simd/minplus.h"
#include "lorasched/experiments/scenario.h"
#include "lorasched/loadgen/firehose.h"
#include "lorasched/loadgen/soak_metrics.h"
#include "lorasched/net/firehose_ingest.h"
#include "lorasched/net/host_agent.h"
#include "lorasched/net/remote_shard.h"
#include "lorasched/obs/json.h"
#include "lorasched/obs/span.h"
#include "lorasched/service/slot_clock.h"
#include "lorasched/shard/sharded_service.h"
#include "lorasched/util/cli.h"
#include "lorasched/util/stats.h"

using namespace lorasched;

namespace {

constexpr std::int64_t kPeriodNs = 25'000'000;  // slot period P
constexpr Slot kWarmSlots = 40;                 // excluded from timing
constexpr Slot kTailSlots = 40;                 // horizon past the last arrival
constexpr int kSetupReps = 9;                   // setup_s is their median
constexpr std::size_t kQueueCapacity = 4096;
constexpr int kAgents = 2;        // host agents behind the wire workload
constexpr Slot kTraceSlots = 20;  // measured slots written to the Chrome trace
constexpr std::int64_t kBarrierTimeoutNs = 5'000'000'000;  // see the leader

struct Workload {
  const char* name;
  int nodes;
  int shards;
  loadgen::ArrivalMix mix;
  double rate;  // mean bids per slot
  bool wire;
};

// Why each workload exists is recorded in bench/e2e/README.md.
constexpr Workload kWorkloads[] = {
    {"steady", 400, 4, loadgen::ArrivalMix::kPoisson, 600.0, false},
    {"wire", 400, 4, loadgen::ArrivalMix::kPoisson, 600.0, true},
    {"admit-heavy", 2000, 4, loadgen::ArrivalMix::kPoisson, 400.0, false},
    {"burst-k1", 400, 1, loadgen::ArrivalMix::kBurst, 160.0, false},
};

/// Run geometry: slots [0, warm) warm up, [warm, arrivals_end) are
/// measured, and the horizon leaves kTailSlots for the last decisions.
struct Plan {
  Workload workload{};
  int nodes = 0;
  double rate = 0.0;
  std::uint64_t seed = 1;
  Slot warm = 0;
  Slot arrivals_end = 0;
  Slot horizon = 0;
  bool trace = false;
};

std::int64_t now_ns() { return loadgen::SoakMetrics::now_ns(); }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double pct(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : util::percentile(values, p);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

ScenarioConfig scenario_for(const Plan& plan) {
  // The environment is fixed (default scenario seed); --seed drives only
  // the bid stream.
  ScenarioConfig config;
  config.nodes = plan.nodes;
  config.fleet = FleetKind::kHybrid;
  config.deadline = DeadlineKind::kMedium;
  config.horizon = plan.horizon;
  return config;
}

shard::ShardedConfig sharded_config(const Plan& plan) {
  // The serving daemons' defaults.
  shard::ShardedConfig config;
  config.shards = plan.workload.shards;
  config.reroute_attempts = 1;
  config.queue_capacity = kQueueCapacity;
  config.backpressure = service::BackpressureMode::kBlock;
  config.late_bids = service::LateBidMode::kClamp;
  return config;
}

std::vector<Task> make_stream(const Plan& plan, const Instance& env) {
  loadgen::FirehoseConfig config;
  config.source = 0;
  config.seed = plan.seed;
  config.mix = plan.workload.mix;
  config.rate_per_slot = plan.rate;
  config.horizon = plan.horizon;
  config.arrival_window = plan.arrivals_end;
  config.taskgen.deadline.kind = DeadlineKind::kMedium;
  loadgen::BidFirehose firehose(config, env.cluster, env.energy, env.market);
  return firehose.generate();
}

std::uint64_t fingerprint(const std::vector<TaskOutcome>& outcomes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_f = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const TaskOutcome& o : outcomes) {
    mix(static_cast<std::uint64_t>(o.task));
    mix(o.admitted ? 1 : 0);
    mix_f(o.bid);
    mix_f(o.payment);
    mix_f(o.vendor_cost);
    mix_f(o.energy_cost);
    mix(static_cast<std::uint64_t>(o.vendor));
    mix(static_cast<std::uint64_t>(o.arrival));
    mix(static_cast<std::uint64_t>(o.completion));
    mix(static_cast<std::uint64_t>(o.slots_used));
    mix(static_cast<std::uint64_t>(o.preemptions));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Harness-side timestamps, ns on util::MonoClock. Per-bid vectors are
/// indexed by firehose sequence number, per-slot vectors by slot. Each
/// entry is written by exactly one thread and read by the leader only after
/// that thread was joined or its connection stopped.
struct Record {
  Record(std::size_t bids, Slot slots)
      : send(bids), submit_enter(bids), submit_exit(bids), decided(bids),
        recv(bids), gen_wake(static_cast<std::size_t>(slots)),
        gen_done(static_cast<std::size_t>(slots)),
        step_start(static_cast<std::size_t>(slots)),
        step_end(static_cast<std::size_t>(slots)),
        batch(static_cast<std::size_t>(slots)),
        queue_depth(static_cast<std::size_t>(slots)),
        offers(static_cast<std::size_t>(slots)),
        on_slot_seconds(static_cast<std::size_t>(slots)),
        leader_self_ms(static_cast<std::size_t>(slots)) {}

  std::vector<std::int64_t> send, submit_enter, submit_exit, decided, recv;
  std::vector<std::int64_t> gen_wake, gen_done, step_start, step_end;
  std::vector<std::size_t> batch, queue_depth, offers;
  std::vector<double> on_slot_seconds, leader_self_ms;
  loadgen::SoakMetrics soak;
  /// Bids whose submit() has returned, in stream order; the leader closes
  /// slot t only once every bid of slots <= t is in.
  std::atomic<std::size_t> submitted{0};
};

loadgen::SoakStatus to_soak(net::BidStatus status) {
  switch (status) {
    case net::BidStatus::kAdmitted: return loadgen::SoakStatus::kAdmitted;
    case net::BidStatus::kRejected: return loadgen::SoakStatus::kRejected;
    case net::BidStatus::kShedFull: return loadgen::SoakStatus::kShedFull;
    case net::BidStatus::kShedClosed: return loadgen::SoakStatus::kShedClosed;
  }
  throw std::logic_error("unmapped bid status");
}

/// First subscriber on the service: stamps each decision as the service
/// emits it and sums the shards' on_slot time per slot. In-process it is
/// also the bidder (the decision reaches the bidder right here).
class ServiceProbe final : public service::DecisionSubscriber {
 public:
  ServiceProbe(Record& record, bool bidder) : rec_(record), bidder_(bidder) {}

  void on_admitted(const TaskOutcome& outcome, const Schedule&) override {
    note(outcome, loadgen::SoakStatus::kAdmitted);
  }
  void on_rejected(const TaskOutcome& outcome) override {
    note(outcome, loadgen::SoakStatus::kRejected);
  }
  void on_slot_end(const service::SlotReport& report) override {
    const auto s = static_cast<std::size_t>(report.slot);
    rec_.batch[s] = report.batch;
    rec_.queue_depth[s] = report.queue_depth;
    rec_.on_slot_seconds[s] = on_slot_;
    on_slot_ = 0.0;
  }

  [[nodiscard]] std::uint64_t unknown() const noexcept { return unknown_; }

 private:
  void note(const TaskOutcome& outcome, loadgen::SoakStatus status) {
    const std::int64_t t = now_ns();
    const std::uint64_t seq = loadgen::bid_seq(outcome.task);
    if (seq >= rec_.decided.size()) {
      ++unknown_;
      return;
    }
    rec_.decided[seq] = t;
    // Summed over the rounds the bid was offered in (ShardRunner times
    // Policy::on_slot and splits it evenly over the round's bids).
    on_slot_ += outcome.decide_seconds;
    if (bidder_) {
      rec_.recv[seq] = t;
      rec_.soak.record_response(0, seq, status, t);
    }
  }

  Record& rec_;
  const bool bidder_;
  double on_slot_ = 0.0;
  std::uint64_t unknown_ = 0;
};

/// A service ready to accept bids — for `wire`, behind the ingest port
/// with its shards on in-process host agents and one client connected.
/// Member order is teardown order reversed: the client goes first, the
/// agents last.
class Deployment {
 public:
  Deployment(const Plan& plan, Record& rec, ServiceProbe& probe)
      : env_(make_instance(scenario_for(plan))) {
    const PdftspConfig policy = pdftsp_config_for(env_);
    const shard::ShardedConfig config = sharded_config(plan);
    if (!plan.workload.wire) {
      service_ = std::make_unique<shard::ShardedService>(
          env_, shard::make_pdftsp_factory(policy), config);
      service_->add_subscriber(&probe);
      return;
    }

    for (int a = 0; a < kAgents; ++a) {
      net::HostAgent::Config agent_config;
      agent_config.idle_timeout = std::chrono::milliseconds(5000);
      agent_config.name = "agent-" + std::to_string(a);
      agents_.push_back(std::make_unique<net::HostAgent>(env_, agent_config));
      agents_.back()->start();
    }
    net::HelloMsg hello;
    hello.digest = net::env_digest(env_.cluster, env_.market, env_.horizon);
    hello.nodes = env_.cluster.node_count();
    hello.classes = env_.cluster.class_count();
    hello.horizon = env_.horizon;
    hello.shards_total = config.shards;
    for (const auto& agent : agents_) {
      net::LinkConfig link_config;
      link_config.port = agent->port();
      link_config.rpc_timeout = std::chrono::milliseconds(30000);
      link_config.metrics = &link_metrics_;
      links_.push_back(std::make_shared<net::AgentLink>(link_config, hello));
      links_.back()->connect();
    }
    const shard::HandleFactory remote =
        [&](int shard_id, std::vector<NodeId> members,
            const shard::ShardContext& ctx)
        -> std::unique_ptr<shard::ShardHandle> {
      return std::make_unique<net::RemoteShardHandle>(
          links_[static_cast<std::size_t>(shard_id) % links_.size()], policy,
          shard_id, std::move(members), ctx);
    };
    service_ = std::make_unique<shard::ShardedService>(env_, remote, config);
    // The probe stamps a decision before the ingest ships its frame.
    service_->add_subscriber(&probe);

    net::FirehoseIngest::Config ingest_config;
    ingest_config.expected_streams = 1;
    ingest_ = std::make_unique<net::FirehoseIngest>(
        ingest_config,
        [this, &rec](const Task& bid) {
          const std::uint64_t seq = loadgen::bid_seq(bid.id);
          const bool known = seq < rec.submit_enter.size();
          if (known) rec.submit_enter[seq] = now_ns();
          const service::SubmitResult result = service_->submit(bid);
          if (known) rec.submit_exit[seq] = now_ns();
          rec.submitted.fetch_add(1, std::memory_order_release);
          return result;
        },
        [this] { service_->close(); });
    ingest_sub_ = std::make_unique<net::IngestSubscriber>(*ingest_);
    service_->add_subscriber(ingest_sub_.get());

    net::Connection::Config client_config;
    client_config.outbox_capacity = 8192;
    client_ = std::make_unique<net::Connection>(
        net::Socket::connect("127.0.0.1", ingest_->port()), client_config,
        [&rec](net::Frame&& frame) {
          if (frame.type != net::MsgType::kBidDecision) return;
          const net::BidDecisionMsg m = net::decode_bid_decision(frame.payload);
          const std::int64_t t = now_ns();
          if (m.seq < rec.recv.size()) rec.recv[m.seq] = t;
          rec.soak.record_response(m.source, m.seq, to_soak(m.status), t);
        },
        // A connection lost mid-run shows up as lost bids.
        [](const std::string&) {});
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] shard::ShardedService& service() { return *service_; }
  [[nodiscard]] net::FirehoseIngest* ingest() { return ingest_.get(); }
  [[nodiscard]] net::Connection* client() { return client_.get(); }

  /// Frame bytes the leader's agent links sent plus received.
  [[nodiscard]] double link_bytes() const {
    double total = 0.0;
    for (const obs::MetricSnapshot& m : link_metrics_.snapshot()) {
      if (m.name.starts_with("lorasched_net_tx_bytes_") ||
          m.name.starts_with("lorasched_net_rx_bytes_")) {
        total += m.value;
      }
    }
    return total;
  }

 private:
  Instance env_;
  obs::MetricsRegistry link_metrics_;
  std::vector<std::unique_ptr<net::HostAgent>> agents_;
  std::vector<std::shared_ptr<net::AgentLink>> links_;
  std::unique_ptr<shard::ShardedService> service_;
  std::unique_ptr<net::FirehoseIngest> ingest_;
  std::unique_ptr<net::IngestSubscriber> ingest_sub_;
  std::unique_ptr<net::Connection> client_;
};

/// Counters read on the leader between steps at both ends of the
/// measured window; metrics use the difference.
struct Marks {
  double cpu = 0.0;
  std::uint64_t rerouted = 0;
  std::uint64_t reroute_admits = 0;
  double critical_seconds = 0.0;
  std::vector<obs::HistogramSnapshot> rounds;  // arm, offer, decide, publish
  double link_bytes = 0.0;
  double client_bytes = 0.0;
  double client_frames = 0.0;
};

constexpr const char* kRoundPhases[] = {"arm", "offer", "decide", "publish"};

Marks take_marks(Deployment& dep) {
  shard::ShardedService& service = dep.service();
  Marks m;
  m.cpu = cpu_seconds();
  m.rerouted = service.rerouted_bids();
  m.reroute_admits = service.reroute_admits();
  m.critical_seconds = service.critical_path_seconds();
  for (const char* phase : kRoundPhases) {
    m.rounds.push_back(
        service.registry()
            .histogram(std::string("lorasched_round_") + phase + "_seconds",
                       obs::HistogramOptions{.min = 1e-6, .max = 10.0})
            .snapshot());
  }
  m.link_bytes = dep.link_bytes();
  if (net::Connection* client = dep.client()) {
    m.client_bytes =
        static_cast<double>(client->bytes_sent() + client->bytes_received());
    m.client_frames =
        static_cast<double>(client->frames_sent() + client->frames_received());
  }
  return m;
}

/// Samples recorded between two snapshots of one histogram.
obs::HistogramSnapshot between(const obs::HistogramSnapshot& a,
                               const obs::HistogramSnapshot& b) {
  obs::HistogramSnapshot d = b;
  for (std::size_t i = 0; i < d.counts.size() && i < a.counts.size(); ++i) {
    d.counts[i] -= a.counts[i];
  }
  d.count -= a.count;
  d.sum -= a.sum;
  return d;
}

/// One completed span for the Chrome trace.
struct Span {
  std::string name;
  int tid = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::string id;
  std::string parent;
  std::int64_t task = -1;
  Slot slot = -1;
};

constexpr int kGeneratorTid = 1;
constexpr int kLeaderTid = 2;
constexpr int kIngestTid = 3;
constexpr int kClientTid = 4;
constexpr int kProfilerTidBase = 100;

/// Drains the library's span profiler after each step: the union of the
/// shard rounds' `shard/decide` spans inside the step gives the leader's
/// self time, and spans of the first kTraceSlots measured slots are kept
/// for the Chrome trace.
class ProfilerDrain {
 public:
  ProfilerDrain() {
    obs::Profiler& profiler = obs::Profiler::instance();
    profiler.reset();
    profiler.set_timeline(true);
    profiler.set_enabled(true);
  }
  ~ProfilerDrain() {
    obs::Profiler::instance().set_enabled(false);
    obs::Profiler::instance().set_timeline(false);
  }
  ProfilerDrain(const ProfilerDrain&) = delete;
  ProfilerDrain& operator=(const ProfilerDrain&) = delete;

  /// Returns the step's leader self time in ms.
  double absorb(Slot slot, std::int64_t step_start, std::int64_t step_end,
                bool keep, std::vector<Span>& spans) {
    obs::Profiler& profiler = obs::Profiler::instance();
    const std::vector<obs::SpanEvent> events = profiler.timeline_events();
    profiler.reset();
    std::vector<std::pair<std::int64_t, std::int64_t>> rounds;
    for (const obs::SpanEvent& e : events) {
      const std::string& name = site(e.site);
      const auto start = static_cast<std::int64_t>(e.start_ns);
      const std::int64_t end = start + static_cast<std::int64_t>(e.duration_ns);
      const bool inside = start >= step_start && end <= step_end;
      if (name == "shard/decide" && inside) rounds.emplace_back(start, end);
      if (keep) {
        spans.push_back(Span{name,
                             kProfilerTidBase + static_cast<int>(e.thread),
                             start, end, "",
                             inside ? "step/" + std::to_string(slot) : "", -1,
                             inside ? slot : -1});
      }
    }
    std::sort(rounds.begin(), rounds.end());
    std::int64_t covered = 0;
    std::int64_t reach = step_start;
    for (const auto& [start, end] : rounds) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    return static_cast<double>(step_end - step_start - covered) / 1e6;
  }

 private:
  const std::string& site(std::uint32_t index) {
    while (names_.size() <= index) {
      names_.push_back(obs::Profiler::instance().site_name(
          static_cast<std::uint32_t>(names_.size())));
    }
    return names_[index];
  }

  std::vector<std::string> names_;
};

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::int64_t epoch) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    obs::Json::Object args;
    if (!s.id.empty()) args["id"] = s.id;
    if (!s.parent.empty()) args["parent"] = s.parent;
    if (s.task >= 0) args["task"] = static_cast<long long>(s.task);
    if (s.slot >= 0) args["slot"] = static_cast<int>(s.slot);
    obs::Json::Object event;
    event["name"] = s.name;
    event["ph"] = "X";
    event["pid"] = 1;
    event["tid"] = s.tid;
    event["ts"] = static_cast<double>(s.start - epoch) / 1e3;
    event["dur"] = static_cast<double>(s.end - s.start) / 1e3;
    event["args"] = obs::Json(std::move(args));
    out << (first ? "" : ",\n") << obs::Json(std::move(event)).dump();
    first = false;
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("trace write failed: " + path);
}

struct Replay {
  std::uint64_t fingerprint = 0;
  double bids_per_s = 0.0;
  ScheduleDp::CacheStats dp;  // over the measured window
};

/// The same stream, unpaced, through a fresh identically configured
/// in-process service (remote shards are bit-identical to in-process
/// ones, so this also checks `wire` against the in-process path). Its
/// decisions equal the paced run's, so its policies' DP cache counters are
/// the paced run's too; they are read here, where every policy is local.
Replay replay(const Plan& plan, const std::vector<Task>& bids) {
  const Instance env = make_instance(scenario_for(plan));
  const shard::PolicyFactory pdftsp =
      shard::make_pdftsp_factory(pdftsp_config_for(env));
  std::vector<const Pdftsp*> policies;
  shard::ShardedService service(
      env,
      [&](const Cluster& cluster, const EnergyModel& energy, Slot horizon) {
        std::unique_ptr<Policy> policy = pdftsp(cluster, energy, horizon);
        if (const auto* p = dynamic_cast<const Pdftsp*>(policy.get())) {
          policies.push_back(p);
        }
        return policy;
      },
      sharded_config(plan));
  const auto dp_stats = [&policies] {
    ScheduleDp::CacheStats total;
    for (const Pdftsp* p : policies) {
      const ScheduleDp::CacheStats s = p->dp_cache_stats();
      total.hits += s.hits;
      total.misses += s.misses;
    }
    return total;
  };

  Replay out;
  ScheduleDp::CacheStats window_start;
  const util::Stopwatch watch;
  std::size_t next = 0;
  for (Slot t = 0; t < plan.horizon; ++t) {
    if (t == plan.warm) window_start = dp_stats();
    for (; next < bids.size() && bids[next].arrival == t; ++next) {
      if (service.queue().depth() >= kQueueCapacity) service.pump();
      if (service.submit(bids[next]) != service::SubmitResult::kAccepted) {
        throw std::logic_error("replay submit refused");
      }
    }
    service.step();
    if (t == plan.arrivals_end - 1) {
      const ScheduleDp::CacheStats end = dp_stats();
      out.dp.hits = end.hits - window_start.hits;
      out.dp.misses = end.misses - window_start.misses;
    }
  }
  const double seconds = watch.seconds();
  const SimResult result = service.finish();
  out.fingerprint = fingerprint(result.outcomes);
  out.bids_per_s = ratio(static_cast<double>(result.outcomes.size()), seconds);
  return out;
}

int run(const Plan& plan, const std::string& trace_out) {
  const std::int64_t period = kPeriodNs;
  const Slot measured = plan.arrivals_end - plan.warm;
  std::vector<std::string> errors;

  std::vector<Task> bids;
  {
    const Instance world = make_instance(scenario_for(plan));
    bids = make_stream(plan, world);
  }
  for (std::size_t i = 0; i < bids.size(); ++i) {
    if (loadgen::bid_seq(bids[i].id) != i) {
      throw std::logic_error("firehose stream is not densely sequenced");
    }
  }

  Record rec(bids.size(), plan.horizon);
  ServiceProbe probe(rec, !plan.workload.wire);

  std::vector<double> setup_seconds;
  std::unique_ptr<Deployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    const util::Stopwatch watch;
    dep = std::make_unique<Deployment>(plan, rec, probe);
    setup_seconds.push_back(watch.seconds());
  }
  shard::ShardedService& service = dep->service();

  std::unique_ptr<ProfilerDrain> profiler;
  if (plan.trace) profiler = std::make_unique<ProfilerDrain>();
  std::vector<Span> spans;
  const auto traced_slot = [&](Slot s) {
    return plan.trace && s >= plan.warm && s < plan.warm + kTraceSlots;
  };

  const service::SlotClock clock{std::chrono::nanoseconds(period)};
  const std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock.epoch().time_since_epoch())
          .count();
  const auto close_ns = [&](Slot s) {
    return epoch + (static_cast<std::int64_t>(s) + 1) * period;
  };

  // The generator: slot s's bids go out at s·P, whatever the service does.
  std::thread generator([&] {
    net::Connection* client = dep->client();
    std::size_t next = 0;
    for (Slot s = 0; s < plan.arrivals_end; ++s) {
      std::this_thread::sleep_until(clock.epoch() + clock.period() * s);
      const auto si = static_cast<std::size_t>(s);
      rec.gen_wake[si] = now_ns();
      for (; next < bids.size() && bids[next].arrival == s; ++next) {
        const Task& bid = bids[next];
        const std::uint64_t seq = next;
        const std::int64_t t = now_ns();
        rec.send[seq] = t;
        rec.soak.record_offered(0, seq, t);
        if (client != nullptr) {
          net::BidSubmitMsg msg;
          msg.source = 0;
          msg.seq = seq;
          msg.send_ns = t;
          msg.task = bid;
          if (!client->send(net::MsgType::kBidSubmit, net::encode(msg))) {
            return;  // connection gone: the rest counts as lost
          }
          continue;
        }
        rec.submit_enter[seq] = now_ns();
        const service::SubmitResult result = service.submit(bid);
        rec.submit_exit[seq] = now_ns();
        rec.submitted.fetch_add(1, std::memory_order_release);
        if (result != service::SubmitResult::kAccepted) {
          rec.soak.record_response(
              0, seq,
              result == service::SubmitResult::kRejectedClosed
                  ? loadgen::SoakStatus::kShedClosed
                  : loadgen::SoakStatus::kShedFull,
              now_ns());
        }
      }
      rec.gen_done[si] = now_ns();
    }
    if (client != nullptr) {
      net::BidStreamEndMsg end;
      end.source = 0;
      end.offered = next;
      client->send(net::MsgType::kBidStreamEnd, net::encode(end));
    } else {
      service.close();
    }
  });

  Marks start;
  Marks stop;
  try {
    std::uint64_t rerouted = 0;
    std::size_t due = 0;  // bids of slots <= t
    bool barrier = true;
    for (Slot t = 0; t < plan.horizon; ++t) {
      if (!service.idle()) clock.wait_slot_end(t);
      // A host stall can hold the generator past a slot's close. Wait for
      // the slot's bids instead of clamping them, which would change
      // decisions; the wait counts in the lag. After one timeout (a lost
      // connection) the leader stops waiting and the late-bid check rules.
      while (due < bids.size() && bids[due].arrival <= t) ++due;
      const std::int64_t give_up = now_ns() + kBarrierTimeoutNs;
      while (barrier && rec.submitted.load(std::memory_order_acquire) < due) {
        if (now_ns() > give_up) barrier = false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      if (t == plan.warm) start = take_marks(*dep);
      const auto ti = static_cast<std::size_t>(t);
      rec.step_start[ti] = now_ns();
      service.step();
      rec.step_end[ti] = now_ns();
      rec.offers[ti] = rec.batch[ti] + (service.rerouted_bids() - rerouted);
      rerouted = service.rerouted_bids();
      if (t == plan.arrivals_end - 1) stop = take_marks(*dep);
      if (profiler) {
        rec.leader_self_ms[ti] = profiler->absorb(
            t, rec.step_start[ti], rec.step_end[ti], traced_slot(t), spans);
      }
    }
  } catch (...) {
    // Unblock the generator (a blocked submit or send) before joining it.
    service.close();
    if (dep->client() != nullptr) dep->client()->fail("leader aborted");
    generator.join();
    throw;
  }
  generator.join();
  profiler.reset();

  if (dep->ingest() != nullptr) {
    const std::int64_t deadline = now_ns() + 10'000'000'000LL;
    while (rec.soak.outstanding() > 0 && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    dep->ingest()->stop();
  }

  SimResult result;
  try {
    result = service.finish();
  } catch (const std::exception& e) {
    errors.push_back(std::string("finish() cross-check failed: ") + e.what());
  }
  const loadgen::SoakReport soak = rec.soak.report();
  dep.reset();  // stops agents and connections before the replay runs

  // --- Correctness ----------------------------------------------------------
  const auto offered = static_cast<std::uint64_t>(bids.size());
  if (!soak.clean()) {
    errors.push_back(
        "bid accounting: lost " + std::to_string(soak.totals.lost) +
        ", out-of-order " + std::to_string(soak.totals.out_of_order) +
        ", duplicates " + std::to_string(soak.totals.duplicates) +
        ", unknown " + std::to_string(soak.totals.unknown));
  }
  if (soak.totals.offered != offered || soak.totals.shed != 0 ||
      soak.totals.admitted + soak.totals.rejected != offered) {
    errors.push_back("bid accounting: offered " +
                     std::to_string(soak.totals.offered) + " of " +
                     std::to_string(offered) + ", shed " +
                     std::to_string(soak.totals.shed));
  }
  if (probe.unknown() != 0) {
    errors.push_back("service decided " + std::to_string(probe.unknown()) +
                     " bids that were never offered");
  }
  std::uint64_t late_bids = 0;
  for (const TaskOutcome& o : result.outcomes) {
    const std::uint64_t seq = loadgen::bid_seq(o.task);
    if (seq < bids.size() && o.arrival != bids[seq].arrival) ++late_bids;
  }
  if (late_bids != 0) {
    errors.push_back("machine overloaded: " + std::to_string(late_bids) +
                     " bids reached the service after their slot closed and "
                     "were clamped, which changes decisions; the run is void");
  }
  if (result.outcomes.size() != bids.size() && errors.empty()) {
    errors.push_back("service emitted " +
                     std::to_string(result.outcomes.size()) + " outcomes for " +
                     std::to_string(bids.size()) + " bids");
  }
  const std::uint64_t paced_fp = fingerprint(result.outcomes);
  const Replay again = replay(plan, bids);
  if (again.fingerprint != paced_fp) {
    errors.push_back("replay fingerprint " + hex(again.fingerprint) +
                     " differs from the paced run's " + hex(paced_fp));
  }

  // --- Metrics over the measured window ------------------------------------
  const auto first = static_cast<std::size_t>(
      std::lower_bound(bids.begin(), bids.end(), plan.warm,
                       [](const Task& b, Slot s) { return b.arrival < s; }) -
      bids.begin());
  const std::size_t last = bids.size();  // arrivals stop at arrivals_end
  const double window_bids = static_cast<double>(last - first);

  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  std::vector<double> submit_transit_us;
  std::vector<double> decision_transit_us;
  std::size_t on_time = 0;
  for (std::size_t i = first; i < last; ++i) {
    submit_us.push_back(
        static_cast<double>(rec.submit_exit[i] - rec.submit_enter[i]) / 1e3);
    if (rec.recv[i] == 0) continue;  // never decided: a miss
    const auto lag =
        static_cast<double>(rec.recv[i] - close_ns(bids[i].arrival));
    lag_ms.push_back(lag / 1e6);
    if (lag <= static_cast<double>(period)) ++on_time;
    submit_transit_us.push_back(
        static_cast<double>(rec.submit_enter[i] - rec.send[i]) / 1e3);
    decision_transit_us.push_back(
        static_cast<double>(rec.recv[i] - rec.decided[i]) / 1e3);
  }

  std::vector<double> gen_late_ms;
  std::vector<double> step_late_ms;
  std::vector<double> step_ms;
  std::vector<double> on_slot_us;
  std::vector<double> self_ms;
  double step_seconds = 0.0;
  double decided = 0.0;
  double offers = 0.0;
  std::size_t queue_max = 0;
  for (Slot s = plan.warm; s < plan.arrivals_end; ++s) {
    const auto si = static_cast<std::size_t>(s);
    gen_late_ms.push_back(
        static_cast<double>(rec.gen_wake[si] - (epoch + s * period)) / 1e6);
    step_late_ms.push_back(
        static_cast<double>(rec.step_start[si] - close_ns(s)) / 1e6);
    const auto step =
        static_cast<double>(rec.step_end[si] - rec.step_start[si]);
    step_seconds += step / 1e9;
    decided += static_cast<double>(rec.batch[si]);
    offers += static_cast<double>(rec.offers[si]);
    queue_max = std::max(queue_max, rec.queue_depth[si]);
    // Step-shape percentiles cover slots with work (burst-k1 is mostly idle).
    if (rec.batch[si] > 0) {
      step_ms.push_back(step / 1e6);
      self_ms.push_back(rec.leader_self_ms[si]);
      on_slot_us.push_back(rec.on_slot_seconds[si] * 1e6 /
                           static_cast<double>(rec.offers[si]));
    }
  }
  std::uint64_t admitted = 0;
  for (const TaskOutcome& o : result.outcomes) {
    if (o.arrival >= plan.warm && o.arrival < plan.arrivals_end && o.admitted) {
      ++admitted;
    }
  }

  obs::Json::Object metrics;
  const auto put = [&metrics](const std::string& name, double value,
                              const char* unit) {
    metrics[name] = obs::Json::Object{{"value", value}, {"unit", unit}};
  };
  put("decision_lag_ms.p50", pct(lag_ms, 50), "ms");
  put("decision_lag_ms.p98", pct(lag_ms, 98), "ms");
  put("on_time_share", ratio(static_cast<double>(on_time), window_bids),
      "ratio");
  put("capacity_bids_per_s", ratio(decided, step_seconds), "1/s");
  put("cpu_ms_per_kbid", ratio((stop.cpu - start.cpu) * 1e3, decided / 1e3),
      "ms");
  put("failed_share",
      ratio(static_cast<double>(soak.totals.shed + soak.totals.lost),
            static_cast<double>(offered)),
      "ratio");
  put("social_welfare", result.metrics.social_welfare, "usd");
  put("setup_s", pct(setup_seconds, 50), "s");

  put("loadgen.late_ms.p98", pct(gen_late_ms, 98), "ms");
  put("service.submit_us.p50", pct(submit_us, 50), "us");
  put("service.submit_us.p99", pct(submit_us, 99), "us");
  put("service.queue_depth.max", static_cast<double>(queue_max), "count");
  put("service.step_start_late_ms.p50", pct(step_late_ms, 50), "ms");
  put("service.step_start_late_ms.p98", pct(step_late_ms, 98), "ms");
  put("service.late_bids", static_cast<double>(late_bids), "count");
  put("shard.step_ms.p50", pct(step_ms, 50), "ms");
  put("shard.step_ms.p98", pct(step_ms, 98), "ms");
  for (std::size_t p = 0; p < std::size(kRoundPhases); ++p) {
    put(std::string("shard.round_") + kRoundPhases[p] + "_ms.p50",
        between(start.rounds[p], stop.rounds[p]).percentile(50) * 1e3,
        "ms");
  }
  const double rounds =
      static_cast<double>(between(start.rounds[0], stop.rounds[0]).count);
  put("shard.rounds_per_slot", rounds / static_cast<double>(measured),
      "count");
  put("shard.critical_path_share",
      ratio(stop.critical_seconds - start.critical_seconds, step_seconds),
      "ratio");
  const auto rerouted = static_cast<double>(stop.rerouted - start.rerouted);
  put("shard.reroute_ratio", ratio(rerouted, decided), "ratio");
  put("shard.reroute_admit_ratio",
      ratio(static_cast<double>(stop.reroute_admits - start.reroute_admits),
            rerouted),
      "ratio");
  put("core.on_slot_us_per_bid.p50", pct(on_slot_us, 50), "us");
  put("core.on_slot_us_per_bid.p98", pct(on_slot_us, 98), "us");
  put("core.admit_ratio", ratio(static_cast<double>(admitted), window_bids),
      "ratio");
  const auto finds = static_cast<double>(again.dp.hits + again.dp.misses);
  put("core.dp_finds_per_bid", ratio(finds, offers), "count");
  put("core.dp_cache_hit_ratio",
      ratio(static_cast<double>(again.dp.hits), finds), "ratio");
  put("core.replay_bids_per_s", again.bids_per_s, "1/s");
  if (plan.trace) put("shard.leader_self_ms.p50", pct(self_ms, 50), "ms");
  if (plan.workload.wire) {
    put("net.decision_transit_us.p50", pct(decision_transit_us, 50), "us");
    put("net.decision_transit_us.p99", pct(decision_transit_us, 99), "us");
    put("net.submit_transit_us.p50", pct(submit_transit_us, 50), "us");
    put("net.submit_transit_us.p99", pct(submit_transit_us, 99), "us");
    put("net.client_bytes_per_bid",
        ratio(stop.client_bytes - start.client_bytes, decided), "count");
    put("net.client_frames_per_bid",
        ratio(stop.client_frames - start.client_frames, decided), "count");
    put("net.agent_bytes_per_bid",
        ratio(stop.link_bytes - start.link_bytes, decided), "count");
  }

  if (plan.trace && !trace_out.empty()) {
    const Slot trace_end = std::min(plan.warm + kTraceSlots, plan.arrivals_end);
    for (Slot s = plan.warm; s < trace_end; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const std::string slot_id = std::to_string(s);
      spans.push_back(Span{"loadgen.send_slot", kGeneratorTid, rec.gen_wake[si],
                           rec.gen_done[si], "send/" + slot_id, "", -1, s});
      spans.push_back(Span{"shard.step", kLeaderTid, rec.step_start[si],
                           rec.step_end[si], "step/" + slot_id, "", -1, s});
    }
    for (std::size_t i = first; i < last; ++i) {
      const Slot s = bids[i].arrival;
      if (!traced_slot(s)) break;
      const std::string send_id = "send/" + std::to_string(s);
      const std::string bid_id = "bid/" + std::to_string(i);
      const auto task = static_cast<std::int64_t>(bids[i].id);
      if (plan.workload.wire) {
        spans.push_back(Span{"net.submit_transit", kGeneratorTid, rec.send[i],
                             rec.submit_enter[i], bid_id + "/submit_transit",
                             send_id, task, s});
        spans.push_back(Span{"service.submit", kIngestTid, rec.submit_enter[i],
                             rec.submit_exit[i], bid_id + "/submit",
                             bid_id + "/submit_transit", task, s});
        spans.push_back(Span{"net.decision_transit", kClientTid, rec.decided[i],
                             rec.recv[i], bid_id + "/decision_transit",
                             "step/" + std::to_string(s), task, s});
      } else {
        spans.push_back(Span{"service.submit", kGeneratorTid,
                             rec.submit_enter[i], rec.submit_exit[i],
                             bid_id + "/submit", send_id, task, s});
      }
    }
    write_chrome_trace(trace_out, spans, epoch);
  }

  obs::Json::Array error_list;
  for (const std::string& e : errors) error_list.emplace_back(e);
  obs::Json::Object doc;
  doc["workload"] = plan.workload.name;
  doc["seed"] = static_cast<unsigned long long>(plan.seed);
  doc["measured_slots"] = static_cast<int>(measured);
  doc["trace"] = plan.trace;
  doc["correct"] = errors.empty();
  doc["errors"] = obs::Json(std::move(error_list));
  doc["attempted"] = static_cast<unsigned long long>(offered);
  doc["failed"] =
      static_cast<unsigned long long>(soak.totals.shed + soak.totals.lost);
  doc["fingerprint"] = hex(paced_fp);
  doc["replay_fingerprint"] = hex(again.fingerprint);
  doc["simd"] = simd::kernel_name(simd::active_kernel());
  doc["metrics"] = obs::Json(std::move(metrics));
  std::cout << obs::Json(std::move(doc)).dump() << "\n";
  for (const std::string& e : errors) std::cerr << "e2e: FAILED: " << e << "\n";
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  cli.allow_only(
      {"workload", "seed", "seconds", "trace", "trace-out", "smoke"});
  const std::string name = cli.get("workload", "");
  Plan plan;
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      plan.workload = w;
      found = true;
    }
  }
  if (!found) throw std::invalid_argument("unknown --workload '" + name + "'");
  plan.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  plan.trace = cli.get_int("trace", 0) != 0;
  plan.nodes = plan.workload.nodes;
  plan.rate = plan.workload.rate;
  plan.warm = kWarmSlots;
  Slot measured = static_cast<Slot>(
      cli.get_int("seconds", 18) * 1'000'000'000LL / kPeriodNs);
  Slot tail = kTailSlots;
  if (cli.get_int("smoke", 0) != 0) {
    // 40 slots on a 32-node fleet at the same load per node.
    plan.rate *= 32.0 / static_cast<double>(plan.nodes);
    plan.nodes = 32;
    plan.warm = 8;
    measured = 24;
    tail = 8;
  }
  if (measured <= 0) throw std::invalid_argument("--seconds must be positive");
  plan.arrivals_end = plan.warm + measured;
  plan.horizon = plan.arrivals_end + tail;
  return run(plan, cli.get("trace-out", ""));
} catch (const std::exception& e) {
  std::cerr << "e2e_bench: error: " << e.what() << "\n";
  return 2;
}
