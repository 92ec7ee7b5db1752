#include "lorasched/net/firehose_ingest.h"

#include <stdexcept>
#include <utility>

namespace lorasched::net {

namespace {

BidStatus shed_status(service::SubmitResult result) noexcept {
  return result == service::SubmitResult::kRejectedClosed
             ? BidStatus::kShedClosed
             : BidStatus::kShedFull;
}

}  // namespace

FirehoseIngest::FirehoseIngest(Config config, SubmitFn submit,
                               QuiesceFn on_quiesce)
    : config_(config),
      submit_(std::move(submit)),
      on_quiesce_(std::move(on_quiesce)),
      listener_(config.port),
      port_(listener_.port()) {
  if (!submit_) {
    throw std::invalid_argument("FirehoseIngest needs a submit function");
  }
  if (config_.metrics != nullptr) {
    bids_in_ = &config_.metrics->counter(
        "lorasched_ingest_bids_total", "Bids received on the ingest port");
    sheds_ = &config_.metrics->counter(
        "lorasched_ingest_sheds_total",
        "Wire bids shed at the queue (full or closed)");
    decisions_out_ = &config_.metrics->counter(
        "lorasched_ingest_decisions_sent_total",
        "Decision frames shipped back to firehose clients");
  }
  acceptor_ = std::thread([this] { accept_main(); });
}

FirehoseIngest::~FirehoseIngest() { stop(); }

void FirehoseIngest::accept_main() {
  while (true) {
    Socket socket;
    try {
      socket = listener_.accept();
    } catch (const TransportError&) {
      return;  // interrupted by stop()
    }
    auto client = std::make_shared<Client>();
    Connection::Config conn_config;
    conn_config.outbox_capacity = config_.outbox_capacity;
    conn_config.metrics = config_.metrics;
    // Weak capture: the Client owns the Connection owns this lambda, so a
    // shared capture would be a cycle that leaks every connection.
    const std::weak_ptr<Client> weak = client;
    client->conn = std::make_unique<Connection>(
        std::move(socket), conn_config,
        [this, weak](Frame&& frame) {
          if (const std::shared_ptr<Client> live = weak.lock()) {
            handle_frame(live, std::move(frame));
          }
        },
        [](const std::string&) {});
    util::MutexLock lock(mutex_);
    if (stopped_) return;  // raced with stop(); Client teardown closes it
    clients_.push_back(std::move(client));
  }
}

void FirehoseIngest::handle_frame(const std::shared_ptr<Client>& client,
                                  Frame&& frame) {
  switch (frame.type) {
    case MsgType::kBidSubmit:
      handle_submit(client, decode_bid_submit(frame.payload));
      return;
    case MsgType::kBidStreamEnd:
      handle_stream_end(decode_bid_stream_end(frame.payload));
      return;
    default:
      client->conn->fail("unexpected " + std::string(to_string(frame.type)) +
                         " frame on the ingest port");
      return;
  }
}

void FirehoseIngest::handle_submit(const std::shared_ptr<Client>& client,
                                   BidSubmitMsg&& msg) {
  if (bids_in_ != nullptr) bids_in_->add(1);
  const TaskId id = msg.task.id;
  {
    // Park before submitting: the consumer thread may decide this bid (and
    // call on_decision) before submit_() even returns.
    util::MutexLock lock(mutex_);
    pending_[id] = Pending{client, msg.source, msg.seq, msg.send_ns};
  }
  const service::SubmitResult result = submit_(msg.task);
  if (result == service::SubmitResult::kAccepted) return;
  {
    util::MutexLock lock(mutex_);
    pending_.erase(id);
  }
  if (sheds_ != nullptr) sheds_->add(1);
  BidDecisionMsg reply;
  reply.source = msg.source;
  reply.seq = msg.seq;
  reply.send_ns = msg.send_ns;
  reply.task = id;
  reply.status = shed_status(result);
  // This runs on the connection's reader thread, so the blocking send()
  // is off-limits; a shed during outbox overload drops the reply and the
  // client accounts the bid as lost — visible, not wedged.
  if (!client->conn->try_send(MsgType::kBidDecision, encode(reply))) {
    replies_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FirehoseIngest::handle_stream_end(const BidStreamEndMsg& msg) {
  QuiesceFn quiesce;
  {
    util::MutexLock lock(mutex_);
    ended_sources_.insert(msg.source);
    if (!quiesced_ && config_.expected_streams > 0 &&
        ended_sources_.size() >=
            static_cast<std::size_t>(config_.expected_streams)) {
      quiesced_ = true;
      quiesce = on_quiesce_;
    }
  }
  if (quiesce) quiesce();
}

void FirehoseIngest::on_decision(TaskId task, bool admitted, Money payment,
                                 Slot decided_slot) {
  Pending entry;
  {
    util::MutexLock lock(mutex_);
    const auto it = pending_.find(task);
    if (it == pending_.end()) return;  // locally fed bid, not ours
    entry = std::move(it->second);
    pending_.erase(it);
  }
  BidDecisionMsg reply;
  reply.source = entry.source;
  reply.seq = entry.seq;
  reply.send_ns = entry.send_ns;
  reply.task = task;
  reply.status = admitted ? BidStatus::kAdmitted : BidStatus::kRejected;
  reply.payment = payment;
  reply.decided_slot = decided_slot;
  // Consumer thread: the blocking send is allowed and gives end-to-end
  // backpressure against a client that stops reading decisions.
  if (entry.client->conn->send(MsgType::kBidDecision, encode(reply))) {
    if (decisions_out_ != nullptr) decisions_out_->add(1);
  } else {
    replies_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FirehoseIngest::stop(std::chrono::milliseconds budget) {
  {
    util::MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  listener_.interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  std::vector<std::shared_ptr<Client>> clients;
  {
    util::MutexLock lock(mutex_);
    clients.swap(clients_);
  }
  for (const std::shared_ptr<Client>& client : clients) {
    client->conn->drain(budget);
  }
  clients.clear();  // destroys the connections (joins their threads)
}

std::size_t FirehoseIngest::pending() const {
  util::MutexLock lock(mutex_);
  return pending_.size();
}

std::size_t FirehoseIngest::streams_ended() const {
  util::MutexLock lock(mutex_);
  return ended_sources_.size();
}

}  // namespace lorasched::net
