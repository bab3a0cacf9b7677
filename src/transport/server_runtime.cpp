#include "transport/server_runtime.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "wire/crc32c.hpp"
#include "wire/update_codec.hpp"

namespace fedbiad::transport {

namespace {

std::vector<std::size_t> populated_ids(const data::Partition& partition) {
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < partition.size(); ++k) {
    if (!partition[k].empty()) ids.push_back(k);
  }
  return ids;
}

}  // namespace

ServerRuntime::ServerRuntime(TransportServerConfig cfg,
                             ServerTransport& transport,
                             nn::ModelFactory factory,
                             data::DatasetPtr test_data,
                             data::Partition partition,
                             fl::StrategyPtr strategy)
    : cfg_(std::move(cfg)),
      transport_(transport),
      strategy_(std::move(strategy)),
      populated_(populated_ids(partition)),
      core_(fl::ServerCoreConfig{.base = cfg_.base,
                                 .mode = cfg_.mode,
                                 .staleness = cfg_.staleness,
                                 .buffer_size = cfg_.buffer_size,
                                 .checkpoint = cfg_.checkpoint,
                                 .engine = std::string("transport-") +
                                           fl::to_string(cfg_.mode),
                                 .scenario = cfg_.scenario_name},
            *this, factory, std::move(test_data), populated_,
            partition.size(), strategy_) {
  FEDBIAD_CHECK(cfg_.max_upload_attempts > 0, "need at least one attempt");
  FEDBIAD_CHECK(!cfg_.checkpoint.enabled() ||
                    cfg_.mode == fl::AggregationMode::kBarrier,
                "transport checkpoints require barrier mode (its commit "
                "boundary has no in-flight work to serialize)");
  transport_.set_handler(this);
  transport_.set_tick_hook([this] { return drain_decodes(); });
}

void ServerRuntime::start() {
  if (cfg_.decode_workers > 0) {
    decode_pool_ = std::make_unique<DecodePool>(
        cfg_.decode_workers, cfg_.decode_queue_depth, *strategy_,
        core_.layout());
  }
  // On resume the core replays the dispatch the original run performed
  // right after writing the snapshot — same restored rng, same wave.
  core_.start();
}

void ServerRuntime::restore(checkpoint::EngineSnapshot& snap) {
  // Nothing scheduled survives a transport commit boundary, and wall time
  // never enters a snapshot: its clock stays 0.
  FEDBIAD_CHECK(snap.jobs.empty() && snap.events.empty(),
                "transport snapshots must be quiescent");
}

void ServerRuntime::dispatch(std::size_t client, std::size_t slot,
                             std::uint64_t rng_stream) {
  FEDBIAD_CHECK(inflight_.find(client) == inflight_.end(),
                "client dispatched while already in flight");
  InFlight inf;
  inf.msg = {.dispatch_index = core_.dispatched(),
             .round = core_.version() + 1,
             .slot = slot,
             .model_version = core_.version(),
             .rng_stream = rng_stream,
             .broadcast = {}};
  inf.broadcast = core_.broadcast();
  if (inf.broadcast != crc_broadcast_) {
    crc_broadcast_ = inf.broadcast;
    broadcast_crc_ = wire::crc32c(crc_broadcast_->bytes);
  }
  inf.broadcast_crc = broadcast_crc_;
  if (cfg_.dispatch_deadline_seconds > 0.0) {
    inf.deadline = std::make_unique<DeadlineTimer>(
        transport_.scheduler(), cfg_.dispatch_deadline_seconds);
    inf.deadline->arm([this, client] {
      // No accepted upload in time: the churn-abandon path. The client may
      // still upload later — that delivery finds no in-flight record and
      // is dedup-dropped.
      auto it = inflight_.find(client);
      if (it == inflight_.end()) return;
      inflight_.erase(it);
      core_.abandon(client);
    });
  }
  inflight_.emplace(client, std::move(inf));
  try_send_dispatch(client);
}

void ServerRuntime::try_send_dispatch(std::size_t client) {
  auto inf = inflight_.find(client);
  if (inf == inflight_.end() || inf->second.sent) return;
  auto sess = client_session_.find(client);
  if (sess == client_session_.end()) return;  // offline; retried on Hello
  // The frame CRC combines the head's with the version's cached one, so
  // no dispatch rereads the model to checksum it.
  const wire::SharedBytes& model = inf->second.broadcast->bytes;
  if (!transport_.send(sess->second, FrameType::kDispatch,
                       encode_dispatch_head(inf->second.msg, model.size()),
                       model, inf->second.broadcast_crc)) {
    // Backpressure: the dispatch stays unsent; on_drain retries. The
    // in-flight record (and its deadline) already exists, so a peer that
    // never drains is abandoned like any straggler.
    ++result_.backpressure_deferrals;
    return;
  }
  inf->second.sent = true;
}

void ServerRuntime::finished() {
  if (fin_broadcast_) return;
  fin_broadcast_ = true;
  const FinMsg fin{cfg_.base.rounds};
  for (const auto& [session, info] : sessions_) {
    if (info.client != Session::kUnbound) {
      send_control(session, FrameType::kFin, encode(fin));
    }
  }
}

void ServerRuntime::send_control(SessionId session, FrameType type,
                                 std::vector<std::uint8_t> body) {
  // A session can die between an upload's arrival and its decode
  // finishing; the state effects still apply (the frame *was* delivered),
  // but there is no peer left to tell — the client re-learns on reconnect.
  if (sessions_.find(session) == sessions_.end()) return;
  auto parked = parked_.find(session);
  if (parked != parked_.end() && !parked->second.empty()) {
    // Keep ordering: earlier control frames are still waiting.
    parked->second.push_back({type, std::move(body)});
  } else if (!transport_.send(session, type, body)) {
    ++result_.backpressure_deferrals;
    parked_[session].push_back({type, std::move(body)});
    parked = parked_.find(session);
  } else {
    return;
  }
  if (parked_[session].size() > cfg_.max_parked_control) {
    // Shedding, not buffering: a peer that cannot drain its control
    // traffic loses the session before the server's memory grows.
    transport_.close(session, "backpressure overflow");
  }
}

void ServerRuntime::on_open(SessionId session) {
  sessions_.emplace(session, Session{});
}

void ServerRuntime::on_close(SessionId session, const std::string& reason) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  const std::size_t client = it->second.client;
  sessions_.erase(it);
  parked_.erase(session);
  if (client != Session::kUnbound) {
    auto bound = client_session_.find(client);
    // Guard against reconnect supersession: only unbind if the client is
    // still bound to *this* session, not to a newer one.
    if (bound != client_session_.end() && bound->second == session) {
      client_session_.erase(bound);
    }
  }
  if (reason.find("deadline exceeded") != std::string::npos) {
    ++result_.connections_evicted;
  }
  // The in-flight record (if any) survives the disconnect: the client may
  // reconnect and resume; the dispatch deadline bounds how long we wait.
}

void ServerRuntime::on_drain(SessionId session) {
  auto parked = parked_.find(session);
  if (parked != parked_.end()) {
    while (!parked->second.empty()) {
      ParkedFrame& f = parked->second.front();
      if (!transport_.send(session, f.type, f.body)) {
        ++result_.backpressure_deferrals;
        return;  // still saturated; the next drain continues
      }
      parked->second.pop_front();
    }
    parked_.erase(session);
  }
  auto it = sessions_.find(session);
  if (it == sessions_.end() || it->second.client == Session::kUnbound) return;
  try_send_dispatch(it->second.client);
}

void ServerRuntime::on_frame(SessionId session, Frame&& frame) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  const bool bound = it->second.client != Session::kUnbound;
  switch (frame.type) {
    case FrameType::kHello:
      if (bound) {
        // A second Hello on a live session is a protocol violation (replay
        // or a confused client) — drop the connection, keep the session
        // state for a clean reconnect.
        transport_.close(session, "handshake replay");
        return;
      }
      handle_hello(session, frame);
      return;
    case FrameType::kUpload:
      if (!bound) {
        transport_.close(session, "expected handshake before upload");
        return;
      }
      handle_upload(session, frame);
      return;
    default:
      transport_.close(session, std::string("unexpected ") +
                                    to_string(frame.type) +
                                    " frame on the server");
      return;
  }
}

void ServerRuntime::handle_hello(SessionId session, const Frame& frame) {
  HelloMsg msg;
  try {
    msg = decode_hello(frame.body);
  } catch (const wire::DecodeError& e) {
    transport_.close(session, std::string("malformed hello: ") + e.what());
    return;
  }
  const std::size_t client = static_cast<std::size_t>(msg.client_id);
  if (!std::binary_search(populated_.begin(), populated_.end(), client)) {
    transport_.close(session, "hello from unknown client " +
                                  std::to_string(client));
    return;
  }
  auto meta = meta_.find(client);
  if (meta != meta_.end() && (meta->second.first != msg.payload_kind ||
                              meta->second.second != msg.payload_aux)) {
    transport_.close(session, "payload metadata changed across sessions");
    return;
  }
  meta_.emplace(client, std::make_pair(msg.payload_kind, msg.payload_aux));

  auto old = client_session_.find(client);
  if (old != client_session_.end() && old->second != session) {
    // Reconnect while the old connection is still up (the server hasn't
    // noticed the drop yet): the new connection wins.
    transport_.close(old->second, "superseded by reconnect");
  }
  auto token = issued_token_.find(client);
  const bool resumed =
      msg.session_token != 0 && token != issued_token_.end() &&
      token->second == msg.session_token;
  const std::uint64_t fresh = ++token_counter_;
  issued_token_[client] = fresh;
  sessions_[session].client = client;
  client_session_[client] = session;
  ++result_.sessions_opened;
  if (resumed) ++result_.sessions_resumed;

  WelcomeMsg welcome;
  welcome.session_token = fresh;
  welcome.version = core_.version();
  welcome.resumed = resumed ? 1 : 0;
  send_control(session, FrameType::kWelcome, encode(welcome));
  if (fin_broadcast_) {
    send_control(session, FrameType::kFin, encode(FinMsg{cfg_.base.rounds}));
    return;
  }
  // A dispatch parked while the client was offline (or lost with the old
  // connection) goes out now.
  auto inf = inflight_.find(client);
  if (inf != inflight_.end()) {
    inf->second.sent = false;
    try_send_dispatch(client);
  }
}

void ServerRuntime::handle_upload(SessionId session, const Frame& frame) {
  // Submit half: capture everything the completion needs — including the
  // arrival clock, so timestamps don't depend on when a worker runs — and
  // hand the sealed payload to the decode pool (or decode inline).
  const std::size_t client = sessions_[session].client;
  const auto& [kind, aux] = meta_.at(client);
  std::unique_ptr<DecodeJob> job;
  try {
    job = upload_job(frame, session, client,
                     static_cast<wire::PayloadKind>(kind), aux,
                     transport_.now());
  } catch (const wire::DecodeError& e) {
    transport_.close(session, std::string("malformed upload: ") + e.what());
    return;
  }

  if (decode_pool_ == nullptr) {
    job->decode(*strategy_, core_.layout());
    finish_upload(*job);
    return;
  }

  // Decode-queue backpressure, the send-budget discipline mirrored: a full
  // queue parks the arrival (behind any earlier parked upload, so finish
  // order stays arrival order), and an overflowing park buffer sheds the
  // submitting session before memory grows. The shed upload's dispatch
  // stays in flight — the deadline or a retry on reconnect resolves it,
  // so conservation holds.
  if (parked_uploads_.empty() && decode_pool_->try_submit(job)) return;
  ++result_.decode_parked;
  parked_uploads_.push_back(std::move(job));
  if (parked_uploads_.size() > cfg_.max_parked_uploads) {
    std::unique_ptr<DecodeJob> shed = std::move(parked_uploads_.back());
    parked_uploads_.pop_back();
    ++result_.decode_shed;
    core_.charge_delivery(shed->framed_bytes);
    transport_.close(shed->session, "decode backpressure overflow");
  }
}

void ServerRuntime::finish_upload(DecodeJob& job) {
  auto it = inflight_.find(job.client);
  if (it == inflight_.end() ||
      it->second.msg.dispatch_index != job.dispatch_index) {
    // The duplicate-drop path: a re-sent upload whose dispatch
    // already resolved (committed, abandoned, or rejected) is charged to
    // the delivery ledger and Ack'd so the client stops retrying — it is
    // never aggregated, so commits stay at-most-once. With workers this
    // check must run at finish time: an earlier arrival still in the
    // decode queue may resolve the same dispatch first.
    core_.charge_delivery(job.framed_bytes);
    send_control(job.session, FrameType::kUploadAck,
                 encode(UploadAckMsg{job.dispatch_index}));
    return;
  }
  InFlight& inf = it->second;

  if (!job.status.ok) {
    core_.charge_delivery(job.framed_bytes);
    // Retryable until the attempt budget drains; then the rejection is
    // terminal and resolves the dispatch.
    const bool retry = inf.attempts < cfg_.max_upload_attempts;
    send_control(job.session, FrameType::kReject,
                 encode(RejectMsg{job.dispatch_index, retry, job.status.error}));
    if (retry) {
      ++inf.attempts;
    } else {
      inflight_.erase(it);
      core_.reject(job.client);
    }
    return;
  }

  fl::PendingUpdate up;
  up.slot = inf.msg.slot;
  up.dispatch_version = inf.msg.model_version;
  // Decoded: the compact view is all the commit reads. Its values borrow
  // the frame's storage, which lives until the commit drops the update;
  // the payload slice itself is no longer needed.
  job.outcome.payload.bytes = {};
  up.outcome = std::move(job.outcome);
  inflight_.erase(it);
  send_control(job.session, FrameType::kUploadAck,
               encode(UploadAckMsg{job.dispatch_index}));
  core_.arrive(job.client, std::move(up));
}

bool ServerRuntime::drain_decodes() {
  if (decode_pool_ == nullptr || draining_decodes_) return false;
  draining_decodes_ = true;
  bool did_work = false;
  for (;;) {
    // Harvest *everything* before finishing *anything*: workers are idle
    // while finish_upload commits, so decode reads of the strategy and
    // parameter layout never overlap the transport thread's mutations.
    std::vector<std::unique_ptr<DecodeJob>> done = decode_pool_->harvest();
    for (const auto& job : done) finish_upload(*job);
    bool resubmitted = false;
    while (!parked_uploads_.empty() &&
           decode_pool_->try_submit(parked_uploads_.front())) {
      parked_uploads_.pop_front();
      resubmitted = true;
    }
    if (done.empty() && !resubmitted) break;
    did_work = true;
  }
  draining_decodes_ = false;
  return did_work;
}

TransportServerResult ServerRuntime::finish() {
  // Late arrivals may still be on the decode workers; their dispatches are
  // in flight until finished, so drain before the ledgers are read.
  (void)drain_decodes();
  finished();
  // Give farewell traffic a chance to flush (acks, Fin frames). Parked
  // frames for peers that never drain are abandoned with their sessions.
  for (int i = 0; i < 20; ++i) transport_.step(0.01);
  result_.sim = core_.take_result();
  return result_;
}

TransportServerResult ServerRuntime::run() {
  start();
  while (!done()) pump(0.05);
  return finish();
}

}  // namespace fedbiad::transport
