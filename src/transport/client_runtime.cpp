#include "transport/client_runtime.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "wire/compact.hpp"

namespace fedbiad::transport {

namespace {
double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

ClientRuntime::ClientRuntime(TransportClientConfig cfg,
                             ClientTransport& transport,
                             nn::ModelFactory factory,
                             data::DatasetPtr train_data,
                             std::vector<std::size_t> shard,
                             fl::StrategyPtr strategy)
    : cfg_(std::move(cfg)),
      transport_(transport),
      train_data_(std::move(train_data)),
      shard_(std::move(shard)),
      strategy_(std::move(strategy)),
      client_rng_base_(cfg_.base.seed) {
  FEDBIAD_CHECK(factory != nullptr, "model factory required");
  FEDBIAD_CHECK(train_data_ != nullptr, "train dataset required");
  FEDBIAD_CHECK(strategy_ != nullptr, "strategy required");
  FEDBIAD_CHECK(!shard_.empty(), "client shard is empty");
  FEDBIAD_CHECK(cfg_.outcome_cache_size > 0, "outcome cache cannot be empty");
  model_ = factory();
  transport_.set_handler(this);
}

void ClientRuntime::start() {
  down_since_ = clock_.now();
  try_connect();
}

void ClientRuntime::try_connect() {
  if (transport_.connected()) return;
  const double now = clock_.now();
  if (down_since_ && now - *down_since_ > cfg_.reconnect_timeout_seconds) {
    failed_ = true;
    return;
  }
  if (last_dial_ >= 0.0 && now - last_dial_ < cfg_.reconnect_interval_seconds) {
    return;
  }
  last_dial_ = now;
  if (!transport_.connect()) return;
  if (session_token_ != 0) ++reconnects_;
  down_since_.reset();
  HelloMsg hello;
  hello.client_id = cfg_.client_id;
  hello.session_token = session_token_;  // 0 on the very first dial
  hello.payload_kind = static_cast<std::uint8_t>(cfg_.payload_kind);
  hello.payload_aux = cfg_.payload_aux;
  if (!transport_.send(FrameType::kHello, encode(hello))) {
    return;  // connection died under us; the next pump re-dials
  }
}

void ClientRuntime::pump(double max_wait_seconds) {
  if (finished_ || failed_) return;
  if (!transport_.connected()) {
    try_connect();
    if (!transport_.connected() && !failed_) {
      // Dial throttled or refused: don't spin the CPU while the server is
      // down (real sockets only — the loopback connect never fails).
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return;
  }
  transport_.step(max_wait_seconds);
}

bool ClientRuntime::run() {
  start();
  while (!finished_ && !failed_) pump(0.05);
  return finished_;
}

void ClientRuntime::on_close(const std::string& /*reason*/) {
  if (!down_since_) down_since_ = clock_.now();
}

void ClientRuntime::on_frame(Frame&& frame) {
  try {
    switch (frame.type) {
      case FrameType::kWelcome: {
        const WelcomeMsg msg = decode_welcome(frame.body);
        session_token_ = msg.session_token;
        if (outstanding_) {
          // Session resumed with an un-acked upload outstanding: re-send
          // it. If the server also re-dispatches the same index, the
          // duplicate is absorbed by its dedup path.
          send_upload(*outstanding_, cache_.at(outstanding_stream_));
        }
        return;
      }
      case FrameType::kDispatch:
        handle_dispatch(decode_dispatch(frame.body));
        return;
      case FrameType::kUploadAck: {
        const UploadAckMsg msg = decode_upload_ack(frame.body);
        if (outstanding_ && *outstanding_ == msg.dispatch_index) {
          outstanding_.reset();
        }
        return;
      }
      case FrameType::kReject: {
        const RejectMsg msg = decode_reject(frame.body);
        if (!outstanding_ || *outstanding_ != msg.dispatch_index) return;
        if (msg.retry != 0) {
          ++attempt_;  // a fresh attempt gets a fresh corruption draw
          send_upload(*outstanding_, cache_.at(outstanding_stream_));
        } else {
          outstanding_.reset();  // terminal: the server gave up on us
        }
        return;
      }
      case FrameType::kFin:
        finished_ = true;
        return;
      default:
        transport_.shutdown();  // server sent nonsense; re-dial clean
        return;
    }
  } catch (const wire::DecodeError&) {
    // A malformed server frame means the stream is unusable.
    transport_.shutdown();
  }
}

void ClientRuntime::handle_dispatch(const DispatchMsg& msg) {
  if (outstanding_ && *outstanding_ == msg.dispatch_index) {
    return;  // upload already in flight for this dispatch (resume overlap)
  }
  auto cached = cache_.find(msg.rng_stream);
  if (cached == cache_.end()) {
    UploadMsg um = train(msg);
    cache_order_.push_back(msg.rng_stream);
    while (cache_order_.size() > cfg_.outcome_cache_size) {
      cache_.erase(cache_order_.front());
      cache_order_.pop_front();
    }
    cached = cache_.emplace(msg.rng_stream, std::move(um)).first;
  }
  // A replay after server crash-and-resume re-issues the same stream; the
  // index is authoritative from the *current* dispatch.
  cached->second.dispatch_index = msg.dispatch_index;
  outstanding_ = msg.dispatch_index;
  outstanding_stream_ = msg.rng_stream;
  attempt_ = 1;
  send_upload(msg.dispatch_index, cached->second);
}

UploadMsg ClientRuntime::train(const DispatchMsg& msg) {
  // Decode the broadcast straight into the model: dense f32 is lossless,
  // so the local model starts bit-identical to the engine's snapshot. The
  // strategy diffs against a copy, as the engine's clients do.
  const std::span<float> params = model_->store().params();
  wire::decode_dense_f32(msg.broadcast, params);
  const std::vector<float> global(params.begin(), params.end());

  // The engine's client rng chain, reproduced remotely: the stream id
  // travelled in the Dispatch, the rest is config.
  tensor::Rng ctx_rng =
      client_rng_base_.split(0x1000 + cfg_.client_id).split(msg.rng_stream);
  fl::ClientContext ctx{
      .client_id = cfg_.client_id,
      .round = static_cast<std::size_t>(msg.round),
      .model = *model_,
      .global_params = global,
      .dataset = *train_data_,
      .shard = shard_,
      .settings = cfg_.base.train,
      .rng = ctx_rng,
      .model_version = static_cast<std::size_t>(msg.model_version),
      .dispatch_clock = 0.0,
      .deadline_seconds = 0.0,
  };
  const auto start = std::chrono::steady_clock::now();
  fl::ClientOutcome out = strategy_->run_client(ctx);
  out.train_seconds = seconds_since(start);
  ++trainings_run_;
  FEDBIAD_CHECK(out.payload.kind == cfg_.payload_kind &&
                    out.payload.aux == cfg_.payload_aux,
                "strategy emitted a payload kind other than the one "
                "announced in the handshake");
  // Fault-tolerant sessions seal every upload; the server verifies and
  // strips the trailer before the section decoder runs.
  wire::seal_payload(out.payload);

  UploadMsg um;
  um.dispatch_index = msg.dispatch_index;
  um.samples = out.samples;
  um.is_update = out.is_update ? 1 : 0;
  um.train_seconds = out.train_seconds;
  um.mean_loss = out.mean_loss;
  um.last_loss = out.last_loss;
  um.payload = std::move(out.payload.bytes);
  return um;
}

void ClientRuntime::send_upload(std::uint64_t dispatch_index,
                                const UploadMsg& upload) {
  UploadMsg wire_msg = upload;
  wire_msg.dispatch_index = dispatch_index;
  if (cfg_.corrupt_probability > 0.0 && !wire_msg.payload.empty()) {
    // Deterministic injection: keyed per attempt so a retry redraws — with
    // p < 1 the retry path recovers, with p = 1 the retry budget drains
    // into a terminal rejection. The flip lands inside the sealed payload,
    // so it is the CRC trailer (not the frame crc) that catches it.
    tensor::Rng r = tensor::Rng(cfg_.corrupt_seed)
                        .split(cfg_.client_id)
                        .split(dispatch_index)
                        .split(attempt_);
    if (r.bernoulli(cfg_.corrupt_probability)) {
      // The cached payload is shared; flip the bit in a copy.
      std::vector<std::uint8_t> damaged(wire_msg.payload.begin(),
                                        wire_msg.payload.end());
      const std::size_t bit = r.uniform_index(damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      wire_msg.payload = std::move(damaged);
    }
  }
  const auto head = encode_upload_head(wire_msg, wire_msg.payload.size());
  if (!transport_.send(FrameType::kUpload, head, wire_msg.payload)) {
    return;  // connection died; Welcome after reconnect re-sends
  }
  ++uploads_sent_;
  if (cfg_.drop_connection_after_uploads > 0 && !drop_fired_ &&
      uploads_sent_ >= cfg_.drop_connection_after_uploads) {
    // Chaos: die right after the upload leaves, before any ack lands —
    // the reconnect + resume + dedup path has to absorb it.
    drop_fired_ = true;
    transport_.shutdown();
  }
}

}  // namespace fedbiad::transport
