#include "transport/decode_pool.hpp"

#include <utility>

#include "common/check.hpp"
#include "transport/protocol.hpp"

namespace fedbiad::transport {

void DecodeJob::decode(const fl::Strategy& strategy,
                       const nn::ParameterStore& layout) {
  const fl::DecodeContext ctx{
      .client_id = client,
      .dispatch_seq = static_cast<std::size_t>(dispatch_index),
      .clock = arrival_clock,
      .sealed_crc = sealed_crc};
  status = fl::try_decode_outcome_compact(strategy, layout, outcome,
                                          /*framed=*/true, ctx);
}

std::unique_ptr<DecodeJob> upload_job(const Frame& frame, SessionId session,
                                      std::size_t client,
                                      wire::PayloadKind kind, std::uint8_t aux,
                                      double arrival_clock) {
  UploadMsg msg = decode_upload(frame);
  auto job = std::make_unique<DecodeJob>();
  job->session = session;
  job->client = client;
  job->dispatch_index = msg.dispatch_index;
  job->framed_bytes = msg.payload.size();
  job->arrival_clock = arrival_clock;
  job->sealed_crc = msg.payload_crc;
  fl::ClientOutcome& out = job->outcome;
  out.client_id = client;
  out.samples = static_cast<std::size_t>(msg.samples);
  out.is_update = msg.is_update != 0;
  out.train_seconds = msg.train_seconds;
  out.mean_loss = msg.mean_loss;
  out.last_loss = msg.last_loss;
  out.payload.kind = kind;
  out.payload.aux = aux;
  out.payload.bytes = std::move(msg.payload);
  return job;
}

DecodePool::DecodePool(std::size_t workers, std::size_t depth,
                       const fl::Strategy& strategy,
                       const nn::ParameterStore& layout)
    : strategy_(strategy),
      layout_(layout),
      pool_(workers),
      results_(pool_, depth > 0 ? depth : 2 * workers) {
  FEDBIAD_CHECK(workers > 0, "decode pool needs at least one worker");
}

bool DecodePool::try_submit(std::unique_ptr<DecodeJob>& job) {
  if (results_.full()) return false;
  FEDBIAD_CHECK(job != nullptr, "null decode job");
  const bool ok = results_.try_submit([this, j = std::move(job)]() mutable {
    j->decode(strategy_, layout_);
    return std::move(j);
  });
  // Single consumer: full() was false above, so the submit cannot refuse
  // (a refusal here would have discarded the moved-from job).
  FEDBIAD_CHECK(ok, "decode queue full after full() check");
  return true;
}

std::vector<std::unique_ptr<DecodeJob>> DecodePool::harvest() {
  std::vector<std::unique_ptr<DecodeJob>> out;
  (void)results_.drain(
      [&out](std::unique_ptr<DecodeJob>&& job) { out.push_back(std::move(job)); });
  return out;
}

}  // namespace fedbiad::transport
