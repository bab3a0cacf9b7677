// Decode-on-arrival worker pool for the server ingest pipeline.
//
// PR 9's runtime verified and decoded every sealed upload on the one
// transport thread, serializing CRC verification and payload decode behind
// socket I/O. DecodePool moves that work onto a private ThreadPool: the
// transport thread submits a DecodeJob per upload frame at delivery time,
// workers run DecodeJob::decode (seal verification + compact decode — the
// side-effect-free step), and the transport thread
// harvests finished jobs at the event loop's scheduler tick.
//
// Determinism contract: jobs come back in submission order (see
// parallel::OrderedResults), and every server-state mutation — dedup
// checks, ledgers, aggregator offers, commits — happens on the transport
// thread when a job is finished, in that order. Worker count therefore
// changes *when* decode cycles burn, never the order of observable
// effects: trajectories are bit-identical at any worker count, including
// zero (the inline path).
//
// Threading contract: submit/harvest/pending run on the transport thread
// only. Workers touch nothing but their own job (the strategy's
// decode_payload_compact is const and allocates locally; the parameter
// layout is shape metadata, immutable after model construction). The
// transport thread harvests *all* outstanding jobs before finishing any of
// them, so no worker is ever decoding while a commit mutates the global
// model or strategy round state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fl/strategy.hpp"
#include "parallel/ordered_results.hpp"
#include "parallel/thread_pool.hpp"
#include "transport/transport.hpp"

namespace fedbiad::transport {

/// One sealed upload in flight through the decode pool. Built on the
/// transport thread at frame-delivery time (capturing the arrival clock,
/// so timestamps are independent of when a worker gets to the job),
/// decoded on a worker, finished on the transport thread.
struct DecodeJob {
  SessionId session = 0;
  std::size_t client = 0;
  std::uint64_t dispatch_index = 0;
  std::uint64_t framed_bytes = 0;  ///< on-the-wire payload size, for ledgers
  double arrival_clock = 0.0;      ///< transport now() at frame delivery
  /// wire::crc32c of the sealed payload, derived from its frame's verified
  /// CRC (fl::DecodeContext::sealed_crc); empty when not known.
  std::optional<std::uint32_t> sealed_crc;
  fl::ClientOutcome outcome;       ///< payload in, compact view out
  fl::DecodeStatus status;         ///< set by decode()

  /// The receive step's second half: verifies the payload seal and decodes
  /// the payload into outcome.compact, setting `status`. Runs on a
  /// DecodePool worker, or inline on the transport thread.
  void decode(const fl::Strategy& strategy, const nn::ParameterStore& layout);
};

/// The receive step's first half, on the transport thread: the job for one
/// Upload frame from `client`, whose session announced payload `kind` and
/// `aux`, delivered at `arrival_clock`. The payload stays a slice of the
/// frame, and its seal's CRC comes from the frame's (decode_upload). Throws
/// wire::DecodeError when the body is malformed.
[[nodiscard]] std::unique_ptr<DecodeJob> upload_job(
    const Frame& frame, SessionId session, std::size_t client,
    wire::PayloadKind kind, std::uint8_t aux, double arrival_clock);

class DecodePool {
 public:
  /// `workers` decode threads; at most `depth` jobs submitted and not yet
  /// harvested (arrivals beyond that park — the caller's backpressure).
  /// `strategy` and `layout` must outlive the pool and stay unmutated
  /// while any job is outstanding (harvest-before-finish guarantees this
  /// for the runtime's commit path).
  DecodePool(std::size_t workers, std::size_t depth,
             const fl::Strategy& strategy, const nn::ParameterStore& layout);

  /// Schedules the seal-verify + compact-decode of `job` on a worker.
  /// Returns false — leaving `job` untouched — when `depth` jobs are
  /// already in flight.
  [[nodiscard]] bool try_submit(std::unique_ptr<DecodeJob>& job);

  /// Blocks until every outstanding job has decoded and returns them in
  /// submission order. Empty when nothing was in flight.
  [[nodiscard]] std::vector<std::unique_ptr<DecodeJob>> harvest();

  [[nodiscard]] std::size_t pending() const noexcept {
    return results_.pending();
  }
  [[nodiscard]] std::size_t depth() const noexcept { return results_.depth(); }
  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }

 private:
  const fl::Strategy& strategy_;
  const nn::ParameterStore& layout_;
  parallel::ThreadPool pool_;
  parallel::OrderedResults<std::unique_ptr<DecodeJob>> results_;
};

}  // namespace fedbiad::transport
