// Clock and instrumentation for bench_round, defined entirely outside the
// library: decorators around the public Strategy and ServerTransport
// interfaces, so the system under test is the unmodified library.
//
//   ClockedStrategy   present in every run. Timestamps begin_round (the end
//                     of set-up), end_round (the commit clock; the engine's
//                     RoundRecord clock is virtual) and, in the in-process
//                     engine, run_client's return (the start of an upload's
//                     wait for the server). After each commit it runs the
//                     calibration kernels when due. With a Tracer it records
//                     spans for run_client (worker threads, tagged with
//                     client and round), decode_payload_compact, the round
//                     hooks and save_state.
//   TracedTransport   traced runs only: spans for step, each frame handler
//                     by frame type, the tick hook, and send (with bytes).
//
// Spans are kept in memory and analysed (or written as Chrome trace-event
// JSON, which opens in Perfetto) when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fl/strategy.hpp"
#include "transport/transport.hpp"

namespace fedbiad::bench_round {

/// Restricts the process, and every thread and child process it starts
/// afterwards, to the last CPU it may run on; returns that CPU. Call before
/// starting any thread.
int pin_to_one_cpu();

/// The benchmark's clock: CPU seconds used by the whole process. With the
/// process on one CPU, this is one timeline shared by all its threads, the
/// time a dedicated core would have taken. It leaves out the time the
/// hypervisor gives that CPU to other guests ("steal"), which on a shared
/// host changes by tens of percent from one minute to the next, the time
/// no thread of the process can run, and the calibration kernels' CPU time
/// (calibration.hpp).
[[nodiscard]] double now_s();

/// Small dense id of the calling thread, stable for the process lifetime.
[[nodiscard]] std::uint32_t thread_index();

enum class Cat : std::uint8_t {
  kRunClient,
  kDecode,
  kBeginRound,
  kEndRound,
  kSaveState,
  kStep,
  kTick,
  kOnFrame,  ///< frame handler; `frame` holds the FrameType
  kSend,     ///< transport send; `frame` holds the FrameType, a1 the bytes
  kGen,      ///< the benchmark's own client-side work
};

[[nodiscard]] const char* to_string(Cat cat);

struct Span {
  Cat cat = Cat::kRunClient;
  std::uint8_t frame = 0;
  std::uint32_t tid = 0;
  double begin = 0.0;  ///< now_s()
  double end = 0.0;
  std::uint64_t a0 = 0;  ///< run_client: client id
  std::uint64_t a1 = 0;  ///< run_client: round; send: bytes
};

/// Thread-safe in-memory span store.
class Tracer {
 public:
  void record(const Span& span);
  [[nodiscard]] std::vector<Span> take();

  /// RAII span on the calling thread; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, Cat cat, std::uint8_t frame = 0,
          std::uint64_t a0 = 0, std::uint64_t a1 = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Strategy decorator; forwards every virtual to `inner` unchanged, so the
/// trajectory is identical with or without it.
class ClockedStrategy final : public fl::Strategy {
 public:
  ClockedStrategy(fl::StrategyPtr inner, Tracer* tracer);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  fl::ClientOutcome run_client(fl::ClientContext& ctx) override;
  [[nodiscard]] wire::Decoded decode_payload(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override;
  [[nodiscard]] wire::CompactUpdate decode_payload_compact(
      const nn::ParameterStore& layout,
      const wire::Payload& payload) const override;
  void begin_round(std::size_t round,
                   std::span<const float> global_params) override;
  void end_round(std::size_t round, std::span<const float> old_global,
                 std::span<const float> new_global) override;
  [[nodiscard]] fl::AggregationRule aggregation_rule() const override {
    return inner_->aggregation_rule();
  }
  [[nodiscard]] std::uint64_t downlink_bytes(
      std::size_t param_count) const override {
    return inner_->downlink_bytes(param_count);
  }
  [[nodiscard]] double compute_cost_multiplier() const override {
    return inner_->compute_cost_multiplier();
  }
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  void load_state(std::span<const std::uint8_t> bytes) override {
    inner_->load_state(bytes);
  }

  /// now_s() of the first begin_round (0 before it).
  [[nodiscard]] double first_begin() const { return first_begin_; }
  /// now_s() at entry to each end_round, in commit order.
  [[nodiscard]] const std::vector<double>& commits() const { return commits_; }
  /// In-process engine: (commit time, ms from run_client's return to that
  /// commit) for every committed upload.
  [[nodiscard]] const std::vector<std::pair<double, double>>& ready_to_commit()
      const {
    return ready_to_commit_;
  }

 private:
  fl::StrategyPtr inner_;
  Tracer* tracer_;
  double first_begin_ = 0.0;
  std::vector<double> commits_;
  std::mutex ready_mutex_;
  std::map<std::size_t, std::vector<double>> ready_;  ///< round → returns
  std::vector<std::pair<double, double>> ready_to_commit_;
};

/// ServerTransport decorator recording spans; the runtime is handed this
/// object, the benchmark's clients attach to the inner backend.
class TracedTransport final : public transport::ServerTransport,
                              public transport::ServerTransport::Handler {
 public:
  TracedTransport(transport::ServerTransport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  // ServerTransport
  void set_handler(transport::ServerTransport::Handler* handler) override;
  void set_tick_hook(std::function<bool()> hook) override;
  [[nodiscard]] bool send(transport::SessionId session,
                          transport::FrameType type,
                          std::span<const std::uint8_t> body) override;
  [[nodiscard]] std::size_t send_space(
      transport::SessionId session) const override {
    return inner_.send_space(session);
  }
  void close(transport::SessionId session, const std::string& reason) override {
    inner_.close(session, reason);
  }
  void step(double max_wait_seconds) override;
  [[nodiscard]] fl::EventScheduler& scheduler() override {
    return inner_.scheduler();
  }
  [[nodiscard]] double now() const override { return inner_.now(); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

  // Handler (installed on the inner backend)
  void on_open(transport::SessionId session) override;
  void on_frame(transport::SessionId session,
                transport::Frame&& frame) override;
  void on_close(transport::SessionId session,
                const std::string& reason) override;
  void on_drain(transport::SessionId session) override;

 private:
  transport::ServerTransport& inner_;
  Tracer& tracer_;
  transport::ServerTransport::Handler* handler_ = nullptr;
};

/// What one traced episode leaves behind.
struct EpisodeTrace {
  std::vector<Span> spans;
  std::vector<double> commits;  ///< end_round entry times
  std::uint32_t server_tid = 0;  ///< the engine / transport thread
};

/// Per-commit breakdown of the server (or engine) thread, from one traced
/// episode. Segment shares partition each commit interval: the named spans'
/// self times plus `untraced` (aggregate, eval, checkpoint write and
/// scheduling, which no public call boundary exposes).
struct Breakdown {
  std::size_t commits = 0;      ///< intervals analysed (after warm-up)
  double interval_s = 0.0;      ///< their summed length
  /// Summed self seconds per category on the server thread, plus the
  /// synthetic "train_wait" (engine blocked on client training) and
  /// "untraced" categories.
  std::map<std::string, double> self_s;
  /// Whole-run per-operation totals over every thread.
  std::map<std::string, double> op_s;      ///< summed span seconds
  std::map<std::string, double> op_count;  ///< span counts
  double send_bytes = 0.0;                 ///< bytes sent in the window
  double run_client_s = 0.0;  ///< run_client seconds inside the window

  void merge(const Breakdown& other);
};

/// Builds the breakdown of one traced episode: the commit intervals after
/// `warmup` commits. Spans of the server thread are flattened into
/// self-time segments; `in_process` marks the engine's wait for training
/// (the gap right after begin_round).
[[nodiscard]] Breakdown analyse(const EpisodeTrace& trace, std::size_t warmup,
                                bool in_process);

/// Writes the episodes as Chrome trace-event JSON ("X" complete events in
/// µs, one pid per episode), plus a "round" span from each commit to the
/// next.
void write_chrome_trace(const std::string& path, const std::string& workload,
                        const std::vector<const EpisodeTrace*>& episodes);

}  // namespace fedbiad::bench_round
