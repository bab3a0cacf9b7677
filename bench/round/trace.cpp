#include "trace.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <utility>

#include "calibration.hpp"
#include "common/check.hpp"

namespace fedbiad::bench_round {

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  FEDBIAD_CHECK(::sched_getaffinity(0, sizeof allowed, &allowed) == 0,
                "sched_getaffinity failed");
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  FEDBIAD_CHECK(cpu >= 0, "no CPU to run on");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  FEDBIAD_CHECK(::sched_setaffinity(0, sizeof one, &one) == 0,
                "sched_setaffinity failed");
  return cpu;
}

double now_s() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) +
         1e-9 * static_cast<double>(t.tv_nsec) - calibration_s();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

const char* to_string(Cat cat) {
  switch (cat) {
    case Cat::kRunClient: return "run_client";
    case Cat::kDecode: return "decode";
    case Cat::kBeginRound: return "begin_round";
    case Cat::kEndRound: return "end_round";
    case Cat::kSaveState: return "save_state";
    case Cat::kStep: return "step";
    case Cat::kTick: return "tick";
    case Cat::kOnFrame: return "on_frame";
    case Cat::kSend: return "send";
    case Cat::kGen: return "gen";
  }
  return "?";
}

// ------------------------------------------------------------------ Tracer --

void Tracer::record(const Span& span) {
  std::scoped_lock lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::take() {
  std::scoped_lock lock(mutex_);
  return std::exchange(spans_, {});
}

Tracer::Scope::Scope(Tracer* tracer, Cat cat, std::uint8_t frame,
                     std::uint64_t a0, std::uint64_t a1)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.cat = cat;
  span_.frame = frame;
  span_.tid = thread_index();
  span_.a0 = a0;
  span_.a1 = a1;
  span_.begin = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = now_s();
  tracer_->record(span_);
}

// --------------------------------------------------------- ClockedStrategy --

ClockedStrategy::ClockedStrategy(fl::StrategyPtr inner, Tracer* tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  FEDBIAD_CHECK(inner_ != nullptr, "strategy required");
}

fl::ClientOutcome ClockedStrategy::run_client(fl::ClientContext& ctx) {
  const double begin = now_s();
  fl::ClientOutcome out = inner_->run_client(ctx);
  const double end = now_s();
  if (tracer_ != nullptr) {
    tracer_->record({Cat::kRunClient, 0, thread_index(), begin, end,
                     ctx.client_id, ctx.round});
  }
  std::scoped_lock lock(ready_mutex_);
  ready_[ctx.round].push_back(end);
  return out;
}

wire::Decoded ClockedStrategy::decode_payload(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  Tracer::Scope span(tracer_, Cat::kDecode);
  return inner_->decode_payload(layout, payload);
}

wire::CompactUpdate ClockedStrategy::decode_payload_compact(
    const nn::ParameterStore& layout, const wire::Payload& payload) const {
  Tracer::Scope span(tracer_, Cat::kDecode);
  return inner_->decode_payload_compact(layout, payload);
}

void ClockedStrategy::begin_round(std::size_t round,
                                  std::span<const float> global_params) {
  Tracer::Scope span(tracer_, Cat::kBeginRound);
  if (first_begin_ == 0.0) first_begin_ = now_s();
  inner_->begin_round(round, global_params);
}

void ClockedStrategy::end_round(std::size_t round,
                                std::span<const float> old_global,
                                std::span<const float> new_global) {
  Tracer::Scope span(tracer_, Cat::kEndRound);
  const double t = now_s();
  commits_.push_back(t);
  {
    // Hooks never overlap run_client, so every upload of this round has
    // returned by now.
    std::scoped_lock lock(ready_mutex_);
    auto it = ready_.find(round);
    if (it != ready_.end()) {
      for (const double r : it->second) {
        ready_to_commit_.emplace_back(t, 1e3 * (t - r));
      }
      ready_.erase(it);
    }
  }
  inner_->end_round(round, old_global, new_global);
  calibrate_if_due();
}

std::vector<std::uint8_t> ClockedStrategy::save_state() const {
  Tracer::Scope span(tracer_, Cat::kSaveState);
  return inner_->save_state();
}

// --------------------------------------------------------- TracedTransport --

void TracedTransport::set_handler(
    transport::ServerTransport::Handler* handler) {
  handler_ = handler;
  inner_.set_handler(this);
}

void TracedTransport::set_tick_hook(std::function<bool()> hook) {
  if (!hook) {
    inner_.set_tick_hook({});
    return;
  }
  inner_.set_tick_hook([this, hook = std::move(hook)] {
    Tracer::Scope span(&tracer_, Cat::kTick);
    return hook();
  });
}

bool TracedTransport::send(transport::SessionId session,
                           transport::FrameType type,
                           std::span<const std::uint8_t> body) {
  Tracer::Scope span(&tracer_, Cat::kSend, static_cast<std::uint8_t>(type), 0,
                     transport::frame_wire_size(body.size()));
  return inner_.send(session, type, body);
}

void TracedTransport::step(double max_wait_seconds) {
  Tracer::Scope span(&tracer_, Cat::kStep);
  inner_.step(max_wait_seconds);
}

void TracedTransport::on_open(transport::SessionId session) {
  handler_->on_open(session);
}

void TracedTransport::on_frame(transport::SessionId session,
                               transport::Frame&& frame) {
  Tracer::Scope span(&tracer_, Cat::kOnFrame,
                     static_cast<std::uint8_t>(frame.type));
  handler_->on_frame(session, std::move(frame));
}

void TracedTransport::on_close(transport::SessionId session,
                               const std::string& reason) {
  handler_->on_close(session, reason);
}

void TracedTransport::on_drain(transport::SessionId session) {
  handler_->on_drain(session);
}

// ----------------------------------------------------------------- analyse --

namespace {

std::string label_of(const Span& s) {
  const char* frame =
      transport::to_string(static_cast<transport::FrameType>(s.frame));
  if (s.cat == Cat::kOnFrame) return std::string("on_") + frame;
  if (s.cat == Cat::kSend) return std::string("send_") + frame;
  return to_string(s.cat);
}

bool is_handler(const std::string& label) {
  return label.rfind("on_", 0) == 0 || label == "tick";
}

struct Segment {
  double begin;
  double end;
  std::string label;
};

/// Partitions [first begin, last end] of one thread's properly nested spans
/// into segments labelled with the innermost open span ("untraced" where no
/// span is open), so each segment is exactly one span's self time.
std::vector<Segment> flatten(std::vector<const Span*> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
    return a->begin != b->begin ? a->begin < b->begin : a->end > b->end;
  });
  std::vector<Segment> out;
  std::vector<std::pair<double, std::string>> stack;  // (end, label)
  double t = spans.empty() ? 0.0 : spans.front()->begin;
  auto emit = [&out](double b, double e, const std::string& label) {
    if (e > b) out.push_back({b, e, label});
  };
  auto pop_until = [&](double limit) {
    while (!stack.empty() && stack.back().first <= limit) {
      emit(t, stack.back().first, stack.back().second);
      t = std::max(t, stack.back().first);
      stack.pop_back();
    }
  };
  for (const Span* s : spans) {
    pop_until(s->begin);
    emit(t, s->begin, stack.empty() ? "untraced" : stack.back().second);
    t = std::max(t, s->begin);
    // A child never outlives its parent on one thread; clamp clock jitter.
    const double end = stack.empty() ? s->end
                                     : std::min(s->end, stack.back().first);
    stack.emplace_back(end, label_of(*s));
  }
  pop_until(std::numeric_limits<double>::infinity());
  return out;
}

/// Server work that no public boundary exposes runs inside frame handlers
/// right around the commit hooks: aggregation just before end_round, then
/// the model copy, evaluation and checkpoint write until the next span.
/// Those handler self-time pieces are moved to "untraced"; in the engine
/// the gap after begin_round is its wait for client training.
void relabel(std::vector<Segment>& segs, bool in_process) {
  for (std::size_t k = 0; k < segs.size(); ++k) {
    if (in_process && segs[k].label == "begin_round" && k + 1 < segs.size() &&
        segs[k + 1].begin == segs[k].end && segs[k + 1].label == "untraced") {
      segs[k + 1].label = "train_wait";
    }
    if (segs[k].label != "end_round") continue;
    if (k > 0 && segs[k - 1].end == segs[k].begin &&
        is_handler(segs[k - 1].label)) {
      segs[k - 1].label = "untraced";
    }
    for (std::size_t j = k + 1;
         j < segs.size() && segs[j].begin == segs[j - 1].end; ++j) {
      if (is_handler(segs[j].label)) {
        segs[j].label = "untraced";
      } else if (segs[j].label != "end_round" &&
                 segs[j].label != "save_state") {
        break;
      }
    }
  }
}

}  // namespace

void Breakdown::merge(const Breakdown& other) {
  commits += other.commits;
  interval_s += other.interval_s;
  for (const auto& [k, v] : other.self_s) self_s[k] += v;
  for (const auto& [k, v] : other.op_s) op_s[k] += v;
  for (const auto& [k, v] : other.op_count) op_count[k] += v;
  send_bytes += other.send_bytes;
  run_client_s += other.run_client_s;
}

Breakdown analyse(const EpisodeTrace& trace, std::size_t warmup,
                  bool in_process) {
  const std::vector<double>& commits = trace.commits;
  Breakdown out;
  FEDBIAD_CHECK(warmup >= 1 && commits.size() > warmup,
                "traced episode has no commits past warm-up");
  const double lo = commits[warmup - 1];
  const double hi = commits.back();
  out.commits = commits.size() - warmup;
  out.interval_s = hi - lo;

  std::vector<const Span*> server;
  for (const Span& s : trace.spans) {
    if (s.tid == trace.server_tid) server.push_back(&s);
    if (s.begin < lo || s.begin >= hi) continue;
    const std::string label = label_of(s);
    out.op_s[label] += s.end - s.begin;
    out.op_count[label] += 1;
    if (s.cat == Cat::kSend) out.send_bytes += static_cast<double>(s.a1);
    if (s.cat == Cat::kRunClient) out.run_client_s += s.end - s.begin;
  }
  std::vector<Segment> segs = flatten(std::move(server));
  relabel(segs, in_process);
  for (const Segment& seg : segs) {
    const double b = std::max(seg.begin, lo);
    const double e = std::min(seg.end, hi);
    if (e > b) out.self_s[seg.label] += e - b;
  }
  return out;
}

// ------------------------------------------------------------ chrome trace --

void write_chrome_trace(const std::string& path, const std::string& workload,
                        const std::vector<const EpisodeTrace*>& episodes) {
  std::ofstream os(path);
  FEDBIAD_CHECK(static_cast<bool>(os), "cannot write trace file " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": \""
     << workload << "\"},\n\"traceEvents\": [";
  bool first = true;
  char buf[256];
  auto event = [&](const std::string& name, std::size_t pid, std::uint32_t tid,
                   double begin, double end, std::uint64_t a0,
                   std::uint64_t a1) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"a0\": %llu, \"a1\": %llu}}",
                  first ? "" : ",", name.c_str(), pid, tid, 1e6 * begin,
                  1e6 * (end - begin), static_cast<unsigned long long>(a0),
                  static_cast<unsigned long long>(a1));
    os << buf;
    first = false;
  };
  // Round spans go on their own track, above every thread.
  constexpr std::uint32_t kRoundTrack = 0xFFFF;
  for (std::size_t ep = 0; ep < episodes.size(); ++ep) {
    const EpisodeTrace& t = *episodes[ep];
    for (std::size_t i = 1; i < t.commits.size(); ++i) {
      event("round", ep + 1, kRoundTrack, t.commits[i - 1], t.commits[i], i + 1,
            0);
    }
    for (const Span& s : t.spans) {
      event(label_of(s), ep + 1, s.tid, s.begin, s.end, s.a0, s.a1);
    }
  }
  os << "\n]}\n";
  os.flush();
  FEDBIAD_CHECK(os.good(), "failed writing trace file " + path);
}

}  // namespace fedbiad::bench_round
