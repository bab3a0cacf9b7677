#include "fl/server_core.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <utility>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace fedbiad::fl {

namespace {

/// Async top-ups key each client's training rng on this plus the global
/// dispatch counter; barrier waves key it on the round number.
constexpr std::uint64_t kAsyncStreamBase = 0x10000;

}  // namespace

const char* to_string(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kBarrier:
      return "barrier";
    case AggregationMode::kFedAsync:
      return "fedasync";
    case AggregationMode::kBufferedK:
      return "buffered";
  }
  return "?";
}

void staleness_merge(ShardedAccumulator& acc, std::span<float> global,
                     const std::vector<PendingUpdate>& batch,
                     const StalenessConfig& cfg, std::size_t commit_version) {
  FEDBIAD_CHECK(!batch.empty(), "staleness merge with no updates");
  std::vector<FusedUpdate> fused(batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const PendingUpdate& up = batch[k];
    FEDBIAD_CHECK(commit_version >= up.dispatch_version,
                  "update from the future");
    const auto staleness =
        static_cast<double>(commit_version - up.dispatch_version);
    fused[k].update = &up.outcome.compact;
    fused[k].weight = static_cast<double>(up.outcome.samples) *
                      std::pow(1.0 + staleness, -cfg.exponent);
    fused[k].is_update = up.outcome.is_update;
  }
  acc.merge(global, fused, cfg.mixing_rate);
}

bool IdleSet::is_idle(std::size_t pos) const {
  FEDBIAD_DCHECK(pos < n_, "idle-set position out of range");
  return !std::binary_search(busy_.begin(), busy_.end(), pos);
}

void IdleSet::set_busy(std::size_t pos) {
  FEDBIAD_DCHECK(pos < n_, "idle-set position out of range");
  const auto it = std::lower_bound(busy_.begin(), busy_.end(), pos);
  FEDBIAD_CHECK(it == busy_.end() || *it != pos,
                "idle-set position already busy");
  busy_.insert(it, pos);
}

void IdleSet::set_idle(std::size_t pos) {
  const auto it = std::lower_bound(busy_.begin(), busy_.end(), pos);
  FEDBIAD_CHECK(it != busy_.end() && *it == pos,
                "idle-set position was not busy");
  busy_.erase(it);
}

std::size_t IdleSet::select(std::size_t j) const {
  FEDBIAD_CHECK(j < idle_count(), "idle-set order statistic out of range");
  // g(x) = x − |{busy ≤ x}| counts the idle positions strictly below x —
  // non-decreasing in steps of 0/1, so the j-th idle position is the
  // leftmost x with g(x) == j, found by binary search on g(x) ≥ j. That x
  // is idle: a busy x has g(x) == g(x−1), contradicting leftmost-ness. The
  // comparison is phrased subtraction-free (x ≥ j + |busy ≤ x|) because a
  // fully-busy prefix makes x − |busy ≤ x| underflow in unsigned math.
  std::size_t lo = j;                 // g(x) ≤ x, so the answer is ≥ j
  std::size_t hi = j + busy_.size();  // g(j + busy) ≥ j
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto below = static_cast<std::size_t>(
        std::upper_bound(busy_.begin(), busy_.end(), mid) - busy_.begin());
    if (mid >= j + below) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void ServerDriver::retry_later() {
  FEDBIAD_CHECK(false, "no client can be selected and the driver cannot wait");
}

ServerCore::ServerCore(ServerCoreConfig cfg, ServerDriver& driver,
                       const nn::ModelFactory& factory,
                       data::DatasetPtr test_data,
                       const std::vector<std::size_t>& populated,
                       std::size_t population, StrategyPtr strategy)
    : cfg_(std::move(cfg)),
      driver_(driver),
      test_data_(std::move(test_data)),
      populated_(populated),
      strategy_(std::move(strategy)),
      hooks_(cfg_.hooks),
      scan_availability_(hooks_ != nullptr && !hooks_->always_available()),
      per_commit_(cfg_.mode == AggregationMode::kBufferedK ? cfg_.buffer_size
                                                           : 1),
      rng_(cfg_.base.seed),
      idle_(populated.size()) {
  FEDBIAD_CHECK(factory != nullptr, "model factory required");
  FEDBIAD_CHECK(test_data_ != nullptr, "test dataset required");
  FEDBIAD_CHECK(strategy_ != nullptr, "strategy required");
  FEDBIAD_CHECK(!populated_.empty(), "every client shard is empty");
  const std::size_t select = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg_.base.selection_fraction *
                                  static_cast<double>(population)));
  FEDBIAD_CHECK(select <= populated_.size(),
                "selection fraction exceeds populated clients");
  // Over-selection: keep ceil(select · factor) clients in flight (per wave
  // under barrier) to hedge against churn and deadline losses.
  select_target_ = select;
  if (hooks_ != nullptr) {
    select_target_ = std::min(
        populated_.size(),
        std::max(select, static_cast<std::size_t>(std::ceil(
                             static_cast<double>(select) *
                             hooks_->over_selection()))));
    // A scenario can starve the server (everything churns): a generous cap
    // turns that into a loud error instead of an endless run.
    dispatch_cap_ =
        (cfg_.base.rounds * std::max(select_target_, per_commit_) + 16) * 64;
  }

  // split() is pure: initialisation draws never disturb the selection
  // stream, which therefore sees the same draws under every driver.
  model_ = factory();
  {
    tensor::Rng init_rng = rng_.split(0xF0F0);
    model_->init_params(init_rng);
  }
  global_.resize(model_->store().size());
  tensor::copy(model_->store().params(), global_);

  result_.strategy = strategy_->name();
  result_.engine = cfg_.engine;
  result_.scenario = cfg_.scenario;
  result_.rounds.reserve(cfg_.base.rounds);
}

std::size_t ServerCore::position(std::size_t client) const {
  return static_cast<std::size_t>(
      std::lower_bound(populated_.begin(), populated_.end(), client) -
      populated_.begin());
}

std::size_t ServerCore::selectable(std::vector<std::size_t>& scan) {
  if (!scan_availability_) return idle_.idle_count();
  scan.clear();
  const double now = driver_.now();
  for (std::size_t i = 0; i < populated_.size(); ++i) {
    if (idle_.is_idle(i) && hooks_->client_available(populated_[i], now)) {
      scan.push_back(populated_[i]);
    }
  }
  return scan.size();
}

std::size_t ServerCore::pick(const std::vector<std::size_t>& scan,
                             std::size_t j) const {
  // The j-th smallest idle populated client is populated[idle.select(j)] —
  // exactly element j of the ascending idle scan, with no O(population)
  // walk when every client is always available.
  return scan_availability_ ? scan[j] : populated_[idle_.select(j)];
}

void ServerCore::dispatch(std::size_t client, std::size_t slot,
                          std::uint64_t stream) {
  if (hooks_ != nullptr) {
    FEDBIAD_CHECK(result_.total_dispatched < dispatch_cap_,
                  "scenario starved the engine (dispatch cap reached)");
  }
  idle_.set_busy(position(client));
  driver_.dispatch(client, slot, stream);
  ++result_.total_dispatched;
}

std::shared_ptr<const wire::Payload> ServerCore::broadcast() {
  if (!broadcast_) {
    // Server→client path: the model broadcast is encoded for real, once
    // per version, and its measured size must match the strategy's oracle.
    broadcast_ = std::make_shared<const wire::Payload>(
        wire::encode_dense_f32(global_));
    downlink_bytes_ = broadcast_->size();
    FEDBIAD_CHECK(downlink_bytes_ == strategy_->downlink_bytes(global_.size()),
                  "measured downlink diverged from the analytic oracle");
  }
  return broadcast_;
}

// Barrier: one synchronized wave per round. Nothing is in flight when a
// wave is drawn, so with no hooks (or always-available ones and
// over_selection = 1) this is sample_without_replacement(populated, select)
// mapped straight onto the populated ids — a synchronous round's draw.
void ServerCore::dispatch_wave() {
  std::vector<std::size_t> scan;
  const std::size_t count = selectable(scan);
  if (count == 0) {
    driver_.retry_later();
    return;
  }
  const std::size_t want = std::min(select_target_, count);
  const auto picks = rng_.sample_without_replacement(count, want);
  // Picks are mapped to clients before dispatching — dispatch mutates the
  // idle set the mapping reads.
  std::vector<std::size_t> chosen;
  chosen.reserve(want);
  for (const auto j : picks) chosen.push_back(pick(scan, j));
  driver_.quiesce();
  strategy_->begin_round(version_ + 1, global_);
  wave_outstanding_ = want;
  std::size_t slot = 0;
  for (const std::size_t c : chosen) dispatch(c, slot++, version_ + 1);
}

// Async modes: keep clients in flight, replacements drawn uniformly from the
// selectable clients. With hooks the server dispatches until the round count
// is reached. Without, it dispatches exactly the uploads the remaining
// commits consume: the budget is rounds × per-commit, plus one replacement
// for every dispatch lost to an abandon or a terminal rejection.
void ServerCore::top_up() {
  const std::size_t budget =
      cfg_.base.rounds * per_commit_ + result_.total_abandoned +
      result_.total_rejected;
  std::vector<std::size_t> scan;
  while (!done() && idle_.busy_count() < select_target_ &&
         (hooks_ != nullptr || result_.total_dispatched < budget)) {
    const std::size_t count = selectable(scan);
    if (count == 0) {
      // Arrivals of in-flight dispatches re-trigger top_up; only a fully
      // idle server needs a scheduled wake-up.
      if (idle_.busy_count() == 0) driver_.retry_later();
      return;
    }
    dispatch(pick(scan, rng_.uniform_index(count)), 0,
             kAsyncStreamBase + result_.total_dispatched);
  }
}

void ServerCore::retry() {
  if (done()) return;
  if (!barrier()) {
    top_up();
  } else if (wave_outstanding_ == 0) {
    dispatch_wave();
  }
}

void ServerCore::arrive(std::size_t client, PendingUpdate update) {
  held_.push_back(std::move(update));
  // The async modes commit every per_commit-th arrival in arrival order
  // (FedAsync: each one); a barrier holds its wave until it is resolved.
  if (!barrier() && held_.size() == per_commit_) {
    commit(std::exchange(held_, {}));
  }
  release_slot(client);
}

void ServerCore::abandon(std::size_t client, std::uint64_t wasted_bytes) {
  ++result_.total_abandoned;
  ++round_.abandoned;
  result_.total_wasted_uplink_bytes += wasted_bytes;
  round_.wasted_uplink_bytes += wasted_bytes;
  release_slot(client);
}

void ServerCore::reject(std::size_t client) {
  ++result_.total_rejected;
  ++round_.rejected;
  release_slot(client);
}

void ServerCore::charge_delivery(std::uint64_t bytes) {
  ++result_.total_rejected_deliveries;
  result_.total_rejected_bytes += bytes;
  round_.rejected_bytes += bytes;
}

void ServerCore::release_slot(std::size_t client) {
  idle_.set_idle(position(client));
  if (!barrier()) {
    top_up();
  } else {
    FEDBIAD_CHECK(wave_outstanding_ > 0, "dispatch resolved outside a wave");
    if (--wave_outstanding_ == 0) finish_wave();
  }
}

void ServerCore::finish_wave() {
  if (held_.empty()) {
    // The entire wave was lost: leave the model untouched and select a
    // fresh wave for the same round. begin_round runs again for that round
    // number, which is fine: the repeat is itself deterministic.
    if (!done()) dispatch_wave();
    return;
  }
  // Selection-slot order makes the aggregation order (and so every float)
  // match a synchronous round whatever order the uploads arrived in.
  std::vector<PendingUpdate> batch = std::exchange(held_, {});
  std::sort(batch.begin(), batch.end(),
            [](const PendingUpdate& a, const PendingUpdate& b) {
              return a.slot < b.slot;
            });
  commit(std::move(batch));
}

void ServerCore::evaluate_into(RoundRecord& rec) {
  const SimulationConfig& base = cfg_.base;
  if (rec.round % base.eval_every == 0 || rec.round == base.rounds) {
    nn::EvalResult eval;
    data::for_each_batch(*test_data_, base.eval_batch_size,
                         [&](const data::Batch& batch) {
                           eval.merge(
                               model_->eval_batch(batch, base.train.topk));
                         });
    rec.test_loss = eval.mean_loss();
    rec.top1 = eval.top1_accuracy();
    rec.topk = eval.topk_accuracy();
  } else if (!result_.rounds.empty()) {
    rec.test_loss = result_.rounds.back().test_loss;
    rec.top1 = result_.rounds.back().top1;
    rec.topk = result_.rounds.back().topk;
  }
}

void ServerCore::commit(std::vector<PendingUpdate> batch) {
  // Async commits fire while other clients are still training, so the
  // driver blocks on that real computation first — outcomes depend only on
  // their dispatch snapshots, so the trajectory is unchanged.
  driver_.quiesce();
  broadcast_.reset();  // the global is about to change; re-encoded on demand
  const auto agg_start = std::chrono::steady_clock::now();
  double staleness_acc = 0.0;
  if (barrier()) {
    // A synchronous round, bit for bit: compact outcomes in selection-slot
    // order through the fused committer under the strategy's rule — per
    // coordinate the double adds land in the same order with the same
    // operands as the tests' dense oracle on the expanded decode
    // (tests/aggregate.hpp; the goldens pin it).
    std::vector<FusedUpdate> fused(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      fused[i].update = &batch[i].outcome.compact;
      fused[i].weight = static_cast<double>(batch[i].outcome.samples);
      fused[i].is_update = batch[i].outcome.is_update;
    }
    sharded_.aggregate(global_, fused, strategy_->aggregation_rule());
  } else {
    staleness_merge(sharded_, global_, batch, cfg_.staleness, version_);
    for (const PendingUpdate& up : batch) {
      staleness_acc += static_cast<double>(version_ - up.dispatch_version);
    }
  }
  const double agg_seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - agg_start)
                                 .count();
  strategy_->end_round(version_ + 1, model_->store().params(), global_);
  tensor::copy(global_, model_->store().params());
  ++version_;
  result_.total_committed += batch.size();

  RoundRecord rec = std::exchange(round_, {});
  rec.round = version_;
  rec.participants = batch.size();
  double loss_acc = 0.0;
  for (const PendingUpdate& up : batch) {
    const ClientOutcome& o = up.outcome;
    loss_acc += o.mean_loss;
    rec.uplink_bytes_total += o.uplink_bytes;
    rec.uplink_bytes_max = std::max(rec.uplink_bytes_max, o.uplink_bytes);
    rec.lttr_seconds = std::max(rec.lttr_seconds, o.train_seconds);
    rec.upload_seconds = std::max(rec.upload_seconds, up.upload_seconds);
    // The download was timed at dispatch on this same broadcast size (one
    // dense f32 frame per version, constant for the run).
    rec.download_seconds = std::max(rec.download_seconds, up.download_seconds);
  }
  rec.train_loss = loss_acc / static_cast<double>(batch.size());
  rec.downlink_bytes = downlink_bytes_;
  rec.aggregate_seconds = agg_seconds;
  rec.clock_seconds = driver_.now();
  rec.mean_staleness = staleness_acc / static_cast<double>(batch.size());
  evaluate_into(rec);

  if (cfg_.base.verbose) {
    std::cerr << "[" << result_.strategy << "] round " << rec.round
              << " train_loss=" << rec.train_loss << " test_acc(top"
              << cfg_.base.train.topk << ")=" << rec.topk << " upload="
              << rec.uplink_bytes_total / rec.participants << "B\n";
  }
  result_.rounds.push_back(rec);

  // Snapshot before the next wave is selected: on resume the restored rng
  // replays the selection below identically.
  const checkpoint::CheckpointConfig& ckpt = cfg_.checkpoint;
  if (ckpt.enabled() &&
      (version_ % ckpt.every_rounds == 0 || version_ == cfg_.base.rounds)) {
    write_checkpoint();
  }

  next_round();
}

void ServerCore::next_round() {
  if (done()) {
    driver_.finished();
  } else if (barrier()) {
    dispatch_wave();
  } else {
    strategy_->begin_round(version_ + 1, global_);
  }
}

// Snapshots the core state at the commit boundary — the one quiescent point:
// the wave is resolved, the commit buffer is empty and the round counters
// were just folded into the RoundRecord. The driver adds whatever it still
// has live (in-flight jobs, pending events, its clock).
void ServerCore::write_checkpoint() {
  FEDBIAD_CHECK(wave_outstanding_ == 0 && held_.empty(),
                "checkpoint outside a quiescent commit boundary");
  checkpoint::EngineSnapshot snap;
  snap.engine = cfg_.engine;
  snap.seed = cfg_.base.seed;
  snap.rounds_target = cfg_.base.rounds;
  snap.param_count = global_.size();
  snap.version = version_;
  snap.dispatched = result_.total_dispatched;
  snap.rng = rng_.state();
  snap.committed = result_.total_committed;
  snap.abandoned = result_.total_abandoned;
  snap.rejected = result_.total_rejected;
  snap.rejected_deliveries = result_.total_rejected_deliveries;
  snap.wasted_uplink_bytes = result_.total_wasted_uplink_bytes;
  snap.rejected_bytes = result_.total_rejected_bytes;
  snap.global = global_;
  snap.rounds = result_.rounds;
  snap.strategy_state = strategy_->save_state();
  driver_.save(snap);
  checkpoint::write_snapshot(cfg_.checkpoint.directory, snap);
  checkpoint::prune(cfg_.checkpoint.directory, cfg_.checkpoint.keep);
}

// Resume restores the newest valid snapshot (torn or corrupt ones are
// skipped); start() then replays the selection the interrupted run made
// right after writing it.
void ServerCore::try_resume() {
  const checkpoint::CheckpointConfig& ckpt = cfg_.checkpoint;
  if (!ckpt.enabled() || !ckpt.resume) return;
  const auto latest = checkpoint::find_latest_valid(ckpt.directory);
  if (!latest) return;
  checkpoint::EngineSnapshot snap = checkpoint::read_snapshot(*latest);
  const std::size_t n = global_.size();
  FEDBIAD_CHECK(snap.engine == cfg_.engine,
                "snapshot was written by a different engine");
  FEDBIAD_CHECK(snap.seed == cfg_.base.seed, "snapshot seed mismatch");
  FEDBIAD_CHECK(snap.rounds_target == cfg_.base.rounds,
                "snapshot round target mismatch");
  FEDBIAD_CHECK(snap.param_count == n && snap.global.size() == n,
                "snapshot model size mismatch");
  FEDBIAD_CHECK(snap.version <= cfg_.base.rounds && snap.version > 0,
                "snapshot version out of range");
  version_ = snap.version;
  rng_.set_state(snap.rng);
  result_.total_dispatched = snap.dispatched;
  result_.total_committed = snap.committed;
  result_.total_abandoned = snap.abandoned;
  result_.total_rejected = snap.rejected;
  result_.total_rejected_deliveries = snap.rejected_deliveries;
  result_.total_wasted_uplink_bytes = snap.wasted_uplink_bytes;
  result_.total_rejected_bytes = snap.rejected_bytes;
  global_ = std::move(snap.global);
  tensor::copy(global_, model_->store().params());
  strategy_->load_state(snap.strategy_state);
  result_.rounds = std::move(snap.rounds);
  // The broadcast size is set on the first dispatch of a version; a commit
  // fed purely by restored in-flight arrivals would otherwise report 0. It
  // is a pure function of the model, so restore it from the oracle.
  downlink_bytes_ = strategy_->downlink_bytes(n);
  for (const checkpoint::JobSnapshot& js : snap.jobs) {
    idle_.set_busy(position(static_cast<std::size_t>(js.client)));
  }
  driver_.restore(snap);
}

void ServerCore::start() {
  try_resume();
  next_round();
  if (!barrier()) top_up();
}

SimulationResult ServerCore::take_result() {
  result_.final_in_flight = idle_.busy_count();
  result_.final_buffered = held_.size();
  result_.final_params = std::move(global_);
  return std::move(result_);
}

}  // namespace fedbiad::fl
