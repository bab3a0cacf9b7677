#include "fl/async_simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <ranges>
#include <utility>

#include "common/check.hpp"
#include "fl/client_registry.hpp"
#include "fl/scheduler.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "wire/compact.hpp"

namespace fedbiad::fl {

/// ServerCore's virtual-clock driver: events on an EventScheduler, client
/// training on a thread pool, scenario churn and delivery faults, zombie
/// jobs, and the job/event half of every snapshot. Every server decision is
/// the core's.
class AsyncSimulation::Driver final : public ServerDriver {
 public:
  explicit Driver(const AsyncSimulation& sim)
      : sim_(sim),
        base_(sim.cfg_.base),
        hooks_(sim.cfg_.hooks.get()),
        deadline_(hooks_ != nullptr ? hooks_->deadline_seconds() : 0.0),
        faulty_(hooks_ != nullptr && hooks_->faults_enabled()),
        retry_policy_(faulty_ ? hooks_->retry_policy() : RetryPolicy{}),
        client_rng_base_(base_.seed),
        registry_(sim.population_, sim.cfg_.heterogeneity, base_.link,
                  tensor::Rng(base_.seed).split(0xA11C)),
        core_(ServerCoreConfig{.base = base_,
                               .mode = sim.cfg_.mode,
                               .staleness = sim.cfg_.staleness,
                               .buffer_size = sim.cfg_.buffer_size,
                               .checkpoint = sim.cfg_.checkpoint,
                               .engine = to_string(sim.cfg_.mode),
                               .scenario = sim.cfg_.scenario_name,
                               .hooks = hooks_},
              *this, sim.factory_, sim.test_data_, sim.populated_,
              sim.population_, sim.strategy_),
        pool_(base_.threads) {
    replicas_.resize(pool_.size());
    for (auto& r : replicas_) {
      r = sim.factory_();
      free_replicas_.push_back(r.get());
    }
  }

  SimulationResult run() {
    core_.start();
    while (!core_.done() && sched_.run_next()) {
    }
    FEDBIAD_CHECK(core_.done(), "event queue drained early");
    registry_.for_each_active([](Job& job) {
      if (job.future.valid()) job.future.wait();
    });
    SimulationResult result = core_.take_result();
    result.peak_in_flight_states = registry_.peak_active();
    result.materialized_states = registry_.materialized();
    return result;
  }

  [[nodiscard]] double now() const override { return sched_.now(); }

  void dispatch(std::size_t client, std::size_t slot,
                std::uint64_t rng_stream) override {
    Job& job = *registry_.acquire();
    job.client = client;
    job.slot = slot;
    job.version = core_.version();
    job.dispatch_clock = sched_.now();
    job.dispatch_index = core_.dispatched();
    if (hooks_ != nullptr) {
      // Keyed on the global dispatch counter: a re-dispatched client gets
      // an independent draw, and the draw never touches the selection
      // stream.
      const ChurnDecision churn = hooks_->churn(client, job.dispatch_index);
      job.churn_fails = churn.fails;
      job.churn_fraction = churn.fraction;
    }
    const netsim::ClientProfile prof = registry_.profile(client);
    const auto broadcast = core_.broadcast();
    if (!snapshot_ || snapshot_version_ != core_.version()) {
      // Clients train on the decoded broadcast. f32 sections are lossless,
      // so the snapshot is bit-identical to the global. The last version's
      // copy goes first, so two are never held at once.
      snapshot_.reset();
      std::vector<float> snapshot(core_.layout().size());
      wire::decode_dense_f32(broadcast->bytes, snapshot);
      snapshot_ =
          std::make_shared<const std::vector<float>>(std::move(snapshot));
      snapshot_version_ = core_.version();
    }
    job.download_s = prof.download_seconds(broadcast->size());
    const double samples = static_cast<double>(
        std::min<std::size_t>(base_.train.batch_size, shard_of(client).size()));
    job.compute_s = prof.compute_seconds(
        static_cast<double>(base_.train.local_iterations) * samples *
        sim_.strategy_->compute_cost_multiplier());
    job.snapshot = snapshot_;
    busy_[client] = &job;
    const std::size_t round = core_.version() + 1;
    const tensor::Rng ctx_rng =
        client_rng_base_.split(0x1000 + client).split(rng_stream);
    Job* jp = &job;
    job.future = pool_.submit([this, jp, client, round, ctx_rng] {
      nn::Model* replica = nullptr;
      {
        std::scoped_lock lock(replica_mutex_);
        FEDBIAD_CHECK(!free_replicas_.empty(), "replica lease exhausted");
        replica = free_replicas_.back();
        free_replicas_.pop_back();
      }
      tensor::copy(*jp->snapshot, replica->store().params());
      ClientContext ctx{
          .client_id = client,
          .round = round,
          .model = *replica,
          .global_params = *jp->snapshot,
          .dataset = *sim_.train_data_,
          .shard = shard_of(client),
          .settings = base_.train,
          .rng = ctx_rng,
          .model_version = jp->version,
          .dispatch_clock = jp->dispatch_clock,
          .deadline_seconds = deadline_,
      };
      const auto start = std::chrono::steady_clock::now();
      ClientOutcome out = sim_.strategy_->run_client(ctx);
      out.train_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      out.client_id = client;
      {
        std::scoped_lock lock(replica_mutex_);
        free_replicas_.push_back(replica);
      }
      return out;
    }).share();
    schedule(checkpoint::EventKind::kTraining, job,
             job.dispatch_clock + (job.download_s + job.compute_s));
    if (deadline_ > 0.0) {
      // Scheduled at dispatch, so its id is lower than any arrival event
      // (those are scheduled at training-done): at an exactly-equal
      // timestamp the deadline runs first and the arrival is abandoned —
      // the cutoff is strict.
      schedule(checkpoint::EventKind::kDeadline, job,
               job.dispatch_clock + deadline_);
    }
  }

  // The Strategy contract says server hooks never overlap run_client. A job
  // abandoned before its training event ran still has run_client executing
  // on the pool; in-flight jobs of an async commit may too. Block on both
  // (real time only); the zombies' outcomes are discarded. Outcomes depend
  // only on their dispatch snapshots, so the trajectory is unchanged.
  void quiesce() override {
    for (Job* jp : zombies_) {
      if (jp->future.valid()) jp->future.wait();
      registry_.release(jp);
    }
    zombies_.clear();
    for (Job* jp : std::views::values(busy_)) {
      if (jp->future.valid()) jp->future.wait();
    }
  }

  void retry_later() override {
    if (retry_scheduled_) return;
    double t = std::numeric_limits<double>::infinity();
    for (const std::size_t k : sim_.populated_) {
      if (busy_.find(k) == busy_.end()) {
        t = std::min(t, hooks_->next_available_time(k, sched_.now()));
      }
    }
    // The core only asks when nobody is available *now*, so a correct hook
    // returns a strictly later time — anything else would spin the virtual
    // clock in place.
    FEDBIAD_CHECK(std::isfinite(t) && t > sched_.now(),
                  "scenario never makes another client available");
    retry_scheduled_ = true;
    sched_.schedule_at(t, [this] {
      retry_scheduled_ = false;
      core_.retry();
    });
  }

  // The engine's half of a snapshot, taken at the core's commit boundary:
  // zombies are drained and every in-flight job's real computation is done
  // (commits quiesce first), so what remains live — in-flight outcomes and
  // the pending timeline — is serialized; events are stored sorted by their
  // original scheduler id so resume reproduces the equal-time tie-break.
  void save(checkpoint::EngineSnapshot& snap) override {
    using checkpoint::EventKind;
    FEDBIAD_CHECK(zombies_.empty() && !retry_scheduled_,
                  "checkpoint outside a quiescent commit boundary");
    snap.clock = sched_.now();
    std::vector<std::pair<EventScheduler::EventId, checkpoint::EventSnapshot>>
        events;
    for (Job* jp : std::views::values(busy_)) {
      if (jp->future.valid()) jp->future.wait();
      const std::uint64_t index = snap.jobs.size();
      checkpoint::JobSnapshot js;
      js.client = jp->client;
      js.slot = jp->slot;
      js.version = jp->version;
      js.dispatch_index = jp->dispatch_index;
      js.attempt = jp->attempt;
      js.dispatch_clock = jp->dispatch_clock;
      js.download_seconds = jp->download_s;
      js.compute_seconds = jp->compute_s;
      js.upload_start = jp->upload_start;
      js.churn_fails = jp->churn_fails;
      js.churn_fraction = jp->churn_fraction;
      js.has_pending = jp->pending != nullptr;
      const ClientOutcome& out =
          js.has_pending ? jp->pending->outcome : jp->future.get();
      js.samples = out.samples;
      js.is_update = out.is_update;
      js.payload = out.payload;
      js.train_seconds = out.train_seconds;
      js.mean_loss = out.mean_loss;
      js.last_loss = out.last_loss;
      snap.jobs.push_back(std::move(js));
      if (jp->training_event != EventScheduler::kNoEvent) {
        events.push_back(
            {jp->training_event,
             {EventKind::kTraining, index,
              jp->dispatch_clock + (jp->download_s + jp->compute_s), 0}});
      }
      if (jp->arrival_event != EventScheduler::kNoEvent) {
        events.push_back(
            {jp->arrival_event,
             {jp->churn_fails ? EventKind::kChurnAbandon : EventKind::kDelivery,
              index, jp->arrival_time, jp->churn_wasted}});
      }
      if (jp->deadline_event != EventScheduler::kNoEvent) {
        events.push_back({jp->deadline_event,
                          {EventKind::kDeadline, index,
                           jp->dispatch_clock + deadline_, 0}});
      }
    }
    // Duplicate deliveries outlive their dispatch's resolution; their
    // records stay leased (release deferred to the duplicate handler), so
    // scanning the active leases finds exactly them — dormant clients have
    // no record at all and are never serialized.
    registry_.for_each_active([&](Job& job) {
      if (job.duplicate_event != EventScheduler::kNoEvent) {
        events.push_back({job.duplicate_event,
                          {EventKind::kDuplicate, checkpoint::kNoJob,
                           job.duplicate_time, job.framed_bytes}});
      }
    });
    FEDBIAD_CHECK(events.size() == sched_.pending(),
                  "checkpoint lost track of pending events");
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    snap.events.reserve(events.size());
    for (const auto& [id, ev] : events) snap.events.push_back(ev);
  }

  // Rebuilds the in-flight jobs and re-schedules their events in original-
  // id order: fresh ids are assigned ascending, so the relative order — the
  // equal-time tie-break — is preserved, and events created by the replayed
  // post-commit dispatch sort after them exactly as in the uninterrupted
  // run.
  void restore(checkpoint::EngineSnapshot& snap) override {
    sched_.set_now(snap.clock);
    // Snapshot events reference jobs by index in snap.jobs; the leased
    // records are collected in that order so the indices resolve.
    std::vector<Job*> restored;
    restored.reserve(snap.jobs.size());
    for (checkpoint::JobSnapshot& js : snap.jobs) {
      Job& job = *registry_.acquire();
      restored.push_back(&job);
      job.client = static_cast<std::size_t>(js.client);
      job.slot = static_cast<std::size_t>(js.slot);
      job.version = static_cast<std::size_t>(js.version);
      job.dispatch_index = static_cast<std::size_t>(js.dispatch_index);
      job.attempt = static_cast<std::size_t>(js.attempt);
      job.dispatch_clock = js.dispatch_clock;
      job.download_s = js.download_seconds;
      job.compute_s = js.compute_seconds;
      job.upload_start = js.upload_start;
      job.churn_fails = js.churn_fails;
      job.churn_fraction = js.churn_fraction;
      ClientOutcome out;
      out.client_id = job.client;
      out.samples = static_cast<std::size_t>(js.samples);
      out.is_update = js.is_update;
      out.payload = std::move(js.payload);
      out.train_seconds = js.train_seconds;
      out.mean_loss = js.mean_loss;
      out.last_loss = js.last_loss;
      if (js.has_pending) {
        job.pending = make_pending(job, std::move(out));
      } else {
        // Training never re-runs (run_client mutates per-client strategy
        // state); the completed outcome waits behind a ready future for the
        // training event to consume as if the pool had just finished.
        std::promise<ClientOutcome> ready;
        ready.set_value(std::move(out));
        job.future = ready.get_future().share();
      }
      busy_[job.client] = &job;
    }
    for (const checkpoint::EventSnapshot& ev : snap.events) {
      if (ev.kind == checkpoint::EventKind::kDuplicate) {
        // Carried by a fresh leased record so a later checkpoint of the
        // resumed run finds it in the duplicate scan; the handler releases
        // it once the duplicate is charged.
        Job& dup = *registry_.acquire();
        dup.release_on_duplicate = true;
        schedule(ev.kind, dup, ev.time, ev.aux);
        continue;
      }
      FEDBIAD_CHECK(ev.job_index < restored.size(),
                    "snapshot event references a missing job");
      schedule(ev.kind, *restored[ev.job_index], ev.time, ev.aux);
    }
  }

 private:
  // One pool-leased record per in-flight dispatch (the registry keeps
  // addresses stable, so scheduler events and pool tasks can hold Job*).
  // Acquired at dispatch, released the moment the dispatch resolves.
  using Job = ClientState;

  [[nodiscard]] const std::vector<std::size_t>& shard_of(
      std::size_t client) const {
    // Shards are stored compacted, aligned with the ascending populated
    // ids, so a client's shard sits at its lower_bound rank. Read-only, so
    // safe from pool tasks too.
    const auto& ids = sim_.populated_;
    return sim_.shards_[static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), client) - ids.begin())];
  }

  std::unique_ptr<PendingUpdate> make_pending(const Job& job,
                                              ClientOutcome out) {
    auto up = std::make_unique<PendingUpdate>();
    up->slot = job.slot;
    up->dispatch_version = job.version;
    up->download_seconds = job.download_s;
    // Link timing runs on the measured size of the encoded buffer — the
    // payload is what travels, so its byte count is what the uplink
    // carries.
    up->upload_seconds =
        registry_.profile(job.client).upload_seconds(out.payload.size());
    up->outcome = std::move(out);
    return up;
  }

  // Every timeline event of a job is scheduled here — as the job progresses
  // and when a snapshot is restored — so a resumed run re-creates exactly
  // the callbacks the interrupted one had pending.
  void schedule(checkpoint::EventKind kind, Job& job, double time,
                std::uint64_t aux = 0) {
    Job* jp = &job;
    switch (kind) {
      case checkpoint::EventKind::kTraining:
        job.training_event =
            sched_.schedule_at(time, [this, jp] { on_training_done(*jp); });
        return;
      case checkpoint::EventKind::kDelivery:
        job.arrival_time = time;
        job.arrival_event =
            sched_.schedule_at(time, [this, jp] { deliver(*jp); });
        return;
      case checkpoint::EventKind::kChurnAbandon:
        job.arrival_time = time;
        job.churn_wasted = aux;
        job.arrival_event =
            sched_.schedule_at(time, [this, jp, aux] { abandon(*jp, aux); });
        return;
      case checkpoint::EventKind::kDeadline:
        job.deadline_event =
            sched_.schedule_at(time, [this, jp] { on_deadline(*jp); });
        return;
      case checkpoint::EventKind::kDuplicate:
        // A stray duplicate delivery: charged, never aggregated. When the
        // dispatch already resolved, arrive() deferred the record's release
        // to this handler (it holds the last pointer to it).
        job.duplicate_time = time;
        job.framed_bytes = aux;
        job.duplicate_event = sched_.schedule_at(time, [this, jp] {
          jp->duplicate_event = EventScheduler::kNoEvent;
          core_.charge_delivery(jp->framed_bytes);
          if (jp->release_on_duplicate) registry_.release(jp);
        });
        return;
    }
  }

  void on_training_done(Job& job) {
    job.training_event = EventScheduler::kNoEvent;
    ClientOutcome out = job.future.get();
    out.client_id = job.client;
    // The pool task is done with the snapshot; drop this job's reference.
    job.snapshot.reset();
    if (faulty_) {
      // The CRC trailer travels with the frame, so it is sealed onto the
      // payload *before* link timing is measured from the byte count.
      wire::seal_payload(out.payload);
    }
    job.pending = make_pending(job, std::move(out));
    job.upload_start = sched_.now();
    const double upload = job.pending->upload_seconds;
    if (!job.churn_fails) {
      schedule(checkpoint::EventKind::kDelivery, job, sched_.now() + upload);
      return;
    }
    // Resolve the dispatch-time churn draw now that the full timeline is
    // known: the client dies `fraction` of the way through
    // download + compute + upload. Its upload never arrives.
    const double total = job.download_s + job.compute_s + upload;
    const double fail_t = job.dispatch_clock + job.churn_fraction * total;
    if (fail_t <= sched_.now()) {
      // Died during download or compute: nothing reached the server.
      abandon(job, 0);
      return;
    }
    const double frac = (fail_t - sched_.now()) / upload;
    schedule(checkpoint::EventKind::kChurnAbandon, job, fail_t,
             static_cast<std::uint64_t>(
                 static_cast<double>(job.pending->outcome.payload.size()) *
                 frac));
  }

  void on_deadline(Job& job) {
    job.deadline_event = EventScheduler::kNoEvent;
    std::uint64_t wasted = 0;
    if (job.pending && job.pending->upload_seconds > 0.0) {
      // The upload was in progress: the bytes already pushed are wasted.
      const double frac = std::clamp(
          (sched_.now() - job.upload_start) / job.pending->upload_seconds,
          0.0, 1.0);
      wasted = static_cast<std::uint64_t>(
          static_cast<double>(job.pending->outcome.payload.size()) * frac);
    }
    abandon(job, wasted);
  }

  void abandon(Job& job, std::uint64_t wasted) {
    // Do NOT release the record while training is still running: the pool
    // task dereferences its snapshot. Such zombies are parked and released
    // by quiesce() once their real computation drains. cancel() of an
    // already-run or kNoEvent id is a no-op, so cancelling all three races
    // is always safe. An abandoned dispatch never delivered, so it can have
    // no pending duplicate holding the record either.
    const bool training_live = sched_.cancel(job.training_event);
    if (training_live) zombies_.push_back(&job);
    sched_.cancel(job.arrival_event);
    sched_.cancel(job.deadline_event);
    job.training_event = EventScheduler::kNoEvent;
    job.arrival_event = EventScheduler::kNoEvent;
    job.deadline_event = EventScheduler::kNoEvent;
    job.pending.reset();
    const std::size_t client = job.client;
    busy_.erase(client);
    if (!training_live) registry_.release(&job);
    core_.abandon(client, wasted);
  }

  // Delivery inspection: runs when an upload's last byte lands. Without
  // faults it is exactly the plain arrival. With faults it materializes the
  // (client, dispatch, attempt)-keyed fault draw on the sealed frame: a
  // corrupt delivery must fail the CRC check (proven, not assumed), is
  // charged to the delivery ledger, and is either retried after seeded
  // exponential backoff or — retry budget drained — terminally rejected. An
  // intact delivery may additionally spawn a duplicate of itself; the
  // duplicate arrives later, finds the dispatch already resolved, and is
  // dropped (charged, never aggregated) — updates are committed at most
  // once by construction.
  void deliver(Job& job) {
    job.arrival_event = EventScheduler::kNoEvent;
    if (!faulty_) {
      arrive(job);
      return;
    }
    const DeliveryFault fault =
        hooks_->delivery_fault(job.client, job.dispatch_index, job.attempt);
    const std::uint64_t framed = job.pending->outcome.payload.size();
    if (!fault.corrupt) {
      if (fault.duplicate) {
        schedule(checkpoint::EventKind::kDuplicate, job,
                 sched_.now() + fault.duplicate_lag * job.pending->upload_seconds,
                 framed);
      }
      arrive(job);
      return;
    }
    // Damage a copy of the frame and prove the CRC layer rejects it —
    // CRC32C detects every single-bit flip and every truncation the
    // injector can produce, so a pass here would mean the frame check is
    // broken, which is worth dying loudly over.
    ClientOutcome probe;
    probe.client_id = job.client;
    probe.payload = job.pending->outcome.payload;
    std::uint64_t delivered = framed;
    if (fault.truncate) {
      const auto cut = static_cast<std::size_t>(
          fault.position * static_cast<double>(framed - 1));
      probe.payload.bytes = probe.payload.bytes.slice(0, cut);
      delivered = cut;
    } else {
      const auto bit = std::min<std::size_t>(
          static_cast<std::size_t>(fault.position *
                                   static_cast<double>(framed * 8)),
          framed * 8 - 1);
      std::vector<std::uint8_t> damaged(probe.payload.bytes.begin(),
                                        probe.payload.bytes.end());
      damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      probe.payload.bytes = std::move(damaged);
    }
    const DecodeStatus status = try_decode_outcome_compact(
        *sim_.strategy_, core_.layout(), probe, /*framed=*/true,
        DecodeContext{job.client, job.dispatch_index, sched_.now(),
                      /*sealed_crc=*/std::nullopt});
    FEDBIAD_CHECK(!status.ok, "injected corruption slipped past the CRC frame");
    core_.charge_delivery(delivered);
    if (job.attempt < retry_policy_.max_attempts) {
      const std::size_t attempt = job.attempt;  // the one that just failed
      ++job.attempt;
      double backoff = retry_policy_.backoff_seconds *
                       std::pow(retry_policy_.backoff_multiplier,
                                static_cast<double>(attempt - 1));
      const double u =
          hooks_->retry_jitter(job.client, job.dispatch_index, attempt);
      backoff *= 1.0 + retry_policy_.jitter_fraction * (2.0 * u - 1.0);
      // The client retransmits the same frame after the backoff; the
      // deadline event (if any) stays armed, so a retry can still be cut
      // off and abandoned like any slow upload.
      job.upload_start = sched_.now() + backoff;
      schedule(checkpoint::EventKind::kDelivery, job,
               job.upload_start + job.pending->upload_seconds);
      return;
    }
    sched_.cancel(job.deadline_event);
    job.deadline_event = EventScheduler::kNoEvent;
    job.pending.reset();
    const std::size_t client = job.client;
    busy_.erase(client);
    // Terminal rejection resolves the dispatch; duplicates only spawn from
    // intact deliveries, so nothing else can hold this record.
    registry_.release(&job);
    core_.reject(client);
  }

  void arrive(Job& job) {
    busy_.erase(job.client);
    if (hooks_ != nullptr) sched_.cancel(job.deadline_event);
    PendingUpdate up = std::move(*job.pending);
    job.pending.reset();
    // The upload has arrived: decode the payload on the engine thread into
    // the compact O(transmitted) view the fused committer consumes, record
    // the measured uplink size, and drop the raw bytes. Abandoned uploads
    // never reach this point, so their bytes are only ever counted in the
    // wasted-uplink ledger. Fault sessions decode through the non-throwing
    // path — deliver() only forwards frames whose CRC verifies, so a
    // failure here is engine corruption, not client noise.
    if (faulty_) {
      const DecodeStatus status = try_decode_outcome_compact(
          *sim_.strategy_, core_.layout(), up.outcome, /*framed=*/true,
          DecodeContext{job.client, job.dispatch_index, sched_.now(),
                        /*sealed_crc=*/std::nullopt});
      FEDBIAD_CHECK(status.ok, status.error);
    } else {
      decode_outcome_compact(*sim_.strategy_, core_.layout(), up.outcome);
    }
    up.outcome.payload.bytes = {};
    const std::size_t client = job.client;
    // The dispatch is resolved; retire its record. A scheduled duplicate
    // delivery may still hold a pointer — hand the release to its handler.
    if (job.duplicate_event != EventScheduler::kNoEvent) {
      job.release_on_duplicate = true;
    } else {
      registry_.release(&job);
    }
    core_.arrive(client, std::move(up));
  }

  const AsyncSimulation& sim_;
  const SimulationConfig& base_;
  // Scenario extension points. Every scenario branch is guarded by
  // hooks_ != nullptr: with no hooks configured the engine consumes exactly
  // the same rng draws and schedules exactly the same events as before the
  // scenario layer existed (the golden traces pin this).
  EngineHooks* hooks_;
  double deadline_;
  // Transport faults: with a faults block configured every upload is CRC
  // framed, deliveries can corrupt/truncate/duplicate, and corrupt frames
  // are retried under the scenario's backoff policy. Disabled, the delivery
  // path is byte-identical to the fault-free engine.
  bool faulty_;
  RetryPolicy retry_policy_;
  tensor::Rng client_rng_base_;
  // The registry materializes device profiles lazily from a split of the
  // base seed (never from the selection stream, which must see exactly the
  // homogeneous fleet's draws whatever the heterogeneity config), and pools the
  // per-dispatch ClientState records, so steady-state engine memory is
  // O(in-flight), not O(registered).
  ClientRegistry registry_;
  ServerCore core_;
  EventScheduler sched_;
  // The decoded model broadcast, shared by every dispatch of one version.
  std::shared_ptr<const std::vector<float>> snapshot_;
  std::size_t snapshot_version_ = 0;
  std::map<std::size_t, Job*> busy_;  ///< in-flight jobs, ascending client
  std::vector<Job*> zombies_;         ///< abandoned while still training
  bool retry_scheduled_ = false;      ///< one pending availability retry
  std::vector<std::unique_ptr<nn::Model>> replicas_;
  std::vector<nn::Model*> free_replicas_;
  std::mutex replica_mutex_;
  // Declared last: worker tasks reference the leased records, the replicas,
  // the free list and its mutex, so the pool's destructor — which drains
  // queued tasks and joins — must run before any of them die, even on an
  // exceptional unwind.
  parallel::ThreadPool pool_;
};

AsyncSimulation::AsyncSimulation(AsyncSimulationConfig cfg,
                                 nn::ModelFactory factory,
                                 data::DatasetPtr train_data,
                                 data::DatasetPtr test_data,
                                 data::Partition partition,
                                 StrategyPtr strategy)
    : cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      train_data_(std::move(train_data)),
      test_data_(std::move(test_data)),
      population_(partition.size()),
      strategy_(std::move(strategy)) {
  FEDBIAD_CHECK(factory_ != nullptr, "model factory required");
  FEDBIAD_CHECK(train_data_ && test_data_, "datasets required");
  FEDBIAD_CHECK(strategy_ != nullptr, "strategy required");
  FEDBIAD_CHECK(population_ > 0, "need at least one client");
  // Compact the partition: keep only populated shards (see the member
  // comment) and let the dense vector die with the parameter.
  for (std::size_t k = 0; k < partition.size(); ++k) {
    if (partition[k].empty()) continue;
    populated_.push_back(k);
    shards_.push_back(std::move(partition[k]));
  }
  FEDBIAD_CHECK(cfg_.staleness.mixing_rate > 0.0 &&
                    cfg_.staleness.mixing_rate <= 1.0,
                "staleness mixing rate must be in (0, 1]");
  FEDBIAD_CHECK(cfg_.staleness.exponent >= 0.0,
                "staleness exponent must be non-negative");
  FEDBIAD_CHECK(cfg_.buffer_size > 0, "buffer size must be positive");
  FEDBIAD_CHECK(!cfg_.checkpoint.enabled() || (cfg_.checkpoint.every_rounds > 0 &&
                                               cfg_.checkpoint.keep > 0),
                "checkpoint cadence and retention must be positive");
}

SimulationResult AsyncSimulation::run() { return Driver(*this).run(); }

}  // namespace fedbiad::fl
