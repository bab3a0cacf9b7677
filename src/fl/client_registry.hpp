// Population-scale client bookkeeping for the event-driven engine.
//
// The engine used to pay O(registered clients) twice per run: an eagerly
// drawn netsim profile for every client, and an append-only job deque that
// kept every dispatch's full record (snapshot pointer, future, pending
// update, event ids) alive until the end of the run. Both are fatal at a
// million registered clients with ten thousand in flight.
//
// ClientRegistry replaces them with O(active) state:
//
//   profiles   are materialized lazily. draw_profile consumes exactly three
//              uniforms per client (the contract documented in
//              netsim/client_profile.hpp), so client i's profile is a pure
//              function of the profile stream advanced 3·i draws. The
//              registry snapshots the stream every kProfileStride clients
//              (only as far as it has ever been asked to look) and replays
//              at most a stride per lookup; a homogeneous config needs no
//              draws at all — every profile is exactly the base profile,
//              the same floats make_profiles would have produced, because
//              exp(u·log 1) == 1 exactly for every u.
//
//   ClientState (the engine's per-dispatch record, the old Job struct) is
//              pooled: acquire() hands out a recycled, value-initialized
//              record with a stable address, release() reclaims it. Peak
//              pool size tracks peak concurrency, not total dispatches.
//
// Selection state is O(in-flight) too: fl::ServerCore draws from an IdleSet
// (fl/server_core.hpp) that stores only the busy positions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fl/server_core.hpp"
#include "fl/scheduler.hpp"
#include "netsim/client_profile.hpp"
#include "tensor/rng.hpp"

namespace fedbiad::fl {

/// One in-flight dispatch: everything the engine tracks from dispatch to
/// resolution. Pool-managed by ClientRegistry — scheduler events and pool
/// tasks hold ClientState* across engine steps, so addresses are stable
/// for the lifetime of the lease.
struct ClientState {
  std::size_t client = 0;
  std::size_t slot = 0;
  std::size_t version = 0;
  double dispatch_clock = 0.0;
  double download_s = 0.0;
  double compute_s = 0.0;
  /// Global params at dispatch — shared by every dispatch of the same
  /// version (the global only changes at commits, so one copy per version).
  std::shared_ptr<const std::vector<float>> snapshot;
  // shared_future so checkpointing can peek at the completed outcome
  // without consuming the shared state the training event still needs.
  std::shared_future<ClientOutcome> future;
  std::unique_ptr<PendingUpdate> pending;  ///< set once the upload starts
  // Scenario state (inert without hooks): the per-dispatch churn draw,
  // when the upload started (wasted-byte accounting at the deadline), and
  // the cancellable events racing over this dispatch's fate. For a churned
  // dispatch arrival_event holds the scheduled mid-upload abandon instead —
  // an arrival is never scheduled for it.
  bool churn_fails = false;
  double churn_fraction = 0.0;
  double upload_start = 0.0;
  EventScheduler::EventId training_event = EventScheduler::kNoEvent;
  EventScheduler::EventId arrival_event = EventScheduler::kNoEvent;
  EventScheduler::EventId deadline_event = EventScheduler::kNoEvent;
  // Fault/checkpoint state: the global dispatch counter at dispatch (the
  // key every fault draw is made under), the 1-based delivery attempt,
  // absolute times of the pending arrival/duplicate events (checkpoints
  // store absolute times, so they are kept rather than re-derived), the
  // churn-abandon wasted bytes, and the sealed frame size a pending
  // duplicate delivery will be charged at.
  std::size_t dispatch_index = 0;
  std::size_t attempt = 1;
  double arrival_time = 0.0;
  double duplicate_time = 0.0;
  std::uint64_t churn_wasted = 0;
  std::uint64_t framed_bytes = 0;
  EventScheduler::EventId duplicate_event = EventScheduler::kNoEvent;
  /// Set when the dispatch is otherwise resolved but a scheduled duplicate
  /// delivery still holds a pointer to this record: the duplicate's
  /// charge-and-drop handler performs the release instead of the engine.
  bool release_on_duplicate = false;
};

class ClientRegistry {
 public:
  /// Profile stream snapshots are taken every this many clients: a lookup
  /// replays at most kProfileStride - 1 skipped profiles (3 draws each).
  static constexpr std::size_t kProfileStride = 512;

  /// `profile_rng` must be the same split the eager engine fed to
  /// make_profiles; profile(i) then reproduces make_profiles(...)[i]
  /// bit for bit (tests/test_scale.cpp pins this).
  ClientRegistry(std::size_t population, netsim::HeterogeneityConfig
                 heterogeneity, netsim::LinkModel base_link,
                 tensor::Rng profile_rng);

  ClientRegistry(const ClientRegistry&) = delete;
  ClientRegistry& operator=(const ClientRegistry&) = delete;

  [[nodiscard]] std::size_t population() const noexcept { return population_; }

  /// Client i's device profile, materialized on demand.
  [[nodiscard]] netsim::ClientProfile profile(std::size_t client);

  /// Leases a value-initialized ClientState with a stable address.
  [[nodiscard]] ClientState* acquire();

  /// Returns a lease to the pool. The record is reset to a fresh
  /// ClientState immediately — a recycled lease is indistinguishable from a
  /// never-used one. The caller must guarantee no event or task still
  /// dereferences it.
  void release(ClientState* state);

  /// Invokes fn(ClientState&) for every currently leased record, in lease-
  /// slot order (stable across calls while the set is unchanged).
  template <typename Fn>
  void for_each_active(Fn&& fn) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (in_use_[i]) fn(pool_[i]);
    }
  }

  /// Records currently leased.
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  /// High-water mark of simultaneously leased records — the bound the
  /// scale tests assert stays at in-flight concurrency, not dispatches.
  [[nodiscard]] std::size_t peak_active() const noexcept {
    return peak_active_;
  }
  /// Records ever materialized (pool capacity).
  [[nodiscard]] std::size_t materialized() const noexcept {
    return pool_.size();
  }

 private:
  std::size_t population_;

  // Lazy profile materializer.
  netsim::HeterogeneityConfig heterogeneity_;
  netsim::LinkModel base_link_;
  bool homogeneous_;
  netsim::ClientProfile base_profile_;  ///< the homogeneous fast path
  tensor::Rng profile_cursor_;          ///< positioned after client next_
  std::size_t next_ = 0;                ///< clients the cursor has consumed
  std::vector<tensor::Rng::State> stride_states_;
  std::size_t memo_client_ = 0;  ///< one-entry memo (hot repeat lookups)
  netsim::ClientProfile memo_profile_;
  bool memo_valid_ = false;

  // ClientState pool. std::deque keeps addresses stable across growth.
  std::deque<ClientState> pool_;
  std::vector<bool> in_use_;
  std::vector<std::size_t> free_;
  std::unordered_map<const ClientState*, std::size_t> slot_of_;
  std::size_t active_ = 0;
  std::size_t peak_active_ = 0;
};

}  // namespace fedbiad::fl
